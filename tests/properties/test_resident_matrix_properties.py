"""Property test for the resident CDF matrix (``batch_probability_by``).

The estimator re-derives only the rows the repository's change log names
and patches them into a matrix it keeps; the design it replaced walked
the whole fleet whenever the repository version moved.  For any
interleaving of writes, membership changes and queries the two must
agree **exactly** (``==``) — same floats, same hit/miss accounting — so
the whole-fleet walk is kept here as the reference implementation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import QueueScaledEstimator, ResponseTimeEstimator
from repro.core.repository import InformationRepository

NAMES = ["r1", "r2", "r3", "r4"]
names = st.sampled_from(NAMES)
name_lists = st.lists(names, unique=True, min_size=1)  # a subset, in any order

# One drawn step: its kind plus every field any kind reads.  Writes and
# queries dominate; membership changes (each a full rebuild) are the rare
# event they are in a run.
KINDS = (
    ["perf"] * 8 + ["gateway"] * 4 + ["queue"] * 3 + ["query"] * 10
    + ["add", "remove", "sync"]  # a push after "remove" re-joins afresh
)
steps = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "name": names,
        "names": name_lists,
        # A query mostly passes the caller's usual ``repository.replicas()``,
        # so the matrix stays resident between membership changes.
        "subset": st.sampled_from([False] * 5 + [True]),
        # A wide range makes supports outgrow the matrix as windows fill;
        # the repeated values shrink them again when a duplicate slides in.
        "service": st.one_of(
            st.sampled_from([100.0, 100.4, 250.0]),
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        ),
        "delay": st.one_of(
            st.sampled_from([0.0, 20.0]),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
        "depth": st.integers(min_value=0, max_value=9),
        "deadline": st.sampled_from([-5.0, 0.0, 40.0, 120.5, 300.0, 10_000.0]),
        "both": st.booleans(),  # whether the second, slower consumer also asks
    }
)


def whole_fleet_walk(estimator_cls):
    """``estimator_cls`` with the batch path of the parent design."""

    class WholeFleetWalk(estimator_cls):
        _gate = None
        _pmfs = ()

        def batch_probability_by(self, replicas, deadline_ms):
            gate = (tuple(replicas), self.repository.version)
            if gate != self._gate:
                if len(replicas) > 1:
                    self._refresh_convolutions(replicas)
                self._pmfs = [self.response_time_pmf(r) for r in replicas]
                self._gate = gate
            return [
                None if pmf is None
                else 0.0 if deadline_ms <= 0
                else pmf.cdf(deadline_ms)
                for pmf in self._pmfs
            ]

    return WholeFleetWalk


def write(repo, step, now):
    kind, name = step["kind"], step["name"]
    if kind == "perf":
        repo.record_performance(
            name, step["service"], step["delay"], step["depth"], now_ms=now
        )
    elif kind == "gateway":
        repo.record_gateway_delay(name, step["delay"], now_ms=now)
    elif kind == "queue":
        if name in repo:
            repo.record(name).queue_length = step["depth"]  # a probe reply
    elif kind == "add":
        repo.add_replica(name)
    elif kind == "remove":
        repo.remove_replica(name)
    else:
        repo.sync_members(step["names"])


@pytest.mark.parametrize(
    "estimator_cls, gateway_window",
    [
        (ResponseTimeEstimator, None),
        (ResponseTimeEstimator, 3),  # T_i as a distribution (§5.3.1)
        (QueueScaledEstimator, None),
    ],
)
@given(
    drawn=st.lists(steps, min_size=15, max_size=60),
    window_size=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_resident_matrix_equals_whole_fleet_walk(
    estimator_cls, gateway_window, drawn, window_size
):
    repo = InformationRepository(window_size, gateway_window_size=gateway_window)
    reference_cls = whole_fleet_walk(estimator_cls)
    # Two consumers of one repository, asking at different cadences: the
    # change log must answer each from the version *it* last saw.
    consumers = [(estimator_cls(repo), reference_cls(repo)) for _ in range(2)]
    # Start from a resident matrix over replicas that all have history, so
    # the interleaving lands on the patch path.
    fixed = {"service": 100.0, "delay": 3.0, "depth": 1, "subset": False}
    warm_up = [{"kind": "perf", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "gateway", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "query", "deadline": 120.5, "both": True, **fixed}]
    for now, step in enumerate(warm_up + drawn):
        if step["kind"] != "query":
            write(repo, step, float(now))
            continue
        deadline = step["deadline"]
        if step["subset"]:
            replicas = [name for name in step["names"] if name in repo]
        else:
            replicas = repo.replicas()
        fresh = estimator_cls(repo, incremental=False).batch_probability_by(
            replicas, deadline
        )
        for resident, reference in consumers[: 1 + step["both"]]:
            batched = resident.batch_probability_by(replicas, deadline)
            assert batched == reference.batch_probability_by(replicas, deadline)
            for estimator in (resident, reference):  # keeps their caches in step
                assert batched == [
                    estimator.probability_by(name, deadline) for name in replicas
                ]
            # A from-scratch rebuild convolves directly where the batched
            # refresh uses one padded FFT: equal to round-off, not bitwise.
            assert [p is None for p in batched] == [p is None for p in fresh]
            assert [p or 0.0 for p in batched] == pytest.approx(
                [p or 0.0 for p in fresh], abs=1e-12
            )
    for resident, reference in consumers:
        assert (resident.cache_hits, resident.cache_misses) == (
            reference.cache_hits,
            reference.cache_misses,
        )
