"""Property test: the one-entry estimator against the design it replaced.

The estimator keeps one entry per replica under one rule (current iff the
change log has not named the replica since the entry was derived and its
record is still the tracked one) and patches the rows the log names into
a resident CDF matrix.  The estimator it replaced — four version-keyed
caches plus the same matrix — is kept verbatim in
``tests/core/estimator_oracle.py``, over the pmf algebra of
``tests/core/distribution_oracle.py`` (every pmf through the validating
constructor): the oracle shares no pmf code with what it checks.  For
any interleaving of writes,
membership changes, invalidations, batch queries and direct reads the two
must agree **bitwise**: every ``F`` and every pmf's ``values`` / ``probs``
arrays.  That is stricter than it sounds: a batched FFT's size, hence a
row's last bits, depends on which stale rows are convolved *together*, so
the two estimators must also agree on what is stale when.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import QueueScaledEstimator, ResponseTimeEstimator
from repro.core.repository import InformationRepository

from ..core import estimator_oracle

NAMES = ["r1", "r2", "r3", "r4"]
names = st.sampled_from(NAMES)
name_lists = st.lists(names, unique=True, min_size=1)  # a subset, in any order

# One drawn step: its kind plus every field any kind reads.  Writes and
# queries dominate; membership changes (each a full rebuild) are the rare
# event they are in a run.
KINDS = (
    ["perf"] * 8 + ["gateway"] * 4 + ["queue"] * 3 + ["query"] * 10
    + ["direct"] * 4
    + ["add", "remove", "sync", "rejoin", "invalidate"]
)
steps = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "name": names,
        "names": name_lists,
        # A query mostly passes the caller's usual ``repository.replicas()``,
        # so the matrix stays resident between membership changes; a subset
        # is what a quarantine makes of the tuple.
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
        repo.remove_replica(name)  # a later push re-joins it afresh
    elif kind == "sync":
        repo.sync_members(step["names"])
    elif name in repo:
        # "rejoin": evict, then push as many samples as the old record
        # saw, so the fresh record's window versions (and its T_i) collide
        # with the ones every stored pmf was built at.
        old = repo.record(name)
        repo.remove_replica(name)
        for _ in range(old.service_times.version):
            repo.record_performance(
                name, step["service"], step["delay"], step["depth"], now_ms=now
            )
        if old.gateway_delay_ms is not None:
            repo.record_gateway_delay(name, old.gateway_delay_ms, now_ms=now)


def same_pmf(ours, theirs):
    """Bitwise equality of two optional pmfs."""
    if ours is None or theirs is None:
        return ours is theirs
    return (
        ours.bin_width == theirs.bin_width
        and ours.values.tobytes() == theirs.values.tobytes()
        and ours.probs.tobytes() == theirs.probs.tobytes()
    )


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
    oracle_cls = getattr(estimator_oracle, estimator_cls.__name__)
    # Two consumers of one repository, asking at different cadences: the
    # change log must answer each from the version *it* last saw.
    consumers = [(estimator_cls(repo), oracle_cls(repo)) for _ in range(2)]
    # Start from a resident matrix over replicas that all have history, so
    # the interleaving lands on the patch path.
    fixed = {"service": 100.0, "delay": 3.0, "depth": 1, "subset": False}
    fixed |= {"deadline": 120.5, "both": True}
    warm_up = [{"kind": "perf", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "gateway", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "query", **fixed}]
    for now, step in enumerate(warm_up + drawn):
        kind, deadline = step["kind"], step["deadline"]
        asking = consumers[: 1 + step["both"]]
        if kind == "invalidate":
            for estimator in asking[-1]:
                estimator.invalidate()
        elif kind == "direct":
            # A direct read derives and stores that replica alone.
            for name in (n for n in step["names"] if n in repo):
                for ours, oracle in asking:
                    assert same_pmf(
                        ours.response_time_pmf(name), oracle.response_time_pmf(name)
                    )
                    assert ours.probability_by(name, deadline) == (
                        oracle.probability_by(name, deadline)
                    )
        elif kind != "query":
            write(repo, step, float(now))
        else:
            if step["subset"]:
                replicas = [name for name in step["names"] if name in repo]
            else:
                replicas = repo.replicas()
            fresh = oracle_cls(repo, incremental=False).batch_probability_by(
                replicas, deadline
            )
            for ours, oracle in asking:
                batched = ours.batch_probability_by(replicas, deadline)
                assert batched == oracle.batch_probability_by(replicas, deadline)
                assert all(map(same_pmf, ours._batch.pmfs, oracle._batch.pmfs))
                assert batched == [  # batch == scalar, per query
                    ours.probability_by(name, deadline) for name in replicas
                ]
                # A from-scratch rebuild convolves directly where the batched
                # refresh uses one padded FFT: equal to round-off, not bitwise.
                assert [p is None for p in batched] == [p is None for p in fresh]
                assert [p or 0.0 for p in batched] == pytest.approx(
                    [p or 0.0 for p in fresh], abs=1e-12
                )
    for ours, oracle in consumers:
        replicas = repo.replicas()
        batched = ours.batch_probability_by(replicas, 120.5)
        assert batched == oracle.batch_probability_by(replicas, 120.5)
        assert batched == [ours.probability_by(name, 120.5) for name in replicas]
        for name in replicas:
            assert same_pmf(
                ours.response_time_pmf(name), oracle.response_time_pmf(name)
            )
