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

The oracle reads ``F`` off every row of its matrix on every query; the
estimator keeps the vector of ``F`` at the deadline last asked for and
reads only the rows written since (ISSUE 24).  The same ``==`` therefore
also says the kept vector is never stale, and ``rows_evaluated`` says it
was not simply recomputed.  Seeded mutants these tests kill:

* the vector kept across a deadline change (``read_probabilities``
  ignoring ``deadline != self.deadline``): the ``==`` against the oracle
  here, ``test_rows_read_per_query`` and the gateway-level
  ``test_renegotiated_deadline_is_read_by_the_next_decision``;
* the mark dropped when the write widens the matrix
  (``if grow <= 0: self.unread.add(row)``): the ``==`` here and
  ``test_a_write_that_widens_the_matrix_is_read``;
* the mark dropped for a row that lost its history
  (``if pmf is not None: self.unread.add(row)``): only
  ``test_a_row_that_lost_its_history_is_read`` — no sequence of
  repository calls reaches that write without a membership change, which
  rebuilds the state, and the row answers ``None`` whatever its ``F``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import DiscretePMF
from repro.core.estimator import (
    QueueScaledEstimator,
    ResponseTimeEstimator,
    _BatchState,
)
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
        # A tuple naming its first replica twice has no row-by-name index
        # and is rebuilt (and read whole) on every call.
        "twice": st.sampled_from([False] * 9 + [True]),
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
        # A handler asks at one deadline until its QoS is renegotiated: the
        # repeats are what lets the kept vector of F be served, the others
        # (<= 0 is answered without the matrix) what must not be.
        "deadline": st.sampled_from(
            [120.5] * 6 + [-5.0, 0.0, 40.0, 300.0, 10_000.0]
        ),
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
        ours._lattice == (theirs.bin_width is not None)
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
    fixed |= {"deadline": 120.5, "both": True, "twice": False}
    # Per consumer: the deadline its kept vector is at (None: a new state)
    # and the rows patched since that vector was last brought up to date.
    held = [None, None]
    unread = [0, 0]
    warm_up = [{"kind": "perf", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "gateway", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "query", **fixed}]

    def ask(replicas, deadline, asking):
        fresh = oracle_cls(repo, incremental=False).batch_probability_by(
            replicas, deadline
        )
        for index, (ours, oracle) in enumerate(asking):
            before = ours.cache_info()
            batched = ours.batch_probability_by(replicas, deadline)
            after = ours.cache_info()
            built, patched, read = (
                after[key] - before[key]
                for key in ("matrix_builds", "rows_patched", "rows_evaluated")
            )
            if built:
                held[index], unread[index] = None, 0
            unread[index] += patched
            if deadline <= 0:
                assert read == 0
            else:
                if deadline != held[index]:
                    assert read == len(replicas)
                else:
                    # (Equal unless a row was patched twice between reads.)
                    assert patched <= read <= unread[index]
                    assert read or not unread[index]
                held[index], unread[index] = deadline, 0
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
            tuples = [replicas]
            if step["twice"] and replicas:
                # Asked once nothing is stale: the oracle would convolve a
                # stale replica named twice with itself (one padded FFT),
                # the estimator derives it once (scalar kernel).
                tuples.append(replicas + replicas[:1])
            for replicas in tuples:
                ask(replicas, deadline, asking)
    for ours, oracle in consumers:
        replicas = repo.replicas()
        batched = ours.batch_probability_by(replicas, 120.5)
        assert batched == oracle.batch_probability_by(replicas, 120.5)
        assert batched == [ours.probability_by(name, 120.5) for name in replicas]
        for name in replicas:
            assert same_pmf(
                ours.response_time_pmf(name), oracle.response_time_pmf(name)
            )


def loaded_fleet(count=4):
    repo = InformationRepository(window_size=3)
    for index in range(count):
        repo.record_performance(f"r{index}", 100.0, 5.0 * index, 0, now_ms=0.0)
        repo.record_gateway_delay(f"r{index}", 3.0, now_ms=0.0)
    return repo, ResponseTimeEstimator(repo), repo.replicas()


def test_rows_read_per_query():
    """``rows_evaluated``: 0 repeated, k after k writes, n on another deadline."""
    repo, estimator, replicas = loaded_fleet()
    count = len(replicas)

    def rows_read(deadline):
        before = estimator.cache_info()["rows_evaluated"]
        answer = estimator.batch_probability_by(replicas, deadline)
        assert answer == [estimator.probability_by(r, deadline) for r in replicas]
        return estimator.cache_info()["rows_evaluated"] - before

    assert rows_read(110.0) == count  # a new state
    assert rows_read(110.0) == 0
    repo.record_performance("r1", 90.0, 0.0, 0, now_ms=1.0)
    repo.record("r2").queue_length = 3  # a probe reply: logged, so re-read
    assert rows_read(110.0) == 2
    assert rows_read(110.0) == 0
    assert rows_read(104.0) == count  # renegotiated
    assert rows_read(104.0) == 0
    # A deadline <= 0 is answered without the matrix: the write before it
    # is still unread when the held deadline comes back.
    repo.record_performance("r3", 60.0, 0.0, 0, now_ms=2.0)
    assert rows_read(0.0) == 0
    assert rows_read(-1.0) == 0
    assert rows_read(104.0) == 1
    assert rows_read(110.0) == count
    estimator.invalidate()
    assert rows_read(110.0) == count
    assert rows_read(110.0) == 0
    twice = replicas + replicas[:1]  # no row-by-name index: rebuilt per call
    for _ in range(2):
        before = estimator.cache_info()["rows_evaluated"]
        assert estimator.batch_probability_by(twice, 110.0)[-1] == (
            estimator.probability_by(replicas[0], 110.0)
        )
        assert estimator.cache_info()["rows_evaluated"] - before == count + 1


def test_a_write_that_widens_the_matrix_is_read():
    repo, estimator, replicas = loaded_fleet()
    assert estimator.batch_probability_by(replicas, 110.0) == [1.0, 1.0, 0.0, 0.0]
    width = estimator._batch.values.shape[1]
    repo.record_performance("r3", 80.0, 0.0, 0, now_ms=1.0)  # one atom -> four
    assert estimator.batch_probability_by(replicas, 110.0) == [1.0, 1.0, 0.0, 0.75]
    assert estimator._batch.values.shape[1] > width
    assert estimator.cache_info()["matrix_builds"] == 1


def test_a_row_that_lost_its_history_is_read():
    state = _BatchState(("a", "b"), 1)
    pmf = DiscretePMF([10.0, 20.0], [0.5, 0.5])
    state.write_row(0, pmf)
    state.write_row(1, pmf)
    assert state.read_probabilities(15.0) == 2
    state.write_row(1, None)
    assert state.missing == {1}
    assert state.read_probabilities(15.0) == 1
    assert state.read_probabilities(15.0) == 0
    state.write_row(1, pmf)
    assert state.read_probabilities(15.0) == 1
    assert state.probabilities.tolist() == [0.5, 0.5]
