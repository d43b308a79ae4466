"""Property test: the estimator answers what §5.3 says, reading only what changed.

One hypothesis walk per estimator configuration (``ResponseTimeEstimator``
with a scalar ``T_i`` and with a gateway window of 3, and
``QueueScaledEstimator``) drives one repository through any interleaving
of performance pushes (each appends and, once the window is full,
evicts), gateway-delay writes, probe queue lengths, membership changes,
invalidations, batch queries and direct reads, asked by two consumers at
different cadences.  The estimator keeps one entry per replica under one
rule (current iff the change log has not named the replica since the
entry was derived and its record is still the tracked one) and rewrites
the rows the log names in its batch state, beside the vector of ``F`` at
the deadline last asked for, of which it re-reads only the rows written
since, each off its own pmf.

Every answer must be ``F_{R_i}(t)`` as §5.3 computes it from the raw
window samples (``tests/core/spec_model.py``, to 1e-12), every derived
pmf the specified one, a batch query bitwise the scalar queries, and
``rows_evaluated`` must say the kept vector was not simply recomputed.
The walk also holds the model's laws: ``F`` is 0 before the best case,
exactly 1 past the worst and monotone in ``t`` between; the expected
response time is the sum of the means; a larger ``T_i`` never raises
``F``.  Last bits — which stale rows share one batched FFT — are pinned
by ``tests/core/test_pinned_bits.py``.

After the walk, sequences of pushes and gateway writes alone are checked
at every step, and the laws again on one replica's windows drawn whole.
The directed tests at the bottom pin the marks a write leaves: a kept
vector served across a deadline change, or a write that grows, shrinks
or empties a row going unread; the last five pin the per-row read (only
a row's own atoms count, exactly 1 past the last of them, ``None`` for a
row without history).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import CDF_TOLERANCE, DiscretePMF
from repro.core.estimator import (
    QueueScaledEstimator,
    ResponseTimeEstimator,
    _BatchState,
)
from repro.core.repository import InformationRepository

from ..core import spec_model as spec

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
        # so the batch state is kept between membership changes; a subset
        # is what a quarantine makes of the tuple.
        "subset": st.sampled_from([False] * 5 + [True]),
        # A tuple naming its first replica twice has no row-by-name index
        # and is rebuilt (and read whole) on every call.
        "twice": st.sampled_from([False] * 9 + [True]),
        # A wide range makes supports outgrow each other as windows fill;
        # the repeated values shrink them again when a duplicate slides in.
        "service": st.one_of(
            st.sampled_from([100.0, 100.4, 250.0]),
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        ),
        # A queue delay or a gateway delay.
        "delay": st.one_of(
            st.sampled_from([0.0, 20.0]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        "depth": st.integers(min_value=0, max_value=9),
        # A handler asks at one deadline until its QoS is renegotiated: the
        # repeats are what lets the kept vector of F be served, the others
        # (<= 0 is answered without a read) what must not be.
        "deadline": st.sampled_from(
            [120.5] * 8 + [-5.0, 0.0, 40.0, 50.0, 150.0, 300.0, 700.0, 10_000.0]
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
        # with the old record's: only the record tells them apart.
        old = repo.record(name)
        repo.remove_replica(name)
        for _ in range(old.service_times.version):
            repo.record_performance(
                name, step["service"], step["delay"], step["depth"], now_ms=now
            )
        if old.gateway_delay_ms is not None:
            repo.record_gateway_delay(name, old.gateway_delay_ms, now_ms=now)


def specified(repo, name, queue_scaled):
    """The replica's §5.3 response-time pmf (``None`` without history)."""
    return spec.response_time(repo.record(name), queue_scaled)


def same_pmf(pmf, expected):
    """A derived pmf is the specified one (``None`` alike)."""
    return pmf is None if expected is None else spec.agrees(pmf, expected)


def check_laws(ours, record, queue_scaled):
    """§5.3's laws on one replica: ``F`` is 0 two milliseconds before the
    best case, exactly 1 two past the worst and monotone between, and the
    expected response time is the mean of the specified pmf, whose atoms
    are the pairwise sums: the sum of the means."""
    expected = spec.response_time(record, queue_scaled)
    if expected is None:
        return
    best, worst = min(expected), max(expected)
    deadlines = [best - 2.0, *np.linspace(best, worst, 20).tolist(), worst + 2.0]
    probabilities = [ours.probability_by(record.name, t) for t in deadlines]
    assert probabilities[0] == 0.0 and probabilities[-1] == 1.0
    assert probabilities == sorted(probabilities)
    assert ours.expected_response_time(record.name) == pytest.approx(
        sum(x * p for x, p in expected.items()), abs=1e-6
    )


# The deadlines a larger T_i is checked at.
LAW_DEADLINES = (50.0, 150.0, 400.0)


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
def test_every_answer_is_the_spec(estimator_cls, gateway_window, drawn, window_size):
    repo = InformationRepository(window_size, gateway_window_size=gateway_window)
    queue_scaled = estimator_cls is QueueScaledEstimator
    # Two consumers of one repository, asking at different cadences: the
    # change log must answer each from the version *it* last saw.
    consumers = [estimator_cls(repo) for _ in range(2)]
    # Start from a batch state over replicas that all have history, so
    # the interleaving lands on the patch path.
    fixed = {"service": 100.0, "delay": 3.0, "depth": 1, "subset": False}
    fixed |= {"deadline": 120.5, "both": True, "twice": False}
    # Per consumer: the deadline its kept vector is at (None: a new state)
    # and the rows patched since that vector was last brought up to date.
    held = [None, None]
    unread = [0, 0]
    warm_up = [{"kind": "perf", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "gateway", "name": name, **fixed} for name in NAMES]
    warm_up += [{"kind": "query", "name": None, **fixed}]

    def ask(replicas, deadline, asking):
        expected = [
            spec.probability_by(repo.record(name), deadline, queue_scaled)
            for name in replicas
        ]
        for index, ours in enumerate(asking):
            before = ours.cache_info()
            batched = ours.batch_probability_by(replicas, deadline)
            after = ours.cache_info()
            built, patched, read = (
                after[key] - before[key]
                for key in ("batch_builds", "rows_patched", "rows_evaluated")
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
            assert batched == [  # batch == scalar, per query
                ours.probability_by(name, deadline) for name in replicas
            ]
            assert [p is None for p in batched] == [p is None for p in expected]
            assert [p or 0.0 for p in batched] == pytest.approx(
                [p or 0.0 for p in expected], abs=1e-12
            )
            assert all(
                same_pmf(pmf, specified(repo, name, queue_scaled))
                for name, pmf in zip(replicas, ours._batch.pmfs)
            )

    def f_row(name):
        """``F`` at :data:`LAW_DEADLINES`, from an estimator of its own."""
        fresh = estimator_cls(repo)
        return [fresh.probability_by(name, t) for t in LAW_DEADLINES]

    for now, step in enumerate(warm_up + drawn):
        kind, name, deadline = step["kind"], step["name"], step["deadline"]
        asking = consumers[: 1 + step["both"]]
        if kind == "invalidate":
            asking[-1].invalidate()
        elif kind == "direct":
            # A direct read derives and stores that replica alone.
            for name in (n for n in step["names"] if n in repo):
                for ours in asking:
                    assert same_pmf(
                        ours.response_time_pmf(name),
                        specified(repo, name, queue_scaled),
                    )
                    assert ours.probability_by(name, deadline) == pytest.approx(
                        spec.probability_by(repo.record(name), deadline, queue_scaled),
                        abs=1e-12,
                    )
        elif kind != "query":
            # A larger scalar T_i never raises F.
            larger = (
                kind == "gateway" and gateway_window is None and name in repo
                and repo.record(name).has_history
                and step["delay"] >= repo.record(name).gateway_delay_ms
            )
            before = f_row(name) if larger else None
            write(repo, step, float(now))
            if larger:
                assert all(a <= b + 1e-9 for a, b in zip(f_row(name), before))
        else:
            if step["subset"]:
                replicas = [name for name in step["names"] if name in repo]
            else:
                replicas = repo.replicas()
            tuples = [replicas]
            if step["twice"] and replicas:
                # No row-by-name index: rebuilt, and read whole, per call.
                tuples.append(replicas + replicas[:1])
            for replicas in tuples:
                ask(replicas, deadline, asking)
    for ours in consumers:
        replicas = repo.replicas()
        batched = ours.batch_probability_by(replicas, 120.5)
        assert batched == [ours.probability_by(name, 120.5) for name in replicas]
        for name in replicas:
            assert same_pmf(
                ours.response_time_pmf(name), specified(repo, name, queue_scaled)
            )
            check_laws(ours, repo.record(name), queue_scaled)


# -- pushes and gateway writes alone, checked at every step ---------------------

pushes = st.lists(
    st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("perf"),
            "name": st.sampled_from(["r1", "r2"]),
            "service": st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            "delay": st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            "depth": st.integers(min_value=0, max_value=5),
        }),
        st.fixed_dictionaries({
            "kind": st.just("gateway"),
            "name": st.sampled_from(["r1", "r2"]),
            "delay": st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        }),
    ),
    min_size=1,
    max_size=30,
)


@given(pushes, st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_cached_pmfs_match_from_scratch_rebuild(drawn, window_size):
    """Random push/evict sequences: cached == uncached, at every step."""
    repo = InformationRepository(window_size=window_size)
    cached = ResponseTimeEstimator(repo)
    for now, step in enumerate(drawn):
        write(repo, step, float(now))
        for name in repo.replicas():
            assert same_pmf(cached.response_time_pmf(name), specified(repo, name, False))


@given(pushes)
@settings(max_examples=40)
def test_queue_scaled_cached_matches_rebuild(drawn):
    """The queue-depth-scaled variant obeys the same cache contract."""
    repo = InformationRepository(window_size=4)
    cached = QueueScaledEstimator(repo)
    for now, step in enumerate(drawn):
        write(repo, step, float(now))
        for name in repo.replicas():
            assert same_pmf(cached.response_time_pmf(name), specified(repo, name, True))


@given(pushes)
@settings(max_examples=40)
def test_batch_probabilities_match_scalar_queries(drawn):
    repo = InformationRepository(window_size=4)
    estimator = ResponseTimeEstimator(repo)
    for now, step in enumerate(drawn):
        write(repo, step, float(now))
    replicas = repo.replicas()
    for deadline in (0.0, 50.0, 150.0, 700.0):
        batched = estimator.batch_probability_by(replicas, deadline)
        for name, probability in zip(replicas, batched):
            expected = estimator.probability_by(name, deadline)
            if expected is None:
                assert probability is None
            else:
                assert probability == pytest.approx(expected, abs=1e-12)
                assert probability == pytest.approx(
                    spec.probability_by(repo.record(name), deadline), abs=1e-12
                )


# -- §5.3's laws on one replica's windows -----------------------------------------

service_samples = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=1, max_size=10
)
queue_samples = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False), min_size=1, max_size=10
)
gateway_delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def one_replica(service, queue, gateway):
    """An estimator over ``r1`` holding exactly these windows and ``T_i``."""
    repo = InformationRepository(window_size=10)
    record = repo.add_replica("r1")
    for s in service:
        record.service_times.append(s)
    for q in queue:
        record.queue_delays.append(q)
    record.record_gateway_delay(gateway, now_ms=0.0)
    return ResponseTimeEstimator(repo)


@given(service_samples, queue_samples, gateway_delays)
def test_cdf_monotone_in_deadline(service, queue, gateway):
    estimator = one_replica(service, queue, gateway)
    probabilities = [estimator.probability_by("r1", t) for t in np.linspace(0.0, 800.0, 20)]
    assert all(a <= b + 1e-9 for a, b in zip(probabilities, probabilities[1:]))


@given(service_samples, queue_samples, gateway_delays)
def test_probability_in_unit_interval(service, queue, gateway):
    estimator = one_replica(service, queue, gateway)
    for t in (0.0, 50.0, 200.0, 1e6):
        assert 0.0 <= estimator.probability_by("r1", t) <= 1.0


@given(service_samples, queue_samples, gateway_delays)
def test_certain_beyond_worst_case(service, queue, gateway):
    estimator = one_replica(service, queue, gateway)
    worst = max(service) + max(queue) + gateway
    assert estimator.probability_by("r1", worst + 2.0) == 1.0


@given(service_samples, queue_samples, gateway_delays)
def test_impossible_before_best_case(service, queue, gateway):
    estimator = one_replica(service, queue, gateway)
    best = min(service) + min(queue) + gateway
    if best > 2.0:
        assert estimator.probability_by("r1", best - 2.0) == 0.0


@given(service_samples, queue_samples, gateway_delays, gateway_delays)
def test_larger_gateway_delay_never_raises_probability(service, queue, g_small, g_large):
    g_small, g_large = sorted((g_small, g_large))
    fast = one_replica(service, queue, g_small)
    slow = one_replica(service, queue, g_large)
    for t in LAW_DEADLINES:
        assert slow.probability_by("r1", t) <= fast.probability_by("r1", t) + 1e-9


@given(service_samples, queue_samples, gateway_delays)
def test_expected_response_is_sum_of_means(service, queue, gateway):
    estimator = one_replica(service, queue, gateway)
    expected = sum(service) / len(service) + sum(queue) / len(queue) + gateway
    # Quantization can move each window's mean by up to half the 1.0 ms
    # bin (two windows -> 1.0 total), and shift() rounds to the 9-decimal
    # grid, so the worst case sits a hair *above* 1.0.
    assert estimator.expected_response_time("r1") == pytest.approx(
        expected, abs=1.0 + 1e-8
    )


# -- directed: the marks a write leaves -----------------------------------------


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
    # A deadline <= 0 is answered without a read: the write before it
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


def test_a_row_that_outgrows_the_others_is_read():
    repo, estimator, replicas = loaded_fleet()
    assert estimator.batch_probability_by(replicas, 110.0) == [1.0, 1.0, 0.0, 0.0]
    repo.record_performance("r3", 80.0, 0.0, 0, now_ms=1.0)  # one atom -> four
    assert estimator.batch_probability_by(replicas, 110.0) == [1.0, 1.0, 0.0, 0.75]
    sizes = [pmf.support_size for pmf in estimator._batch.pmfs]
    assert sizes == [1, 1, 1, 4]
    assert estimator.cache_info()["batch_builds"] == 1


def test_a_row_that_lost_its_history_is_read():
    state = _BatchState(("a", "b"))
    pmf = DiscretePMF([10.0, 20.0], [0.5, 0.5])
    state.write_row(0, pmf)
    state.write_row(1, pmf)
    assert state.read_probabilities(15.0) == 2
    state.write_row(1, None)
    assert state.missing == {1}
    assert state.read_probabilities(15.0) == 1
    assert state.probabilities == [0.5, None]
    assert state.read_probabilities(15.0) == 0
    state.write_row(1, pmf)
    assert state.read_probabilities(15.0) == 1
    assert state.probabilities == [0.5, 0.5]


# -- the per-row read: a row's own atoms, exactly 1 past them, None without --


def uniform(*atoms):
    return DiscretePMF(list(atoms), [1.0 / len(atoms)] * len(atoms))


def read(state, deadline):
    state.read_probabilities(deadline)
    return list(state.probabilities)


def test_a_row_that_shrinks_reads_only_its_new_atoms():
    state = _BatchState(("a", "b"))
    state.write_row(0, uniform(1.0, 2.0, 3.0, 4.0, 5.0))
    assert read(state, 4.5) == [pytest.approx(0.8), None]
    state.write_row(0, DiscretePMF([1.0, 2.0, 3.0], [0.25, 0.25, 0.5]))
    # Past the new last atom but below the old one: the old atoms are gone.
    assert read(state, 4.5) == [1.0, None]
    assert read(state, 2.5)[0] == 0.5
    assert read(state, 0.5)[0] == 0.0


def test_a_deadline_on_an_atom_counts_it_within_the_tolerance():
    state = _BatchState(("a",))
    pmf = uniform(10.0, 20.0)
    state.write_row(0, pmf)
    on_atom = 10.0 - CDF_TOLERANCE
    assert on_atom + CDF_TOLERANCE == 10.0  # exactly: the comparison decides
    for deadline, expected in ((on_atom, 0.5), (10.0 - 3 * CDF_TOLERANCE, 0.0)):
        assert read(state, deadline) == [expected] == [pmf.cdf(deadline)]


def test_a_deadline_past_every_atom_reads_exactly_one():
    state = _BatchState(("a", "b"))
    tenths = uniform(*[float(k) for k in range(10)])
    assert tenths.cumulative_probs()[-1] != 1.0  # the running sum falls short
    state.write_row(0, tenths)
    state.write_row(1, uniform(3.0, 4.0))
    assert read(state, 9.0) == [1.0, 1.0]
    assert read(state, 100.0) == [1.0, 1.0]
    assert read(state, float("inf")) == [1.0, 1.0]
    assert read(state, 8.5) == [tenths.cdf(8.5), 1.0]


def test_rows_of_any_size_read_their_own_atoms():
    state = _BatchState(("a", "b", "c"))
    state.write_row(0, uniform(1.0, 2.0))
    state.write_row(1, uniform(1.0, 2.0, 3.0, 4.0, 5.0))
    assert read(state, 1.5) == [0.5, 0.2, None]
    assert read(state, 7.0) == [1.0, 1.0, None]
    state.write_row(2, uniform(6.0, 7.0, 8.0, 9.0, 10.0))
    assert read(state, 7.0) == [1.0, 1.0, 0.4]


def test_a_missing_row_answers_none():
    state = _BatchState(("a", "b"))
    state.write_row(0, uniform(1.0, 2.0))
    assert read(state, 5.0) == [1.0, None]
    state.write_row(1, uniform(1.0, 2.0, 3.0))
    assert read(state, 5.0) == [1.0, 1.0]
    state.write_row(1, None)
    assert state.missing == {1}
    assert read(state, 5.0) == [1.0, None]
    assert read(state, float("inf")) == [1.0, None]
