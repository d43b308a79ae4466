"""Unit tests for the response-time estimator (Equation 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import QueueScaledEstimator, ResponseTimeEstimator
from repro.core.repository import InformationRepository

from . import spec_model as spec


def specified(repo, deadline, cls=ResponseTimeEstimator):
    """``F_{R_i}(deadline)`` per replica, from the raw samples by §5.3."""
    queue_scaled = cls is QueueScaledEstimator
    return [
        spec.probability_by(repo.record(name), deadline, queue_scaled)
        for name in repo.replicas()
    ]


@pytest.fixture
def repo():
    return InformationRepository(window_size=5)


def _feed(repo, name, services, queues, gateway):
    for s, q in zip(services, queues):
        repo.record_performance(name, s, q, queue_length=1, now_ms=0.0)
    repo.record_gateway_delay(name, gateway, now_ms=0.0)


def test_bin_width_validation(repo):
    # Only the one lattice is accepted, by both estimators.
    for cls in (ResponseTimeEstimator, QueueScaledEstimator):
        assert cls(repo, bin_width_ms=1.0).cache_info()["entries"] == 0
        for width in (0.0, 0.5, 0.25, 2.0, 1e-6):
            with pytest.raises(ValueError, match="1.0 ms lattice"):
                cls(repo, bin_width_ms=width)


def test_no_history_returns_none(repo):
    repo.add_replica("r1")
    estimator = ResponseTimeEstimator(repo)
    assert estimator.response_time_pmf("r1") is None
    assert estimator.probability_by("r1", 100.0) is None


def test_pmf_is_convolution_plus_shift(repo):
    _feed(repo, "r1", services=[100, 100, 120, 120, 140],
          queues=[0, 0, 10, 10, 20], gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    pmf = estimator.response_time_pmf("r1")
    assert pmf.mean() == pytest.approx(116.0 + 8.0 + 3.0)
    assert pmf.min() == pytest.approx(103.0)
    assert pmf.max() == pytest.approx(163.0)


def test_probability_by_deadline(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    assert estimator.probability_by("r1", 103.0) == pytest.approx(1.0)
    assert estimator.probability_by("r1", 102.0) == pytest.approx(0.0)


def test_nonpositive_deadline_gives_zero(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    for deadline in (0.0, -5.0, -math.inf):
        assert estimator.probability_by("r1", deadline) == 0.0
        assert estimator.batch_probability_by(["r1"], deadline) == [0.0]


def test_a_nan_deadline_is_refused_by_both_paths(repo):
    # NaN is neither <= 0 nor a point F can be read at.  Both paths refuse
    # it, with history or without, before anything is derived.
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    repo.add_replica("r2")  # no history
    estimator = ResponseTimeEstimator(repo)
    before = estimator.cache_info()
    for name in ("r1", "r2"):
        with pytest.raises(ValueError, match="nan"):
            estimator.probability_by(name, float("nan"))
    for replicas in (["r1", "r2"], ["r2"]):
        with pytest.raises(ValueError, match="nan"):
            estimator.batch_probability_by(replicas, float("nan"))
    assert estimator.cache_info() == before


def test_a_deadline_below_one_millisecond_is_read_off_the_pmf(repo):
    # R = {0}: the window pmf of S, shifted by W = {0} and T = 0, is itself.
    _feed(repo, "r1", services=[0.0] * 5, queues=[0.0] * 5, gateway=0.0)
    estimator = ResponseTimeEstimator(repo)
    record = repo.record("r1")
    assert estimator.response_time_pmf("r1") is record.service_times.pmf()
    assert estimator.probability_by("r1", 0.5) == 1.0
    assert estimator.batch_probability_by(["r1"], 0.5) == [1.0]


def test_a_rejoined_replica_without_history_is_no_hit(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    assert estimator.probability_by("r1", 150.0) == 1.0
    repo.remove_replica("r1")
    repo.add_replica("r1")
    assert estimator.probability_by("r1", 150.0) is None
    info = estimator.cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (0, 1, 0)


def test_repr_names_the_lattice_and_the_replicas(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    assert repr(QueueScaledEstimator(repo)) == (
        "<QueueScaledEstimator bin=1.0ms replicas=1>"
    )


def test_probabilities_by_covers_all_replicas(repo):
    _feed(repo, "r1", services=[50] * 5, queues=[0] * 5, gateway=3.0)
    repo.add_replica("r2")  # no history
    estimator = ResponseTimeEstimator(repo)
    replicas = repo.replicas()
    probs = dict(zip(replicas, estimator.batch_probability_by(replicas, 100.0)))
    assert probs["r1"] == pytest.approx(1.0)
    assert probs["r2"] is None


def test_cache_reused_until_new_measurements(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    first = estimator.response_time_pmf("r1")
    assert estimator.response_time_pmf("r1") is first  # memoized
    repo.record_performance("r1", 200.0, 0.0, 0, now_ms=1.0)
    second = estimator.response_time_pmf("r1")
    assert second is not first
    assert second.mean() > first.mean()


def test_cache_invalidated_by_gateway_delay_update(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    before = estimator.response_time_pmf("r1")
    repo.record_gateway_delay("r1", 50.0, now_ms=1.0)
    after = estimator.response_time_pmf("r1")
    assert after.mean() == pytest.approx(before.mean() + 47.0)


def test_invalidate_clears_memo(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    first = estimator.response_time_pmf("r1")
    estimator.invalidate()
    second = estimator.response_time_pmf("r1")
    assert second is not first
    np.testing.assert_allclose(second.values, first.values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(second.probs, first.probs, rtol=0, atol=1e-9)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40)
def test_version_bump_always_invalidates(extra_samples):
    """Every push moves the window version and replaces the stored pmf."""
    repo = InformationRepository(window_size=3)
    repo.record_performance("r1", 100.0, 5.0, 1, now_ms=0.0)
    repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
    estimator = ResponseTimeEstimator(repo)
    previous = estimator.response_time_pmf("r1")
    record = repo.record("r1")
    for step, sample in enumerate(extra_samples):
        version_before = (record.service_times.version, record.queue_delays.version)
        repo.record_performance("r1", sample, sample / 2.0, 0, now_ms=float(step))
        version_after = (record.service_times.version, record.queue_delays.version)
        assert version_after > version_before  # push bumps the version
        current = estimator.response_time_pmf("r1")
        assert current is not previous  # the entry was re-derived
        assert spec.agrees(current, spec.response_time(record))
        previous = current


def test_expected_response_time(repo):
    _feed(repo, "r1", services=[100] * 5, queues=[10] * 5, gateway=5.0)
    estimator = ResponseTimeEstimator(repo)
    assert estimator.expected_response_time("r1") == pytest.approx(115.0)
    repo.add_replica("r2")
    assert estimator.expected_response_time("r2") is None


def test_binning_groups_noisy_samples(repo):
    _feed(repo, "r1", services=[100.2, 99.8, 100.4, 99.6, 100.1],
          queues=[0.1, 0.2, 0.0, 0.1, 0.2], gateway=3.0)
    estimator = ResponseTimeEstimator(repo)
    pmf = estimator.response_time_pmf("r1")
    assert pmf.support_size == 1  # everything collapses to 100 + 0 + 3


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda probs: probs.__setitem__(0, -0.25), "non-negative"),
        (lambda probs: probs.__setitem__(0, float("nan")), "sum to 1"),
    ],
)
def test_a_row_whose_final_pmf_is_not_a_pmf_is_refused(
    repo, monkeypatch, spoil, message
):
    # Derived pmfs skip the constructor's checks; the one that would reach
    # the batch state does not.  A kernel gone wrong stops the decision with
    # the constructor's own ValueError and leaves no entry behind.
    from repro.core.distribution import DiscretePMF

    _feed(repo, "r1", services=[100, 110], queues=[0, 5], gateway=3.0)
    shift = DiscretePMF.shift

    def broken_shift(self, delta):
        shifted = shift(self, delta)
        shifted._probs = shifted._probs.copy()
        spoil(shifted._probs)
        return shifted

    monkeypatch.setattr(DiscretePMF, "shift", broken_shift)
    estimator = ResponseTimeEstimator(repo)
    with pytest.raises(ValueError, match=message):
        estimator.batch_probability_by(["r1"], 150.0)
    with pytest.raises(ValueError, match=message):
        estimator.response_time_pmf("r1")
    assert estimator.cache_info()["entries"] == 0


class TestIncrementalPipeline:
    def test_incremental_matches_from_scratch(self, repo):
        _feed(repo, "r1", services=[100, 110, 120, 130, 140],
              queues=[0, 5, 10, 15, 20], gateway=3.0)
        cached = ResponseTimeEstimator(repo).response_time_pmf("r1")
        assert spec.agrees(cached, spec.response_time(repo.record("r1")))

    def test_cache_info_counts_hits_and_misses(self, repo):
        _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
        estimator = ResponseTimeEstimator(repo)
        estimator.response_time_pmf("r1")
        estimator.response_time_pmf("r1")
        info = estimator.cache_info()
        assert info == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "batch_builds": 0,  # no batch call yet
            "rows_patched": 0,
            "rows_evaluated": 0,
        }

    def test_a_gateway_delay_write_rederives_the_row_and_f_moves_by_the_shift(self, repo):
        # A new T_i is a write like any other: the row is re-derived from
        # its windows, and F at every t is F at t - 6 before.
        _feed(repo, "r1", services=[100, 110, 110, 100, 110], queues=[0] * 5, gateway=3.0)
        estimator = ResponseTimeEstimator(repo)
        before = estimator.response_time_pmf("r1")
        repo.record_gateway_delay("r1", 9.0, now_ms=1.0)
        after = estimator.response_time_pmf("r1")
        assert estimator.cache_info()["misses"] == 2
        assert after.min() == pytest.approx(109.0)
        for t in (102.0, 103.0, 109.0, 112.0, 113.0, 119.0, 150.0):
            assert after.cdf(t + 6.0) == before.cdf(t)

    def test_prune_drops_departed_replicas(self, repo):
        # Membership is in the change log: the first batch read after a
        # view change releases the leavers' entries.
        _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
        _feed(repo, "r2", services=[100] * 5, queues=[0] * 5, gateway=3.0)
        estimator = ResponseTimeEstimator(repo)
        estimator.batch_probability_by(["r1", "r2"], 150.0)
        assert estimator.cache_info()["entries"] == 2
        repo.remove_replica("r1")
        estimator.batch_probability_by(["r2"], 150.0)
        assert estimator.cache_info()["entries"] == 1

    def test_batch_matches_scalar(self, repo):
        _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
        _feed(repo, "r2", services=[50] * 5, queues=[0] * 5, gateway=3.0)
        repo.add_replica("r3")  # no history
        estimator = ResponseTimeEstimator(repo)
        replicas = repo.replicas()
        # 53 and 103 minus half the tolerance: F counts the atom there.
        for deadline in (-1.0, 0.0, 53.0 - 5e-10, 60.0, 103.0 - 5e-10, 104.0, 500.0):
            batched = estimator.batch_probability_by(replicas, deadline)
            for name, probability in zip(replicas, batched):
                assert probability == estimator.probability_by(name, deadline)

    def test_batch_accepts_a_replica_named_twice(self, repo):
        _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
        estimator = ResponseTimeEstimator(repo)
        assert estimator.batch_probability_by(["r1", "r1"], 150.0) == [1.0, 1.0]
        repo.record_gateway_delay("r1", 80.0, now_ms=1.0)  # both rows move
        assert estimator.batch_probability_by(["r1", "r1"], 150.0) == [0.0, 0.0]

    def test_batch_reuses_matrix_across_calls(self, repo):
        for name in ("r1", "r2", "r3"):
            _feed(repo, name, services=[100] * 5, queues=[0] * 5, gateway=3.0)
        estimator = ResponseTimeEstimator(repo)
        replicas = repo.replicas()

        def batch_counters():
            info = estimator.cache_info()
            return info["batch_builds"], info["rows_patched"]

        estimator.batch_probability_by(replicas, 100.0)
        assert batch_counters() == (1, 0)
        estimator.batch_probability_by(replicas, 200.0)
        assert batch_counters() == (1, 0)  # nothing changed: reused as is
        # Each reply dirties one row: one patch per decision, never a build.
        for step, name in enumerate(["r1", "r2", "r1", "r3"], start=1):
            repo.record_performance(name, 150.0 + step, 0.0, 0, now_ms=1.0)
            estimator.batch_probability_by(replicas, 200.0)
            assert batch_counters() == (1, step)
        # One rule: any logged write re-derives the row, even one the pmf
        # does not depend on (a queue-only write to the base estimator).
        misses = estimator.cache_misses
        repo.record("r2").queue_length = 4
        estimator.batch_probability_by(replicas, 200.0)
        assert batch_counters() == (1, 5)
        assert estimator.cache_misses == misses + 1
        repo.add_replica("r4")  # membership: every row re-read, none re-derived
        estimator.batch_probability_by(replicas, 200.0)
        assert batch_counters() == (2, 5)
        assert estimator.cache_misses == misses + 1


class TestQueueScaledEstimator:
    def test_scales_with_current_queue_depth(self, repo):
        # History: queueing ~ one service time (depth ~1).
        _feed(repo, "r1", services=[100] * 5, queues=[100] * 5, gateway=0.0)
        base = ResponseTimeEstimator(repo).response_time_pmf("r1")
        record = repo.record("r1")
        record.queue_length = 5  # queue exploded since the window filled
        scaled = QueueScaledEstimator(repo).response_time_pmf("r1")
        assert scaled.mean() > base.mean()

    def test_matches_base_when_depth_is_stable(self, repo):
        _feed(repo, "r1", services=[100] * 5, queues=[100] * 5, gateway=0.0)
        record = repo.record("r1")
        record.queue_length = 1  # same depth the history implies
        base = ResponseTimeEstimator(repo).response_time_pmf("r1")
        scaled = QueueScaledEstimator(repo).response_time_pmf("r1")
        assert scaled.mean() == pytest.approx(base.mean())

    def test_a_one_millisecond_service_mean_still_scales(self, repo):
        # Any E[S] > 0 scales W_i, a service window on the first bin too.
        _feed(repo, "r1", services=[1.0] * 5, queues=[10.0] * 5, gateway=0.0)
        repo.record("r1").queue_length = 5
        scaled = QueueScaledEstimator(repo).response_time_pmf("r1")
        assert scaled.max() == pytest.approx(1.0 + 10.0 * 6.0 / 11.0)
        assert spec.agrees(scaled, spec.response_time(repo.record("r1"), True))

    def test_cache_tracks_probe_queue_updates(self, repo):
        # Probe replies write queue_length directly, without a window
        # version bump; the change log must still name the replica.
        _feed(repo, "r1", services=[100] * 5, queues=[100] * 5, gateway=0.0)
        estimator = QueueScaledEstimator(repo)
        record = repo.record("r1")
        record.queue_length = 1
        before = estimator.response_time_pmf("r1")
        record.queue_length = 7
        after = estimator.response_time_pmf("r1")
        assert after is not before
        assert after.mean() > before.mean()


    def test_gateway_delay_window_is_convolved_not_point_shifted(self):
        # §5.3.1 extension: with a gateway-delay window T_i is a
        # distribution for every estimator, not just the base one.
        repo = InformationRepository(window_size=5, gateway_window_size=3)
        for delay in (0.0, 50.0, 100.0):
            _feed(repo, "r1", services=[100] * 2, queues=[100] * 2, gateway=delay)
        repo.record("r1").queue_length = 1  # the depth the history implies
        base = ResponseTimeEstimator(repo).response_time_pmf("r1")
        scaled = QueueScaledEstimator(repo).response_time_pmf("r1")
        assert base.items() == [(200.0, 1 / 3), (250.0, 1 / 3), (300.0, 1 / 3)]
        assert scaled.items() == base.items()


class TestBatchedFleetPipeline:
    """ISSUE 7: batched convolution refresh + the repository-version gate."""

    def _fleet(self, num_replicas=16, window=12, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        repository = InformationRepository(window_size=window)
        for index in range(num_replicas):
            name = f"replica-{index:04d}"
            for _ in range(window):
                repository.record_performance(
                    name,
                    float(max(0.0, rng.normal(100.0, 40.0))),
                    float(rng.exponential(15.0)),
                    queue_length=1,
                    now_ms=0.0,
                )
            repository.record_gateway_delay(
                name, float(max(0.0, rng.normal(3.0, 0.5))), now_ms=0.0
            )
        return repository

    def test_batch_refresh_matches_scalar_path(self):
        repository = self._fleet()
        replicas = repository.replicas()
        fast = ResponseTimeEstimator(repository).batch_probability_by(replicas, 150.0)
        assert fast == pytest.approx(specified(repository, 150.0), abs=1e-12)

    def test_batch_refresh_matches_after_fleet_wide_burst(self):
        repository = self._fleet()
        replicas = repository.replicas()
        estimator = ResponseTimeEstimator(repository)
        estimator.batch_probability_by(replicas, 150.0)  # warm every cache
        for name in replicas:  # every window moves at once
            repository.record_performance(
                name, 180.0, 25.0, queue_length=2, now_ms=1.0
            )
        fast = estimator.batch_probability_by(replicas, 150.0)
        assert fast == pytest.approx(specified(repository, 150.0), abs=1e-12)

    def test_version_gate_caches_steady_state(self):
        repository = self._fleet()
        replicas = repository.replicas()
        estimator = ResponseTimeEstimator(repository)
        first = estimator.batch_probability_by(replicas, 150.0)
        misses = estimator.cache_misses
        hits = estimator.cache_hits
        second = estimator.batch_probability_by(replicas, 150.0)
        assert second == first
        # The version gate short-circuits before any per-replica lookup,
        # so neither counter of the per-replica cache moves.
        assert estimator.cache_misses == misses
        assert estimator.cache_hits == hits

    def test_version_gate_sees_direct_queue_write(self, repo):
        # Probe replies assign record.queue_length directly; the setter
        # must bump repository.version so the fleet cache invalidates.
        _feed(repo, "r1", services=[100] * 5, queues=[10] * 5, gateway=1.0)
        before = repo.version
        repo.record("r1").queue_length = 9
        assert repo.version > before

    def test_version_gate_sees_membership_changes(self, repo):
        _feed(repo, "r1", services=[100] * 5, queues=[10] * 5, gateway=1.0)
        estimator = ResponseTimeEstimator(repo)
        assert estimator.batch_probability_by(["r1"], 150.0)[0] is not None
        before = repo.version
        repo.remove_replica("r1")
        assert repo.version > before
        with pytest.raises(KeyError):  # not the departed replica's old row
            estimator.batch_probability_by(["r1"], 150.0)


@pytest.mark.parametrize("estimator_cls", [ResponseTimeEstimator, QueueScaledEstimator])
@pytest.mark.parametrize(
    "evict",
    [
        lambda repo: repo.remove_replica("r1"),
        lambda repo: repo.sync_members(["r2"]),
    ],
    ids=["remove_replica", "sync_members"],
)
def test_rejoined_replica_is_never_served_its_old_row(repo, evict, estimator_cls):
    """A restarted replica's record starts its window versions over.

    Pushing as many samples as before the eviction makes every window
    version collide with the pre-eviction ones; neither the replica's
    entry nor its batch row may survive that.
    """
    _feed(repo, "r1", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    _feed(repo, "r2", services=[100] * 5, queues=[0] * 5, gateway=3.0)
    estimator = estimator_cls(repo)
    replicas = ["r1", "r2"]
    assert estimator.batch_probability_by(replicas, 150.0) == [1.0, 1.0]
    old = repo.record("r1")
    evict(repo)
    _feed(repo, "r1", services=[300] * 5, queues=[0] * 5, gateway=3.0)
    new = repo.record("r1")
    assert new is not old
    assert (
        new.service_times.version, new.queue_delays.version, new.gateway_delay_ms
    ) == (old.service_times.version, old.queue_delays.version, old.gateway_delay_ms)
    assert specified(repo, 150.0, estimator_cls) == [0.0, 1.0]
    assert estimator.batch_probability_by(replicas, 150.0) == [0.0, 1.0]
    assert estimator.probability_by("r1", 150.0) == 0.0


@pytest.mark.timeout(60)
def test_thousand_replica_selection_smoke():
    """n = 1024 end-to-end: estimator batch pass + Algorithm 1 (ISSUE 7).

    A smoke test, not a benchmark: it proves the fleet-scale path stays
    functional (and terminates promptly — pytest-timeout enforces the
    ceiling in CI) without asserting wall-clock numbers, which
    ``benchmarks/test_bench_scale.py`` owns.
    """
    import numpy as np

    from repro.core.selection import select_replicas_arrays
    from repro.experiments.fig3_overhead import build_loaded_repository

    repository = build_loaded_repository(1024, window_size=30, seed=0)
    estimator = ResponseTimeEstimator(repository)
    replicas = repository.replicas()
    names = np.asarray(replicas)
    for _ in range(3):  # cold pass, then the version-gated steady state
        probabilities = np.asarray(
            estimator.batch_probability_by(replicas, 150.0), dtype=float
        )
        result = select_replicas_arrays(names, probabilities, 0.9)
    assert 1 <= result.redundancy <= 1024
    assert set(result.selected) <= set(replicas)
