"""Unit tests for Algorithm 1 and the dynamic selection policy."""

import numpy as np
import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.model import subset_timeliness_probability
from repro.core.qos import QoSSpec
from repro.core.repository import InformationRepository
from repro.core.selection import (
    DynamicSelectionPolicy,
    ReplicaProbability,
    SelectionContext,
    select_replicas,
    select_replicas_arrays,
)


def _candidates(probabilities):
    return [
        ReplicaProbability(f"r{i + 1}", p) for i, p in enumerate(probabilities)
    ]


class TestSelectReplicas:
    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            select_replicas([], 0.5)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            select_replicas(_candidates([0.5]), 1.5)
        with pytest.raises(ValueError):
            ReplicaProbability("r1", -0.2)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_array_path_rejects_what_the_object_path_rejects(self, bad):
        with pytest.raises(ValueError):
            ReplicaProbability("b", bad)
        with pytest.raises(ValueError, match=r"probabilities must be in \[0, 1\]"):
            select_replicas_arrays(
                np.array(["a", "b", "c"]), np.array([0.9, bad, 0.5]), 0.9
            )

    def test_minimum_selection_is_two_replicas(self):
        # Pc = 0 is satisfied by any single replica in X, plus the
        # protected best: Algorithm 1's floor of 2 (paper §6).
        result = select_replicas(_candidates([0.9, 0.8, 0.7]), 0.0)
        assert result.redundancy == 2
        assert not result.used_fallback

    def test_best_replica_always_included_first(self):
        result = select_replicas(_candidates([0.2, 0.95, 0.5]), 0.0)
        assert result.selected[0] == "r2"  # highest probability

    def test_acceptance_test_excludes_best_member(self):
        # Best = 0.99 but X must reach 0.9 alone: one 0.5 is not enough,
        # so X = {0.5, 0.5, 0.5} (1 - 0.125 = 0.875 < 0.9 -> need 4th).
        result = select_replicas(
            _candidates([0.99, 0.5, 0.5, 0.5, 0.5]), 0.9
        )
        crash_set = [name for name in result.selected if name != "r1"]
        probs = {"r2": 0.5, "r3": 0.5, "r4": 0.5, "r5": 0.5}
        achieved = subset_timeliness_probability(
            probs[name] for name in crash_set
        )
        assert achieved >= 0.9
        assert "r1" in result.selected

    def test_crash_safe_probability_matches_reported(self):
        result = select_replicas(_candidates([0.9, 0.8, 0.7, 0.6]), 0.9)
        crash_set = result.selected[1:]
        probs = {"r1": 0.9, "r2": 0.8, "r3": 0.7, "r4": 0.6}
        expected = subset_timeliness_probability(probs[n] for n in crash_set)
        assert result.crash_safe_probability == pytest.approx(expected)
        assert result.crash_safe_probability >= 0.9

    def test_single_crash_guarantee_holds_for_any_member(self):
        # Equation 3: remove ANY one member of K; the rest still meet Pc.
        probabilities = [0.85, 0.7, 0.6, 0.55, 0.4]
        target = 0.8
        result = select_replicas(_candidates(probabilities), target)
        assert not result.used_fallback
        prob_map = {c.name: c.probability for c in _candidates(probabilities)}
        for excluded in result.selected:
            rest = [prob_map[n] for n in result.selected if n != excluded]
            assert subset_timeliness_probability(rest) >= target - 1e-12

    def test_fallback_returns_all_replicas(self):
        result = select_replicas(_candidates([0.3, 0.2, 0.1]), 0.999)
        assert result.used_fallback
        assert set(result.selected) == {"r1", "r2", "r3"}

    def test_fallback_orders_by_probability(self):
        result = select_replicas(_candidates([0.1, 0.3, 0.2]), 0.999)
        assert result.selected == ("r2", "r3", "r1")

    def test_single_candidate_falls_back_to_itself(self):
        result = select_replicas(_candidates([0.99]), 0.5)
        assert result.used_fallback
        assert result.selected == ("r1",)

    def test_never_selects_more_than_needed(self):
        # With Pc = 0.5 and replicas at 0.8, one X member suffices.
        result = select_replicas(_candidates([0.9, 0.8, 0.8, 0.8]), 0.5)
        assert result.redundancy == 2

    def test_ties_break_deterministically_by_name(self):
        result = select_replicas(_candidates([0.5, 0.5, 0.5]), 0.0)
        assert result.selected == ("r1", "r2")

    def test_crash_tolerance_zero_skips_protection(self):
        result = select_replicas(_candidates([0.9, 0.8]), 0.5, crash_tolerance=0)
        assert result.selected == ("r1",)
        assert result.crash_safe_probability == pytest.approx(0.9)

    def test_crash_tolerance_two_protects_two_best(self):
        result = select_replicas(
            _candidates([0.9, 0.9, 0.8, 0.8, 0.7]), 0.8, crash_tolerance=2
        )
        assert not result.used_fallback
        assert "r1" in result.selected and "r2" in result.selected
        # Removing the two protected members must still meet the target.
        prob_map = {"r3": 0.8, "r4": 0.8, "r5": 0.7}
        rest = [
            prob_map[n] for n in result.selected if n in prob_map
        ]
        assert subset_timeliness_probability(rest) >= 0.8

    def test_crash_tolerance_validation(self):
        with pytest.raises(ValueError):
            select_replicas(_candidates([0.5]), 0.5, crash_tolerance=-1)

    def test_full_probability_reported(self):
        result = select_replicas(_candidates([0.5, 0.5]), 0.0)
        assert result.full_probability == pytest.approx(0.75)

    def test_the_array_path_validates_and_protects_like_the_object_path(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            select_replicas_arrays(np.array([]), np.array([]), 0.5)
        with pytest.raises(ValueError, match="max_size must be >= 1"):
            select_replicas(_candidates([0.5]), 0.5, max_size=0)
        # One crash tolerated by default: the best is protected.
        names, probabilities = np.array(["a", "b"]), np.array([0.9, 0.8])
        result = select_replicas_arrays(names, probabilities, 0.5)
        assert result.selected == ("a", "b")

    def test_a_cap_never_drops_below_the_protected_best_plus_one(self):
        result = select_replicas(_candidates([0.5] * 4), 0.85, max_size=1)
        assert result.selected == ("r1", "r2") and result.capped

    def test_a_capped_selection_reports_the_trimmed_set(self):
        # Pc = 0.85 needs three X members behind the protected best; the
        # cap keeps one, and both probabilities describe that pair.
        result = select_replicas(_candidates([0.5] * 4), 0.85, max_size=2)
        assert result.selected == ("r1", "r2")
        assert result.capped and not result.used_fallback
        assert result.crash_safe_probability == 0.5
        assert result.full_probability == 0.75

    @pytest.mark.parametrize(
        "max_size, selected, full",
        [(None, 3, 0.88), (3, 3, 0.88), (2, 2, 0.8)],
    )
    def test_the_fallback_promises_no_crash_safe_probability(
        self, max_size, selected, full
    ):
        # No prefix covers Pc, so no set (capped or not) carries the
        # guarantee: Line 15 reports 0.0, whatever the remainder covers.
        result = select_replicas(
            _candidates([0.6, 0.5, 0.4]), 0.99, max_size=max_size
        )
        assert result.used_fallback
        assert result.selected == ("r1", "r2", "r3")[:selected]
        assert result.crash_safe_probability == 0.0
        assert result.full_probability == pytest.approx(full)
        assert result.capped is (selected < 3)

    def test_vectorized_matches_reference_implementation(self):
        # The batched numpy version against a line-by-line transcription
        # of Algorithm 1, over a random sweep of inputs.
        def reference(candidates, min_probability, crash_tolerance):
            ordered = sorted(
                candidates, key=lambda c: (-c.probability, c.name)
            )
            protected = ordered[:crash_tolerance]
            chosen, product = [], 1.0
            for candidate in ordered[crash_tolerance:]:
                chosen.append(candidate)
                product *= 1.0 - candidate.probability
                if 1.0 - product >= min_probability:
                    return tuple(c.name for c in protected + chosen), False
            return tuple(c.name for c in ordered), True

        rng = np.random.default_rng(42)
        for _ in range(200):
            count = int(rng.integers(1, 10))
            candidates = _candidates(rng.uniform(0.0, 1.0, size=count))
            min_probability = float(rng.uniform(0.0, 1.0))
            crash_tolerance = int(rng.integers(0, 4))
            expected, fallback = reference(
                candidates, min_probability, crash_tolerance
            )
            result = select_replicas(
                candidates, min_probability, crash_tolerance=crash_tolerance
            )
            assert result.selected == expected
            assert result.used_fallback is fallback


class TestDynamicSelectionPolicy:
    def _context(self, repo, deadline=120.0, min_probability=0.9):
        estimator = ResponseTimeEstimator(repo)
        return SelectionContext(
            replicas=repo.replicas(),
            estimator=estimator,
            qos=QoSSpec("svc", deadline, min_probability),
            now_ms=0.0,
            rng=np.random.default_rng(0),
        )

    def _loaded_repo(self, means):
        repo = InformationRepository(window_size=5)
        for name, mean in means.items():
            for _ in range(5):
                repo.record_performance(name, mean, 0.0, 0, now_ms=0.0)
            repo.record_gateway_delay(name, 3.0, now_ms=0.0)
        return repo

    def test_bootstrap_selects_all_when_history_missing(self):
        repo = InformationRepository()
        repo.add_replica("r1")
        repo.add_replica("r2")
        policy = DynamicSelectionPolicy()
        decision = policy.decide(self._context(repo))
        assert set(decision.selected) == {"r1", "r2"}
        assert decision.meta["bootstrap"] is True

    def test_partial_history_also_bootstraps(self):
        repo = self._loaded_repo({"r1": 100.0})
        repo.add_replica("r2")  # nothing recorded
        decision = DynamicSelectionPolicy().decide(self._context(repo))
        assert set(decision.selected) == {"r1", "r2"}
        assert decision.meta["bootstrap"] is True

    def test_selects_fast_replicas_for_tight_deadline(self):
        repo = self._loaded_repo({"fast-1": 50.0, "fast-2": 60.0, "slow": 500.0})
        decision = DynamicSelectionPolicy().decide(self._context(repo))
        assert decision.meta["bootstrap"] is False
        assert "slow" not in decision.selected
        assert set(decision.selected) == {"fast-1", "fast-2"}

    def test_overhead_compensation_tightens_deadline(self):
        repo = self._loaded_repo({"r1": 100.0, "r2": 100.0})
        policy = DynamicSelectionPolicy(
            compensate_overhead=True, fixed_overhead_ms=5.0
        )
        decision = policy.decide(self._context(repo, deadline=107.0))
        # Effective deadline 102.0: response times are 103 -> F = 0.
        assert decision.meta["effective_deadline_ms"] == pytest.approx(102.0)
        assert decision.meta["fallback"] is True

    def test_without_compensation_deadline_unchanged(self):
        repo = self._loaded_repo({"r1": 100.0, "r2": 100.0})
        policy = DynamicSelectionPolicy(compensate_overhead=False)
        decision = policy.decide(self._context(repo, deadline=107.0))
        assert decision.meta["effective_deadline_ms"] == pytest.approx(107.0)
        assert decision.meta["fallback"] is False

    def test_overhead_is_measured_each_decision(self):
        repo = self._loaded_repo({"r1": 100.0})
        policy = DynamicSelectionPolicy()
        assert policy.last_overhead_ms == 0.0
        policy.decide(self._context(repo))
        assert policy.last_overhead_ms > 0.0

    @pytest.mark.parametrize("deadline, effective", [(5.0, 0.0), (7.5, 0.5)])
    def test_compensation_never_takes_the_deadline_below_zero(
        self, deadline, effective
    ):
        repo = self._loaded_repo({"r1": 100.0, "r2": 100.0})
        policy = DynamicSelectionPolicy(fixed_overhead_ms=7.0)
        decision = policy.decide(self._context(repo, deadline=deadline))
        assert decision.meta["effective_deadline_ms"] == effective

    @pytest.mark.parametrize("history", [False, True], ids=["bootstrap", "model"])
    def test_the_overhead_is_the_decision_s_wall_time_in_ms(
        self, monkeypatch, history
    ):
        repo = self._loaded_repo({"r1": 100.0, "r2": 100.0} if history else {})
        repo.add_replica("r1")
        clock = iter([10.0, 10.002])
        monkeypatch.setattr(
            "repro.core.selection.time.perf_counter", lambda: next(clock, 10.002)
        )
        policy = DynamicSelectionPolicy(compensate_overhead=False)
        decision = policy.decide(self._context(repo))
        assert decision.meta["bootstrap"] is not history
        assert policy.last_overhead_ms == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("cap, kept", [(None, 4), (2, 2), (0, 1)])
    def test_the_bootstrap_respects_the_governor_s_cap(self, cap, kept):
        repo = InformationRepository()
        for name in ("r1", "r2", "r3", "r4"):
            repo.add_replica(name)
        ctx = self._context(repo)
        ctx.max_redundancy = cap
        decision = DynamicSelectionPolicy().decide(ctx)
        assert decision.selected == ("r1", "r2", "r3", "r4")[:kept]
        assert decision.meta == {"bootstrap": True, "fallback": False}

    def test_negative_fixed_overhead_rejected(self):
        with pytest.raises(ValueError):
            DynamicSelectionPolicy(fixed_overhead_ms=-1.0)
        for overhead in (0.0, 0.5):
            assert DynamicSelectionPolicy(fixed_overhead_ms=overhead).fixed_overhead_ms == overhead

    def test_decision_meta_has_probabilities(self):
        repo = self._loaded_repo({"r1": 50.0, "r2": 60.0})
        decision = DynamicSelectionPolicy().decide(self._context(repo))
        assert set(decision.meta["probabilities"]) == {"r1", "r2"}

    def test_empty_replica_list_returns_empty(self):
        repo = InformationRepository()
        decision = DynamicSelectionPolicy().decide(self._context(repo))
        assert decision.selected == ()
