"""What the estimator re-derives under the paper's own traffic.

The §6 testbed (7 replicas, l = 5, two closed-loop clients) with each
client's estimator watched: a decision must re-derive exactly the rows
the repository's change log named since that estimator last read — none
twice, none the log did not name.  And what one re-derived row is made
of, as exact counts (host timing cannot flake them): inside ``decide``
no pmf goes through the validating constructor, a row costs at most four
derived constructions and exactly one sign/mass check, and the traffic
itself — hits, misses, convolutions per decision — is the parent
commit's, literally.  Plus the structural guard that the memo layers the
single entry replaced stay gone from ``src/``.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.core import estimator as estimator_module
from repro.core.distribution import DiscretePMF
from repro.core.estimator import ResponseTimeEstimator
from repro.core.qos import QoSSpec
from repro.core.selection import DynamicSelectionPolicy
from repro.workload.scenarios import Scenario, ScenarioConfig

REQUESTS = 40


class WatchedEstimator(ResponseTimeEstimator):
    """Records, per decision, the rows named by the log and the rows derived."""

    def __init__(self, repository):
        super().__init__(repository)
        self.seen = repository.version  # as of this estimator's last read
        self.derived = []  # since the last decision
        self.total_derived = 0
        # (named ∩ requested with history, derived, hits, misses, patched?)
        self.decisions = []

    def _sums(self, records):
        self.derived += [record.name for record in records]
        return super()._sums(records)

    def batch_probability_by(self, replicas, deadline_ms):
        repository = self.repository
        named = repository.changed_since(self.seen)
        assert self.derived == []  # reads between decisions find current entries
        before = (self.cache_hits, self.cache_misses, self.batch_builds)
        result = super().batch_probability_by(replicas, deadline_ms)
        hits, misses, builds = (
            after - was
            for after, was in zip(
                (self.cache_hits, self.cache_misses, self.batch_builds), before
            )
        )
        if named is not None:  # (a view change names nobody: every row is re-read)
            expected = sorted(
                name
                for name in set(named) & set(replicas)
                if repository.record(name).has_history
            )
            self.decisions.append(
                (expected, self.derived, hits, misses, builds == 0)
            )
        self.total_derived += len(self.derived)
        self.seen, self.derived = repository.version, []
        return result


def run_testbed(seed, estimator_factory):
    """The §6 testbed to completion; returns its clients' estimators."""
    scenario = Scenario(ScenarioConfig(seed=seed, num_replicas=7, window_size=5))
    for name, deadline, probability in (
        ("client-1", 200.0, 0.0),
        ("client-2", 160.0, 0.9),
    ):
        scenario.add_client(
            name,
            QoSSpec(scenario.config.service, deadline, probability),
            num_requests=REQUESTS,
            handler_kwargs={"estimator_factory": estimator_factory},
        )
    scenario.run_to_completion()
    return [handler.estimator for handler in scenario.handlers.values()]


@pytest.fixture(scope="module")
def estimators():
    return run_testbed(4, WatchedEstimator)


def test_a_decision_rederives_exactly_the_rows_the_log_named(estimators):
    for estimator in estimators:
        assert len(estimator.decisions) >= REQUESTS - 2  # all but the bootstrap
        for named, derived, _, _, _ in estimator.decisions:
            assert sorted(derived) == named
            assert len(set(derived)) == len(derived)  # no row derived twice


def test_every_rederivation_is_a_miss_and_nothing_else_is(estimators):
    for estimator in estimators:
        patched = 0
        for _, derived, hits, misses, on_patch_path in estimator.decisions:
            assert misses == len(derived)
            if on_patch_path:
                # Every replica has history here: the rows not re-derived
                # are exactly the rows served as they were.
                assert hits == 7 - len(derived)
                patched += 1
        assert patched >= REQUESTS - 5  # the patch path is what was pinned
        info = estimator.cache_info()
        assert info["misses"] == estimator.total_derived
        assert info["hits"] > 0
        assert info["entries"] == 7


# -- what a re-derived row is made of ------------------------------------------


@pytest.fixture(scope="module")
def constructions():
    """Seed 0 with every pmf construction inside ``decide`` counted.

    Returns ``(counts, convolutions per decision, estimators)``.
    """
    counts, convolutions, inside = Counter(), [], []

    def counting(owner, name, weigh=lambda *args: 1):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if inside:
                counts[name] += weigh(*args)
            return original(*args, **kwargs)

        # (``_derived`` is looked up on the class: hand it back unbound.)
        is_classmethod = hasattr(original, "__self__")
        patch.setattr(owner, name, staticmethod(counted) if is_classmethod else counted)

    def decide(self, ctx, original=DynamicSelectionPolicy.decide):
        before = counts["convolve"] + counts["batch_convolve"]
        inside.append(True)
        try:
            return original(self, ctx)
        finally:
            inside.pop()
            convolutions.append(
                counts["convolve"] + counts["batch_convolve"] - before
            )

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__init__", "_derived", "validated", "convolve"):
            counting(DiscretePMF, name)
        counting(estimator_module, "batch_convolve", weigh=len)  # one per pair
        patch.setattr(DynamicSelectionPolicy, "decide", decide)
        estimators = run_testbed(0, ResponseTimeEstimator)
    return counts, convolutions, estimators


def test_no_validated_construction_on_the_decision_path(constructions):
    counts, _, estimators = constructions
    misses = sum(estimator.cache_misses for estimator in estimators)
    assert counts["__init__"] == 0  # outside input only; decide holds none
    # S_i, W_i, S ⊛ W, + T_i: each derived once, through the private path.
    assert misses < counts["_derived"] <= 4 * misses
    # The check the constructor made on every one of them is paid once,
    # on the pmf that reaches the batch state.
    assert counts["validated"] == misses


def test_the_traffic_is_the_parent_commits(constructions):
    _, convolutions, estimators = constructions
    assert [
        (estimator.cache_hits, estimator.cache_misses) for estimator in estimators
    ] == [(148, 125), (151, 122)]
    # ``convolve`` calls plus batched pairs, per decision (both clients,
    # in decision order): which stale rows share a batch fixes FFT sizes.
    assert len(convolutions) == 2 * REQUESTS
    assert sum(convolutions) == 247
    assert convolutions[:20] == [0, 0, 7, 7, 2, 2, 3, 3, 5, 5, 3, 3, 3, 3, 2, 2, 3, 3, 4, 4]


# -- structural guard ----------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "name", ["incremental", "_conv_cache", "_pmf_cache", "_cache_key", ".prune("]
)
def test_the_version_keyed_memo_layers_are_gone(name):
    assert [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if name in path.read_text()
    ] == []
