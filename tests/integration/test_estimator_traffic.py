"""What the estimator re-derives under the paper's own traffic.

The §6 testbed (7 replicas, l = 5, two closed-loop clients) with each
client's estimator watched: a decision must re-derive exactly the rows
the repository's change log named since that estimator last read — none
twice, none the log did not name.  Plus the structural guard that the
memo layers the single entry replaced stay gone from ``src/``.
"""

from pathlib import Path

import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.qos import QoSSpec
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
        before = (self.cache_hits, self.cache_misses, self.matrix_builds)
        result = super().batch_probability_by(replicas, deadline_ms)
        hits, misses, builds = (
            after - was
            for after, was in zip(
                (self.cache_hits, self.cache_misses, self.matrix_builds), before
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


@pytest.fixture(scope="module")
def estimators():
    scenario = Scenario(ScenarioConfig(seed=4, num_replicas=7, window_size=5))
    for name, deadline, probability in (
        ("client-1", 200.0, 0.0),
        ("client-2", 160.0, 0.9),
    ):
        scenario.add_client(
            name,
            QoSSpec(scenario.config.service, deadline, probability),
            num_requests=REQUESTS,
            handler_kwargs={"estimator_factory": WatchedEstimator},
        )
    scenario.run_to_completion()
    return [handler.estimator for handler in scenario.handlers.values()]


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
