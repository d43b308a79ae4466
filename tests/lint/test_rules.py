"""Per-rule fixture tests: every rule proven by a trigger and a clean twin.

Each fixture is linted through ``check_source`` with a ``virtual_path``
inside the rule's scope (the fixtures live under ``tests/lint/fixtures``,
where no rule applies by path), so the assertions exercise exactly the
rule logic, not the directory layout.
"""

from __future__ import annotations

import pytest
from repro_lint.engine import check_source
from repro_lint.rules import ALL_RULES, rule_by_id

from .conftest import FIXTURES_DIR

# (rule id, trigger fixture, clean fixture, in-scope virtual path,
#  minimum violations the trigger must raise)
CASES = [
    ("RL001", "rl001_trigger.py", "rl001_clean.py", "src/repro/core/sampler.py", 3),
    ("RL002", "rl002_trigger.py", "rl002_clean.py", "src/repro/sim/clocked.py", 2),
    ("RL003", "rl003_trigger.py", "rl003_clean.py", "src/repro/core/compare.py", 2),
    ("RL004", "rl004_trigger.py", "rl004_clean.py", "src/repro/overload/meddler.py", 3),
    ("RL005", "rl005_trigger.py", "rl005_clean.py", "src/repro/sim/events.py", 1),
    ("RL006", "rl006_trigger.py", "rl006_clean.py", "src/repro/gateway/handlers/sample.py", 2),
    ("RL007", "rl007_trigger.py", "rl007_clean.py", "src/repro/experiments/sweep.py", 3),
    ("RL008", "rl008_trigger.py", "rl008_clean.py", "src/repro/core/estimator.py", 3),
    ("RL009", "rl009_trigger.py", "rl009_clean.py", "src/repro/gateway/handlers/push.py", 4),
]


def _lint(fixture: str, rule_id: str, virtual_path: str):
    source = (FIXTURES_DIR / fixture).read_text(encoding="utf-8")
    return check_source(
        source,
        path=fixture,
        rules=[rule_by_id(rule_id)],
        virtual_path=virtual_path,
    )


@pytest.mark.parametrize("rule_id,trigger,clean,virtual,minimum", CASES)
class TestFixturePairs:
    def test_trigger_fixture_fails(self, rule_id, trigger, clean, virtual, minimum):
        findings = _lint(trigger, rule_id, virtual)
        assert len(findings) >= minimum
        assert {f.rule_id for f in findings} == {rule_id}
        assert all(f.line > 0 for f in findings)

    def test_clean_fixture_passes(self, rule_id, trigger, clean, virtual, minimum):
        assert _lint(clean, rule_id, virtual) == []


class TestScoping:
    """Rules fire only inside the paths their invariants cover."""

    def test_rl001_exempt_inside_rng(self):
        assert _lint("rl001_trigger.py", "RL001", "src/repro/rng/streams.py") == []

    def test_rl002_exempt_outside_sim_layers(self):
        assert _lint("rl002_trigger.py", "RL002", "src/repro/workload/client.py") == []

    def test_rl003_exempt_in_distribution_module(self):
        assert _lint("rl003_trigger.py", "RL003", "src/repro/core/distribution.py") == []

    def test_rl004_allowed_only_in_the_request_book_module(self):
        assert _lint("rl004_trigger.py", "RL004", "src/repro/engine/book.py") == []
        # The old exempt path is held to the rule like everyone else.
        handlers = "src/repro/gateway/handlers/timing_fault.py"
        assert len(_lint("rl004_trigger.py", "RL004", handlers)) == 3

    def test_rl005_scoped_to_hot_files(self):
        assert _lint("rl005_trigger.py", "RL005", "src/repro/core/selection.py") == []

    def test_rl006_exempt_outside_gateway_handlers(self):
        # The kernel itself (and drivers, experiments, ...) read
        # `sim.now` legitimately — only host-level handler code is held
        # to the host-clock discipline.
        assert _lint("rl006_trigger.py", "RL006", "src/repro/sim/kernel.py") == []

    def test_rl007_exempt_where_the_measured_overhead_is_the_point(self):
        # The engine's default and the library's own users may measure;
        # only code that builds simulated runs must pin.
        assert _lint("rl007_trigger.py", "RL007", "src/repro/core/selection.py") == []

    def test_rl008_allowed_only_in_the_distribution_module(self):
        home = "src/repro/core/distribution.py"
        assert _lint("rl008_trigger.py", "RL008", home) == []
        # A namesake elsewhere in the package is not the home.
        other = "src/repro/analysis/distribution.py"
        assert len(_lint("rl008_trigger.py", "RL008", other)) == 3

    def test_rl009_scoped_to_the_layers_that_send_and_schedule(self):
        for layer in ("group", "net", "replica", "engine"):
            assert len(_lint("rl009_trigger.py", "RL009", f"src/repro/{layer}/x.py")) == 4
        # Experiments and analysis may loop over sets: their order never
        # reaches a msg_id or a kernel sequence number.
        assert _lint("rl009_trigger.py", "RL009", "src/repro/experiments/x.py") == []


def test_every_rule_has_a_fixture_pair():
    covered = {case[0] for case in CASES}
    assert covered == {rule.rule_id for rule in ALL_RULES}
