"""EngineConfig: the one declaration, the one validator, and no second copy.

The default table is spelled out literally so a default cannot drift
silently; every rejection names its field; the AST guard keeps the
options from growing back as constructor keywords.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.estimator import QueueScaledEstimator
from repro.engine import ClassModels, EngineConfig
from repro.health import HealthConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

DEFAULTS = {
    "policy": None,
    "window_size": 5,
    "gateway_window_size": None,
    "selection_charge_ms": 0.3,
    "response_timeout_factor": 10.0,
    "violation_callback": None,
    "classifier": None,
    "estimator_factory": None,
    "probe_staleness_ms": None,
    "probe_interval_ms": 200.0,
    "bootstrap_probes": False,
    "retry": False,
    "health_config": None,
    "health_listener": None,
    "overload_config": False,
}


def test_the_default_table():
    assert dataclasses.asdict(EngineConfig()) == DEFAULTS


def test_a_misspelt_option_is_a_type_error():
    with pytest.raises(TypeError, match="window_sise"):
        EngineConfig(window_sise=5)


def test_a_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        EngineConfig().window_size = 7


@pytest.mark.parametrize(
    "field,value",
    [
        ("window_size", 0),
        ("gateway_window_size", 0),
        ("selection_charge_ms", -0.1),
        ("response_timeout_factor", 1.0),
        ("probe_staleness_ms", 0.0),
        ("probe_interval_ms", 0.0),
    ],
)
def test_out_of_range_values_are_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be .*got {value}"):
        EngineConfig(**{field: value})


def test_boundary_values_are_accepted():
    EngineConfig(
        window_size=1,
        gateway_window_size=1,
        selection_charge_ms=0.0,
        response_timeout_factor=1.01,
        probe_staleness_ms=0.001,
        probe_interval_ms=0.001,
    )


def test_a_health_listener_without_a_health_config_is_rejected():
    with pytest.raises(ValueError, match="health_listener needs a health_config"):
        EngineConfig(health_listener=lambda event: None)
    EngineConfig(health_listener=lambda event: None, health_config=HealthConfig())


def test_a_probe_interval_with_nothing_that_probes_is_accepted():
    # A15's no-health arm passes the 200 ms default this way.
    EngineConfig(probe_interval_ms=50.0)


def test_an_estimator_factory_must_build_on_the_configured_grid():
    models = ClassModels(
        EngineConfig(estimator_factory=lambda repo: QueueScaledEstimator(repo))
    )
    assert isinstance(models.estimator, QueueScaledEstimator)
    with pytest.raises(ValueError, match=r"1\.0 ms lattice, got 0\.25"):
        ClassModels(
            EngineConfig(
                estimator_factory=lambda repo: QueueScaledEstimator(
                    repo, bin_width_ms=0.25
                )
            )
        )


# -- one declaration: the options do not grow back as keywords -------------


def _init_parameters(path: str, cls: str):
    """Parameter names of ``cls.__init__`` in ``src/repro/<path>`` (no ``self``)."""
    for node in ast.walk(ast.parse((SRC / path).read_text())):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            (init,) = [
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ]
            args = init.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            return names[1:], args.vararg, args.kwarg
    raise AssertionError(f"{cls} not found in {path}")


@pytest.mark.parametrize(
    "path,cls,most",
    [
        ("gateway/handlers/timing_fault.py", "TimingFaultClientHandler", 12),
        ("engine/engine.py", "TimingFaultEngine", 10),
        ("engine/models.py", "ClassModels", 1),
    ],
)
def test_no_option_is_a_constructor_keyword(path, cls, most):
    names, vararg, kwarg = _init_parameters(path, cls)
    assert vararg is None and kwarg is None  # no **legacy shim
    assert "config" in names and len(names) <= most
    assert not set(names) & set(DEFAULTS)


@pytest.mark.parametrize(
    "name",
    [
        "ProbePlan",
        "retry_plan",
        "RetryPlan",
        "StaticMinResponsePolicy",
        "stale_after_ms",
        "hedge_suppress",
        "min_redundancy",
        "inflight_weight",
    ],
)
def test_the_folded_names_are_gone_from_src(name):
    assert [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if name in path.read_text()
    ] == []
