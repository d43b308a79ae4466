"""The adaptive response timeout: pmf-quantile driven, clamped to
``[deadline, factor × deadline]``, and bit-identical to the legacy fixed
timeout whenever disabled or cold."""

import pytest

from repro.health import HealthConfig
from repro.sim.random import Constant

from ..gateway.conftest import MiniStack


def warm_up(stack, client="c-1", requests=3):
    """Drive a few requests so every replica has model history."""

    def load():
        for i in range(requests):
            yield stack.invoke(client, i)
            yield stack.sim.timeout(2.0)

    stack.sim.spawn(load(), name="warmup")
    stack.sim.run()


class TestAdaptiveTimeout:
    def test_disabled_without_health_config(self, stack: MiniStack):
        stack.add_server("s-1", service_time=Constant(8.0))
        handler = stack.add_client(
            "c-1", deadline_ms=100.0, response_timeout_factor=10.0
        )
        assert handler.adaptive_timeout_quantile is None
        warm_up(stack)
        assert handler.engine.response_timeout_ms(("s-1",), "") == 1000.0

    def test_cold_model_keeps_the_legacy_ceiling(self, stack: MiniStack):
        stack.add_server("s-1", service_time=Constant(8.0))
        handler = stack.add_client(
            "c-1",
            deadline_ms=100.0,
            response_timeout_factor=10.0,
            health_config=HealthConfig(),
        )
        assert handler.adaptive_timeout_quantile == 0.99
        # No requests yet: no pmf for s-1 -> generous legacy wait.
        assert handler.engine.response_timeout_ms(("s-1",), "") == 1000.0

    def test_warm_model_clamps_up_to_the_deadline(self, stack: MiniStack):
        # Predicted responses (~10 ms) sit far below the 100 ms deadline:
        # the timeout must rise to the deadline, never below it.
        stack.add_server("s-1", service_time=Constant(8.0))
        handler = stack.add_client(
            "c-1",
            deadline_ms=100.0,
            response_timeout_factor=10.0,
            health_config=HealthConfig(),
        )
        warm_up(stack)
        assert handler.engine.response_timeout_ms(("s-1",), "") == 100.0

    def test_warm_model_between_deadline_and_ceiling(self, stack: MiniStack):
        # Predicted responses (~84 ms) exceed the 50 ms deadline: the
        # timeout follows the model, well under the 500 ms legacy wait.
        stack.add_server("s-1", service_time=Constant(80.0))
        handler = stack.add_client(
            "c-1",
            deadline_ms=50.0,
            response_timeout_factor=10.0,
            health_config=HealthConfig(),
        )
        warm_up(stack)
        timeout = handler.engine.response_timeout_ms(("s-1",), "")
        assert 50.0 < timeout < 150.0

    def test_worst_selected_replica_dominates(self, stack: MiniStack):
        stack.add_server("s-1", service_time=Constant(20.0))
        stack.add_server("s-2", service_time=Constant(80.0))
        handler = stack.add_client(
            "c-1",
            deadline_ms=50.0,
            response_timeout_factor=10.0,
            health_config=HealthConfig(),
        )
        warm_up(stack, requests=4)
        both = handler.engine.response_timeout_ms(("s-1", "s-2"), "")
        fast_only = handler.engine.response_timeout_ms(("s-1",), "")
        assert both > fast_only

    def test_any_cold_member_reverts_to_the_ceiling(self, stack: MiniStack):
        stack.add_server("s-1", service_time=Constant(8.0))
        handler = stack.add_client(
            "c-1",
            deadline_ms=100.0,
            response_timeout_factor=10.0,
            health_config=HealthConfig(),
        )
        warm_up(stack)
        assert handler.engine.response_timeout_ms(("s-1", "ghost"), "") == 1000.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="adaptive_timeout_quantile"):
            HealthConfig(adaptive_timeout_quantile=1.5)
