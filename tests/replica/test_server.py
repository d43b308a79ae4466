"""Unit tests for the replica application."""

import pytest

from repro.orb.object import MethodRequest
from repro.replica.load import ServiceProfile, StepLoad
from repro.replica.server import ReplicaApplication
from repro.rng import RNGManager
from repro.sim.random import Constant
from repro.workload.scenarios import IntegerServant, make_interface


@pytest.fixture
def app(streams):
    interface = make_interface("search", "process")
    return ReplicaApplication(
        host="replica-1",
        servant=IntegerServant(interface),
        profile=ServiceProfile(default=Constant(10.0)),
        streams=streams,
    )


def test_service_name_comes_from_interface(app):
    assert app.service == "search"


def test_execute_dispatches_and_counts(app):
    value = app.execute(MethodRequest("search", "process", (7,)))
    assert value == 7
    assert app.requests_served == 1


def test_servant_application_errors_propagate(app):
    # A TypeError from the servant itself is an application bug and
    # surfaces unchanged.
    with pytest.raises(TypeError):
        app.execute(MethodRequest("search", "process", (None,)))
    assert app.requests_served == 0


def test_service_duration_uses_profile(app):
    assert app.service_duration("process", now_ms=0.0) == 10.0


def test_service_duration_reflects_load(streams):
    interface = make_interface()
    app = ReplicaApplication(
        host="replica-1",
        servant=IntegerServant(interface),
        profile=ServiceProfile(
            default=Constant(10.0), load=StepLoad([(50.0, 2.0)])
        ),
        streams=streams,
    )
    assert app.service_duration("process", now_ms=0.0) == 10.0
    assert app.service_duration("process", now_ms=100.0) == 20.0


def test_replicas_draw_from_distinct_streams():
    from repro.sim.random import Normal

    streams = RNGManager(base_seed=5)
    interface = make_interface()

    def build(host):
        return ReplicaApplication(
            host=host,
            servant=IntegerServant(interface),
            profile=ServiceProfile(default=Normal(100.0, 50.0)),
            streams=streams,
        )

    a, b = build("replica-a"), build("replica-b")
    samples_a = [a.service_duration("process", 0.0) for _ in range(10)]
    samples_b = [b.service_duration("process", 0.0) for _ in range(10)]
    assert samples_a != samples_b
