"""Tests for the stage-decomposition analysis."""

import pytest

from repro.analysis.stages import extract_stages, stage_summaries
from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.workload.scenarios import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def finished_run():
    config = ScenarioConfig(
        seed=0,
        num_replicas=3,
        service_distribution_factory=lambda host: Constant(40.0),
    )
    scenario = Scenario(config)
    client = scenario.add_client(
        "client-1",
        QoSSpec(config.service, 500.0, 0.5),
        num_requests=10,
        think_time=Constant(50.0),
    )
    scenario.run_to_completion()
    return scenario, client


def test_every_completed_request_is_decomposed(finished_run):
    scenario, client = finished_run
    stages = extract_stages(client.outcomes)
    assert len(stages) == len(client.outcomes)


def test_stage_sum_matches_total(finished_run):
    _scenario, client = finished_run
    for s in extract_stages(client.outcomes):
        parts = (
            s.client_ms + s.request_ms + s.queue_ms + s.service_ms + s.reply_ms
        )
        # Server-side demarshal/marshal live between the stages; the sum
        # must match the total up to those small gateway costs.
        assert parts <= s.total_ms + 1e-9
        assert s.total_ms - parts < 2.0


def test_service_stage_matches_configured_time(finished_run):
    _scenario, client = finished_run
    for s in extract_stages(client.outcomes):
        assert s.service_ms == pytest.approx(40.0)


def test_decomposition_follows_winning_replica(finished_run):
    _scenario, client = finished_run
    stages = {s.request_id: s for s in extract_stages(client.outcomes)}
    by_id = {o.request_id: o for o in client.outcomes}
    assert all(by_id[i].replica == s.replica for i, s in stages.items())


def test_network_share_is_small_on_lan(finished_run):
    _scenario, client = finished_run
    for s in extract_stages(client.outcomes):
        assert 0.0 <= s.network_share() < 0.4


def test_summaries_cover_all_stages(finished_run):
    _scenario, client = finished_run
    summaries = stage_summaries(extract_stages(client.outcomes))
    assert set(summaries) == {
        "client", "request-net", "queueing", "service", "reply-net", "total"
    }
    assert summaries["total"].mean > summaries["service"].mean


def test_empty_trace_raises():
    with pytest.raises(ValueError):
        stage_summaries([])
