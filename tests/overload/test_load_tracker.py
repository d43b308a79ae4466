"""Unit tests for the load tracker (repro.overload.load)."""

import pytest

from repro.overload import LoadTracker
from repro.overload.load import EWMA_ALPHA, TARGET_QUEUE_DEPTH


def test_config_validation():
    # A positive saturation depth and an EWMA weight in (0, 1].
    assert TARGET_QUEUE_DEPTH > 0
    assert 0.0 < EWMA_ALPHA <= 1.0


def test_unseen_replica_and_empty_pool_read_idle():
    tracker = LoadTracker()
    assert tracker.replica_load("s-1") == 0.0
    assert tracker.system_load() == 0.0
    assert tracker.system_load([]) == 0.0
    # Cold start: known names but no observations must read idle too.
    assert tracker.system_load(["s-1", "s-2"]) == 0.0


def test_reply_folds_ewma_of_the_implied_depth():
    tracker = LoadTracker()
    tracker.observe_reply("s-1", queue_length=6)
    assert tracker.replica_load("s-1") == pytest.approx(6 / TARGET_QUEUE_DEPTH)
    tracker.observe_reply("s-1", queue_length=0)
    # EWMA: alpha * 0 + (1 - alpha) * 6, over the target depth.
    assert tracker.replica_load("s-1") == pytest.approx(
        (1 - EWMA_ALPHA) * 6 / TARGET_QUEUE_DEPTH
    )
    assert tracker.observations == 2


def test_implied_depth_is_max_of_queue_length_and_tq_over_ts():
    tracker = LoadTracker()
    # Queue reads short but the request waited 6 service times: load.
    tracker.observe_reply(
        "s-1", queue_length=1, queue_delay_ms=30.0, service_time_ms=5.0
    )
    assert tracker.replica_load("s-1") == pytest.approx(6.0 / TARGET_QUEUE_DEPTH)
    # Unknown service time falls back to the queue length alone.
    tracker.observe_reply(
        "s-2", queue_length=3, queue_delay_ms=30.0, service_time_ms=0.0
    )
    assert tracker.replica_load("s-2") == pytest.approx(3.0 / TARGET_QUEUE_DEPTH)


def test_probe_observation_feeds_the_same_index():
    tracker = LoadTracker()
    tracker.observe_probe("s-1", queue_length=8)
    assert tracker.replica_load("s-1") == pytest.approx(8 / TARGET_QUEUE_DEPTH)


def test_system_load_averages_over_the_given_pool():
    tracker = LoadTracker()
    tracker.observe_reply("s-1", queue_length=6)
    tracker.observe_reply("s-2", queue_length=0)
    busy = 6 / TARGET_QUEUE_DEPTH
    assert tracker.system_load(["s-1", "s-2"]) == pytest.approx(busy / 2)
    # An idle third replica dilutes the mean.
    assert tracker.system_load(["s-1", "s-2", "s-3"]) == pytest.approx(busy / 3)


def test_inflight_component_and_quarantine_concentration():
    full = int(2 * TARGET_QUEUE_DEPTH)
    calls = {"n": full}
    tracker = LoadTracker(inflight_provider=lambda: calls["n"])
    # 2 replicas x the target depth in flight = a full target's worth.
    assert tracker.system_load(["s-1", "s-2"]) == pytest.approx(1.0)
    # The same in-flight work over a *shrunken* active set (quarantine)
    # reads as higher load — the governor tightens, not re-amplifies.
    assert tracker.system_load(["s-1"]) == pytest.approx(2.0)
    calls["n"] = 0
    assert tracker.system_load(["s-1", "s-2"]) == 0.0


def test_sync_members_drops_departed_state():
    tracker = LoadTracker()
    tracker.observe_reply("s-1", queue_length=4)
    tracker.observe_reply("s-2", queue_length=4)
    tracker.sync_members(["s-2"])
    assert tracker.replica_load("s-1") == 0.0  # rejoin starts fresh
    assert tracker.replica_load("s-2") > 0.0


def test_negative_implied_depth_rejected():
    tracker = LoadTracker()
    with pytest.raises(ValueError):
        tracker.observe_reply("s-1", queue_length=-1)
