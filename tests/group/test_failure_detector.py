"""Unit tests for the heartbeat-style failure detector."""

import pytest

from repro.group.failure_detector import CONFIRM_POLLS, FailureDetector


@pytest.fixture
def detector(sim, lan):
    return FailureDetector(sim, lan, poll_interval_ms=10.0)


def declarations(sim, detector):
    """``[(host, instant)]`` of every crash ``detector`` declares from now on."""
    declared = []
    detector.on_crash(lambda host: declared.append((host, sim.now)))
    return declared


def test_constructor_validation(sim, lan):
    with pytest.raises(ValueError):
        FailureDetector(sim, lan, poll_interval_ms=0.0)


def test_watch_requires_known_host(detector):
    with pytest.raises(KeyError):
        detector.watch("ghost")


def test_up_host_is_never_declared(sim, detector):
    detector.watch("server-1")
    sim.run(until=500.0)
    assert not detector.is_declared_crashed("server-1")


def test_crash_detected_within_latency_bound(sim, lan, detector):
    detector.watch("server-1")
    declared = declarations(sim, detector)
    sim.call_in(25.0, lambda: lan.mark_down("server-1"))
    sim.run(until=200.0)
    ((host, declared_at),) = declared
    assert host == "server-1"
    # Worst case: the crash just misses a sample, then CONFIRM_POLLS more.
    assert 25.0 < declared_at <= 25.0 + 10.0 * (CONFIRM_POLLS + 1)


def test_transient_blip_not_declared(sim, lan, detector):
    # Down for less than one poll interval: never observed down twice.
    detector.watch("server-1")
    sim.call_in(11.0, lambda: lan.mark_down("server-1"))
    sim.call_in(14.0, lambda: lan.mark_up("server-1"))
    sim.run(until=200.0)
    assert not detector.is_declared_crashed("server-1")


def test_crash_declared_only_once(sim, lan, detector):
    detector.watch("server-1")
    crashes = []
    detector.on_crash(crashes.append)
    lan.mark_down("server-1")
    sim.run(until=300.0)
    assert crashes == ["server-1"]


def test_recovery_clears_declaration(sim, lan, detector):
    detector.watch("server-1")
    lan.mark_down("server-1")
    sim.run(until=100.0)
    assert detector.is_declared_crashed("server-1")
    lan.mark_up("server-1")
    sim.run(until=200.0)
    assert not detector.is_declared_crashed("server-1")


def test_watch_is_idempotent(sim, lan, detector):
    detector.watch("server-1")
    detector.watch("server-1")
    crashes = []
    detector.on_crash(crashes.append)
    lan.mark_down("server-1")
    sim.run(until=200.0)
    assert crashes == ["server-1"]  # not double-declared by two poll loops


def test_polling_does_not_keep_unbounded_run_alive(sim, detector):
    detector.watch("server-1")
    sim.run()  # must terminate: polls are daemon events
    assert sim.now == 0.0


# -- the lazy poll chain ---------------------------------------------------


def test_rewatch_inside_one_interval_keeps_a_single_chain(sim, lan):
    # A re-watch reuses the host's chain: its instants stay 10, 20, ...
    # and nothing samples twice per interval, so four down samples
    # (10, 20, 30, 40) declare at 40.0.
    detector = FailureDetector(sim, lan, poll_interval_ms=10.0)
    detector.confirm_polls = 4
    declared = declarations(sim, detector)
    detector.watch("server-1")
    sim.call_at(5.0, lambda: detector.watch("server-1"))
    sim.call_at(6.0, lambda: lan.mark_down("server-1"))
    sim.run(until=100.0)
    assert declared == [("server-1", 40.0)]
    assert detector.polls_fired == 10  # 10, 20, ..., 100: one chain


def test_polls_fired_is_read_only(detector):
    with pytest.raises(AttributeError):
        detector.polls_fired = 3


def test_a_host_that_stays_up_holds_no_kernel_event(sim, detector):
    detector.watch("server-1")
    detector.watch("server-2")
    sim.run(until=10_000.0)
    assert detector.polls_fired == 0
    assert sim.processed_events == 0
    assert not sim._heap


def test_polls_run_only_while_a_host_looks_down(sim, lan, detector):
    declared = declarations(sim, detector)
    detector.watch("server-1")
    detector.watch("server-2")
    sim.call_at(1_003.0, lambda: lan.mark_down("server-1"))
    sim.call_at(1_047.0, lambda: lan.mark_up("server-1"))
    sim.run(until=5_000.0)
    # 1010, 1020, 1030, 1040 see it down; 1050 sees it up and the chain
    # goes back to sleep.  server-2 was never sampled.
    assert detector.polls_fired == 5
    assert declared == [("server-1", 1020.0)]
    assert not detector.is_declared_crashed("server-1")  # cleared at 1050
    assert not sim._heap


def test_unbounded_run_terminates_with_a_permanently_down_host(sim, lan, detector):
    declared = declarations(sim, detector)
    detector.watch("server-1")
    detector.watch("server-2")
    lan.mark_down("server-1")
    sim.call_in(35.0, lambda: None)  # the only live work
    sim.run()  # polls are daemon events: a dark host must not pin the run
    assert sim.now == 35.0
    assert declared == [("server-1", 20.0)]


def test_fast_forward_lands_on_the_accumulated_float(sim, lan):
    # 2.7e6 ms of idle from a fractional watch time: the chain resumes on
    # the float that 81,000 re-arms would have reached, which is not the
    # closed form.
    interval, watch_ms, idle_ms = 33.3, 0.7, 2.7e6
    detector = FailureDetector(sim, lan, poll_interval_ms=interval)
    detector.confirm_polls = 1
    declared = declarations(sim, detector)
    sim.call_at(watch_ms, lambda: detector.watch("server-1"))
    sim.call_at(idle_ms + 7.0, lambda: lan.mark_down("server-1"))
    sim.run(until=idle_ms + 100.0)

    expected = watch_ms + interval
    polls = 1
    while expected < idle_ms + 7.0:
        expected += interval
        polls += 1
    assert polls == 81_082
    assert expected != watch_ms + polls * interval
    assert declared == [("server-1", expected)]
    assert detector.polls_fired == 3  # the declaring sample and two more


def test_fault_free_ministack_run_fires_no_detector_timer():
    from repro.workload.ministack import MiniStack

    stack = MiniStack()
    stack.add_server("replica-1")
    stack.add_server("replica-2")
    stack.add_client("client-1")
    replies = [stack.invoke("client-1", arg) for arg in range(5)]
    stack.sim.run(until=60_000.0)
    assert all(reply.processed for reply in replies)
    assert stack.detector.polls_fired == 0


def test_fault_free_scenario_run_fires_no_detector_timer():
    from repro.core.qos import QoSSpec
    from repro.workload.scenarios import Scenario, ScenarioConfig

    scenario = Scenario(ScenarioConfig(seed=0))
    qos = QoSSpec(scenario.config.service, 160.0, 0.9)
    client = scenario.add_client("client-1", qos, num_requests=10)
    scenario.run_to_completion()
    assert client.summary().requests == 10
    assert scenario.group_comm.failure_detector.polls_fired == 0
