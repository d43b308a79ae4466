"""Property-based tests for the simulation kernel and transport."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.lan import LanModel, LinkProfile
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.rng import RNGManager
from repro.sim.random import Constant

delays = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


@given(delays)
def test_events_fire_in_time_order(delay_list):
    sim = Simulator()
    fired = []
    for delay in delay_list:
        sim.call_in(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)
    assert sim.now == max(delay_list)


@given(delays)
def test_clock_never_goes_backwards(delay_list):
    sim = Simulator()
    observed = []
    for delay in delay_list:
        sim.call_in(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed) and len(observed) == len(delay_list)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_run_until_is_exact_boundary(delay_list, horizon):
    sim = Simulator()
    fired = []
    for delay in delay_list:
        sim.call_in(delay, lambda d=delay: fired.append(d))
    sim.run(until=horizon)
    assert sorted(fired) == sorted(d for d in delay_list if d <= horizon)
    assert sim.now == horizon


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30)
def test_transport_conservation(num_messages, loss, seed):
    """sent == delivered + dropped + lost after the run drains."""
    sim = Simulator()
    streams = RNGManager(base_seed=seed)
    profile = LinkProfile(jitter=Constant(0.0), loss_probability=loss)
    lan = LanModel(streams, default_profile=profile)
    lan.add_host("a")
    lan.add_host("b")
    transport = Transport(sim, lan)
    received = []
    transport.bind("b", received.append)
    for index in range(num_messages):
        transport.send(
            Message(sender="a", destination="b", kind="m", payload=index)
        )
    sim.run()
    assert transport.sent_count == num_messages
    assert (
        transport.delivered_count
        + transport.dropped_count
        + transport.lost_count
        == transport.sent_count
    )
    assert len(received) == transport.delivered_count


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
def test_fifo_within_same_instant(priorities):
    """Events scheduled for the same instant fire in scheduling order."""
    sim = Simulator()
    order = []
    for index, _p in enumerate(priorities):
        sim.call_in(10.0, lambda i=index: order.append(i))
    sim.run()
    assert order == list(range(len(priorities)))
