"""The lazy poll chain against the always-on poll loop, instant for instant.

``polling_detector.PollingFailureDetector`` is the detector this repository
used to ship: one ``call_in`` per host per interval, for ever.  The
production detector arms a timer only while a host looks down; these tests
replay one scripted history in two separate worlds (own kernel, own LAN)
and demand ``==`` on every float that leaves the detector.

Every scripted action is scheduled at set-up, before the clock moves, so
an action that shares an instant with a poll runs before the poll in both
worlds — the order every ``call_at`` issued at set-up and every driver in
``repro.faultinject`` produces (the tie rule of docs/ARCHITECTURE.md).

Tier-1 replays one fixed set of generated histories (``derandomize``);
``FAULT_ACCEPTANCE_SCALE`` (the nightly job sets 5) turns the random
search on, with that many times the examples.  A history it finds is
pinned as a directed case below.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.group.failure_detector import FailureDetector
from repro.net.lan import LanModel
from repro.rng import RNGManager
from repro.sim.kernel import Simulator

from .polling_detector import PollingFailureDetector

HOSTS = ("v", "a", "b")
SCALE = max(1, int(os.environ.get("FAULT_ACCEPTANCE_SCALE", "1")))
Action = Tuple[float, str, Tuple[Any, ...]]


@dataclass(frozen=True)
class History:
    """One scripted run: detector settings plus timed actions."""

    poll_interval_ms: float
    confirm_polls: int
    vantage: Optional[str]
    reaction: str  # what the crash listener does back to the detector
    actions: Tuple[Action, ...]
    horizon_ms: float


def chain_instant(watch_ms: float, interval_ms: float, polls: int) -> float:
    """The ``polls``-th instant of a chain begun by a watch at ``watch_ms``."""
    instant = watch_ms + interval_ms
    for _ in range(polls - 1):
        instant += interval_ms
    return instant


def down_samples(detector: Any) -> Dict[str, int]:
    """Consecutive "down" samples on record, per watched host."""
    if isinstance(detector, PollingFailureDetector):
        return dict(detector._watched)
    return {host: chain.down_samples for host, chain in detector._chains.items()}


def replay(detector_cls: type, history: History) -> List[Tuple[Any, ...]]:
    """Run ``history`` in a fresh world; return everything observable."""
    sim = Simulator()
    lan = LanModel(RNGManager(base_seed=1))
    for name in HOSTS:
        lan.add_host(name)
    detector = detector_cls(sim, lan, poll_interval_ms=history.poll_interval_ms)
    detector.confirm_polls = history.confirm_polls
    detector.vantage = history.vantage
    log: List[Tuple[Any, ...]] = []

    def on_crash(host: str) -> None:
        log.append(("crash", host, sim.now))
        if history.reaction == "restart":
            lan.mark_up(host)
            detector.sight(host)
        elif history.reaction == "unwatch":
            detector.unwatch(host)
        elif history.reaction == "rewatch":
            detector.unwatch(host)
            detector.watch(host)

    detector.on_crash(on_crash)

    def probe() -> None:
        # A declaration's instant is its host's last "crash" entry.
        declared = {
            entry[1]: entry[2] for entry in log
            if entry[0] == "crash" and detector.is_declared_crashed(entry[1])
        }
        log.append(("probe", sim.now, down_samples(detector), declared))

    def links(src: str, dst: str, two_way: bool) -> List[Tuple[str, str]]:
        return [(src, dst), (dst, src)] if two_way else [(src, dst)]

    def perform(kind: str, args: Tuple[Any, ...]) -> None:
        if kind == "probe":
            probe()
        elif kind == "vantage":
            detector.vantage = args[0]
        elif kind in ("watch", "unwatch", "sight"):
            getattr(detector, kind)(*args)
        elif kind in ("mark_down", "mark_up"):
            getattr(lan, kind)(*args)
        elif kind == "sever":
            for src, dst in links(*args):
                lan.sever_link(src, dst)
        elif kind == "heal":
            for src, dst in links(*args):
                lan.heal_link(src, dst)
        else:  # pragma: no cover - strategy and interpreter out of step
            raise AssertionError(kind)

    for when, kind, args in history.actions:
        sim.call_at(when, lambda kind=kind, args=args: perform(kind, args))
    sim.run(until=history.horizon_ms)
    probe()
    return log


def assert_same(history: History) -> None:
    """Both detectors must tell the same story, float for float."""
    assert replay(FailureDetector, history) == replay(
        PollingFailureDetector, history
    )


@st.composite
def histories(draw: st.DrawFn) -> History:
    interval = draw(st.sampled_from([10.0, 50.0, 0.7, 1000.0 / 3.0, 12.5]))
    # A long horizon leaves long idle gaps between actions: the lazy
    # chain then has to fast-forward over thousands of skipped instants.
    intervals = draw(st.sampled_from([12, 12, 40, 40, 3000]))
    horizon = interval * intervals
    watch_times = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, horizon / 3).map(lambda t: round(t, 3)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    on_chain = st.tuples(
        st.sampled_from(watch_times), st.integers(1, min(intervals, 80))
    ).map(lambda pair: chain_instant(pair[0], interval, pair[1]))
    times = st.one_of(
        st.floats(0.0, horizon).map(lambda t: round(t, 2)),
        st.integers(0, 2 * min(intervals, 80)).map(lambda k: k * interval / 2),
        on_chain,
        on_chain.map(lambda t: math.nextafter(t, math.inf)),
        on_chain.map(lambda t: math.nextafter(t, 0.0)),
    )
    host = st.sampled_from(HOSTS)
    pair = st.tuples(host, host, st.booleans()).filter(lambda p: p[0] != p[1])
    lan_call = st.one_of(
        st.tuples(times, st.sampled_from(["mark_down", "mark_up"]), st.tuples(host)),
        st.tuples(times, st.sampled_from(["sever", "heal"]), pair),
    )
    action = st.one_of(
        st.tuples(times, st.just("probe"), st.just(())),
        lan_call,
        lan_call,  # twice: LAN changes are what the detector reacts to
        st.tuples(
            times,
            st.sampled_from(["watch", "unwatch", "sight"]),
            st.tuples(host),
        ),
        st.tuples(
            times,
            st.just("vantage"),
            st.tuples(st.sampled_from([None, "v", "a"])),
        ),
    )
    # Independent actions rarely line up into anything a detector would
    # notice, so most of the script is episodes: an outage or a cut of
    # one host lasting a fraction of, or a few, poll intervals, with the
    # detector poked (re-watch, sight, unwatch, ...) part-way through.
    detector_call = st.sampled_from(["watch", "unwatch", "sight"])
    episode = st.tuples(
        times,
        host,
        st.sampled_from([0.3, 1.0, 1.5, 2.5, 6.0]),  # length, in intervals
        st.sampled_from(["outage", "cut-both", "cut-out", "cut-back"]),
        st.lists(
            st.tuples(st.sampled_from([0.2, 0.5, 0.9, 1.0, 1.3]), detector_call),
            max_size=2,
        ),
    )
    scripted = draw(st.lists(action, max_size=12))
    for start, target, length, kind, pokes in draw(st.lists(episode, max_size=6)):
        end = start + length * interval
        if kind == "outage":
            begin_end = [("mark_down", (target,)), ("mark_up", (target,))]
        else:
            src, dst = ("v", target) if kind != "cut-back" else (target, "v")
            link = (src, dst, kind == "cut-both")
            begin_end = [("sever", link), ("heal", link)]
        scripted.append((start, *begin_end[0]))
        scripted.append((end, *begin_end[1]))
        for fraction, call in pokes:
            scripted.append((start + fraction * (end - start), call, (target,)))
            scripted.append((start + fraction * (end - start), "probe", ()))
    watches = [(when, "watch", (draw(host),)) for when in watch_times]
    return History(
        poll_interval_ms=interval,
        confirm_polls=draw(st.integers(1, 4)),
        vantage=draw(st.sampled_from([None, "v", "v"])),
        reaction=draw(
            st.sampled_from(["none", "none", "restart", "unwatch", "rewatch"])
        ),
        actions=tuple(draw(st.permutations(watches + scripted))),
        horizon_ms=horizon,
    )


@settings(max_examples=300 * SCALE, deadline=None, derandomize=SCALE == 1)
@given(histories())
def test_lazy_chain_equals_the_polling_loop(history: History) -> None:
    assert_same(history)


def directed(actions: List[Action], **overrides: Any) -> History:
    """A hand-written history: 10 ms polls, two to confirm, seen from v."""
    fields = dict(
        poll_interval_ms=10.0,
        confirm_polls=2,
        vantage="v",
        reaction="none",
        actions=tuple(actions),
        horizon_ms=500.0,
    )
    fields.update(overrides)
    return History(**fields)


class TestTies:
    """Changes scheduled at set-up that land exactly on a chain instant."""

    def test_change_on_a_chain_instant_is_seen_by_that_instants_poll(self):
        # The TestFlapCrashRestartComposition pattern: a cut at 50 on a
        # chain that polls at 10, 20, ... is sampled at 50 and confirmed
        # at 60, not first sampled at 60 and confirmed at 70.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (50.0, "sever", ("a", "v", True)),
                (80.0, "heal", ("a", "v", True)),
                (85.0, "probe", ()),
            ]
        )
        log = replay(FailureDetector, history)
        assert ("crash", "a", 60.0) in log
        assert_same(history)

    def test_down_and_up_on_consecutive_chain_instants(self):
        # Down at 50, up at 60: the poll at 50 counts one down sample,
        # the poll at 60 already sees the host up -- never declared.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (50.0, "mark_down", ("a",)),
                (55.0, "probe", ()),
                (60.0, "mark_up", ("a",)),
                (65.0, "probe", ()),
            ]
        )
        log = replay(FailureDetector, history)
        assert [entry for entry in log if entry[0] == "crash"] == []
        assert log[0][2] == {"a": 1} and log[1][2] == {"a": 0}
        assert_same(history)

    def test_tie_on_a_float_accumulated_instant(self):
        # A chain begun at a fractional time drifts off the decimal
        # grid; the change is aimed at the float the chain really holds.
        interval, watch_ms = 0.7, 0.123
        landing = chain_instant(watch_ms, interval, 57)
        assert landing != watch_ms + 57 * interval  # the drift is real
        history = directed(
            [
                (watch_ms, "watch", ("b",)),
                (landing, "mark_down", ("b",)),
                (landing + 5.0, "probe", ()),
            ],
            poll_interval_ms=interval,
            confirm_polls=3,
            horizon_ms=100.0,
        )
        log = replay(FailureDetector, history)
        assert ("crash", "b", chain_instant(watch_ms, interval, 59)) in log
        assert_same(history)

    def test_chains_that_meet_by_rounding_keep_their_push_order(self):
        # Found by the random search (PR 21): 10.000000000000002 + 10
        # rounds to 20.0, so a chain watched one ulp after v's instant 10
        # shares every instant from 20 on with v's -- without its watch
        # having landed on one.  The loop queued v's timer for 20 at
        # 10.0 and a's one ulp later: v is declared first, although a's
        # chain is the younger.
        late = math.nextafter(10.0, math.inf)
        assert late + 10.0 == 20.0
        history = directed(
            [
                (0.0, "watch", ("v",)),
                (0.0, "mark_down", ("a",)),
                (late, "watch", ("a",)),
                (15.0, "mark_down", ("v",)),
                (25.0, "mark_up", ("v",)),
            ],
            confirm_polls=1,
            vantage=None,
            horizon_ms=120.0,
        )
        crashes = [e for e in replay(FailureDetector, history) if e[0] == "crash"]
        assert crashes == [("crash", "v", 20.0), ("crash", "a", 20.0)]
        assert_same(history)

    def test_sub_interval_blip_stays_invisible(self):
        # Down at 51, up at 59, polls at 50 and 60: nobody ever knew.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (51.0, "mark_down", ("a",)),
                (55.0, "probe", ()),
                (59.0, "mark_up", ("a",)),
                (65.0, "probe", ()),
            ],
            confirm_polls=1,
        )
        log = replay(FailureDetector, history)
        assert [entry for entry in log if entry[0] == "crash"] == []
        assert all(entry[2] == {"a": 0} for entry in log)
        assert_same(history)

    def test_refcounted_double_sever_needs_both_heals(self):
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (15.0, "sever", ("v", "a", False)),
                (16.0, "sever", ("v", "a", False)),
                (40.0, "heal", ("v", "a", False)),
                (75.0, "probe", ()),
                (80.0, "heal", ("v", "a", False)),
                (95.0, "probe", ()),
            ]
        )
        log = replay(FailureDetector, history)
        assert log[0] == ("crash", "a", 30.0)
        assert log[1][3] == {"a": 30.0}  # one heal of two: still dark
        assert log[2][3] == {}
        assert_same(history)


class TestSharedInstants:
    """Hosts sampled at one instant are sampled in the polling loop's order."""

    def test_same_instant_declarations_come_in_watch_order(self):
        # b goes dark before a, inside one interval: both are confirmed
        # at 30, and the loop -- whose timers queue in watch order --
        # reports a first.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (0.0, "watch", ("b",)),
                (11.0, "mark_down", ("b",)),
                (13.0, "mark_down", ("a",)),
            ]
        )
        crashes = [e for e in replay(FailureDetector, history) if e[0] == "crash"]
        assert crashes == [("crash", "a", 30.0), ("crash", "b", 30.0)]
        assert_same(history)

    def test_a_chain_begun_on_a_chain_instant_is_sampled_first(self):
        # b's watch lands on a's instant 10 and, scheduled at set-up,
        # runs before a's poll there: b's timer for 20 is queued ahead of
        # a's re-arm, and stays ahead at every later instant.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (10.0, "watch", ("b",)),
                (23.0, "mark_down", ("a",)),
                (25.0, "mark_down", ("b",)),
            ]
        )
        crashes = [e for e in replay(FailureDetector, history) if e[0] == "crash"]
        assert crashes == [("crash", "b", 40.0), ("crash", "a", 40.0)]
        assert_same(history)


class TestWakeUps:
    """Everything that can turn an "up" sample into a "down" one wakes the chain."""

    def test_a_vantage_assigned_after_the_cut_sees_the_cut(self):
        # campaign.py sets the vantage on a built stack; a link that was
        # already severed then starts to count, with no LAN change to
        # announce it.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (12.0, "sever", ("v", "a", False)),
                (33.0, "vantage", ("v",)),
                (70.0, "probe", ()),
            ],
            vantage=None,
        )
        log = replay(FailureDetector, history)
        assert log[0] == ("crash", "a", 50.0)
        assert_same(history)

    def test_a_listener_that_wakes_the_chain_does_not_arm_it_twice(self):
        # a is both crashed and cut off; the listener restarts it from
        # inside the declaring poll.  mark_up wakes the chain (still cut,
        # still declared); the poll's own re-arm must then stand down, or
        # every later instant would be sampled twice and the cut, whose
        # count sight() zeroed, re-confirmed in one interval, not two.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (5.0, "sever", ("a", "v", True)),
                (5.0, "mark_down", ("a",)),
            ],
            reaction="restart",
            horizon_ms=75.0,
        )
        crashes = [e for e in replay(FailureDetector, history) if e[0] == "crash"]
        assert [when for _, _, when in crashes] == [20.0, 40.0, 60.0]
        assert_same(history)

    def test_unwatched_while_declared_then_rewatched_up(self):
        # The declaration outlives unwatch(); the new chain's first
        # sample is what clears it ("recovered without sight()"), so
        # that sample must run although the host looks up.
        history = directed(
            [
                (0.0, "watch", ("a",)),
                (5.0, "mark_down", ("a",)),
                (31.0, "unwatch", ("a",)),
                (32.0, "mark_up", ("a",)),
                (47.0, "watch", ("a",)),
                (50.0, "probe", ()),
                (60.0, "probe", ()),
            ],
            vantage=None,
        )
        log = replay(FailureDetector, history)
        assert log[1][3] == {"a": 20.0}
        assert log[2][3] == {}  # cleared by the sample at 57
        assert_same(history)
