"""The request lifecycle as a hypothesis state machine (ROADMAP item 4).

Hypothesis drives the engine through a fake port with a manual clock —
submissions, replies in any order (first, redundant, duplicated, late),
timeouts, retransmissions, view changes, probe traffic, sheds — and after
every step checks the auditor's invariant: no token ever completes
twice.  At teardown the run is drained and every submitted token must
have completed *exactly* once, with ``leaks()`` empty.  One example costs
microseconds, not a 3-second simulated run.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.health import HealthConfig

from .fakes import REPLICAS, REQUEST, FakePort, RankedPolicy, make_engine, perf

ALL_REPLICAS = REPLICAS + ("s-4",)


class RequestLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.port = FakePort()
        self.policy = RankedPolicy(width=2, probability=0.9)
        self.engine = make_engine(
            self.port,
            policy=self.policy,
            deadline_ms=50.0,
            retry=True,
            probe_staleness_ms=40.0,
            probe_interval_ms=25.0,
            bootstrap_probes=True,
            health_config=HealthConfig(clock_anomaly_after=3, unreachable_after=4),
            overload_config=True,
        )
        self.tokens = 0
        #: (correlation id, replica) pairs already answered once.
        self.delivered = []

    # -- helpers -----------------------------------------------------------
    def _awaited(self):
        """(correlation id, replica) pairs a reply may still arrive for."""
        pairs = []
        copies = {
            msg_id: targets[0]
            for kind, msg_id, targets in self.port.sent
            if kind == "copy"
        }
        for msg_id, record in self.engine.book.pending.items():
            for replica in sorted(record.expected - record.replied):
                pairs.append((msg_id, replica))
        # A copy's reply travels under the copy's own id.
        for copy_id, target in copies.items():
            if (copy_id, target) not in self.delivered:
                pairs.append((copy_id, target))
        return pairs

    def _reply(self, correlation_id, replica, ts, tq):
        self.engine.on_reply(
            correlation_id, replica, perf(replica, ts=ts, tq=tq), "value"
        )

    def _fire_one(self, callback, index):
        timers = self.port.armed(callback)
        self.port.fire(timers[index % len(timers)])

    # -- rules -------------------------------------------------------------
    @rule(dt=st.floats(0.0, 30.0))
    def advance(self, dt):
        self.port.clock += dt

    @rule(hopeless=st.booleans())
    def submit(self, hopeless):
        # A hopeless request is shed whenever the load index is engaged.
        self.policy.probability = 0.1 if hopeless else 0.9
        self.tokens += 1
        self.engine.dispatch(REQUEST, "call", self.port.now, self.tokens)

    @precondition(lambda self: self._awaited())
    @rule(index=st.integers(0), ts=st.floats(0.0, 40.0), tq=st.floats(0.0, 40.0))
    def deliver_reply(self, index, ts, tq):
        pairs = self._awaited()
        correlation_id, replica = pairs[index % len(pairs)]
        self.delivered.append((correlation_id, replica))
        self._reply(correlation_id, replica, ts, tq)

    @precondition(lambda self: self.delivered)
    @rule(index=st.integers(0), ts=st.floats(-1.0, 40.0))
    def duplicate_reply(self, index, ts):
        correlation_id, replica = self.delivered[index % len(self.delivered)]
        self._reply(correlation_id, replica, ts, 0.0)

    @rule(replica=st.sampled_from(ALL_REPLICAS), ts=st.floats(-1.0, 40.0))
    def perf_push(self, replica, ts):
        self.engine.on_perf(perf(replica, ts=ts))

    @precondition(lambda self: self.port.armed(self.engine.expire))
    @rule(index=st.integers(0))
    def fire_timeout(self, index):
        self._fire_one(self.engine.expire, index)

    @precondition(lambda self: self.port.armed(self.engine.retransmit))
    @rule(index=st.integers(0))
    def fire_retry(self, index):
        self._fire_one(self.engine.retransmit, index)

    @rule(members=st.sets(st.sampled_from(ALL_REPLICAS)))
    def change_view(self, members):
        self.engine.on_view(sorted(members))

    @rule(host=st.sampled_from(ALL_REPLICAS + ("c-2",)))
    def declare_crash(self, host):
        self.engine.on_crash(host)

    @precondition(lambda self: self.port.armed(self.engine.probe_tick))
    @rule()
    def probe_tick(self):
        self._fire_one(self.engine.probe_tick, 0)

    @precondition(lambda self: self.engine.book.probes)
    @rule(index=st.integers(0), queue=st.integers(0, 9))
    def answer_probe(self, index, queue):
        probes = sorted(self.engine.book.probes.items())
        msg_id, (_sent_at, replica) = probes[index % len(probes)]
        self.engine.on_probe_reply(msg_id, replica, queue)

    @precondition(lambda self: self.port.armed(self.engine.expire_probe))
    @rule(index=st.integers(0))
    def expire_probe(self, index):
        self._fire_one(self.engine.expire_probe, index)

    # -- the auditor's invariant -------------------------------------------
    @invariant()
    def no_token_completes_twice(self):
        for token, outcomes in self.port.completions.items():
            assert len(outcomes) == 1, (token, outcomes)

    @invariant()
    def every_open_record_has_a_live_timeout(self):
        armed = {timer.args[0] for timer in self.port.armed(self.engine.expire)}
        assert set(self.engine.book.pending) <= armed

    def teardown(self):
        # Drain: non-daemon timers (timeouts, retries) run to exhaustion,
        # exactly what keeps a simulation alive; then the drain-time audit.
        for _ in range(10_000):
            live = [t for t in self.port.timers if not t.daemon]
            if not live:
                break
            self.port.fire(min(live, key=lambda t: t.due))
        else:
            raise AssertionError("the engine keeps re-arming live timers")
        self.engine.quiesce_probes()
        assert self.engine.leaks() == {}
        assert sorted(self.port.completions) == list(range(1, self.tokens + 1))
        self.no_token_completes_twice()
        kinds = [self.port.outcome(t).kind for t in self.port.completions]
        assert len(kinds) == self.tokens
        assert self.engine.sheds == sum(k.value == "shed" for k in kinds)


TestRequestLifecycle = RequestLifecycle.TestCase
TestRequestLifecycle.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
