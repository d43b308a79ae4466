"""Client behaviours: closed-loop and open-loop request issuers.

The paper's §6 experiments use closed-loop clients: each "independently
issued requests to the same service with a one second delay between
receiving a response and issuing the next request", fifty requests per
run.  :class:`ClosedLoopClient` reproduces that; :class:`OpenLoopClient`
adds rate-driven arrivals for the scalability ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..gateway.handlers.timing_fault import OutcomeKind, ReplyOutcome
from ..orb.orb import Stub
from ..rng import RNGManager
from ..sim.kernel import Simulator
from ..sim.random import Constant, Distribution

__all__ = ["ClientSummary", "ClosedLoopClient", "OpenLoopClient"]


@dataclass(frozen=True)
class ClientSummary:
    """Aggregate view of one client's run.

    ``timing_failures`` and the two means describe *admitted* requests
    only; sheds (fail-fast admission rejections) are load control, not
    timing faults, and are accounted separately so a shedding policy
    cannot dress drops up as timeliness.
    """

    requests: int
    timing_failures: int
    timeouts: int
    mean_response_ms: float
    mean_redundancy: float
    sheds: int = 0

    @property
    def failure_probability(self) -> float:
        """Observed probability of timing failures."""
        if self.requests == 0:
            return 0.0
        return self.timing_failures / self.requests

    @property
    def admitted(self) -> int:
        """Requests that were actually dispatched (issued minus shed)."""
        return self.requests - self.sheds


def _summarize(outcomes: List[ReplyOutcome]) -> ClientSummary:
    if not outcomes:
        return ClientSummary(0, 0, 0, 0.0, 0.0)
    sheds = sum(1 for o in outcomes if o.kind is OutcomeKind.SHED)
    served = [o for o in outcomes if o.kind is not OutcomeKind.SHED]
    failures = sum(1 for o in served if not o.timely)
    timeouts = sum(1 for o in served if o.timed_out)
    mean_response = (
        sum(o.response_time_ms for o in served) / len(served) if served else 0.0
    )
    mean_redundancy = (
        sum(o.redundancy for o in served) / len(served) if served else 0.0
    )
    return ClientSummary(
        requests=len(outcomes),
        timing_failures=failures,
        timeouts=timeouts,
        mean_response_ms=mean_response,
        mean_redundancy=mean_redundancy,
        sheds=sheds,
    )


class ClosedLoopClient:
    """Issues ``num_requests`` requests, one at a time, with think time.

    Parameters
    ----------
    sim, stub:
        Kernel and the service stub to invoke through.
    host:
        Client host name (names the random substream).
    method:
        Method invoked on every request.
    num_requests:
        Requests per run (paper: 50).
    think_time:
        Delay between receiving a response and the next request
        (paper: a constant 1 s = 1000 ms).
    """

    def __init__(
        self,
        sim: Simulator,
        stub: Stub,
        host: str,
        streams: RNGManager,
        method: str = "process",
        num_requests: int = 50,
        think_time: Optional[Distribution] = None,
        method_chooser=None,
    ):
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        self.sim = sim
        self.stub = stub
        self.host = host
        self.method = method
        self.num_requests = int(num_requests)
        self.think_time = think_time or Constant(1000.0)
        # Optional per-request method selection (index -> method name),
        # for multi-method services.
        self.method_chooser = method_chooser
        self._rng = streams.stream(f"client.{host}.think")
        self.outcomes: List[ReplyOutcome] = []
        #: Simulated time at which the run finished (None while running).
        self.completed_at_ms: Optional[float] = None
        self.process = sim.spawn(self._run(), name=f"client.{host}")

    def _method_for(self, index: int) -> str:
        if self.method_chooser is None:
            return self.method
        return self.method_chooser(index)

    def _run(self):
        for index in range(self.num_requests):
            outcome = yield self.stub.invoke(self._method_for(index), index)
            self.outcomes.append(outcome)
            if index + 1 < self.num_requests:
                yield self.sim.timeout(self.think_time.sample(self._rng))
        self.completed_at_ms = self.sim.now
        return self.summary()

    @property
    def done(self) -> bool:
        """Whether the client has finished its run."""
        return not self.process.alive

    def summary(self) -> ClientSummary:
        """Aggregate statistics of the outcomes so far."""
        return _summarize(self.outcomes)

    def __repr__(self) -> str:
        return (
            f"<ClosedLoopClient {self.host!r} "
            f"{len(self.outcomes)}/{self.num_requests}>"
        )


class OpenLoopClient:
    """Fires requests on an arrival process, not waiting for replies.

    Used by the scalability experiments, where the offered load must not
    shrink when the service slows down (the defining property of open-loop
    workloads).
    """

    def __init__(
        self,
        sim: Simulator,
        stub: Stub,
        host: str,
        streams: RNGManager,
        interarrival: Distribution,
        method: str = "process",
        num_requests: int = 100,
    ):
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        self.sim = sim
        self.stub = stub
        self.host = host
        self.method = method
        self.num_requests = int(num_requests)
        self.interarrival = interarrival
        self._rng = streams.stream(f"client.{host}.arrivals")
        self.outcomes: List[ReplyOutcome] = []
        self.issued = 0
        #: Simulated time at which the run finished (None while running).
        self.completed_at_ms: Optional[float] = None
        self.process = sim.spawn(self._run(), name=f"client.{host}")

    def _run(self):
        pending = []
        for index in range(self.num_requests):
            event = self.stub.invoke(self.method, index)
            event.add_callback(self._collect)
            pending.append(event)
            self.issued += 1
            if index + 1 < self.num_requests:
                yield self.sim.timeout(self.interarrival.sample(self._rng))
        # Wait for the stragglers so the run has a well-defined end.
        for event in pending:
            if not event.processed:
                yield event
        self.completed_at_ms = self.sim.now
        return self.summary()

    def _collect(self, event) -> None:
        self.outcomes.append(event.value)

    @property
    def done(self) -> bool:
        """Whether all requests have been issued and completed."""
        return not self.process.alive

    def summary(self) -> ClientSummary:
        """Aggregate statistics of the outcomes so far."""
        return _summarize(self.outcomes)

    def __repr__(self) -> str:
        return (
            f"<OpenLoopClient {self.host!r} issued={self.issued} "
            f"completed={len(self.outcomes)}>"
        )
