"""Span recording and run-time wrappers around the layers' public entry points.

Nothing in ``src/`` knows about this module: :func:`instrument` replaces
class attributes and module globals with timing wrappers for the length
of a ``with`` block and restores them in a ``finally``.  Every wrapped
call records one span — name, start, end, parent, request id — into a
:class:`SpanRecorder`; spans stay in memory (columnar arrays) and are
aggregated online into per-name call counts, total time and *self* time
(duration minus the part covered by child spans).

Work the kernel runs later is attributed by wrapping what is handed to
it: callbacks passed to ``Simulator.call_in``/``call_at`` and generators
passed to ``Simulator.spawn`` become spans named after the module and
function that defined them (``group.failure_detector:FailureDetector.
_poll@timer``).  What no wrapper covers stays in the self time of the
enclosing ``sim.kernel:Simulator.run`` span.  Every span name is
``<module>:<what>``, so the text before the colon is its layer.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "instrument"]

RequestId = Callable[[tuple], int]


class SpanRecorder:
    """In-memory span store with online per-name aggregation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # code object -> name id, for callbacks and generators.
        self._deferred: Dict[Any, int] = {}
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: (parent name id, child name id) -> summed child duration.
        self.edges: Dict[Tuple[int, int], float] = {}
        #: Exact counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # One frame per open span: [name id, span index, child seconds].
        self._open: List[list] = []

    def intern(self, name: str) -> int:
        """The id of span name ``name`` (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def reset(self) -> None:
        """Forget everything recorded so far (names and wrappers stay).

        Wrappers must be in place before set-up, but only the timed
        region is measured: the child resets between the two.
        """
        if self._open:
            raise RuntimeError("reset() with spans still open")
        count = len(self.names)
        self.calls[:] = [0] * count
        self.total_s[:] = [0.0] * count
        self.self_s[:] = [0.0] * count
        self.edges.clear()
        self.counts.clear()
        for column in (
            self.span_name, self.span_parent, self.span_request,
            self.span_start, self.span_end,
        ):
            del column[:]

    # -- recording -------------------------------------------------------------
    def enter(self, nid: int, request: int = 0) -> list:
        """Open a span; returns the frame to hand back to :meth:`leave`."""
        index = len(self.span_name)
        open_ = self._open
        self.span_name.append(nid)
        self.span_parent.append(open_[-1][1] if open_ else -1)
        self.span_request.append(request)
        self.span_end.append(0.0)
        frame = [nid, index, 0.0]
        open_.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def leave(self, frame: list) -> None:
        """Close the span opened as ``frame`` (must be the innermost)."""
        end = time.perf_counter()
        nid, index, child_s = frame
        open_ = self._open
        open_.pop()
        duration = end - self.span_start[index]
        self.span_end[index] = end
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child_s
        if open_:
            parent = open_[-1]
            parent[2] += duration
            key = (parent[0], nid)
            self.edges[key] = self.edges.get(key, 0.0) + duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span named ``name``."""
        frame = self.enter(self.intern(name))
        try:
            yield
        finally:
            self.leave(frame)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        request_of: Optional[RequestId] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``request_of(args)`` extracts the request id where the arguments
        carry one; ``after(args, result)`` takes counts at the boundary.
        """
        nid = self.intern(name)
        enter, leave = self.enter, self.leave

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(nid, request_of(args) if request_of else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- deferred work ---------------------------------------------------------
    def deferred_name(self, target: Any, how: str) -> int:
        """Name id for a callback/generator, after its defining function.

        ``module:Owner.function@how`` — a lambda is named after the
        function it was written in, a bound method after itself.
        """
        fn = getattr(target, "__func__", target)
        code = getattr(fn, "__code__", None) or getattr(fn, "gi_code", None)
        nid = self._deferred.get(code)
        if nid is not None:
            return nid
        if code is None:  # a callable object: name it after its class
            module, qualname = type(fn).__module__, type(fn).__qualname__
        elif hasattr(fn, "gi_frame"):
            module, qualname = fn.gi_frame.f_globals["__name__"], fn.__qualname__
        else:
            module, qualname = fn.__module__, fn.__qualname__
        owner = qualname.split(".<locals>")[0]
        nid = self.intern(f"{module.removeprefix('repro.')}:{owner}@{how}")
        if code is not None:
            self._deferred[code] = nid
        return nid

    def traced_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """A ``call_in``/``call_at`` callback timed as its own span."""
        nid = self.deferred_name(callback, "timer")
        enter, leave = self.enter, self.leave

        def fire() -> None:
            frame = enter(nid)
            try:
                callback()
            finally:
                leave(frame)

        return fire

    def traced_generator(self, generator: Any) -> Any:
        """A process generator whose every resumption is one span."""
        nid = self.deferred_name(generator, "process")
        enter, leave = self.enter, self.leave

        def steps() -> Any:
            action, argument = generator.send, None
            while True:
                frame = enter(nid)
                try:
                    target = action(argument)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame)
                try:
                    argument = yield target
                    action = generator.send
                except BaseException as thrown:
                    # Interrupts (and close()) belong to the wrapped
                    # process: throw them in, span the handling too.
                    argument, action = thrown, generator.throw

        return steps()

    # -- results ---------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self time in microseconds."""
        return {
            name: {
                "calls": self.calls[nid],
                "total_us": self.total_s[nid] * 1e6,
                "self_us": self.self_s[nid] * 1e6,
            }
            for nid, name in enumerate(self.names)
            if self.calls[nid]
        }

    def save(self, path: str) -> None:
        """Write every span (columnar, ``.npz``) for offline analysis."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# -- wrapper installation ---------------------------------------------------


def _message_request(args: tuple) -> int:
    """Request id of ``(self, message, ...)``: the request's ``msg_id``."""
    message = args[1]
    return message.correlation_id or message.msg_id


class _Patcher:
    """Replace attributes now, put every one back on :meth:`restore`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(
        self,
        layer: str,
        owner: Any,
        attr: str,
        request_of: Optional[RequestId] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` as span ``<layer>:<Owner>.<attr>``."""
        original = owner.__dict__[attr]
        label = getattr(owner, "__qualname__", None)
        name = f"{layer}:{label}.{attr}" if label else f"{layer}:{attr}"
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                self.recorder.wrap(name, original.__func__, request_of, after)
            )
        else:
            wrapped = self.recorder.wrap(name, original, request_of, after)
        self.set(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Install every layer wrapper for the ``with`` body, then restore.

    Wrappers go on classes and module globals, so install them *before*
    building the scenario: the lifecycle auditor captures
    ``handler.submit`` as a bound method when a client is added.
    """
    from repro.core import distribution, estimator, repository, selection
    from repro.experiments import parallel
    from repro.faultinject import auditor, campaign
    from repro.faultinject import transport as faulty
    from repro.gateway.handlers import timing_fault
    from repro.health import monitor
    from repro.metrics import collector
    from repro.net import lan, transport
    from repro.orb import iiop, orb
    from repro.overload import admission, governor, load
    from repro.sim import kernel
    from repro.sim import random as sim_random
    from repro.sim import trace as sim_trace

    counts = recorder.counts
    patch = _Patcher(recorder)
    try:
        # sim.kernel: the run loop is the root of every tree; deferred
        # work is wrapped on its way into the queue.
        simulator = kernel.Simulator
        run, call_in, call_at, spawn = (
            simulator.__dict__[name]
            for name in ("run", "call_in", "call_at", "spawn")
        )
        run_id = recorder.intern("sim.kernel:Simulator.run")

        def traced_run(self: Any, until: Optional[float] = None) -> None:
            before = self.processed_events
            frame = recorder.enter(run_id)
            try:
                run(self, until)
            finally:
                recorder.leave(frame)
                counts["sim.kernel.events"] += self.processed_events - before

        def traced_call_in(
            self: Any, delay: float, callback: Callable[[], None], daemon: bool = False
        ) -> Any:
            return call_in(self, delay, recorder.traced_callback(callback), daemon)

        def traced_call_at(self: Any, when: float, callback: Callable[[], None]) -> Any:
            return call_at(self, when, recorder.traced_callback(callback))

        def traced_spawn(self: Any, generator: Any, name: Optional[str] = None) -> Any:
            return spawn(self, recorder.traced_generator(generator), name)

        patch.set(simulator, "run", traced_run)
        patch.set(simulator, "call_in", traced_call_in)
        patch.set(simulator, "call_at", traced_call_at)
        patch.set(simulator, "spawn", traced_spawn)

        # net
        def count_message(args: tuple, _result: Any) -> None:
            counts["net.transport.msgs"] += 1
            counts[f"net.transport.msgs.{args[1].kind}"] += 1

        patch.span("net.transport", transport.Transport, "send", _message_request, count_message)
        patch.span("net.transport", transport.Transport, "multicast", _message_request)
        patch.span("net.lan", lan.LanModel, "one_way_delay")
        patch.span("net.lan", lan.LanModel, "should_drop")
        patch.span("faultinject.transport", faulty.FaultyTransport, "send", _message_request)
        patch.span("faultinject.transport", faulty.FaultyTransport, "multicast", _message_request)

        # orb
        for attr in ("marshal_request", "demarshal_request", "marshal_reply", "demarshal_reply"):
            patch.span("orb.iiop", iiop.MarshallingModel, attr)
        patch.span("orb.orb", orb.Stub, "invoke")

        # gateway.handlers
        def count_client_message(args: tuple, _result: Any) -> None:
            counts[f"gateway.handlers.received.{args[1].kind}"] += 1

        client, server = (
            timing_fault.TimingFaultClientHandler,
            timing_fault.TimingFaultServerHandler,
        )
        patch.span("gateway.handlers.timing_fault", client, "submit")
        patch.span(
            "gateway.handlers.timing_fault", client, "handle_message",
            _message_request, count_client_message,
        )
        patch.span("gateway.handlers.timing_fault", server, "handle_message", _message_request)

        # core
        for attr in ("record_performance", "record_gateway_delay"):
            patch.span("core.repository", repository.InformationRepository, attr)
        for attr in ("batch_probability_by", "probability_by", "response_time_pmf"):
            patch.span("core.estimator", estimator.ResponseTimeEstimator, attr)
        for attr in ("convolve", "from_counts", "shift"):
            patch.span("core.distribution", distribution.DiscretePMF, attr)

        def count_batch(args: tuple, _result: Any) -> None:
            counts["core.distribution.batch_pairs"] += len(args[0])

        # batch_convolve (one S (*) W per pair) is reached through the
        # estimator's own global.
        patch.set(
            estimator, "batch_convolve",
            recorder.wrap(
                "core.distribution:batch_convolve",
                estimator.batch_convolve,
                after=count_batch,
            ),
        )

        patch.span("core.selection", selection.DynamicSelectionPolicy, "decide")
        patch.span("core.selection", selection, "select_replicas_arrays")

        # overload / health
        for attr in ("observe_reply", "observe_probe", "system_load"):
            patch.span("overload.load", load.LoadTracker, attr)
        patch.span("overload.governor", governor.GovernedSelectionPolicy, "decide")
        patch.span("overload.admission", admission.AdmissionController, "should_shed")
        for attr in (
            "record_success", "record_fault", "record_clock_anomaly",
            "record_coherent_sample", "record_crash", "record_probe_success",
            "record_probe_failure", "is_quarantined", "discount", "due_probes",
        ):
            patch.span("health.monitor", monitor.HealthMonitor, attr)

        # faultinject / experiments
        patch.span("faultinject.campaign", campaign, "draw_composed_schedule")
        patch.span("faultinject.campaign", campaign, "run_scenario")
        patch.span("faultinject.auditor", auditor.LifecycleAuditor, "audit")
        patch.span("experiments.parallel", parallel, "run_sweep")

        # cross-cutting sinks
        patch.span("metrics.collector", collector.MetricsCollector, "observe")
        patch.span("metrics.collector", collector.MetricsCollector, "increment")
        patch.span("sim.trace", sim_trace.Tracer, "emit")
        patch.span("sim.trace", sim_trace.NullTracer, "emit")
        for cls in vars(sim_random).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, sim_random.Distribution)
                and "sample" in cls.__dict__
            ):
                patch.span("sim.random", cls, "sample")
        yield
    finally:
        patch.restore()
