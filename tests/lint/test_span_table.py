"""The end-to-end benchmark's span table still finds every name it wraps.

``benchmarks/e2e/spans.py`` wraps methods and module globals of ``src/``
(``estimator.batch_convolve``, ``DiscretePMF.convolve``, the transports,
…) through ``owner.__dict__[attr]``, so renaming or moving one of them
breaks the benchmark's per-layer split.  Entering and leaving
:func:`instrument` once finds that here, and names the missing attribute.
"""

from __future__ import annotations

import importlib.util

import pytest

from benchmarks.e2e import spans
from repro.core import distribution, estimator
from repro.sim import kernel
from repro.workload.ministack import MiniStack


def test_every_wrapped_name_exists_and_is_put_back():
    run = kernel.Simulator.__dict__["run"]
    try:
        with spans.instrument(spans.SpanRecorder()):
            assert estimator.batch_convolve is not distribution.batch_convolve
    except (KeyError, AttributeError) as missing:
        pytest.fail(f"the span table wraps a name src/ no longer defines: {missing}")
    assert estimator.batch_convolve is distribution.batch_convolve
    assert kernel.Simulator.__dict__["run"] is run


def test_deferred_work_is_named_after_the_repro_code_that_scheduled_it():
    """A ``functools.partial`` or a bare builtin handed to the kernel would
    be named after ``functools`` or ``builtins`` and drop its time out of
    the per-layer split; every deferred span of a request must land in a
    ``repro`` module, the server's steps under the server handler."""
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        stack = MiniStack(seed=1)
        stack.add_server("s-1")
        stack.add_server("s-2")
        stack.add_client("c-1", deadline_ms=100.0)
        event = stack.invoke("c-1", 7)
        stack.sim.run()
    assert event.value.value == 7
    deferred = [
        name for name in recorder.summary()
        if name.endswith(("@timer", "@process"))
    ]
    assert deferred
    for name in deferred:
        layer = name.split(":", 1)[0]
        assert importlib.util.find_spec(f"repro.{layer}") is not None, name
    server = [
        name for name in deferred
        if name.startswith("gateway.handlers.timing_fault:TimingFaultServerHandler.")
    ]
    # Per copy served: the wake-up and the demarshal, service and marshal
    # steps (each copy found its server idle).
    copies = sum(handler.replies for handler in stack.servers.values())
    assert copies >= 1
    assert sum(recorder.summary()[name]["calls"] for name in server) == 4 * copies
