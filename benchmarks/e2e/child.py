"""One pass in a fresh interpreter: ``python -m benchmarks.e2e.child SPEC``.

The parent runs one child at a time (single thread, no pool), one child
per (workload, repetition), so ``peak_rss_mb`` and ``setup_s`` belong to
exactly one workload.  ``SPEC`` is a JSON object; the result is one JSON
object on the last line of stdout.

Spec keys: ``mode`` (``pass`` | ``setup`` | ``profile`` | ``probes``),
``workload``, ``seed``, ``scale``, ``trace`` (bool), ``spawned_at``
(parent's ``time.monotonic()`` just before the spawn; CLOCK_MONOTONIC is
system-wide, so the child can measure its own start-up against it) and
``spans_out`` (path for the raw spans of a traced pass, or null);
``profile`` also takes ``keep_modules`` (see ``modprofile.by_module``).
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
from typing import Any, Dict, List


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, run the timed region (traced or not), read the books."""
    from .calibration import spin
    from .spans import SpanRecorder, instrument
    from .workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    recorder = SpanRecorder() if spec.get("trace") else None
    profiler = None
    if spec["mode"] == "profile":
        import cProfile

        profiler = cProfile.Profile()
    with instrument(recorder) if recorder else contextlib.nullcontext():
        prepared = workload.prepare(spec["seed"], spec["scale"])
        setup_s = time.monotonic() - spec["spawned_at"]
        if spec["mode"] == "setup":
            return {"setup_s": setup_s}
        books = prepared.books
        gc.collect()
        region: Any = contextlib.nullcontext()
        if recorder is not None:
            recorder.reset()  # set-up spans are not part of the region
            region = recorder.span("driver:timed_region")
            # The spins run inside whatever span is open: give them one
            # of their own so no layer is charged for them.
            books.calibrate = recorder.wrap("driver:calibration", books.calibrate)
        spin()  # warm the reference computation itself
        cpu_started = time.process_time()
        with region:
            books.calibrate()
            if profiler is not None:
                profiler.runcall(prepared.run)
            else:
                prepared.run()
            books.calibrate()
        cpu_s = time.process_time() - cpu_started
    peak_rss_mb = _peak_rss_mb()
    prepared.finish()
    marks = books.marks
    # The region runs from the end of the first spin to the start of the
    # last; the spins in between are cut out of it.
    segments_s = [after[0] - before[1] for before, after in zip(marks, marks[1:])]
    spins_s = [after - before for before, after in marks]
    load_index = books.load_index()
    result: Dict[str, Any] = {
        "workload": workload.name,
        "clients": workload.clients,
        "seed": spec["seed"],
        "scale": spec["scale"],
        "traced": recorder is not None,
        "setup_s": setup_s,
        "wall_s": sum(segments_s),
        "cpu_s": cpu_s - sum(spins_s),
        "peak_rss_mb": peak_rss_mb,
        "mark_every": books.mark_every,
        "segments_s": segments_s,
        "spins_s": spins_s,
        "decide_us": books.decide_us,
        "sim": dict(
            books.sim,
            decide_samples=sum(d is not None for d in books.decide_us),
            load_index_samples=len(load_index),
            load_index_sum=sum(load_index),
        ),
        "problems": books.problems,
    }
    if recorder is not None:
        names = recorder.names
        result["trace"] = {
            "spans": recorder.summary(),
            "counts": dict(recorder.counts),
            "edges": [
                [names[parent], names[child], seconds * 1e6]
                for (parent, child), seconds in recorder.edges.items()
            ],
            "span_count": len(recorder.span_name),
        }
        if spec.get("spans_out"):
            recorder.save(spec["spans_out"])
    if profiler is not None:
        from .modprofile import by_module

        result["profile"] = by_module(profiler, spec["keep_modules"])
    return result


def main(argv: List[str]) -> int:
    """Run the pass ``argv[0]`` describes; print its result as JSON."""
    spec = json.loads(argv[0])
    if spec["mode"] == "probes":
        from .probes import run_probes

        result = run_probes(spec["seed"], spec["scale"])
    else:
        result = run_pass(spec)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
