"""bench_e2e: whole-request, layer-attributed benchmark (ISSUE 11).

Four named workloads run the simulator end to end; six end-to-end
metrics are measured with tracing off, the per-layer metrics come from a
separate traced run whose wrappers are installed from this directory
only.  See ``README.md`` here for the metric catalogue and how to run.
"""
