"""Smoke test of bench_e2e at ``--scale 0.02`` (run explicitly, not tier-1).

``PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q``
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import child, cli
from benchmarks.e2e.catalogue import (
    END_TO_END,
    PER_LAYER,
    PROBES,
    WORKLOAD_WHY,
    benchmark_json,
)
from benchmarks.e2e.spans import SpanRecorder, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCALE = 0.02


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e") / "report.json"
    code = cli.main(["--scale", str(SCALE), "--reps", "2", "--out", str(out)])
    assert code == 0, "the smoke run reported a correctness problem"
    with open(out) as handle:
        return out, json.load(handle)


def test_every_metric_is_present_with_its_unit(report):
    _, document = report
    assert list(document["workloads"]) == list(WORKLOAD_WHY)
    for name, workload in document["workloads"].items():
        assert workload["problems"] == []
        for metric in END_TO_END:
            entry = workload["end_to_end"][metric.name]
            assert entry["unit"] == metric.unit, (name, metric.name)
            assert len(entry["runs"]) == 2
        for metric in PER_LAYER:
            entry = workload["per_layer"][metric.name]
            assert entry["unit"] == metric.unit, (name, metric.name)
            assert isinstance(entry["value"], float), (name, metric.name)
        assert workload["per_layer"]["trace.overhead_ratio"]["value"] > 0.0
        assert 0.0 < workload["per_layer"]["trace.attributed_share"]["value"] < 1.0
    for metric in PROBES:
        entry = document["probes"]["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0.0


def test_span_self_times_sum_to_the_root_span(report):
    _, document = report
    for name, workload in document["workloads"].items():
        spans = workload["spans"]
        root = spans["driver:timed_region"]["total_us"]
        assert sum(row["self_us"] for row in spans.values()) == pytest.approx(
            root, rel=1e-6
        ), name


def test_raw_spans_are_written_beside_the_report(report):
    import numpy as np

    out, document = report
    for name, workload in document["workloads"].items():
        with np.load(out.parent / f"spans_{name}.npz") as spans:
            assert len(spans["start"]) == workload["span_count"]
            assert (spans["end"] >= spans["start"]).all()
            # one tree: only the timed region has no parent
            assert (spans["parent"] == -1).sum() == 1


def test_compare_of_a_report_with_itself_is_clean(report, capsys):
    out, _ = report
    assert cli.main(["--compare", str(out), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "regressed" not in printed and "DIFFER" not in printed
    assert printed.count("simulated statistics and exact counts: identical") == 4


def _entry(*runs):
    return {"value": min(runs), "min": min(runs), "max": max(runs), "runs": list(runs)}


def test_compare_verdicts():
    wall, timely = END_TO_END[0], END_TO_END[2]
    assert (wall.name, wall.bound, timely.name) == ("wall_us_per_request", 0.20, "timely_fraction")
    base = _entry(100.0, 101.0, 102.0)
    assert cli._verdict(wall, base, _entry(100.5, 101.5, 102.5)) == "ok"
    assert cli._verdict(wall, base, _entry(125.0, 126.0, 127.0)) == "regressed"
    assert cli._verdict(wall, base, _entry(90.0, 91.0, 92.0)) == "improved"
    # repetitions spread wider than the bound: no verdict either way ...
    assert cli._verdict(wall, base, _entry(95.0, 105.0, 130.0)) == "unresolved"
    # ... unless every B run beats every A run
    assert cli._verdict(wall, base, _entry(60.0, 80.0, 99.0)) == "improved"
    same = _entry(0.98, 0.98, 0.98)
    assert cli._verdict(timely, same, same) == "identical"
    assert cli._verdict(timely, same, _entry(0.975, 0.975)) == "moved (worse)"
    assert cli._verdict(timely, same, _entry(0.96, 0.96)) == "regressed"


def _patched_owners():
    from repro.core import distribution, estimator, repository, selection
    from repro.experiments import parallel
    from repro.faultinject import auditor, campaign, transport as faulty
    from repro.gateway.handlers import timing_fault
    from repro.health import monitor
    from repro.metrics import collector
    from repro.net import lan, transport
    from repro.orb import iiop, orb
    from repro.overload import admission, governor, load
    from repro.sim import kernel, random as sim_random, trace as sim_trace

    owners = [
        kernel.Simulator, transport.Transport, lan.LanModel, faulty.FaultyTransport,
        iiop.MarshallingModel, orb.Stub, timing_fault.TimingFaultClientHandler,
        timing_fault.TimingFaultServerHandler, repository.InformationRepository,
        estimator.ResponseTimeEstimator, estimator, distribution.DiscretePMF,
        selection.DynamicSelectionPolicy, selection, load.LoadTracker,
        governor.GovernedSelectionPolicy, admission.AdmissionController,
        monitor.HealthMonitor, campaign, auditor.LifecycleAuditor, parallel,
        collector.MetricsCollector, sim_trace.Tracer, sim_trace.NullTracer,
    ]
    owners += [
        cls for cls in vars(sim_random).values()
        if isinstance(cls, type) and issubclass(cls, sim_random.Distribution)
    ]
    return owners


def _attributes(owners):
    return {
        (owner.__name__, key): value
        for owner in owners
        for key, value in vars(owner).items()
        if not key.startswith("__")
    }


def test_no_wrapper_is_left_installed():
    owners = _patched_owners()
    before = _attributes(owners)
    with instrument(SpanRecorder()):
        during = _attributes(owners)
        assert sum(during[key] is not before[key] for key in before) > 50
    assert all(_attributes(owners)[key] is before[key] for key in before)
    # ... also after a real traced pass, and after one that raises.
    result = child.run_pass(
        {"mode": "pass", "workload": "overload_knee", "seed": 1, "scale": SCALE,
         "trace": True, "spawned_at": time.monotonic()}
    )
    assert result["trace"]["span_count"] > 0
    with pytest.raises(KeyError):
        with instrument(SpanRecorder()):
            raise KeyError("boom")
    assert all(_attributes(owners)[key] is before[key] for key in before)


def test_benchmark_json_is_the_catalogue():
    with open(ROOT / "BENCHMARK.json") as handle:
        document = json.load(handle)
    assert document == benchmark_json(document["run_seconds"])


def test_driver_protocol_prints_one_result_object():
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper_idle",
         "--seed", "5", "--seconds", "0", "--trace", "0", "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in benchmark_json()["end_to_end"]
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper_idle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
