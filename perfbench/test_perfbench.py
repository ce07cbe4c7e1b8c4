"""Self-checks of the benchmark.  Run with:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cli():
    return child._import_cli()


@pytest.fixture(scope="module")
def reference_runs(cli):
    """Each workload's reference command, untraced and traced."""
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        argv = workload.reference().argv
        tracer = tracing.Tracer()
        start = perf_counter_ns()
        traced = child.run_command(cli, argv, tracer)
        outer_ns = perf_counter_ns() - start
        runs[name] = (child.run_command(cli, argv), traced, tracer, outer_ns)
    return runs


@pytest.mark.parametrize("name", NAMES)
def test_reference_output_matches_record(reference_runs, name):
    workload = workloads.WORKLOADS[name]
    plain = reference_runs[name][0]
    assert plain["code"] == 0 and plain["stderr"] == ""
    recorded = workload.reference_path().read_text(encoding="utf-8")
    assert workloads.check_reference(workload, plain["stdout"], recorded) == []


@pytest.mark.parametrize("name", NAMES)
def test_tracing_keeps_stdout_bytes(reference_runs, name):
    plain, traced, _, _ = reference_runs[name]
    assert traced["code"] == 0 and traced["stderr"] == ""
    assert traced["stdout"] == plain["stdout"]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_wall_time(reference_runs, name):
    _, traced, tracer, outer_ns = reference_runs[name]
    self_ns = tracer.self_ns()
    root = tracer.names.index(tracing.ROOT_SPAN)
    wall_ns = tracer.ends[root] - tracer.starts[root]
    assert tracer.parents.count(-1) == 1 and min(self_ns) >= 0
    assert sum(self_ns) == wall_ns
    assert traced["seconds"] == wall_ns / 1e9
    # the span covers the command; swapping bindings in and out costs little
    assert wall_ns <= outer_ns <= wall_ns + 50_000_000


def test_original_bindings_restored(cli):
    import importlib

    def current():
        return [
            getattr(importlib.import_module(f"horospheres.{module}"), attr, None)
            for module, attr, _ in tracing.BINDINGS
        ]

    before = current()
    child.run_command(cli, workloads.WORKLOADS["bounds_grid"].build(5).argv, tracing.Tracer())
    assert current() == before


def test_dropped_binding_reads_zero(cli, monkeypatch):
    gone = (("analysis", "no_such_function", "analysis.gone"), ("no_such_module", "f", "quadrature"))
    monkeypatch.setattr(tracing, "BINDINGS", tracing.BINDINGS[3:] + gone)
    tracer = tracing.Tracer()
    result = child.run_command(cli, workloads.WORKLOADS["bounds_grid"].build(5).argv, tracer)
    assert result["code"] == 0 and result["stderr"] == ""
    metrics = tracing.layer_metrics(tracer, result["stdout"], None, "hyperbolic")
    assert metrics["quadrature.calls"] == 0 and metrics["analysis.width_calls"] == 200


def test_layer_counts(reference_runs):
    def metrics(name):
        plain, _, tracer, _ = reference_runs[name]
        workload = workloads.WORKLOADS[name]
        cmd = workload.reference()
        counts = child._output_counts(workload, plain["stdout"])
        return tracing.layer_metrics(tracer, plain["stdout"], counts, child._model(cmd)), tracer

    bounds, _ = metrics("bounds_grid")
    points = workloads.WORKLOADS["bounds_grid"].reference().items
    assert bounds["analysis.width_calls"] == 2 * points
    assert bounds["quadrature.calls"] == 5 * points
    assert bounds["sampling.batch_s"] == 0.0 and bounds["euclidean.batch_s"] == 0.0
    for name in ("sim_dense", "flat_sparse"):
        m, tracer = metrics(name)
        assert m["quadrature.calls"] == 0 and m["special.erfc_calls"] == 0
        layer = "euclidean" if name == "flat_sparse" else "sampling"
        # hits read from the output agree with what the count stage returned
        assert m[f"{layer}.hits"] == tracer.counters[f"{layer}.hits"] > 0
    clt, _ = metrics("clt_sweep")
    assert clt["sampling.hits"] > 0 and clt["empirical.summarize_s"] > 0 and clt["special.erfc_calls"] > 0


def test_compare_tolerance():
    workload = workloads.WORKLOADS["sim_dense"]
    text = workload.reference_path().read_text(encoding="utf-8")
    doc = workloads.parse_csv(text)
    assert workloads.compare(doc, doc) == []

    row = doc["rows"][3]
    reordered = json.loads(json.dumps(doc))
    reordered["rows"][3]["total_area"] = row["total_area"] * (1 + 2e-15)
    assert workloads.compare(reordered, doc) == []

    wrong = json.loads(json.dumps(doc))
    wrong["rows"][3]["total_area"] = row["total_area"] * (1 + 1e-6)
    assert workloads.compare(wrong, doc) != []

    miscounted = json.loads(json.dumps(doc))
    miscounted["rows"][3]["count"] += 1
    assert workloads.compare(miscounted, doc) != []


def test_structural_check_catches_bad_output(cli):
    workload = workloads.WORKLOADS["sim_dense"]
    cmd = workload.build(7)
    text = child.run_command(cli, cmd.argv)["stdout"]
    schema_dir = Path(cli.__file__).parent / "schemas"
    assert workloads.check_output(workload, cmd, text, schema_dir) == []
    lines = text.splitlines()
    assert workloads.check_output(workload, cmd, "\n".join(lines[:-2] + lines[-1:]) + "\n", schema_dir) != []


def test_acceptance_size_passes(cli):
    assert child.acceptance(cli)["failures"] == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
