"""One measurement run in a fresh interpreter, started by run.py.

Drives the CLI in-process through ``horospheres.cli.main(argv)`` with stdout
and stderr captured.  Modes:

  measure     run the workload's reference command (checked against its
              recorded output; it also warms caches), then time commands
              with seeded inputs for --seconds.  With --trace 1 each input
              runs twice, untraced and traced in alternating order, and the
              two outputs must be byte-identical.
  acceptance  the headline experiment at its acceptance size, checked
              against its recorded output; its "pass" must be true.
  record      write the reference outputs (the acceptance one included).

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def calibration_s() -> float:
    """Wall time of a fixed kernel that mixes the kinds of work the commands
    do, without the package: generator set-up per stream, ufuncs on tiny and
    on 3000-element arrays, and a pure-Python loop.

    On a shared virtual machine the processor's speed drifts by about 20%
    between 15-second windows.  A command's time divided by the time of this
    kernel, run right before and after it, cancels most of that drift.
    """
    start = perf_counter_ns()
    acc = 0.0
    for key in range(100):
        rng = np.random.Generator(np.random.Philox(key=key))
        y = np.log1p(-0.5 * rng.random(3000))
        acc += float(np.max(y)) + math.log(float(np.sum(np.exp(y - 1.0))))
        acc += float(np.sum(np.log(rng.random(8))))
    total = 0
    for i in range(30_000):
        total += i * i
    return (perf_counter_ns() - start) / 1e9


def _import_cli():
    from horospheres import cli

    src = (ROOT / "src").resolve()
    where = Path(cli.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"perfbench: imported horospheres from {where}, not from {src}")
    return cli


def run_command(cli, argv: list[str], tracer: tracing.Tracer | None = None) -> dict:
    """One CLI command with its exit code, stdout, stderr and wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                start = perf_counter_ns()
                code = cli.main(argv)
                end = perf_counter_ns()
            else:
                with tracing.instrumented(tracer):
                    root = tracer.open(tracing.ROOT_SPAN)
                    try:
                        code = cli.main(argv)
                    finally:
                        tracer.close(root)
                start, end = tracer.starts[root], tracer.ends[root]
        except Exception:  # an escaped exception is a failed command, not a dead run
            code, start, end = None, 0, 0
            err.write(traceback.format_exc())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": (end - start) / 1e9}


def _problems(result: dict) -> list[str]:
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    if result["stderr"]:
        problems.append("stderr: " + result["stderr"].strip().splitlines()[-1])
    return problems


def _output_counts(workload: workloads.Workload, text: str) -> list[int] | None:
    if workload.output != "csv":
        return None
    return [row["count"] for row in workloads.parse_csv(text)["rows"]]


def _model(cmd: workloads.Command) -> str:
    return cmd.expect.get("model", "hyperbolic")


def measure(cli, workload: workloads.Workload, seed: int, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    schema_dir = Path(cli.__file__).parent / "schemas"
    failures = []

    ref = workload.reference()
    result = run_command(cli, ref.argv)
    problems = _problems(result) or workloads.check_reference(
        workload, result["stdout"], workload.reference_path().read_text(encoding="utf-8")
    )
    if problems:
        failures.append({"argv": ref.argv, "problems": problems[:5]})
    attempted = 1

    rng = random.Random(seed)
    untraced, traced, ratios, items, layers = [], [], [], [], []
    last_tracer = None
    calibration = None if trace else calibration_s()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    tries = 0
    # at least one timed command, and give up after three failures if none succeeds
    while perf_counter_ns() < deadline or (not untraced and tries < 3):
        tries += 1
        attempted += 1
        cmd = workload.build(workload.draw(rng))
        tracer = tracing.Tracer() if trace else None
        # alternate which of the pair runs first, so drift hits both alike
        order = [None, tracer] if len(untraced) % 2 == 0 else [tracer, None]
        plain = traced_run = None
        for which in order if trace else [None]:
            result = run_command(cli, cmd.argv, which)
            if which is None:
                plain = result
            else:
                traced_run = result
        if not trace:
            before, calibration = calibration, calibration_s()
        problems = _problems(plain) or workloads.check_output(workload, cmd, plain["stdout"], schema_dir)
        if trace:
            problems += [f"traced: {p}" for p in _problems(traced_run)]
            if traced_run["stdout"] != plain["stdout"]:
                problems.append("stdout differs with tracing on")
        if problems:
            failures.append({"argv": cmd.argv, "problems": problems[:5]})
            continue
        untraced.append(plain["seconds"])
        items.append(cmd.items)
        if not trace:
            ratios.append(plain["seconds"] / (0.5 * (before + calibration)))
        else:
            traced.append(traced_run["seconds"])
            counts = _output_counts(workload, plain["stdout"])
            layers.append(tracing.layer_metrics(tracer, plain["stdout"], counts, _model(cmd)))
            last_tracer = tracer

    if last_tracer is not None and spans_path is not None:
        spans_path.write_text(json.dumps(last_tracer.spans()), encoding="utf-8")
    return {
        "attempted": attempted,
        "failures": failures,
        "untraced_s": untraced,
        "calibrated": ratios,
        "traced_s": traced,
        "items": items,
        "layers": layers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": threading.active_count(),
    }


def acceptance(cli) -> dict:
    result = run_command(cli, workloads.ACCEPTANCE.argv)
    problems = _problems(result) or workloads.check_reference(
        workloads.WORKLOADS["clt_sweep"], result["stdout"], workloads.ACCEPTANCE_PATH.read_text(encoding="utf-8")
    )
    if not problems and json.loads(result["stdout"])["pass"] is not True:
        problems.append("verify-clt pass is not true at the acceptance size")
    failures = [{"argv": workloads.ACCEPTANCE.argv, "problems": problems[:5]}] if problems else []
    return {"attempted": 1, "failures": failures}


def record(cli) -> dict:
    targets = [(w.reference(), w.reference_path()) for w in workloads.WORKLOADS.values()]
    targets.append((workloads.ACCEPTANCE, workloads.ACCEPTANCE_PATH))
    for cmd, path in targets:
        result = run_command(cli, cmd.argv)
        if _problems(result):
            raise SystemExit(f"perfbench: {cmd.argv} failed: {_problems(result)}")
        path.write_text(result["stdout"], encoding="utf-8")
    return {"recorded": [str(path.relative_to(ROOT)) for _, path in targets]}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("measure", "acceptance", "record"), default="measure")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    cli = _import_cli()
    if args.mode == "measure":
        result = measure(cli, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.spans)
    elif args.mode == "acceptance":
        result = acceptance(cli)
    else:
        result = record(cli)
    result["machine"] = machine()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
