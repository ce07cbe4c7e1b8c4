"""Benchmark of the horospheres CLI: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one report
    python3 perfbench/run.py --record-references     # rewrite reference outputs

With --trace 0 a run times set-up in fresh interpreters, then starts one
fresh single-threaded child (child.py) that runs the workload's commands in
process for S seconds and checks every output.  With --trace 1 the child
runs each input untraced and traced and reports per-layer metrics from the
traced runs.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it show the same numbers and
the machine.  Full records, samples and the spans of the last traced command
go to .perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import horospheres, horospheres.cli; "
    "horospheres.cli.build_parser(); print(repr(time.perf_counter() - t))"
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"run_cal": "cal", "items_per_cal": "1/cal", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {**tracing.LAYER_UNITS, "trace.overhead": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a child died."""


def child_env() -> dict:
    """The environment without the package's thread knob, with every BLAS and
    OpenMP pool pinned to one thread, importing the checkout's source."""
    env = {k: v for k, v in os.environ.items() if k not in ("HOROSPHERES_THREADS", "PYTHONPATH", "PYTHONHOME")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child timed out after {timeout:.0f} s: {argv[:3]}") from exc
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise BenchError(f"child exited {proc.returncode}: {tail}")
    return proc


def run_child(argv: list[str], timeout: float) -> dict:
    proc = _spawn([str(HERE / "child.py"), *argv], timeout)
    return json.loads(proc.stdout.splitlines()[-1])


def setup_samples() -> list[float]:
    """Import and parser build time in fresh interpreters; the first probe
    fills the bytecode cache and is not counted."""
    return [float(_spawn(["-c", SETUP_PROBE], 60).stdout) for _ in range(SETUP_SAMPLES + 1)][1:]


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return f"median of n={n}; too few for a tail percentile"
    value = sorted(samples)[n - 11]
    return f"median of n={n}; p{100 * (n - 10) / n:.0f} = {value:.6g} s"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if trace else setup_samples()
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(OUT_DIR / f"spans-{name}-seed{seed}.json")]
    res = run_child(argv, timeout=seconds + 90)
    attempted, failures = res["attempted"], res["failures"]
    if name == "clt_sweep" and seed == workloads.REFERENCE_SEED:
        acc = run_child(["--mode", "acceptance"], timeout=150)
        attempted += acc["attempted"]
        failures += acc["failures"]
    if res["threads"] != 1:
        failures.append({"argv": None, "problems": [f"{res['threads']} threads alive after the run"]})

    run_s = res["untraced_s"]
    if not run_s:
        raise BenchError(f"{name}: no command succeeded: {failures[:2]}")
    notes, info = {}, {}
    if trace:
        metrics = {key: statistics.median(layer[key] for layer in res["layers"]) for key in tracing.LAYER_UNITS}
        metrics["trace.overhead"] = statistics.median(res["traced_s"]) / statistics.median(run_s)
        units = TRACE_UNITS
    else:
        calibrated = res["calibrated"]
        metrics = {
            "run_cal": statistics.median(calibrated),
            "items_per_cal": statistics.median(n / c for n, c in zip(res["items"], calibrated)),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        item_rate = f"{workload.item_name}_per_s"
        notes = {
            "run_cal": f"median command time in calibration-kernel units, n={len(calibrated)}",
            "items_per_cal": f"{workload.item_name} per calibration-kernel unit",
            "peak_rss_mb": "ru_maxrss of the measuring child",
            "setup_s": f"median of {len(setup)} fresh interpreters",
        }
        info = {
            "run_s": {"value": statistics.median(run_s), "unit": "s", "note": tail_note(run_s)},
            item_rate: {"value": sum(res["items"]) / sum(run_s), "unit": "1/s", "note": "per second of command time"},
        }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": res["machine"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "notes": notes,
        "wall_clock": info,
        "samples": {"run_s": run_s, "run_cal": res["calibrated"], "traced_s": res["traced_s"], "setup_s": setup},
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"perfbench {report['workload']}: seed {report['seed']}, {report['seconds']:g} s, trace {'on' if report['trace'] else 'off'}")
    print(f"  machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}")
    frac = report["failed"] / report["attempted"]
    print(f"  commands: {report['attempted']} attempted, {report['failed']} failed, failed_frac {frac:g}")
    for failure in report["failures"][:3]:
        print(f"  FAILED {failure['argv']}: {'; '.join(failure['problems'])}")
    for key, metric in report["metrics"].items():
        note = report["notes"].get(key, "")
        print(f"  {key:30s} {metric['value']:<14.6g} {metric['unit']:6s} {note}")
    for key, metric in report["wall_clock"].items():
        print(f"  {key:30s} {metric['value']:<14.6g} {metric['unit']:6s} {metric['note']} (wall clock, not gated)")


def result_line(reports: list[dict]) -> str:
    single = len(reports) == 1
    metrics = {
        (key if single else f"{r['workload']}.{key}"): metric for r in reports for key, metric in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in reports)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed,
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "horospheres" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'horospheres'} is missing", file=sys.stderr)
        return 2
    try:
        if args.record_references:
            print(json.dumps(run_child(["--mode", "record"], timeout=300)))
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        reports = []
        for name in names:
            reports.append(measure(name, args.seed, args.seconds, bool(args.trace)))
            print_report(reports[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(result_line(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
