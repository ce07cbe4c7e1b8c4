"""Alternated before/after runs of the benchmark, written to one record.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 8 --out BENCH_<n>.json
    python3 tools/bench_pairs.py --parent main --workload bounds_grid --pairs 10

Exports the parent revision and the working tree, its tracked and untracked
files as they are on disk less the ignored ones, each with ``git archive``
into a temporary directory of its own, so that neither side runs from a
location the other does not share.  Then runs ``perfbench/run.py --trace 0``
once on each copy per pair and workload, one run at a time.  The side that runs
first flips every pair, so a slow drift of the machine falls on both sides
alike.  The record holds the machine, the seeds, the number of pairs, every
run's end-to-end metrics, wall time and CPU time (user plus system, of the
benchmark's processes), the parent commit and the tree id of the measured
working tree, and per workload and metric the median and the
quartiles of each side, the ratio of the medians and the number of pairs the
change won.  Each side's CPU seconds per wall second are summarized the same
way: a step in them shows when the machine, not the code, changed speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"run_cal": "lower", "items_per_cal": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout.strip()


def unpack(tree: str, into: Path) -> None:
    """Write the files of a commit or tree id into the new directory ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", tree], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {tree} failed")


def export(revision: str, into: Path) -> str:
    """Unpack ``revision`` into ``into`` and return its full commit id."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    unpack(commit, into)
    return commit


def export_working_tree(into: Path) -> str:
    """Unpack the working tree's tracked and untracked files, as they are on disk and less the
    ignored ones, into ``into`` and return the id of the tree they make.  They are staged in a
    throwaway index, so the repository's own index is left as it was."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", env=env)
        tree = git("write-tree", env=env)
    unpack(tree, into)
    return tree


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run; its metrics, failed count and machine record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # the run's processes are waited for, so their CPU time is added to this process's children's
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run([*argv, "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    return {
        "metrics": {key: result["metrics"][key]["value"] for key in METRICS},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "machine": record["machine"],
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for key, better in METRICS.items():
        parent = [p["parent"]["metrics"][key] for p in pairs]
        change = [p["change"]["metrics"][key] for p in pairs]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        out[key] = {
            "better": better,
            "parent": before,
            "change": after,
            "ratio_of_medians": after["median"] / before["median"],
            "change_wins": wins,
        }
    out["cpu_per_wall"] = {side: spread([p[side]["cpu_s"] / p[side]["wall_s"] for p in pairs])
                           for side in ("parent", "change")}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    out["attempted"] = {side: sum(p[side]["attempted"] for p in pairs) for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", help="workload name, repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=None, help="perfbench input seed (default: its reference seed)")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    seed = workloads.REFERENCE_SEED if args.seed is None else args.seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commit = export(args.parent, sides["parent"])
        tree = export_working_tree(sides["change"])
        runs = {name: [] for name in names}
        machine = None
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for name in names:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], name, seed, args.seconds)
                    machine = pair[side].pop("machine")
                    print(f"pair {index + 1}/{args.pairs} {name} {side}: {pair[side]['metrics']}", file=sys.stderr)
                runs[name].append(pair)

    record = {
        "parent": commit,
        "change": "working tree",
        "change_tree": tree,
        "machine": machine,
        "seed": seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "command": "perfbench/run.py --workload W --seed SEED --seconds S --trace 0",
        "workloads": {name: {"summary": summary(pairs), "runs": pairs} for name, pairs in runs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, entry in record["workloads"].items():
        for key in METRICS:
            s = entry["summary"][key]
            print(
                f"{name:12s} {key:14s} {s['parent']['median']:10.4g} -> {s['change']['median']:10.4g}"
                f"  x{s['ratio_of_medians']:.3f}  change better in {s['change_wins']}/{args.pairs}"
            )
        cpu = entry["summary"]["cpu_per_wall"]
        print(f"{name:12s} {'cpu_per_wall':14s} {cpu['parent']['median']:10.4g} -> {cpu['change']['median']:10.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
