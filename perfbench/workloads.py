"""Benchmark workloads: the CLI commands they run and the checks on their output.

No workload passes ``--threads``.  Threads make runs slower today, because the
sampler is Python-bound under the GIL, and the flag may be removed.  So the
load is one single-threaded process, and the child environment pins every
thread knob to 1.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The seed every Monte Carlo acceptance test of the package runs under.
REFERENCE_SEED = 20260821

# Relative tolerance for floats compared against a recorded reference.  It
# admits last-digit changes from summing in another order (1.8e-15 observed
# for a segmented log-sum) and from swapping the hand-rolled erfc for the
# stdlib one (1.5e-12 in erfc), and rejects any changed replication, which
# moves a total area or a distance by far more.  Integers must match exactly.
FLOAT_RTOL = 1e-9

_SEED_BOUND = 1 << 63
_GRID_POINTS = 100
_GRID_STEP = 100
_CLT_N = 2000
_ACCEPTANCE_N = 100_000


@dataclass(frozen=True)
class Command:
    argv: list[str]
    items: int  # replications, or grid points, the command completes
    expect: dict  # what the output must show, checkable without a reference


@dataclass(frozen=True)
class Workload:
    name: str
    item_name: str
    output: str  # "csv" or "json"
    build: Callable[[int], Command]  # input parameter -> command
    draw: Callable[[random.Random], int]  # seeded generator -> input parameter
    reference_param: int

    def reference(self) -> Command:
        return self.build(self.reference_param)

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.{self.output}"


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(_SEED_BOUND)


def _clt(seed: int, n: int = _CLT_N) -> Command:
    argv = ["verify-clt", "--d", "2", "--R-list", "2,4,8", "--seed", str(seed), "--n", str(n)]
    return Command(argv, 3 * n, {"command": "verify-clt", "R_list": [2.0, 4.0, 8.0], "n": n, "seed": seed})


def _simulate(model: str, d: int, R: float, n: int) -> Callable[[int], Command]:
    def build(seed: int) -> Command:
        argv = ["simulate", "--d", str(d), "--R", str(R), "--seed", str(seed), "--n", str(n)]
        if model == "euclidean":
            argv[1:1] = ["--model", "euclidean"]
        expect = {"command": "simulate", "model": model, "d": d, "R": float(R), "n": n, "seed": seed}
        return Command(argv, n, expect)

    return build


def _bounds(offset: int) -> Command:
    grid = [_GRID_STEP * k + offset for k in range(1, _GRID_POINTS + 1)]
    argv = ["bounds", "--d-grid", ",".join(map(str, grid)), "--R-rule", "log-d-offset:1"]
    return Command(argv, len(grid), {"command": "bounds", "d_grid": grid})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clt_sweep", "reps", "json", _clt, _draw_seed, REFERENCE_SEED),
        Workload("sim_dense", "reps", "csv", _simulate("hyperbolic", 2, 8, 2000), _draw_seed, REFERENCE_SEED),
        Workload("flat_sparse", "reps", "csv", _simulate("euclidean", 3, 2, 5000), _draw_seed, REFERENCE_SEED),
        # offset 0 is the grid 100, 200, ..., 10000
        Workload("bounds_grid", "points", "json", _bounds, lambda rng: rng.randrange(_GRID_STEP), 0),
    )
}

# The headline experiment at its acceptance size, where the Kolmogorov trend
# is resolved above sampling noise, so its "pass" must be true.
ACCEPTANCE = _clt(REFERENCE_SEED, _ACCEPTANCE_N)
ACCEPTANCE_PATH = REFERENCE_DIR / "clt_acceptance.json"


# ---------------------------------------------------------------------------
# parsing


def parse_csv(text: str) -> dict:
    """The simulate CSV as {"config", "rows", "summary"}, cells typed."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config "):
        raise ValueError("missing '# config' line")
    config = json.loads(lines[0][len("# config "):])
    header = lines[1].split(",")
    if header != ["index", "count", "total_area"]:
        raise ValueError(f"unexpected header {header}")
    body = lines[2:]
    summary = None
    if body and body[-1].startswith("# summary "):
        summary = json.loads(body.pop()[len("# summary "):])
    rows = []
    for line in body:
        index, count, total = line.split(",")
        rows.append({"index": int(index), "count": int(count), "total_area": float(total)})
    return {"config": config, "rows": rows, "summary": summary}


def parse(output: str, text: str):
    return parse_csv(text) if output == "csv" else json.loads(text)


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is right


def compare(got, want, path: str = "$") -> list[str]:
    """Recursive comparison: exact for ints, bools, strings and structure,
    FLOAT_RTOL for floats."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{path}: {got} != {want}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if got == want or abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} differs from {want!r} by more than rtol {FLOAT_RTOL:g}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    return [f"{path}: {type(got).__name__} where {type(want).__name__} expected"]


def _finite(values, what: str) -> list[str]:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return [f"{what}: non-finite value {bad[0]!r}"] if bad else []


def _config(doc_config: dict, expect: dict) -> list[str]:
    return [
        f"config {key}: {doc_config.get(key)!r} != {value!r}"
        for key, value in expect.items()
        if doc_config.get(key) != value
    ]


def _check_simulate(doc: dict, expect: dict) -> list[str]:
    problems = _config(doc["config"], expect)
    rows = doc["rows"]
    if len(rows) != expect["n"]:
        return problems + [f"{len(rows)} rows for n={expect['n']}"]
    for i, row in enumerate(rows):
        total, count = row["total_area"], row["count"]
        if row["index"] != i or count < 0 or not (math.isfinite(total) and total >= 0):
            problems.append(f"row {i}: bad row {row}")
        elif (count == 0) != (total == 0.0):
            problems.append(f"row {i}: count {count} with total area {total!r}")
    summary = doc["summary"]
    if summary is None or summary.get("n") != expect["n"]:
        problems.append(f"summary missing or wrong n: {summary}")
    else:
        mean_count = sum(row["count"] for row in rows) / len(rows)
        problems += compare(summary["count_mean"], mean_count, "summary.count_mean")
    return problems


def _check_verify_clt(doc: dict, expect: dict) -> list[str]:
    problems = _config(doc["config"], expect)
    rows = doc["rows"]
    if [row["R"] for row in rows] != expect["R_list"]:
        return problems + [f"rows for R {[row.get('R') for row in rows]}"]
    for row in rows:
        problems += _finite([row[k] for k in ("center", "scale", "d_kol", "d_wass1", "wasserstein_bound")], f"R={row['R']}")
        if not 0.0 <= row["d_kol"] <= 1.0:
            problems.append(f"R={row['R']}: d_kol {row['d_kol']!r} outside [0, 1]")
    if doc["pass"] != (doc["kolmogorov_decreasing"] and doc["all_w1_pass"]):
        problems.append("pass disagrees with its two parts")
    return problems


def _check_bounds(doc: dict, expect: dict) -> list[str]:
    problems = _config(doc["config"], expect)
    rows = doc["rows"]
    if [row["d"] for row in rows] != expect["d_grid"]:
        return problems + ["rows do not follow the d grid"]
    for row in rows:
        problems += compare(row["R"], math.log(row["d"]) + 1.0, f"d={row['d']}.R")
        problems += _finite([v for k, v in row.items() if k not in ("d", "regime")], f"d={row['d']}")
    return problems


_CHECKS = {"simulate": _check_simulate, "verify-clt": _check_verify_clt, "bounds": _check_bounds}
_SCHEMAS = {"verify-clt": "verify_clt.schema.json", "bounds": "bounds.schema.json"}


def _schema_problems(doc, command: str, schema_dir: Path) -> list[str]:
    if command not in _SCHEMAS:
        return []
    try:
        import jsonschema
    except ImportError:  # the structural checks below still run
        return []
    schema = json.loads((schema_dir / _SCHEMAS[command]).read_text(encoding="utf-8"))
    return [f"schema: {err.message}" for err in jsonschema.Draft7Validator(schema).iter_errors(doc)]


def check_output(workload: Workload, cmd: Command, text: str, schema_dir: Path) -> list[str]:
    """What can be checked without a reference: parse, schema, row count and
    echoed configuration, plus the invariants each command's output obeys."""
    try:
        doc = parse(workload.output, text)
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"]
    command = cmd.expect["command"]
    problems = _schema_problems(doc, command, schema_dir)
    try:
        return problems + _CHECKS[command](doc, cmd.expect)
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed output: {exc!r}"]


def check_reference(workload: Workload, text: str, reference_text: str) -> list[str]:
    try:
        got = parse(workload.output, text)
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"]
    return compare(got, parse(workload.output, reference_text))
