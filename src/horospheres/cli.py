"""Command-line surface: deterministic experiment runs and reports.

Every command echoes its resolved configuration into the output file, so any
emitted artifact can be reproduced from itself.  Outputs are byte-stable for
a fixed flag set; wall-clock timestamps appear only under ``--stamp``.
``--model`` picks the ``sampling.Model`` that simulations run on.

Every failure is one stderr line, ``horospheres: <kind>: <message>``.  Exit
codes: 0 success, 2 infeasible simulation, 3 quadrature failure, 64 usage
error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, empirical, euclidean, render, sampling
from .geometry import _LOG_MAX, _exp_or_inf
from .quadrature import QuadratureError
from .sampling import FeasibilityError, SimConfig

__all__ = ["UsageError", "build_parser", "main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_QUADRATURE = 3
EXIT_USAGE = 64
EXIT_IO = 74

# config-echo keys that are ignored when an echoed file is fed back in
_ECHO_ONLY_KEYS = {"command", "version", "timestamp"}


class UsageError(Exception):
    """Invalid flags, config keys, or parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main() prints the program name; a subcommand's parser adds its own
        command = self.prog.partition(" ")[2]
        raise UsageError(f"{command}: {message}" if command else message)


# ---------------------------------------------------------------------------
# parameter resolution: flag > config file > built-in default


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config file {path}: top level must be an object")
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"config file {path}, line {lineno}: expected key = value")
        data[key.strip()] = value.strip()
    return data


def _merged(args, allowed: tuple[str, ...]) -> dict:
    """Resolved raw parameters for one command, config file first, flags on top."""
    raw = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, value in _load_config(config_path).items():
            norm = key.replace("-", "_")
            if norm in _ECHO_ONLY_KEYS:
                continue
            if norm not in allowed:
                raise UsageError(f"unknown config key {key!r}")
            raw[norm] = value
    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return raw


def _require(raw: dict, key: str):
    if key not in raw:
        flag = key.replace("_", "-")
        raise UsageError(f"missing required parameter --{flag}")
    return raw[key]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise UsageError(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        return int(str(value).strip())
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _as_float(value, name: str) -> float:
    if isinstance(value, bool):
        raise UsageError(f"{name} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        raise UsageError(f"{name} must be a number, got {value!r}") from None


def _as_choice(value, name: str, choices: tuple[str, ...]) -> str:
    text = str(value).strip()
    if text not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}; got {text!r}")
    return text


def _split_items(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [part for part in str(value).split(",") if part.strip() != ""]


def _as_int_list(value, name: str) -> list[int]:
    items = [_as_int(v, name) for v in _split_items(value)]
    if not items:
        raise UsageError(f"{name} must not be empty")
    return items


def _as_float_list(value, name: str) -> list[float]:
    items = [_as_float(v, name) for v in _split_items(value)]
    if not items:
        raise UsageError(f"{name} must not be empty")
    return items


def _radius_rule(value, d_grid: list[int], name: str = "R-rule") -> list[float]:
    """Radius grid from a rule: a bare number, an explicit per-d list, or one
    of the string forms fixed:V, list:V1,V2,..., alpha-log-d:A, log-d-offset:C.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)] * len(d_grid)
    if isinstance(value, (list, tuple)):
        values = [_as_float(v, name) for v in value]
        if len(values) != len(d_grid):
            raise UsageError(f"{name} list must match the d grid in length")
        return values
    text = str(value).strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"{name} must look like kind:value, got {text!r}")
    kind = kind.strip()
    if kind == "fixed":
        return [_as_float(rest, name)] * len(d_grid)
    if kind == "list":
        values = _as_float_list(rest, name)
        if len(values) != len(d_grid):
            raise UsageError(f"{name} list must match the d grid in length")
        return values
    if kind == "alpha-log-d":
        alpha = _as_float(rest, name)
        return [alpha * math.log(d) for d in d_grid]
    if kind == "log-d-offset":
        offset = _as_float(rest, name)
        return [math.log(d) + offset for d in d_grid]
    raise UsageError(
        f"unknown {name} kind {kind!r}; use fixed, list, alpha-log-d, or log-d-offset"
    )


# ---------------------------------------------------------------------------
# output plumbing


def _echo(args, command: str, params: dict) -> dict:
    out = {"command": command, "version": __version__}
    out.update(params)
    if getattr(args, "stamp", False):
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _json_doc(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_rows(header: list[str], rows: list[dict]) -> list[str]:
    return [",".join(_cell(row[key]) for key in header) for row in rows]


def _csv_table(echo: dict, header: list[str], body: list[str], trailer: dict | None = None) -> str:
    """The CSV document: config echo, header, the formatted body lines, optional summary."""
    lines = [f"# config {_json_line(echo)}", ",".join(header), *body]
    if trailer is not None:
        lines.append(f"# summary {_json_line(trailer)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _pair(log_value: float) -> dict:
    """Value given as {log, linear}; linear is null past double range and the
    log is null for an exact zero."""
    if math.isinf(log_value) and log_value < 0:
        return {"log": None, "linear": 0.0}
    return {
        "log": log_value,
        "linear": math.exp(log_value) if log_value < _LOG_MAX else None,
    }


# ---------------------------------------------------------------------------
# commands


_MODELS = {"hyperbolic": sampling.HYPERBOLIC, "euclidean": euclidean.FLAT}


def _cmd_simulate(args) -> None:
    raw = _merged(args, ("model", "d", "R", "n", "seed"))
    model = _as_choice(raw.get("model", "hyperbolic"), "model", tuple(_MODELS))
    d = _as_int(_require(raw, "d"), "d")
    R = _as_float(_require(raw, "R"), "R")
    n = _as_int(_require(raw, "n"), "n")
    seed = _as_int(_require(raw, "seed"), "seed")

    batch = sampling.simulate_batch(SimConfig(d=d, R=R, replications=n, seed=seed), _MODELS[model])

    # the moments are taken of the totals scaled by 2^-e and scaled back, which is exact: each
    # field is its formula's value wherever that is in double range, though the squares and fourth
    # powers of totals past 2^200 can overflow (at or below it e = 0 and nothing is scaled)
    top = float(np.max(batch.totals, initial=0.0, where=np.isfinite(batch.totals)))
    e = math.frexp(top)[1] if top > 2.0**200 else 0
    x = np.ldexp(batch.totals, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = {"mean": (np.mean(x), 1), "variance": (np.var(x, ddof=1) if n >= 2 else None, 2),
                  "k4": (None, 4), "mean_stderr": (None, 1), "variance_stderr": (None, 2)}
        if n >= 4:
            _, k2, _, k4 = empirical.k_statistics(x)
            scaled.update(variance=(k2, 2), k4=(k4, 4), mean_stderr=(math.sqrt(k2 / n), 1),
                          variance_stderr=(math.sqrt(max(k4 + 2.0 * k2 * k2, 0.0) / n), 2))
        moments = {key: None if value is None else float(np.ldexp(value, power * e))
                   for key, (value, power) in scaled.items()}
    # a field past double range (a total past it is inf) is null, like the variance of one total
    summary = {"n": n, "count_mean": float(np.mean(batch.counts))}
    summary.update({key: value if value is None or math.isfinite(value) else None for key, value in moments.items()})

    echo = _echo(args, "simulate", {"model": model, "d": d, "R": R, "n": n, "seed": seed})
    # each row formatted directly, as _cell would: an int by str, a float by repr
    body = [f"{i},{c},{t!r}" for i, (c, t) in enumerate(zip(batch.counts.tolist(), batch.totals.tolist()))]
    _emit(_csv_table(echo, ["index", "count", "total_area"], body, trailer=summary), args.out)


def _cmd_moments(args) -> None:
    raw = _merged(args, ("model", "d", "R"))
    model = _as_choice(raw.get("model", "hyperbolic"), "model", ("hyperbolic", "euclidean"))
    d = _as_int(_require(raw, "d"), "d")
    R = _as_float(_require(raw, "R"), "R")

    if model == "euclidean":
        body = {
            "mean": _pair(euclidean.log_mean(R, d)),
            "variance": _pair(euclidean.variance_closed(R, d)),
            "fourth_cumulant": _pair(euclidean.fourth_cumulant_closed(R, d)),
        }
    else:
        m = analysis.moments(R, d)
        body = {
            "mean": _pair(m.log_mean),
            "mean_positive_part": _pair(m.log_mean_positive_part),
            "variance": _pair(m.log_variance),
            "fourth_cumulant_negative_part": _pair(m.log_cum4_negative_part),
        }
    echo = _echo(args, "moments", {"model": model, "d": d, "R": R})
    _emit(_json_doc({"config": echo, "moments": body}), args.out)


_BOUND_HEADER = [
    "d",
    "R",
    "width",
    "wasserstein_bound_width",
    "wasserstein_bound_integrals",
    "kolmogorov_bound",
    "regime",
    "rate_envelope",
]
_EUCLID_BOUND_HEADER = ["d", "R", "wasserstein_bound", "normalized_bound"]


def _cmd_bounds(args) -> None:
    raw = _merged(args, ("model", "d_grid", "R_rule", "format"))
    model = _as_choice(raw.get("model", "hyperbolic"), "model", ("hyperbolic", "euclidean"))
    fmt = _as_choice(raw.get("format", "json"), "format", ("json", "csv"))
    d_grid = _as_int_list(_require(raw, "d_grid"), "d-grid")
    rule = _require(raw, "R_rule")
    radii = _radius_rule(rule, d_grid)

    if model == "euclidean":
        rows = []
        for d, R in zip(d_grid, radii):
            bound = euclidean.wasserstein_bound(R, d)
            rows.append(
                {
                    "d": d,
                    "R": R,
                    "wasserstein_bound": bound.value,
                    "normalized_bound": bound.normalized,
                }
            )
    else:
        # one batched quadrature for the whole grid
        rows = [
            {
                "d": report.d,
                "R": report.R,
                "width": report.width,
                "wasserstein_bound_width": report.wasserstein_bound_width,
                "wasserstein_bound_integrals": report.wasserstein_bound_integrals,
                "kolmogorov_bound": report.kolmogorov_bound,
                "regime": report.regime.value,
                "rate_envelope": report.rate_envelope,
            }
            for report in analysis.rate_envelopes(radii, d_grid)
        ]

    echo = _echo(
        args,
        "bounds",
        {"model": model, "d_grid": d_grid, "R_rule": rule, "format": fmt},
    )
    if fmt == "csv":
        header = _EUCLID_BOUND_HEADER if model == "euclidean" else _BOUND_HEADER
        _emit(_csv_table(echo, header, _csv_rows(header, rows)), args.out)
    else:
        _emit(_json_doc({"config": echo, "rows": rows}), args.out)


def _cmd_verify_clt(args) -> None:
    raw = _merged(args, ("model", "d", "R_list", "n", "seed"))
    model = _as_choice(raw.get("model", "hyperbolic"), "model", tuple(_MODELS))
    d = _as_int(_require(raw, "d"), "d")
    radii = _as_float_list(_require(raw, "R_list"), "R-list")
    n = _as_int(_require(raw, "n"), "n")
    seed = _as_int(_require(raw, "seed"), "seed")

    configs = [SimConfig(d=d, R=R, replications=n, seed=seed) for R in radii]
    if n < 4:
        raise UsageError(f"--n must be at least 4 for the sample k-statistics, got {n}")
    # every radius must be feasible before any moments are computed: a radius
    # past the count cap can also be past the range of the linear moments
    for cfg in configs:
        sampling.check_feasible(cfg, _MODELS[model])
    target = 1.0 if model == "euclidean" else 0.5
    allowance = 1.5 / math.sqrt(n)
    # the hyperbolic means, variances and widths of all radii come from one grid call
    grid = analysis._clt_grid(radii, [d] * len(radii)) if model == "hyperbolic" else [None] * len(radii)
    normalizations = []
    for R, m in zip(radii, grid):
        if model == "euclidean":
            log_mean, log_variance = euclidean.log_mean(R, d), euclidean.variance_closed(R, d)
            bound = euclidean.wasserstein_bound(R, d).value
        else:
            log_mean, log_variance, width = m
            bound = analysis.wasserstein_bound_width(R, d, width=width)
        center, scale = _exp_or_inf(log_mean), _exp_or_inf(0.5 * log_variance)
        if not (center < math.inf and 0.0 < scale < math.inf):
            raise FeasibilityError(f"at R = {R!r} the mean {center:.6g} or standard deviation {scale:.6g} "
                                   "of the total area leaves double range")
        normalizations.append((center, scale, bound))
    rows = []
    for R, cfg, (center, scale, bound) in zip(radii, configs, normalizations):
        totals = sampling.simulate_batch(cfg, _MODELS[model]).totals
        if not np.all(np.isfinite(totals)):
            raise FeasibilityError(f"at R = {R!r} a sampled total area leaves double range")
        summary = empirical.summarize(totals, target, center=center, scale=scale)
        # checked after summarize, which rejects fewer than four totals: equal totals pass it,
        # but have no spread, so their excess kurtosis would be 0/0 or rounding noise
        if totals.min() == totals.max():
            raise FeasibilityError(f"at R = {R!r} all {n} sampled total areas equal {float(totals[0])!r}: "
                                   "the sample has no spread")
        rows.append(
            {
                "R": R,
                "center": center,
                "scale": scale,
                "d_kol": summary.d_kol,
                "d_wass1": summary.d_wass1,
                "excess_kurtosis": summary.k4 / summary.variance**2,
                "wasserstein_bound": bound,
                "w1_pass": bool(summary.d_wass1 <= bound + 3.0 * allowance),
            }
        )

    kol_values = [row["d_kol"] for row in rows]
    kol_decreasing = all(b < a for a, b in zip(kol_values, kol_values[1:]))
    all_w1 = all(row["w1_pass"] for row in rows)
    echo = _echo(
        args,
        "verify-clt",
        {"model": model, "d": d, "R_list": radii, "n": n, "seed": seed},
    )
    doc = {
        "config": echo,
        "target_variance": target,
        "allowance": allowance,
        "rows": rows,
        "kolmogorov_decreasing": kol_decreasing,
        "all_w1_pass": all_w1,
        "pass": kol_decreasing and all_w1,
    }
    _emit(_json_doc(doc), args.out)


def _cmd_render(args) -> None:
    # "d" is accepted so an echoed config round-trips, but it is forced to 2
    raw = _merged(args, ("R", "seed", "d"))
    if "d" in raw and _as_int(raw["d"], "d") != 2:
        raise UsageError("render draws the planar model; d must be 2")
    R = _as_float(_require(raw, "R"), "R")
    seed = _as_int(_require(raw, "seed"), "seed")
    scene = render.horocycle_scene(R, seed)
    echo = _echo(args, "render", {"R": R, "seed": seed, "d": 2})
    _emit(render.render_svg(scene, metadata=f"config {_json_line(echo)}"), args.out)


def _cmd_width_table(args) -> None:
    raw = _merged(args, ("regime", "d_grid", "R_rule"))
    regime = _as_choice(_require(raw, "regime"), "regime", ("a", "b1", "b2"))
    d_grid = _as_int_list(_require(raw, "d_grid"), "d-grid")
    rule = _require(raw, "R_rule")
    radii = _radius_rule(rule, d_grid)
    try:
        table = analysis.width_ratio_table(regime, d_grid, radii)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    echo = _echo(args, "width-table", {"regime": regime, "d_grid": d_grid, "R_rule": rule})
    header = ["d", "R", "width", "ratio"]
    rows = [{"d": row.d, "R": row.R, "width": row.width, "ratio": row.ratio} for row in table]
    _emit(_csv_table(echo, header, _csv_rows(header, rows)), args.out)


# ---------------------------------------------------------------------------
# parser and entry point


def _add_common(sub, config: bool = True):
    sub.add_argument("--out", help="output file (default: stdout)")
    if config:
        sub.add_argument("--config", help="config file supplying defaults (key = value lines, or a JSON object)")
    sub.add_argument(
        "--stamp",
        action="store_true",
        help="include a wall-clock timestamp in the config echo (breaks byte reproducibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horospheres",
        description="Simulation and exact analysis of Poisson horosphere processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")

    sim = commands.add_parser("simulate", help="run a replicated simulation, emit CSV")
    sim.add_argument("--model", choices=("hyperbolic", "euclidean"))
    sim.add_argument("--d", help="ambient dimension")
    sim.add_argument("--R", help="ball radius")
    sim.add_argument("--n", help="number of replications")
    sim.add_argument("--seed", help="base seed for the replication streams")
    _add_common(sim)
    sim.set_defaults(func=_cmd_simulate)

    mom = commands.add_parser("moments", help="exact moments at (d, R), emit JSON")
    mom.add_argument("--model", choices=("hyperbolic", "euclidean"))
    mom.add_argument("--d")
    mom.add_argument("--R")
    _add_common(mom)
    mom.set_defaults(func=_cmd_moments)

    bnd = commands.add_parser("bounds", help="distance bounds over a (d, R) grid")
    bnd.add_argument("--model", choices=("hyperbolic", "euclidean"))
    bnd.add_argument("--d-grid", dest="d_grid", help="comma-separated dimensions")
    bnd.add_argument(
        "--R-rule",
        dest="R_rule",
        help="radius rule: fixed:V, list:V1,V2,..., alpha-log-d:A, or log-d-offset:C",
    )
    bnd.add_argument("--format", choices=("json", "csv"))
    _add_common(bnd)
    bnd.set_defaults(func=_cmd_bounds)

    ver = commands.add_parser(
        "verify-clt", help="empirical distances to the Gaussian limit over radii"
    )
    ver.add_argument("--model", choices=("hyperbolic", "euclidean"))
    ver.add_argument("--d")
    ver.add_argument("--R-list", dest="R_list", help="comma-separated radii")
    ver.add_argument("--n", help="replications per radius")
    ver.add_argument("--seed")
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify_clt)

    ren = commands.add_parser("render", help="SVG picture of a planar sample")
    ren.add_argument("--R", help="ball radius (dimension is fixed at 2)")
    ren.add_argument("--seed")
    _add_common(ren)
    ren.set_defaults(func=_cmd_render)

    wt = commands.add_parser(
        "width-table", help="effective width and growth-regime ratio over a grid, emit CSV"
    )
    wt.add_argument("--regime", choices=("a", "b1", "b2"))
    wt.add_argument("--d-grid", dest="d_grid")
    wt.add_argument("--R-rule", dest="R_rule")
    _add_common(wt)
    wt.set_defaults(func=_cmd_width_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            raise UsageError("a command is required (try --help)")
        func(args)
    except UsageError as exc:
        print(f"horospheres: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeasibilityError as exc:
        print(f"horospheres: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except QuadratureError as exc:
        print(f"horospheres: quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as exc:
        print(f"horospheres: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"horospheres: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
