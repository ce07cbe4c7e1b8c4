"""Command-line surface: deterministic experiment runs and reports.

Every command echoes its resolved configuration into the output file, so any
emitted artifact can be reproduced from itself.  Outputs are byte-stable for
a fixed flag set; wall-clock timestamps appear only under ``--stamp``.
``--model`` picks the geometric model: the ``sampling.Model`` that simulations
run on, and how ``moments``, ``bounds`` and ``verify-clt`` compute their values
(quadrature for the hyperbolic model, closed forms for the flat one).

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


class UsageError(ValueError):
    """Invalid flags, config keys, or parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main() prints the program name; a subcommand's parser adds its own
        command = self.prog.partition(" ")[2]
        raise UsageError(f"{command}: {message}" if command else message)


# ---------------------------------------------------------------------------
# parameter parsing: each parser takes the raw value and the parameter's name


def _json_int(text: str):
    # an integer past Python's int-digit limit reads as its float, +-inf
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, parse_int=_json_int)
        except (json.JSONDecodeError, RecursionError) as exc:
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


def _as_int(value, name: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, (bool, float)):
        try:
            return int(str(value).strip())
        except ValueError:
            pass
    raise UsageError(f"{name} must be an integer, got {value!r}")


def _as_float(value, name: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value if isinstance(value, (int, float)) else str(value).strip())
        except OverflowError:
            # an integer past double range reads as +-inf, as its decimal string does
            return math.inf if value > 0 else -math.inf
        except ValueError:
            pass
    raise UsageError(f"{name} must be a number, got {value!r}")


def _as_rule(value, name: str):
    # echoed as given; _radius_rule reads it against the d grid
    return value


def _choice(*choices: str):
    def parse(value, name: str) -> str:
        text = str(value).strip()
        if text not in choices:
            raise UsageError(f"{name} must be one of {', '.join(choices)}; got {text!r}")
        return text

    parse.choices = choices
    return parse


def _list_of(item):
    """Parser of a non-empty list: a JSON list, or comma-separated text."""

    def parse(value, name: str) -> list:
        parts = value if isinstance(value, (list, tuple)) else [p for p in str(value).split(",") if p.strip() != ""]
        if not parts:
            raise UsageError(f"{name} must not be empty")
        return [item(v, name) for v in parts]

    return parse


def _radius_rule(value, d_grid: list[int], name: str = "R-rule") -> list[float]:
    """Radius grid from a rule: a bare number, an explicit per-d list, or one
    of the string forms fixed:V, list:V1,V2,..., alpha-log-d:A, log-d-offset:C.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_as_float(value, name)] * len(d_grid)
    if isinstance(value, (list, tuple)):
        values = [_as_float(v, name) for v in value]
    else:
        text = str(value).strip()
        kind, sep, rest = text.partition(":")
        if not sep:
            raise UsageError(f"{name} must look like kind:value, got {text!r}")
        kind = kind.strip()
        # a dimension below 1 has no log; the model checks each dimension before its nan radius
        log_d = [math.log(d) if d >= 1 else math.nan for d in d_grid]
        if kind == "fixed":
            return [_as_float(rest, name)] * len(d_grid)
        if kind == "alpha-log-d":
            alpha = _as_float(rest, name)
            return [alpha * x for x in log_d]
        if kind == "log-d-offset":
            offset = _as_float(rest, name)
            return [x + offset for x in log_d]
        if kind != "list":
            raise UsageError(f"unknown {name} kind {kind!r}; use fixed, list, alpha-log-d, or log-d-offset")
        values = _list_of(_as_float)(rest, name)
    if len(values) != len(d_grid):
        raise UsageError(f"{name} list must match the d grid in length")
    return values


# ---------------------------------------------------------------------------
# output plumbing


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


def _cmd_simulate(echo, model, d, R, n, seed) -> str:
    """run a replicated simulation, emit CSV"""
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

    # each row formatted directly, as _cell would: an int by str, a float by repr
    body = [f"{i},{c},{t!r}" for i, (c, t) in enumerate(zip(batch.counts.tolist(), batch.totals.tolist()))]
    return _csv_table(echo, ["index", "count", "total_area"], body, trailer=summary)


def _cmd_moments(echo, model, d, R) -> str:
    """exact moments at (d, R), emit JSON"""
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
    return _json_doc({"config": echo, "moments": body})


_BOUND_HEADER = ["d", "R", "width", "wasserstein_bound_width", "wasserstein_bound_integrals", "kolmogorov_bound",
                 "regime", "rate_envelope"]
_EUCLID_BOUND_HEADER = ["d", "R", "wasserstein_bound", "normalized_bound"]


def _cmd_bounds(echo, model, format, d_grid, R_rule) -> str:
    """distance bounds over a (d, R) grid"""
    radii = _radius_rule(R_rule, d_grid)
    if model == "euclidean":
        header = _EUCLID_BOUND_HEADER
        rows = [{"d": d, "R": R, "wasserstein_bound": bound.value, "normalized_bound": bound.normalized}
                for d, R, bound in zip(d_grid, radii, map(euclidean.wasserstein_bound, radii, d_grid))]
    else:
        # one batched quadrature for the whole grid
        header = _BOUND_HEADER
        rows = [{**{key: getattr(report, key) for key in header}, "regime": report.regime.value}
                for report in analysis.rate_envelopes(radii, d_grid)]
    if format == "csv":
        return _csv_table(echo, header, _csv_rows(header, rows))
    return _json_doc({"config": echo, "rows": rows})


def _cmd_verify_clt(echo, model, d, R_list, n, seed) -> str:
    """empirical distances to the Gaussian limit over radii"""
    configs = [SimConfig(d=d, R=R, replications=n, seed=seed) for R in R_list]
    if n < 4:
        raise UsageError(f"--n must be at least 4 for the sample k-statistics, got {n}")
    # every radius must be feasible before any moments are computed: a radius
    # past the count cap can also be past the range of the linear moments
    for cfg in configs:
        sampling.check_feasible(cfg, _MODELS[model])
    target = 1.0 if model == "euclidean" else 0.5
    allowance = 1.5 / math.sqrt(n)
    # the hyperbolic means, variances and widths of all radii come from one grid call
    grid = analysis._clt_grid(R_list, [d] * len(R_list)) if model == "hyperbolic" else [None] * len(R_list)
    normalizations = []
    for R, m in zip(R_list, grid):
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
    for R, cfg, (center, scale, bound) in zip(R_list, configs, normalizations):
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
    doc = {
        "config": echo,
        "target_variance": target,
        "allowance": allowance,
        "rows": rows,
        "kolmogorov_decreasing": kol_decreasing,
        "all_w1_pass": all_w1,
        "pass": kol_decreasing and all_w1,
    }
    return _json_doc(doc)


def _cmd_render(echo, d, R, seed) -> str:
    """SVG picture of a planar sample"""
    scene = render.horocycle_scene(R, seed)
    return render.render_svg(scene, metadata=f"config {_json_line(echo)}")


def _cmd_width_table(echo, regime, d_grid, R_rule) -> str:
    """effective width and growth-regime ratio over a grid, emit CSV"""
    table = analysis.width_ratio_table(regime, d_grid, _radius_rule(R_rule, d_grid))
    header = ["d", "R", "width", "ratio"]
    rows = [{"d": row.d, "R": row.R, "width": row.width, "ratio": row.ratio} for row in table]
    return _csv_table(echo, header, _csv_rows(header, rows))


# ---------------------------------------------------------------------------
# parameters: flag > config file > default, parsed in table order


def _planar(value, name: str) -> int:
    # render takes d only from a config file, so that an echoed config round-trips
    if _as_int(value, name) != 2:
        raise UsageError("render draws the planar model; d must be 2")
    return 2


_MODEL = (_choice(*_MODELS), "hyperbolic", "geometric model")
_DIM = (_as_int, None, "ambient dimension")
_SEED = (_as_int, None, "base seed for the replication streams")
_D_GRID = (_list_of(_as_int), None, "comma-separated dimensions")
_R_RULE = (_as_rule, None, "radius rule: fixed:V, list:V1,V2,..., alpha-log-d:A, or log-d-offset:C")

# command -> key -> (parser, default or None if required, flag help or None if config-only)
_PARAMS = {
    "simulate": {"model": _MODEL, "d": _DIM, "R": (_as_float, None, "ball radius"),
                 "n": (_as_int, None, "number of replications"), "seed": _SEED},
    "moments": {"model": _MODEL, "d": _DIM, "R": (_as_float, None, "ball radius")},
    "bounds": {"model": _MODEL, "format": (_choice("json", "csv"), "json", "output format"),
               "d_grid": _D_GRID, "R_rule": _R_RULE},
    "verify-clt": {"model": _MODEL, "d": _DIM, "R_list": (_list_of(_as_float), None, "comma-separated radii"),
                   "n": (_as_int, None, "replications per radius"), "seed": _SEED},
    "render": {"d": (_planar, 2, None), "R": (_as_float, None, "ball radius (dimension is fixed at 2)"),
               "seed": _SEED},
    "width-table": {"regime": (_choice("a", "b1", "b2"), None, "growth regime"), "d_grid": _D_GRID,
                    "R_rule": _R_RULE},
}
_COMMANDS = {"simulate": _cmd_simulate, "moments": _cmd_moments, "bounds": _cmd_bounds,
             "verify-clt": _cmd_verify_clt, "render": _cmd_render, "width-table": _cmd_width_table}


def _params(args, command: str) -> dict:
    """Each parameter of a command, resolved flag > config file > default and parsed."""
    table = _PARAMS[command]
    config = {}
    if args.config is not None:
        for key, value in _load_config(args.config).items():
            norm = key.replace("-", "_")
            if norm in _ECHO_ONLY_KEYS:
                continue
            if norm not in table:
                raise UsageError(f"unknown config key {key!r}")
            config[norm] = value
    params = {}
    for key, (parse, default, _) in table.items():
        name = key.replace("_", "-")
        value = getattr(args, key, None)
        if value is None:
            if key not in config and default is None:
                raise UsageError(f"missing required parameter --{name}")
            value = config.get(key, default)
        params[key] = parse(value, name)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horospheres",
        description="Simulation and exact analysis of Poisson horosphere processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")
    for command, params in _PARAMS.items():
        sub = commands.add_parser(command, help=_COMMANDS[command].__doc__)
        for key, (parse, _, help) in params.items():
            if help is not None:
                sub.add_argument(f"--{key.replace('_', '-')}", choices=getattr(parse, "choices", None), help=help)
        sub.add_argument("--out", help="output file (default: stdout)")
        sub.add_argument("--config", help="config file supplying defaults (key = value lines, or a JSON object)")
        sub.add_argument("--stamp", action="store_true",
                         help="include a wall-clock timestamp in the config echo (breaks byte reproducibility)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        params = _params(args, args.command)
        echo = {"command": args.command, "version": __version__, **params}
        if args.stamp:
            echo["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = _COMMANDS[args.command](echo, **params)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except FeasibilityError as exc:
        print(f"horospheres: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except QuadratureError as exc:
        print(f"horospheres: quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as exc:
        # UsageError, and the library's own checks of a parameter's value
        print(f"horospheres: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"horospheres: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
