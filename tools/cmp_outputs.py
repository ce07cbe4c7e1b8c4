"""Byte comparison of CLI outputs between a parent revision and the working tree.

    python3 tools/cmp_outputs.py --parent HEAD

Exports the parent revision with ``git archive`` into a temporary directory, as
``bench_pairs.py`` does, and runs a fixed list of commands on both sides under
``python -W error -m horospheres``: the perfbench reference commands, the
acceptance ``verify-clt``, the pinned outputs (config-file runs among them),
``--help`` texts and failure paths of ``tests/test_cli.py`` (read from the working
tree), and ``--version``.  Every command runs
with ``COLUMNS`` set, 80 unless its table names a width, so ``--help`` does not
depend on the terminal the script runs in.  Both sides run in the same
temporary directory with the same config files, so the stderr lines that name a
path match.  Prints one line per command and each difference in exit code,
stdout sha256 or stderr, and exits 1 if there is any.

Every stdout that parses as JSON, on either side, must be the bytes of
``json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"``: a float
round-trips through its repr, so this needs no parent.  A side that fails this
is printed as CHANGED and its command counts as differing.

Where stdout differs, both sides are parsed, as the JSON document or as the CSV
table with its ``# config`` and ``# summary`` lines, and compared value by
value.  The largest relative move of any float is printed with its path; a
change to an int, string, bool or null, or to the structure (a key, a list
length or a type), is printed as CHANGED.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

# the seed every pinned simulate output is recorded under (tests/test_cli.py)
_PINNED_SEED = "20260821"
_TABLES = ("_REFERENCE_GRID", "_SIMULATE_SHA256", "_COMMAND_SHA256", "_CONFIG_COMMAND_SHA256", "_HELP_SHA256",
           "_FAILURES")
_COLUMNS = "80"


def _test_tables(path: Path) -> dict:
    """The module-level tables ``_TABLES`` of a test file, evaluated in order without importing it."""
    tables: dict = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in _TABLES:
            code = compile(ast.Expression(node.value), str(path), "eval")
            tables[node.targets[0].id] = eval(code, {"__builtins__": {"range": range, "str": str}}, dict(tables))
    missing = set(_TABLES) - set(tables)
    if missing:
        raise SystemExit(f"cmp_outputs: {path} has no {', '.join(sorted(missing))}")
    return tables


def commands() -> list[tuple[str, list[str], str | None, str]]:
    """(name, argv, config file text or None, COLUMNS) of every compared command; "{cfg}" in argv is
    the config path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = [(f"reference {name}", w.reference().argv, None) for name, w in workloads.WORKLOADS.items()]
    out.append(("acceptance verify-clt", workloads.ACCEPTANCE.argv, None))
    tables = _test_tables(ROOT / "tests" / "test_cli.py")
    out += [(f"pinned simulate {flags}", ["simulate", *flags.split(), "--seed", _PINNED_SEED], None)
            for flags in tables["_SIMULATE_SHA256"]]
    out += [(f"pinned {name}", argv, None) for name, (argv, _) in tables["_COMMAND_SHA256"].items()]
    out += [(f"pinned {name}", argv, config) for name, (argv, config, _) in tables["_CONFIG_COMMAND_SHA256"].items()]
    out += [(f"failure {name}", argv, config) for name, (argv, config, _, _) in tables["_FAILURES"].items()]
    out.append(("version", ["--version"], None))
    out = [(*entry, _COLUMNS) for entry in out]
    out += [(f"help {command or 'top level'} at {columns} columns", [command, "--help"] if command else ["--help"],
             None, columns) for command, columns in tables["_HELP_SHA256"]]
    return out


def run(checkout: Path, argv: list[str], cwd: Path, columns: str) -> tuple[int, bytes, str]:
    """Exit code, stdout and stderr of one command against ``checkout``'s source."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=str(checkout / "src"), COLUMNS=columns)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "horospheres", *argv],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(stdout: bytes):
    """A command's output as data: its JSON document, or its CSV table as
    ``{"config": ..., "header": [column], "rows": [{column: value}], "summary": ...}``."""
    text = stdout.decode()
    try:
        return json.loads(text)
    except ValueError:
        pass
    doc, table = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, body = line[2:].partition(" ")
            doc[name] = json.loads(body)
        else:
            table.append(line)
    header, *rows = list(csv.reader(table)) or [[]]
    doc["header"] = header
    doc["rows"] = [dict(zip(header, map(_cell, row))) for row in rows]
    return doc


def reencodes(stdout: bytes) -> bool:
    """Whether a stdout is not JSON, or is the json.dumps(..., indent=2) document of its own data."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return True
    return stdout == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _shown(before, after) -> str:
    text = f"{before!r} -> {after!r}"
    return text if len(text) <= 80 else text[:77] + "..."


def moves(before, after, path: str = "$"):
    """Yield (path, relative move) for every float that moved between two parsed
    outputs, and (path, "before -> after") for every other change."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(before.keys() | after.keys()):
            if key in before and key in after:
                yield from moves(before[key], after[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}", _shown(before.get(key, "(absent)"), after.get(key, "(absent)"))
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            yield path, f"length {len(before)} -> {len(after)}"
        for index, (b, a) in enumerate(zip(before, after)):
            yield from moves(b, a, f"{path}[{index}]")
    elif type(before) is float and type(after) is float:
        if before == after or (math.isnan(before) and math.isnan(after)):
            return
        if math.isfinite(before) and math.isfinite(after):
            yield path, abs(after - before) / max(abs(before), abs(after))
        else:
            yield path, _shown(before, after)
    elif type(before) is not type(after) or before != after:
        yield path, _shown(before, after)


def describe(before: bytes, after: bytes) -> list[str]:
    """Report lines on how far a differing stdout moved."""
    try:
        found = list(moves(parse(before), parse(after)))
    except ValueError as exc:
        return [f"  stdout not parsed: {exc}"]
    floats = [(move, path) for path, move in found if isinstance(move, float)]
    lines = [f"  CHANGED {path}: {move}" for path, move in found if isinstance(move, str)]
    if floats:
        move, path = max(floats)
        lines.insert(0, f"  {len(floats)} floats moved, largest by {move:.3g} (relative) at {path}")
    return lines or ["  CHANGED: every parsed value is equal, so the layout or the text moved"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="cmp-outputs-") as tmp:
        parent_dir, cwd = Path(tmp) / "parent", Path(tmp) / "run"
        commit = export(args.parent, parent_dir)
        cwd.mkdir()
        cfg = cwd / "run.cfg"
        todo = commands()
        print(f"parent {commit}, working tree {ROOT}: {len(todo)} commands")
        for name, command, config, columns in todo:
            if config is not None:
                cfg.write_text(config, encoding="utf-8")
            command = [arg.replace("{cfg}", str(cfg)) for arg in command]
            (code_b, out_b, err_b), (code_a, out_a, err_a) = (run(parent_dir, command, cwd, columns),
                                                               run(ROOT, command, cwd, columns))
            sha_b, sha_a = hashlib.sha256(out_b).hexdigest(), hashlib.sha256(out_a).hexdigest()
            problems = [f"  {what}: {b!r} -> {a!r}" for what, b, a in
                        (("exit code", code_b, code_a), ("stdout sha256", sha_b, sha_a), ("stderr", err_b, err_a))
                        if b != a]
            if out_b != out_a:
                problems += describe(out_b, out_a)
            problems += [f"  CHANGED {name}: the {side} stdout is not json.dumps(..., indent=2) of its own document"
                         for side, out in (("parent", out_b), ("working tree", out_a)) if not reencodes(out)]
            differ += bool(problems)
            print(f"{'DIFF' if problems else 'same'}  {name}  (exit {code_a}, stdout {sha_a[:12]})")
            for line in problems:
                print(line)
    print(f"{differ} of {len(todo)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
