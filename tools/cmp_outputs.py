"""Byte comparison of CLI outputs between a parent revision and the working tree.

    python3 tools/cmp_outputs.py --parent HEAD

Exports the parent revision with ``git archive`` into a temporary directory, as
``bench_pairs.py`` does, and runs a fixed list of commands on both sides under
``python -W error -m horospheres``: the perfbench reference commands, the
acceptance ``verify-clt``, and the pinned outputs, ``--help`` texts and failure
paths of ``tests/test_cli.py`` (read from the working tree).  Every command runs
with ``COLUMNS`` set, 80 unless its table names a width, so ``--help`` does not
depend on the terminal the script runs in.  Both sides run in the same
temporary directory with the same config files, so the stderr lines that name a
path match.  Prints one line per command and each difference in exit code,
stdout sha256 or stderr, and exits 1 if there is any.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

# the seed every pinned simulate output is recorded under (tests/test_cli.py)
_PINNED_SEED = "20260821"
_TABLES = ("_REFERENCE_GRID", "_SIMULATE_SHA256", "_COMMAND_SHA256", "_HELP_SHA256", "_FAILURES")
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
    out += [(f"failure {name}", argv, config) for name, (argv, config, _, _) in tables["_FAILURES"].items()]
    out = [(*entry, _COLUMNS) for entry in out]
    out += [(f"help {command or 'top level'} at {columns} columns", [command, "--help"] if command else ["--help"],
             None, columns) for command, columns in tables["_HELP_SHA256"]]
    return out


def run(checkout: Path, argv: list[str], cwd: Path, columns: str) -> tuple[int, str, str]:
    """Exit code, stdout sha256 and stderr of one command against ``checkout``'s source."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=str(checkout / "src"), COLUMNS=columns)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "horospheres", *argv],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode(errors="replace")


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
            before, after = run(parent_dir, command, cwd, columns), run(ROOT, command, cwd, columns)
            problems = [f"  {what}: {b!r} -> {a!r}"
                        for what, b, a in zip(("exit code", "stdout sha256", "stderr"), before, after) if b != a]
            differ += bool(problems)
            print(f"{'DIFF' if problems else 'same'}  {name}  (exit {after[0]}, stdout {after[1][:12]})")
            for line in problems:
                print(line)
    print(f"{differ} of {len(todo)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
