"""The items_per_cal trajectory over the committed benchmark records.

    python3 tools/bench_history.py

Reads every ``BENCH_<n>.json`` that ``tools/bench_pairs.py`` wrote to the
repository root and prints, in n order and for each workload a record holds,
the parent and change medians of ``items_per_cal``, the ratio of the medians
and the pairs the change won.  Standard library only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def history() -> list[tuple]:
    """(n, workload, parent median, change median, ratio, pairs won, pairs) for every record
    ``BENCH_<n>.json`` in the repository root and every workload in it, in n order."""
    numbered = sorted((int(match[1]), path) for path in ROOT.glob("BENCH_*.json")
                      if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name)))
    rows = []
    for n, path in numbered:
        for workload, entry in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
            items = entry["summary"]["items_per_cal"]
            rows.append((n, workload, items["parent"]["median"], items["change"]["median"],
                         items["ratio_of_medians"], items["change_wins"], len(entry["runs"])))
    return rows


def main() -> int:
    print(f"{'record':<13} {'workload':<12} {'parent':>9} {'change':>9} {'ratio':>7} {'won':>6}")
    for n, workload, parent, change, ratio, wins, pairs in history():
        print(f"{f'BENCH_{n}.json':<13} {workload:<12} {parent:>9.1f} {change:>9.1f} {ratio:>7.3f} {f'{wins}/{pairs}':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
