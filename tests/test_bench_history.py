import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_history_prints_the_committed_records():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_history.py")], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["record", "workload", "parent", "change", "ratio", "won"]
    # the two-thread split of dense batches: sim_dense's medians, their ratio and 10 pairs of 10 won
    assert "BENCH_25.json sim_dense        231.3     357.9   1.547  10/10" in lines
    # records in numeric order, 9 before 10, each with its four workloads
    records = [line.split()[0] for line in lines[1:]]
    numbers = [int(name[len("BENCH_"):-len(".json")]) for name in records]
    assert numbers == sorted(numbers) and numbers[0] == 9
    assert all(records.count(name) == 4 for name in records)
