import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_history  # noqa: E402
import bench_pairs  # noqa: E402


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                          capture_output=True, text=True).stdout


def test_working_tree_export_holds_uncommitted_edits_and_untracked_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("ignored/\n")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "gone.txt").write_text("committed\n")
    _git(repo, "add", "--all")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "kept.txt").write_text("edited\n")
    (repo / "gone.txt").unlink()
    (repo / "sub").mkdir()
    (repo / "sub" / "new.txt").write_text("untracked\n")
    (repo / "ignored").mkdir()
    (repo / "ignored" / "out.json").write_text("{}\n")
    status = _git(repo, "status", "--porcelain")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    tree = bench_pairs.export_working_tree(tmp_path / "change")
    files = sorted(str(path.relative_to(tmp_path / "change")) for path in (tmp_path / "change").rglob("*")
                   if path.is_file())
    assert files == [".gitignore", "kept.txt", "sub/new.txt"]
    assert (tmp_path / "change" / "kept.txt").read_text() == "edited\n"
    assert (tmp_path / "change" / "sub" / "new.txt").read_text() == "untracked\n"
    # the tree id names what was measured, and the repository's own index is untouched
    assert _git(repo, "ls-tree", "-r", "--name-only", tree).split() == [".gitignore", "kept.txt", "sub/new.txt"]
    assert _git(repo, "status", "--porcelain") == status

    commit = bench_pairs.export("HEAD", tmp_path / "parent")
    assert commit == _git(repo, "rev-parse", "HEAD").strip()
    assert (tmp_path / "parent" / "kept.txt").read_text() == "committed\n"
    assert (tmp_path / "parent" / "gone.txt").exists() and not (tmp_path / "parent" / "sub").exists()


def _run(items: float, cpu_s: float, wall_s: float) -> dict:
    metrics = {"run_cal": 1.0 / items, "items_per_cal": items, "peak_rss_mb": 40.0, "setup_s": 0.1}
    return {"metrics": metrics, "attempted": 3, "failed": 0, "wall_s": wall_s, "cpu_s": cpu_s}


# (parent items, change items, parent CPU s, change CPU s), each run 10 s of wall time
_SYNTHETIC = [(100.0, 110.0, 12.0, 13.0), (102.0, 101.0, 11.0, 15.0), (98.0, 108.0, 10.0, 14.0)]


def _synthetic_pairs() -> list[dict]:
    return [{"first": "parent" if k % 2 == 0 else "change", "parent": _run(p, pc, 10.0), "change": _run(c, cc, 10.0)}
            for k, (p, c, pc, cc) in enumerate(_SYNTHETIC)]


def test_summary_of_synthetic_runs():
    out = bench_pairs.summary(_synthetic_pairs())
    items = out["items_per_cal"]
    assert items["parent"]["median"] == 100.0 and items["change"]["median"] == 108.0
    assert items["ratio_of_medians"] == 1.08 and items["change_wins"] == 2
    # the quartiles of three values, inclusive: halfway between the outer two and the median
    assert (items["parent"]["q1"], items["parent"]["q3"]) == (99.0, 101.0)
    assert out["run_cal"]["change_wins"] == 2 and out["peak_rss_mb"]["change_wins"] == 0
    # CPU seconds per wall second, each side's median and spread
    assert out["cpu_per_wall"]["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15, "values": [1.2, 1.1, 1.0]}
    assert out["cpu_per_wall"]["change"]["median"] == 1.4
    assert out["failed"] == {"parent": 0, "change": 0} and out["attempted"] == {"parent": 9, "change": 9}


def test_bench_history_reads_records_with_and_without_cpu_time(tmp_path, monkeypatch):
    pairs = _synthetic_pairs()
    new = {"workloads": {"bounds_grid": {"summary": bench_pairs.summary(pairs), "runs": pairs}}}
    # a record written before runs carried their wall and CPU time
    old_pairs = [{side: {key: value for key, value in pair[side].items() if key not in ("wall_s", "cpu_s")}
                  for side in ("parent", "change")} for pair in pairs]
    old_summary = {key: value for key, value in bench_pairs.summary(pairs).items() if key != "cpu_per_wall"}
    old = {"workloads": {"bounds_grid": {"summary": old_summary, "runs": old_pairs}}}
    (tmp_path / "BENCH_7.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_8.json").write_text(json.dumps(new))
    monkeypatch.setattr(bench_history, "ROOT", tmp_path)
    assert bench_history.history() == [(n, "bounds_grid", 100.0, 108.0, 1.08, 2, 3) for n in (7, 8)]


def _controlled_pairs() -> list[dict]:
    # the A/A copy's items per cal: medians 100 against 99, so the band is 0.99-1/0.99
    copies = [99.0, 104.0, 97.0]
    return [{**pair, "control": {"first": pair["first"], "parent": _run(p, 10.0, 10.0), "copy": _run(c, 10.0, 10.0)}}
            for pair, (p, _, _, _), c in zip(_synthetic_pairs(), _SYNTHETIC, copies)]


def test_summary_gives_the_control_band_of_synthetic_runs():
    out = bench_pairs.summary(_controlled_pairs())
    items = out["items_per_cal"]
    assert items["control"] == {"ratio_of_medians": 0.99, "copy_wins": 1, "band": [0.99, 1.0 / 0.99]}
    # the A/B ratio of 1.08 lies further from 1 than identical code moved
    assert items["outside_control_band"] is True and items["ratio_of_medians"] == 1.08
    # run_cal is 1/items: the same band, and the change's ratio 100/108 lies below it
    assert out["run_cal"]["outside_control_band"] is True
    # peak RSS and setup time are equal in every run: a band of [1, 1], which a ratio of 1 lies in
    assert out["peak_rss_mb"]["control"]["band"] == [1.0, 1.0] and out["peak_rss_mb"]["outside_control_band"] is False
    # without a control in every pair, the summary has none
    assert "control" not in bench_pairs.summary(_synthetic_pairs())["items_per_cal"]


def test_control_pairs_interleave_with_the_real_pairs():
    calls = []

    def run_one(side, name):
        calls.append((name, side))
        return {"side": side}

    runs = bench_pairs.measure(run_one, ["a", "b"], {"b"}, 2)
    # each pair of a controlled workload is followed by its A/A pair, and the first side flips
    # every pair for both
    assert calls == [("a", "parent"), ("a", "change"), ("b", "parent"), ("b", "change"), ("b", "parent"), ("b", "copy"),
                     ("a", "change"), ("a", "parent"), ("b", "change"), ("b", "parent"), ("b", "copy"), ("b", "parent")]
    assert [pair["first"] for pair in runs["b"]] == ["parent", "change"]
    assert [pair["control"]["first"] for pair in runs["b"]] == ["parent", "copy"]
    assert all("control" not in pair for pair in runs["a"])


def test_bench_history_prints_the_band_of_a_controlled_record(tmp_path, monkeypatch, capsys):
    for n, pairs in ((7, _synthetic_pairs()), (8, _controlled_pairs())):
        record = {"workloads": {"bounds_grid": {"summary": bench_pairs.summary(pairs), "runs": pairs}}}
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(record))
    monkeypatch.setattr(bench_history, "ROOT", tmp_path)
    assert bench_history.bands() == {(8, "bounds_grid"): (0.99, 1.0 / 0.99, True)}
    assert bench_history.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("2/3")
    assert lines[2].endswith("2/3  A/A 0.990-1.010 outside")
