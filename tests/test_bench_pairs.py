import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

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
