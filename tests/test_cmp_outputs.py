import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from cmp_outputs import commands, reencodes  # noqa: E402


def test_reencodes_accepts_only_the_indented_sorted_document():
    assert reencodes(b'{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": "\\t"\n}\n')
    assert not reencodes(b'{"a": [1, 2.5], "b": "\\t"}\n')
    assert not reencodes(b'{\n  "b": 1,\n  "a": 2\n}\n')
    assert not reencodes(b'{\n  "a": 1.50\n}\n')
    assert not reencodes(b'{\n  "a": 1\n}')
    # CSV, SVG and help text are not JSON, so there is nothing to check
    assert reencodes(b"# config {}\nd,R\n")
    assert reencodes(b"usage: horospheres [-h]\n")


def test_commands_include_the_config_file_runs():
    config_runs = [name for name, _, config, _ in commands() if name.startswith("pinned") and config is not None]
    assert config_runs == ["pinned bounds-json-config"]
