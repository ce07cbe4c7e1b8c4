"""The public surface: every exported name exists, and the package exports
exactly what its ``__init__`` imports, so a deletion cannot leave a stale
name behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import horospheres

_MODULES = sorted(m.name for m in pkgutil.iter_modules(horospheres.__path__) if not m.name.startswith("_"))


def test_every_module_is_checked():
    assert {"analysis", "cli", "euclidean", "geometry", "render", "sampling"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"horospheres.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    exported = horospheres.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(horospheres, attr)] == []


def test_package_exports_are_its_imports():
    tree = ast.parse(Path(horospheres.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(horospheres.__all__) == imported | {"__version__"}
