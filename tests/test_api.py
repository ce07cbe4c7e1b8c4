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


def _imports(path):
    """(module, names) for every import statement in the file, nested ones included;
    ``import a.b`` gives ("a.b", None)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), {alias.name for alias in node.names}


def test_oracles_stay_independent():
    # an oracle that calls the route it checks proves nothing: the oracles may use the
    # argument checks, the area primitives and the one-interval quadrature, no more
    allowed = {"horospheres.geometry": None, "horospheres.quadrature": None, "horospheres.euclidean": {"log_section_area"}}
    reached = []
    for module, names in _imports(Path(__file__).with_name("_oracles.py")):
        if module == "horospheres" and names is not None:
            reached += [(f"horospheres.{name}", None) for name in names]
        elif module.split(".")[0] == "horospheres":
            reached.append((module, names))
    assert reached, "the oracles import nothing from the package"

    def permitted(module, names):
        if module not in allowed:
            return False
        return allowed[module] is None or names is not None and names <= allowed[module]

    assert [(module, names) for module, names in reached if not permitted(module, names)] == []
    # and the package never reaches back into the test helpers
    helpers = {"tests", "_oracles", "_finite_sums"}
    back = [(path.name, module) for path in sorted(Path(horospheres.__file__).parent.glob("*.py"))
            for module, names in _imports(path)
            if helpers & ({*module.lstrip(".").split(".")} | (names or set()))]
    assert back == []
