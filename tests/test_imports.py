"""Every module-level import in the package is used by its module, every
module imports on its own, and every error class in ``errors.py`` is
raised somewhere in the package.

``__init__.py`` is checked like any other module: the package root
re-exports nothing, so each public name has one import path, the module
that defines it.
"""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alarmsentinel import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alarmsentinel"

# names imported only so that perfbench/spans.py can wrap them where they
# are looked up; its tracer test fails when a wrap point is missing, and
# test_wrap_points_are_still_wrapped fails when spans.py stops wrapping one
WRAP_POINTS = {
    ("alarm_logic", "classify_beat_spectral"): "perfbench wraps alarm_logic.classify_beat_spectral",
    ("beat_banks", "dtw_distance"): "perfbench wraps beat_banks.dtw_distance",
    ("beat_banks", "resample_half"): "perfbench wraps beat_banks.resample_half",
}


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's top-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported_names(tree) if name not in used and (path.stem, name) not in WRAP_POINTS]


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_wrap_points_are_still_imported():
    """An allowlisted name that its module no longer imports is stale."""
    for module, name in WRAP_POINTS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree), (module, name)


def wrapped_names(spans: Path) -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of ``WRAPS`` in perfbench's spans.py,
    read from its source so that perfbench is not imported."""
    for node in ast.parse(spans.read_text(), filename=str(spans)).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets):
            return {(row.elts[0].value, row.elts[1].value) for row in node.value.elts}
    raise AssertionError(f"no WRAPS assignment in {spans}")


def test_wrap_points_are_still_wrapped():
    """A kept import that perfbench no longer wraps is an unused import."""
    assert sorted(set(WRAP_POINTS) - wrapped_names(ROOT / "perfbench" / "spans.py")) == []


# each module is imported into a fresh module table, so that an import cycle
# that only one import order avoids fails here, whichever module comes first
IMPORT_EACH = """
import importlib, sys, types
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "alarmsentinel"]:
        del sys.modules[key]
    importlib.import_module(name)
    root = sys.modules["alarmsentinel"]
    bound = [k for k, v in vars(root).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)]
    assert bound == [], (name, bound)
"""


def test_each_module_imports_on_its_own():
    names = ["alarmsentinel" + ("" if p.stem == "__init__" else f".{p.stem}") for p in MODULES]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-W", "error", "-c", IMPORT_EACH, *names]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport numpy as np\nfrom typing import Any, Iterable\n\nx: Iterable = np.zeros(1)\n")
    assert unused_imports(path) == ["os", "Any"]


def raised_names(path: Path) -> set[str]:
    """The names the module's ``raise`` statements raise, called or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    """An error path that is deleted must take its class with it."""
    classes = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.AlarmSentinelError) and cls is not errors.AlarmSentinelError
    }
    assert len(classes) >= 20
    raised = set().union(*(raised_names(p) for p in PACKAGE.glob("*.py")))
    assert sorted(classes - raised) == []


def test_a_raised_name_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    if x:\n        raise KeyError('x') from None\n    raise StopIteration\n")
    assert raised_names(path) == {"KeyError", "StopIteration"}
