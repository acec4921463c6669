"""Every module-level import in the package is used by its module, and
every error class in ``errors.py`` is raised somewhere in the package.

``__init__.py`` is left out of the import check: its imports are the
public surface.
"""
import ast
import inspect
from pathlib import Path

import pytest

from alarmsentinel import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alarmsentinel"

# names imported only so that perfbench/spans.py can wrap them where they
# are looked up; its tracer test fails when a wrap point is missing
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


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_wrap_points_are_still_imported():
    """An allowlisted name that its module no longer imports is stale."""
    for module, name in WRAP_POINTS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree), (module, name)


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
