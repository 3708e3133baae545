import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_script_entries_resolve():
    """Every console script in pyproject.toml names an importable callable."""
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_test_imports_declared():
    """Every third-party module the tests import is a dependency or in the
    `test` extra, so `pip install .[test]` can collect the suite."""
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.split(r"[<>=!~\[; ]", r, maxsplit=1)[0].lower() for r in reqs}
    tests = PYPROJECT.parent / "tests"
    local = {p.stem for p in tests.glob("*.py")} | {"flatscale"}
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    assert top in declared, f"{path.name} imports {top}"


def _imported_modules(path: Path) -> set[str]:
    """Names of the flatscale modules that the file at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: inside the package
                base = "flatscale." + base if base else "flatscale"
            dotted = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "flatscale" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_every_module_has_an_importer():
    """Every package module is imported by another package module or by a
    test, so no module is left without a caller or a test."""
    package = PYPROJECT.parent / "src" / "flatscale"
    tests = PYPROJECT.parent / "tests"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    reached = set()
    for path in package.glob("*.py"):
        reached |= _imported_modules(path) - {path.stem}
    for path in tests.glob("*.py"):
        reached |= _imported_modules(path)
    assert sorted(modules - reached) == []
