import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_script_entries_resolve():
    """Every console script in pyproject.toml names an importable callable."""
    tomllib = pytest.importorskip("tomllib")
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
    tomllib = pytest.importorskip("tomllib")
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


def _names_used(path: Path) -> set[str]:
    """Every name that the file at ``path`` reads, imports or reads as an
    attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
    return used


def test_every_export_is_used():
    """Every name that ``flatscale/__init__.py`` imports is used by a
    package module other than the one defining it, by a test or by a
    perfbench file, so no export is left that nothing uses."""
    root = PYPROJECT.parent
    package = root / "src" / "flatscale"
    exports = {}
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exports.update((a.asname or a.name, node.module) for a in node.names)
    files = [p for p in package.glob("*.py") if p.stem != "__init__"]
    files += [*(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = [(p.stem, _names_used(p)) for p in files]
    unused = [name for name, module in exports.items()
              if not any(name in names for stem, names in used if stem != module)]
    assert len(exports) > 10 and sorted(unused) == []


def test_no_private_cross_module_imports():
    """No package module imports a ``_``-prefixed name from another package
    module: what modules share is public."""
    package = PYPROJECT.parent / "src" / "flatscale"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "flatscale"):
                found += [f"{path.name}: {a.name} from {node.module}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def _rebound_attributes(path: Path) -> list[tuple[str, str, str]]:
    """(module, owner, attribute) of every binding that ``_rebound`` calls
    in the benchmark's layer hooks replace; owner is the name the hooks
    import, a module or a class in it."""
    tree = ast.parse(path.read_text())
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                owners[a.asname or a.name] = node.module
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_rebound"):
            for item in node.args[0].elts:
                owner, attr = item.elts[0].id, item.elts[1].value
                found.append((owners[owner], owner, attr))
    return found


def test_benchmark_rebound_attributes_exist():
    """perfbench/layers.py installs its wrappers by rebinding attributes of
    the package; a refactor that drops one must fail here, not only in a
    traced benchmark run."""
    layers = PYPROJECT.parent / "perfbench" / "layers.py"
    found = _rebound_attributes(layers)
    assert {(o, a) for _, o, a in found} >= {
        ("sampling", "polygon_simple_mask"), ("ChartModel", "build"),
        ("sampling", "enumerate_saddle_connections"),
        ("sampling", "independence_rank"),
        ("torus_oracle", "circle_polygon_area")}
    for module, owner, attr in found:
        mod = importlib.import_module(module)
        # ``from flatscale import sampling`` names a module, ``from
        # flatscale.charts import ChartModel`` a class in one
        obj = getattr(mod, owner, None)
        if obj is None:
            obj = importlib.import_module(f"{module}.{owner}")
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"


def _flatscale_imports(tree) -> list[tuple[str, str | None]]:
    """(module, name) of every import from flatscale in ``tree``, name None
    for ``import flatscale...``; code in string constants, which the
    benchmark runs in child processes, is searched too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "flatscale"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "flatscale"):
            found += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for line in re.findall(r"^(?:from|import) flatscale\b.*$",
                                   node.value, re.MULTILINE):
                found += _flatscale_imports(ast.parse(line))
    return found


def test_benchmark_imports_resolve():
    """Every name that perfbench/*.py imports from flatscale exists, so a
    refactor that drops one fails here, not only when the benchmark runs."""
    found = []
    for path in sorted((PYPROJECT.parent / "perfbench").glob("*.py")):
        found += _flatscale_imports(ast.parse(path.read_text()))
    assert ("flatscale.torus_oracle", "primitive_pairs") in found
    assert ("flatscale.surface", "ear_clip") in found
    for module, name in found:
        mod = importlib.import_module(module)
        if name is not None and hasattr(mod, "__path__") and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
        assert name is None or hasattr(mod, name), f"{module} has no {name}"
