"""Every third-party module that the package imports is a declared dependency,
and no module imports a name it never reads."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imports(path: Path) -> set[str]:
    """Top-level package of every absolute import in the file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _names(deps: list[str]) -> set[str]:
    """The package names of a list of requirements."""
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def test_third_party_imports_are_dependencies():
    declared = _names(_project()["dependencies"])
    imported = set()
    for path in sorted((ROOT / "src" / "cpsemi").glob("*.py")):
        imported |= _imports(path)
    third_party = imported - set(sys.stdlib_module_names) - {"cpsemi"}
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_scipy_is_only_the_tests_oracle():
    # the package imports no scipy (above): the tests' reference exponential
    # is the one use, so scipy is a test extra and no dependency
    project = _project()
    assert "scipy" not in _names(project["dependencies"])
    assert "scipy" in _names(project["optional-dependencies"]["test"])
    tests = set().union(*map(_imports, sorted((ROOT / "tests").glob("*.py"))))
    assert "scipy" in tests


def _reexports() -> dict[str, set[str]]:
    """The names ``cpsemi/__init__.py`` imports from each of its modules."""
    out: dict[str, set[str]] = {}
    for node in ast.parse((ROOT / "src" / "cpsemi" / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.asname or a.name for a in node.names)
    return out


def _unused_imports(path: Path, exported: set[str]) -> list[str]:
    """The names bound by the module-level imports of a file that it never
    reads, lists in ``__all__`` or has in ``exported``."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


def test_no_unused_imports():
    # a stdlib stand-in for a linter's unused-import rule
    reexports = _reexports()
    paths = [
        path
        for pattern in ("tests/*.py", "tools/*.py", "src/cpsemi/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    assert len(paths) > 25
    found = {}
    for path in paths:
        if path.parent.name != "cpsemi":
            exported = set()
        elif path.name == "__init__.py":
            exported = set().union(*reexports.values())
        else:
            exported = reexports.get(path.stem, set())
        unused = _unused_imports(path, exported)
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, f"imported, never read: {found}"
