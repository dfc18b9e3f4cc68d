"""Every third-party module that the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imports(path: Path) -> set[str]:
    """Top-level package of every absolute import in the file, at any depth
    (``numerics.expm`` imports scipy in its body)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_dependencies():
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    imported = set()
    for path in sorted((ROOT / "src" / "cpsemi").glob("*.py")):
        imported |= _imports(path)
    third_party = imported - set(sys.stdlib_module_names) - {"cpsemi"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"
