"""README's public-API list names exactly what the package exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import cpsemi

ROOT = Path(__file__).resolve().parents[1]


def _exported() -> set[str]:
    tree = ast.parse((ROOT / "src" / "cpsemi" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _readme_api() -> set[str]:
    """The backquoted names of the bullet list under "### Public API"."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("### Public API")
    body = lines[start + 1:]
    first = next(i for i, line in enumerate(body) if line.startswith("- "))
    end = next((i for i, line in enumerate(body[first:], first) if not line.strip()), len(body))
    return set(re.findall(r"`([A-Za-z_]\w*)`", "\n".join(body[first:end])))


def test_readme_api_list_is_the_exports():
    exported, listed = _exported(), _readme_api()
    assert len(exported) > 50
    assert listed == exported, (
        f"exported, not in README: {sorted(exported - listed)}; "
        f"in README, not exported: {sorted(listed - exported)}"
    )


def _readme_removed() -> list[str]:
    """The dotted names each bullet under "Removed names and their
    replacements:" removes: the backquoted names before the colon that
    ends its first clause."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("Removed names and their replacements:")
    text = "\n".join(lines[start + 1:]).strip().split("\n\n")[0]
    return [
        name
        for bullet in text.split("\n- ")
        for name in re.findall(r"`([A-Za-z_][\w.]*)", re.split(r"`:\s", bullet, maxsplit=1)[0])
    ]


def _owner(path: list[str]):
    """The object a dotted path names: its longest importable module prefix,
    then attributes along the rest, as in ``cpsemi.opspace`` then
    ``MetricOperatorSpace``."""
    for i in range(len(path), 0, -1):
        try:
            obj = importlib.import_module(".".join(path[:i]))
        except ImportError:
            continue
        for attr in path[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"no module prefix of {'.'.join(path)} imports")


def test_removed_names_are_not_exported():
    removed = _readme_removed()
    assert {
        "choi_to_superop", "verify_unit", "CovarianceKernel", "space_from_kraus",
        "kraus_to_choi", "NotPSD", "cpsemi.opspace.MetricOperatorSpace.split_identity",
        "recover_linear_form", "is_unital", "split_k", "KSplit", "symbol",
        "cpsemi.numerics.lstsq", "cpsemi.numerics.expm_times",
    } <= set(removed)
    exported = _exported()
    for name in removed:
        *path, attr = name.split(".")
        assert attr not in exported, f"{attr} is listed as removed but still exported"
        if path:
            assert not hasattr(_owner(path), attr), name


def test_every_module_all_entry_exists():
    # a stale entry breaks "from cpsemi.<module> import *"
    modules = [info.name for info in pkgutil.iter_modules(cpsemi.__path__)]
    assert len(modules) > 5
    for name in modules:
        module = importlib.import_module(f"cpsemi.{name}")
        for entry in getattr(module, "__all__", ()):
            assert hasattr(module, entry), f"cpsemi.{name}.__all__ lists missing {entry}"
