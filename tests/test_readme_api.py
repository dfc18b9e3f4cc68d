"""README's public-API list names exactly what the package exports, its
"Exit codes" paragraph names each error class under its code, and its
library example computes what its comments say."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

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


def test_library_example_computes_its_comments():
    """Runs the block under "## Library example" statement by statement and
    checks the value of each bare expression against its comment."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("```python", lines.index("## Library example"))
    code = "\n".join(lines[start + 1 : lines.index("```", start)])
    namespace, values = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    (dim, k), index, closed, estimate = values
    assert dim == 1
    np.testing.assert_allclose(k, -0.5 * np.eye(2), rtol=0, atol=1e-12)
    assert index == 1
    assert closed == 1
    assert abs(estimate - 1) < 1e-6


def _error_classes():
    """Every subclass of ``CpsemiError`` that the package defines, at any depth."""
    found, todo = [], [cpsemi.CpsemiError]
    while todo:
        subclasses = [c for c in todo.pop().__subclasses__() if c.__module__.startswith("cpsemi")]
        found += subclasses
        todo += subclasses
    return found


def test_every_error_class_has_its_readme_exit_code():
    """Each error class carries a code in {1, 2, 3}, and README's "Exit
    codes" list names it under that code and under no other."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Exit codes:"))
    end = lines.index("", start)
    items = re.split(r"^- `(\d)` ", "\n".join(lines[start:end]), flags=re.M)[1:]
    listed = {int(code): set(re.findall(r"`(\w+)`", text)) for code, text in zip(items[::2], items[1::2])}
    classes = _error_classes()
    assert len(classes) == 11
    for cls in classes:
        assert cls.exit_code in (1, 2, 3), cls
        assert {code for code, names in listed.items() if cls.__name__ in names} == {cls.exit_code}, cls


def test_readme_lists_every_floorless_decision():
    """The functions whose ``within`` or ``anchor`` calls pass ``floor``, outside
    those two rules' own bodies, are the ones README's "Tolerances" section
    lists as floorless."""
    floorless = set()
    for path in sorted((ROOT / "src" / "cpsemi").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name not in ("within", "anchor"):
                floorless |= {
                    fn.name for call in ast.walk(fn)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(call.func, "attr", None)) in ("within", "anchor")
                    and "floor" in [k.arg for k in call.keywords]
                }
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "decisions are floorless" in line)
    first = lines.index("", start) + 1
    listed = re.findall(r"^- `(?:\w+\.)?(\w+)`:", "\n".join(lines[first:lines.index("", first)]), re.M)
    assert len(floorless) == 4
    assert sorted(listed) == sorted(floorless)
