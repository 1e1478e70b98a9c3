"""The package has one nearest-neighbour search: no module calls
``argmin``, and only ``nearest.py`` names the k-smallest pick and the
distance blocks, so every nearest pick and radius query goes through
``nearest`` and its tie, NaN and memory rules."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sitsgraph"


def _names(tree: ast.Module):
    """Every identifier the module's code uses, defines or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name


def _modules_naming(names: set[str]) -> list[str]:
    return sorted(
        str(p.relative_to(PACKAGE))
        for p in PACKAGE.rglob("*.py")
        if names & set(_names(ast.parse(p.read_text())))
    )


def test_no_module_calls_argmin():
    assert _modules_naming({"argmin", "nanargmin"}) == []


def test_only_nearest_names_smallest_k():
    assert _modules_naming({"smallest_k"}) == ["nearest.py"]


def test_only_nearest_splits_distance_blocks():
    assert _modules_naming({"row_blocks", "_row_blocks"}) == ["nearest.py"]
