"""Every public function and method of the package is used: its name appears
in src/, tests/ or perfbench/ somewhere other than a ``def`` of that name."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sitsgraph"


def _public_defs() -> list[tuple[str, str]]:
    """(file, name) of every public module-level function and public method
    of a module-level class under the package."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            out += [
                (str(path.relative_to(ROOT)), m.name)
                for m in members
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")
            ]
    return out


def test_every_public_function_is_used():
    texts = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for t in texts for w in re.findall(r"\w+", t))
    defs = Counter(w for t in texts for w in re.findall(r"\bdef\s+(\w+)", t))
    unused = [f"{path}: {name}" for path, name in _public_defs() if words[name] <= defs[name]]
    assert unused == []
