"""Every public function and method of the package is used by the program:
its name appears in src/ or perfbench/ somewhere other than a ``def`` of that
name, an import or ``__all__`` (a re-export is not a use). A name that only
library users and tests call sits in ``LIBRARY_ONLY`` with the reason it
stays."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sitsgraph"

LIBRARY_ONLY = {
    "temporal_profile": "library operator of the paper's analysis layer (README); no subcommand walks one node",
    "coverage_indicator": "library operator of the paper's analysis layer (README); no subcommand takes a node subset",
    "baseline_persistence": "the reference that acceptance criterion 08's forecaster must beat",
    "baseline_average": "the input-average baseline that README's forecast section names beside persistence",
    "node_probabilities": "the classifier's per-node class probabilities; predict writes only the argmax",
    "pos_encoding": "the positional encoding of one PixelGeo, the scalar form of pixel_pos_encoding",
    "pixel_geo": "geolocates one pixel of a cube, the PixelGeo that pos_encoding reads",
    "mul": "elementwise product op; the gradient checks' weighted loss (tests/_gradcheck.py) is built on it",
}


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


def _program_text(path: Path) -> str:
    """The source of ``path`` with its imports and ``__all__`` blanked out."""
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        exports = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or exports:
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _program_uses() -> Counter:
    """Uses of each word in src/ and perfbench/, not counting its ``def``s."""
    texts = [_program_text(p) for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for t in texts for w in re.findall(r"\w+", t))
    words.subtract(w for t in texts for w in re.findall(r"\bdef\s+(\w+)", t))
    return words


def test_every_public_function_is_used():
    uses = _program_uses()
    unused = [f"{path}: {name}" for path, name in _public_defs() if uses[name] <= 0 and name not in LIBRARY_ONLY]
    assert unused == []


def test_library_only_names_exist():
    defined = {name for _, name in _public_defs()}
    assert sorted(set(LIBRARY_ONLY) - defined) == []
    assert all(reason.strip() for reason in LIBRARY_ONLY.values())
