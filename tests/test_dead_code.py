"""Every public function, method, class and module-level constant of the
package is used by the program, and every optional parameter of a function
or method is set by the program.

A name is used when src/ or perfbench/ code names it: as a name or an
attribute, not in a string, a comment, a ``def``, an import or ``__all__``
(a re-export is not a use), and not as a parameter of a function around it
(``relu`` inside ``linear(..., relu)`` reads the flag, not the op). A class
or constant must be read: the assignment that defines a constant is not a
use. A name that only library
users and tests call sits in ``LIBRARY_ONLY`` with the reason it stays.

An optional parameter is set when a call in src/ or perfbench/ passes it by
keyword, by position or through a ``*``/``**`` expansion; an option that no
program call sets is a constant in disguise. One that stays sits in
``OPTIONS_KEPT`` with the reason."""

import ast
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
    "relu": "elementwise ReLU op; the program fuses each ReLU into linear or batchnorm, and gradient checks and acceptance tests use it",
    "gather_rows": "the one-plan gather op; the program gathers inside edge_inputs and propagate, whose byte oracles and the unfused reference convolutions build on it",
}

# "callee(parameter)": the callee is a function's name, ``Class`` for its
# constructor and ``Class.method`` for a method
OPTIONS_KEPT = {
    "temporal_profile(direction)": "both walk directions are paper operators, and tests walk each",
    "synth_seasonal(band)": "acceptance criterion 12 stacks seasonal cubes of several bands into one",
    "standardize(stats)": "reapplies training statistics to held-out rows (README)",
    "Forecaster(dtype)": "the float64 gradient checks build the forecaster in float64",
}


def _modules() -> list[tuple[Path, ast.Module]]:
    return [(p, ast.parse(p.read_text())) for p in sorted(PACKAGE.rglob("*.py"))]


def _program_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _public_defs() -> list[tuple[str, str]]:
    """(file, name) of every public module-level function and public method
    of a module-level class under the package."""
    out = []
    for path, tree in _modules():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            out += [
                (str(path.relative_to(ROOT)), m.name)
                for m in members
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")
            ]
    return out


def _public_names() -> list[tuple[str, str]]:
    """(file, name) of every public module-level class and constant under
    the package."""
    out = []
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            out += [(str(path.relative_to(ROOT)), n) for n in names if not n.startswith("_")]
    return out


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None}


def _uses(node: ast.AST, params: frozenset, reads_only: bool, out: Counter) -> None:
    """Count the names and attributes under ``node``, where ``params`` are
    the parameters of the functions around it: a ``Name`` that reads one of
    them is that parameter, not a use of a public name."""
    if isinstance(node, ast.Name):
        if node.id not in params and not (reads_only and not isinstance(node.ctx, ast.Load)):
            out[node.id] += 1
    elif isinstance(node, ast.Attribute) and not (reads_only and not isinstance(node.ctx, ast.Load)):
        out[node.attr] += 1
    inner, body = params, set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # defaults and decorators run in the enclosing scope, the body in the function's
        inner = params | _params(node)
        body = {id(b) for b in (node.body if isinstance(node.body, list) else [node.body])}
    for child in ast.iter_child_nodes(node):
        _uses(child, inner if id(child) in body else params, reads_only, out)


def _program_uses(reads_only: bool = False) -> Counter:
    """Uses of each name in src/ and perfbench/ code; only the uses that
    read it when ``reads_only``."""
    out = Counter()
    for tree in _program_trees():
        _uses(tree, frozenset(), reads_only, out)
    return out


def _callables(tree: ast.Module):
    """(callee name, label, def, whether bound) of the module's public
    functions, and of the public methods and constructors of its public
    classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and m.name == "__init__":
                    yield node.name, node.name, m, True
                elif isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    yield m.name, f"{node.name}.{m.name}", m, not static


def _options() -> list[tuple[str, str, str, int | None]]:
    """(label, callee name, parameter, position or None if keyword-only) of
    every parameter with a default of a public function, public method or
    public class constructor under the package."""
    out = []
    for _, tree in _modules():
        for callee, label, fn, bound in _callables(tree):
            a = fn.args
            pos = (a.posonlyargs + a.args)[int(bound) :]
            first = len(pos) - len(a.defaults)
            out += [(f"{label}({p.arg})", callee, p.arg, i) for i, p in enumerate(pos) if i >= first]
            out += [(f"{label}({p.arg})", callee, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    starred = any(isinstance(arg, ast.Starred) for arg in call.args[: index + 1])
    return starred or len(call.args) > index


def _unset_options() -> list[str]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [
        label
        for label, callee, param, index in _options()
        if not any(_sets(c, param, index) for c in calls.get(callee, []))
    ]


def test_every_public_function_is_used():
    uses = _program_uses()
    unused = [f"{path}: {name}" for path, name in _public_defs() if uses[name] <= 0 and name not in LIBRARY_ONLY]
    assert unused == []


def test_every_public_class_and_constant_is_read():
    reads = _program_uses(reads_only=True)
    unread = [f"{path}: {name}" for path, name in _public_names() if reads[name] <= 0 and name not in LIBRARY_ONLY]
    assert unread == []


def test_library_only_names_exist():
    defined = {name for _, name in _public_defs() + _public_names()}
    assert sorted(set(LIBRARY_ONLY) - defined) == []
    assert all(reason.strip() for reason in LIBRARY_ONLY.values())


def test_every_option_is_set():
    # both ways: an entry whose option is gone or now set is stale
    assert sorted(set(_unset_options()) ^ set(OPTIONS_KEPT)) == []
    assert all(reason.strip() for reason in OPTIONS_KEPT.values())


def test_a_parameter_is_not_a_use():
    # a parameter, read in its function or in a closure or lambda inside it,
    # is not a use; a default value or decorator outside the body is
    tree = ast.parse(
        "def linear(x, relu=False):\n"
        "    def backward(g):\n"
        "        return relu and g\n"
        "    return (lambda huber: huber)(relu)\n"
        "@relu\n"
        "def f(x=huber, *args, **kw):\n"
        "    return x, args, kw, scale\n"
    )
    uses = Counter()
    _uses(tree, frozenset(), False, uses)
    assert (uses["relu"], uses["huber"], uses["scale"], uses["args"]) == (1, 1, 1, 0)
