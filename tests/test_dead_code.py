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

A method whose name more than one package class defines (``parameters``,
``state``, ``accumulate``, ...) is used only through a receiver of its own
class, wherever the code makes that class plain: ``self`` inside a class; a
name bound to a package class's constructor, also by tuple unpacking or
``with ... as``, or to another plain receiver; a parameter annotated with a
package class (``b: Tensor | None``); ``expr.attr`` when every ``.attr = ...``
in the program stores one class's constructor (``x.slot`` is a ``Grad``);
and a loop over a list that a comprehension of such receivers built. A
receiver of another class is no use of the method; one the check cannot
resolve counts for every class that defines the name. A use inside a public
function or method counts only while that function is itself used, and never
for the function itself. The check iterates to a fixed point, so
``layer.parameters()`` inside an unused ``MLP.parameters`` keeps no layer's
``parameters`` alive.

An optional parameter is set when a call in src/ or perfbench/ passes it by
keyword, by position or through a ``*``/``**`` expansion; an option that no
program call sets is a constant in disguise. One that stays sits in
``OPTIONS_KEPT`` with the reason."""

import ast
import functools
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

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


@functools.cache
def _program() -> tuple[tuple[str, ast.Module], ...]:
    """(file, tree) of every module under src/ and perfbench/."""
    return tuple(
        (str(p.relative_to(ROOT)), ast.parse(p.read_text()))
        for d in ("src", "perfbench")
        for p in sorted((ROOT / d).rglob("*.py"))
    )


def _modules() -> list[tuple[str, ast.Module]]:
    package = str(PACKAGE.relative_to(ROOT))
    return [(path, tree) for path, tree in _program() if path.startswith(package)]


def _program_trees() -> list[ast.Module]:
    return [tree for _, tree in _program()]


class Def(NamedTuple):
    file: str
    cls: str | None  # None for a module-level function
    name: str

    def __str__(self):
        return f"{self.file}: {self.cls + '.' if self.cls else ''}{self.name}"


def _public_defs(package) -> dict[int, Def]:
    """Every public module-level function and public method of a
    module-level class under ``package``, by the id of its ``def`` node."""
    out = {}
    for path, tree in package:
        for node in tree.body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            for m in node.body if cls else [node]:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_"):
                    out[id(m)] = Def(path, cls, m.name)
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
            out += [(path, n) for n in names if not n.startswith("_")]
    return out


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None}


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope``'s own namespace: nested functions, lambdas and
    classes are met but not entered; comprehensions count as the scope's."""
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


class Use(NamedTuple):
    name: str
    cls: str | None  # the receiver's type, where resolved: "C" or "[C]" (a list of C)
    owner: Def | None  # the public function the use sits in
    read: bool


class _Receivers:
    """The package class of a receiver, where the program makes it plain.

    A type is ``"C"`` for an instance of the package class ``C`` and
    ``"[C]"`` for a list of them; None is unresolved. A name's type is the
    one type of all its bindings in the innermost scope that binds it."""

    def __init__(self, package, program):
        self.classes = {n.name for _, tree in package for n in tree.body if isinstance(n, ast.ClassDef)}
        self.methods = {  # id of a method's def -> its class
            id(m): c.name
            for _, tree in package
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for m in c.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.attrs = self._attribute_types(program)
        self.scopes = {id(s): self._bindings(s) for _, tree in program for s in ast.walk(tree) if isinstance(s, _SCOPES)}
        self._busy = set()

    def _constructed(self, node) -> str | None:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            return name if name in self.classes else None
        return None

    def _attribute_types(self, program) -> dict[str, str]:
        """The class of each attribute whose every store in the program is
        that class's constructor."""
        stored = defaultdict(set)
        for _, tree in program:
            values = {id(t): n.value for n in ast.walk(tree) if isinstance(n, ast.Assign) for t in n.targets}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                    stored[node.attr].add(self._constructed(values.get(id(node))))
        return {attr: cls for attr, types in stored.items() if len(types) == 1 for cls in types if cls}

    def _annotation(self, node) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # C | None
            sides = [s for s in (node.left, node.right) if not _is_none(s)]
            return self._annotation(sides[0]) if len(sides) == 1 else None
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return name if name in self.classes else None

    def _bindings(self, scope) -> dict[str, list]:
        """Each name ``scope`` binds, to its binders: a type, an expression,
        an ``("iter", expr)`` loop over ``expr``, or None (unresolved)."""
        out, bound = defaultdict(list), set()

        def bind(target, value):
            bound.add(id(target))
            if isinstance(target, ast.Name):
                out[target.id].append(value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                pairs = isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts)
                for i, t in enumerate(target.elts):
                    bind(t, value.elts[i] if pairs and not isinstance(t, ast.Starred) else None)
            elif isinstance(target, ast.Starred):
                bind(target.value, None)

        if not isinstance(scope, ast.Module):
            a = scope.args
            first = (a.posonlyargs + a.args)[:1]
            for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if p is None:
                    continue
                if p in first and p.arg == "self" and id(scope) in self.methods:
                    out[p.arg].append(self.methods[id(scope)])
                elif p in (a.vararg, a.kwarg) or p.annotation is None:
                    out[p.arg].append(None)
                else:
                    out[p.arg].append(self._annotation(p.annotation))
        for node in _own_nodes(scope):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    bind(t, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                bind(node.target, ("iter", node.iter))
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                bind(node.optional_vars, node.context_expr)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) and id(node) not in bound:
                out[node.id].append(None)  # an annotated or augmented assignment, :=, del
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name].append(None)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    out[(alias.asname or alias.name).split(".")[0]].append(None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out[node.name].append(None)
        return out

    def type_of(self, node, chain: tuple) -> str | None:
        """The type of expression ``node`` in the scopes ``chain``,
        innermost first."""
        if isinstance(node, ast.Name):
            return self._lookup(node.id, chain)
        if isinstance(node, ast.Call):
            return self._constructed(node)
        if isinstance(node, ast.Attribute):
            return self.attrs.get(node.attr)
        if isinstance(node, ast.IfExp):  # x if ... else None
            types = {self.type_of(s, chain) for s in (node.body, node.orelse) if not _is_none(s)}
            return types.pop() if len(types) == 1 else None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            item = self.type_of(node.elt, chain)
            return f"[{item}]" if item in self.classes else None
        return None

    def _lookup(self, name: str, chain: tuple) -> str | None:
        for i, scope in enumerate(chain):
            if name in scope:
                key = (id(scope), name)
                if key in self._busy:  # a binding that reads itself
                    return None
                self._busy.add(key)
                try:
                    types = {self._binder_type(b, chain[i:]) for b in scope[name]}
                finally:
                    self._busy.discard(key)
                return types.pop() if len(types) == 1 else None
        return None

    def _binder_type(self, binder, chain: tuple) -> str | None:
        if binder is None or isinstance(binder, str):
            return binder
        if isinstance(binder, tuple):  # the items of a loop's iterable
            items = self.type_of(binder[1], chain)
            return items[1:-1] if items and items.startswith("[") else None
        return self.type_of(binder, chain)


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _uses(node: ast.AST, chain: tuple, params: frozenset, owner, ctx, out: list) -> None:
    """Append the names and attributes under ``node`` to ``out``, where
    ``params`` are the parameters of the functions around it: a ``Name``
    that reads one of them is that parameter, not a use of a public name.
    An attribute whose name ``ctx.shared`` holds carries its receiver's
    type, resolved in the scopes ``chain``."""
    if isinstance(node, ast.Name):
        if node.id not in params:
            out.append(Use(node.id, None, owner, isinstance(node.ctx, ast.Load)))
    elif isinstance(node, ast.Attribute):
        cls = ctx.receivers.type_of(node.value, chain) if node.attr in ctx.shared else None
        out.append(Use(node.attr, cls, owner, isinstance(node.ctx, ast.Load)))
    inner, body = (chain, params, owner), set()
    if isinstance(node, _FUNCTIONS):
        # defaults and decorators run in the enclosing scope, the body in the function's
        scope = ctx.receivers.scopes[id(node)]
        inner = ((scope, *chain), params | _params(node), ctx.defs.get(id(node), owner))
        body = {id(b) for b in (node.body if isinstance(node.body, list) else [node.body])}
    for child in ast.iter_child_nodes(node):
        _uses(child, *(inner if id(child) in body else (chain, params, owner)), ctx, out)


class _Usage(NamedTuple):
    defs: dict  # id of a def node -> Def
    shared: set  # method names that more than one package class defines
    receivers: _Receivers
    uses: list
    unused: set  # the Defs that no counted use reaches


def _usage(package, others=(), kept=()) -> _Usage:
    """The uses in the modules ``package`` and ``others`` (each a list of
    (file, tree)) and the public functions of ``package`` that they leave
    unused, ``kept`` names apart."""
    program = [*package, *others]
    defs = _public_defs(package)
    definers = Counter(name for _, cls, name in set(defs.values()) if cls)
    ctx = _Usage(defs, {n for n, k in definers.items() if k > 1}, _Receivers(package, program), [], set())
    for _, tree in program:
        _uses(tree, (ctx.receivers.scopes[id(tree)],), frozenset(), None, ctx, ctx.uses)
    by_name = defaultdict(list)
    for u in ctx.uses:
        by_name[u.name].append(u)

    def counts(u: Use, d: Def) -> bool:
        resolved = d.cls is None or d.name not in ctx.shared or u.cls in (None, d.cls)
        return resolved and u.owner != d and u.owner not in ctx.unused

    while True:  # each round drops the uses inside functions the last one found unused
        unused = {d for d in set(defs.values()) if d.name not in kept and not any(counts(u, d) for u in by_name[d.name])}
        if unused == ctx.unused:
            return ctx
        ctx.unused.update(unused)


@functools.cache
def _program_usage() -> _Usage:
    return _usage(_modules(), [(p, t) for p, t in _program() if not p.startswith("src")], LIBRARY_ONLY)


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
    assert sorted(map(str, _program_usage().unused)) == []


def test_every_public_class_and_constant_is_read():
    usage = _program_usage()
    reads = Counter(u.name for u in usage.uses if u.read and u.owner not in usage.unused)
    unread = [f"{path}: {name}" for path, name in _public_names() if reads[name] <= 0 and name not in LIBRARY_ONLY]
    assert unread == []


def test_library_only_names_exist():
    defined = {d.name for d in _public_defs(_modules()).values()} | {name for _, name in _public_names()}
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
    uses = Counter(u.name for u in _usage([("m.py", tree)]).uses)
    assert (uses["relu"], uses["huber"], uses["scale"], uses["args"]) == (1, 1, 1, 0)


_TWO_CLASSES = """
class Slot:
    def accumulate(self, g): ...
    def norm(self): ...
    def step(self): ...
    def state(self): ...
    def shape(self): ...
    def size(self): ...
    def clear(self): ...
    def close(self): ...
    def parameters(self): ...

class Leaf:
    def __init__(self):
        self.slot = Slot()

    def accumulate(self, g): ...
    def norm(self): ...
    def step(self): ...
    def state(self): ...
    def shape(self): ...
    def size(self): ...
    def clear(self): ...
    def close(self): ...

    def parameters(self):
        return [p.parameters() for p in self.parts]

    def reset(self):
        self.clear()

    def helper(self): ...

    def unused(self):
        self.helper()

def _run(a: Slot, b: "Leaf | None", xs):
    a.accumulate(0)
    b.close()
    s, leaf = Slot(), Leaf()
    s.norm()
    with Leaf() as ctx:
        ctx.step()
    for slot in [x.slot for x in xs]:
        slot.state()
    leaf.slot.shape()
    leaf.reset()
    xs[0].size()
"""


def test_a_shared_method_is_used_only_through_its_class():
    # each resolution rule reaches one class's method and leaves the other's
    # unused: an annotated parameter (accumulate, close), constructors
    # unpacked (norm), with ... as (step), a loop over a comprehension
    # (state), x.slot (shape) and self (clear); an unresolved receiver
    # reaches both (size). Leaf.parameters is used only inside itself, so
    # Slot.parameters, which only it calls, is unused on the second round,
    # as is helper, used only inside the unused Leaf.unused
    usage = _usage([("m.py", ast.parse(_TWO_CLASSES))])
    assert sorted(f"{d.cls}.{d.name}" for d in usage.unused) == [
        "Leaf.accumulate",
        "Leaf.helper",
        "Leaf.norm",
        "Leaf.parameters",
        "Leaf.shape",
        "Leaf.state",
        "Leaf.unused",
        "Slot.clear",
        "Slot.close",
        "Slot.parameters",
        "Slot.step",
    ]
