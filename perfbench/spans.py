"""In-memory spans for the traced benchmark run, and the self-time arithmetic.

A span is one call into a public function or method of a sitsgraph module,
recorded by a wrapper that the benchmark installs from outside the package
(the program itself carries no tracing). Spans stay in memory while the run
executes and are written out once at the end.

Self time of a span is its duration minus the part of its interval that its
child spans cover. Children can overlap: ``segment_cube`` fans per-date
segmentation out to worker threads, so the covered part is the length of the
union of the child intervals, clipped to the parent, not their sum.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

PACKAGE = "sitsgraph"
# The package's modules, named as layers; a sub-package counts as one layer.
LAYERS = (
    "datacube",
    "segmentation",
    "features",
    "stgraph",
    "analysis",
    "neural",
    "forecast",
    "metrics",
    "checkpoint",
    "cli",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, []), s.start, s.end) for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans; ``run`` labels every span opened until it changes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def _parent(self, tid: int) -> int:
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to whatever the main thread
        # has open, i.e. the call that submitted the work.
        main = self._stacks.get(self._main)
        return main[-1] if tid != self._main and main else -1

    def open(self, name: str, layer: str) -> int:
        tid = threading.get_ident()
        idx = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, self._parent(tid), self.run, tid))
        self._stacks.setdefault(tid, []).append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        idx = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


# Functions whose span name carries one argument, because one function serves
# several metrics (e.g. within- and cross-date similarity edges).
_KEY_ARG = {
    "stgraph.similarity_edges": "scope",
    "stgraph.export_graph": "fmt",
}


def wrap(tracer: Tracer, fn, name: str, layer: str):
    key = _KEY_ARG.get(name)
    sig = inspect.signature(fn) if key else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            label = f"{name}[{bound.arguments[key]}]"
        idx = tracer.open(label, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _targets(modules) -> list[tuple[object, str, object, str, str]]:
    """(owner, attribute, function, span name, layer) for every public
    function and public method defined in the given modules."""
    out = []
    for mod in modules:
        layer = _layer_of(mod.__name__)
        if layer is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not hasattr(obj, "__wrapped__"):
                out.append((mod, attr, obj, f"{layer}.{attr}", layer))
            elif inspect.isclass(obj):
                for m_attr, m_obj in vars(obj).items():
                    if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                        out.append((obj, m_attr, m_obj, f"{layer}.{attr}.{m_attr}", layer))
    return out


def instrument(tracer: Tracer):
    """Wrap every public function and method of the loaded sitsgraph modules,
    including the names other modules imported them under. Returns a
    function that restores the originals."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    wrappers: dict[int, object] = {}
    patched: list[tuple[object, str, object]] = []
    for owner, attr, fn, name, layer in _targets(modules):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = wrap(tracer, fn, name, layer)
        patched.append((owner, attr, fn))
        setattr(owner, attr, wrappers[id(fn)])
    # names bound by ``from x import f`` and module-level aliases
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def restore() -> None:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)

    return restore
