"""Expert operators and frequent sequential pattern mining on the graph."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeature, DimMismatch, ShapeMismatch, UnknownNode
from .features import FeatureMatrix
from .stgraph import StGraph


@dataclass(frozen=True)
class EventRecord:
    node: int
    event: str
    t: int


@dataclass(frozen=True)
class Pattern:
    symbols: tuple[int, ...]
    support: int
    example: tuple[int, ...]   # one witness node path


def detect_events(g: StGraph) -> list[EventRecord]:
    """Degree-based event detection over the temporal edge set.

    appearance: in-degree 0 at t > t_min; disappearance: out-degree 0 at
    t < t_max; split: out-degree >= 2; merge: in-degree >= 2; continuation:
    in = out = 1. A node can carry several events.
    """
    if g.n_nodes == 0:
        return []
    indeg, outdeg = g.degrees(g.st)
    t_min, t_max = int(g.t.min()), int(g.t.max())
    out = []
    for v, t, din, dout in zip(g.ids.tolist(), g.t.tolist(), indeg.tolist(), outdeg.tolist()):
        if din == 0 and t > t_min:
            out.append(EventRecord(v, "appearance", t))
        if dout == 0 and t < t_max:
            out.append(EventRecord(v, "disappearance", t))
        if dout >= 2:
            out.append(EventRecord(v, "split", t))
        if din >= 2:
            out.append(EventRecord(v, "merge", t))
        if din == 1 and dout == 1:
            out.append(EventRecord(v, "continuation", t))
    return out


def temporal_profile(
    g: StGraph,
    seed_node: int,
    feature_index: int,
    direction: str = "out",
) -> list[tuple[int, float]]:
    """Walk temporal edges from a seed, always following the heaviest edge
    (ties -> lower id); returns (date, feature value) samples."""
    row = g.index_of(seed_node)
    if direction not in ("out", "in"):
        raise ShapeMismatch(f"direction must be 'out' or 'in', got {direction!r}")
    if g.features is None:
        raise DimMismatch("graph carries no feature matrix")
    values = g.features.values
    samples = [(int(g.t[row]), float(values[row][feature_index]))]
    current = int(g.ids[row])
    visited = {current}
    st = g.st
    while True:
        if direction == "out":
            lo, hi = np.searchsorted(st.src, [current, current + 1])
            weight, nxt = st.weight[lo:hi], st.dst[lo:hi]
        else:
            hit = st.dst == current
            weight, nxt = st.weight[hit], st.src[hit]
        best = None
        for cand in zip((-weight).tolist(), nxt.tolist()):
            if best is None or cand < best:
                best = cand
        if best is None or best[1] in visited:
            break
        current = best[1]
        visited.add(current)
        row = g.index_of(current)
        samples.append((int(g.t[row]), float(values[row][feature_index])))
    if direction == "in":
        samples.sort(key=lambda s: s[0])
    return samples


def coverage_indicator(g: StGraph, node_subset: dict[int, list[int]], frame_pixels: int) -> dict[int, float]:
    """Fraction of the frame covered by the given nodes at each date."""
    out = {}
    for t, ids in sorted(node_subset.items()):
        total = 0
        for nid in ids:
            i = g.index_of(nid)
            if g.t[i] != t:
                raise UnknownNode(f"node {nid} is at date {g.t[i]}, not {t}")
            total += int(g.pixel_count[i])
        out[int(t)] = total / frame_pixels
    return out


def symbolize(fm: FeatureMatrix, feature_index: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-frequency binning of one feature into symbols 0..n_bins-1.

    Returns (symbols, bin_edges); values <= an edge fall in the lower bin.
    All-equal input degenerates to a single bin with a warning.
    """
    if n_bins < 2:
        raise ShapeMismatch(f"n_bins must be >= 2, got {n_bins}")
    if not 0 <= feature_index < fm.dim:
        raise DimMismatch(f"feature index {feature_index} out of range for dim {fm.dim}")
    values = fm.values[:, feature_index]
    if np.all(values == values[0]):
        warnings.warn("feature is constant; all nodes share symbol 0", DegenerateFeature, stacklevel=2)
        return np.zeros(len(values), dtype=np.int64), np.array([])
    qs = np.arange(1, n_bins) / n_bins
    edges = np.quantile(values, qs)
    symbols = np.searchsorted(edges, values, side="left")
    return symbols.astype(np.int64), edges


def mine_frequent(
    g: StGraph,
    symbols: np.ndarray,
    minsup: int,
    maxlen: int,
) -> list[Pattern]:
    """All symbol sequences realized by directed temporal paths.

    A pattern s1..sk occurs at node v iff some path v=v1->..->vk (over
    temporal edges) satisfies symbol(vi) = si. Support counts distinct start
    nodes, which keeps extension support <= prefix support, so depth-first
    enumeration prunes below minsup. Output sorted by (length, symbols).
    """
    if minsup < 1:
        raise ShapeMismatch(f"minsup must be >= 1, got {minsup}")
    if maxlen < 1:
        raise ShapeMismatch(f"maxlen must be >= 1, got {maxlen}")

    symbols = np.asarray(symbols)
    if symbols.shape[0] != g.n_nodes:
        raise ShapeMismatch(f"{symbols.shape[0]} symbols for {g.n_nodes} nodes")
    ids = g.ids.tolist()
    sym = dict(zip(ids, map(int, symbols.tolist())))
    # temporal edges are sorted by (src, dst): each node's successors are one
    # ascending run of dst
    src, dst = g.st.src, g.st.dst.tolist()
    lo = np.searchsorted(src, g.ids, side="left").tolist()
    hi = np.searchsorted(src, g.ids, side="right").tolist()
    succ = {v: dst[a:b] for v, a, b in zip(ids, lo, hi)}

    alphabet = sorted(set(sym.values()))
    results: list[Pattern] = []

    # occurrence state: start node -> set of path end nodes. The keys are the
    # start nodes where the pattern occurs, so the witness path starts at the
    # lowest of them and follows lowest-id successors
    def seed(symbol: int) -> dict[int, set[int]]:
        return {v: {v} for v in sorted(sym) if sym[v] == symbol}

    def extend(state: dict[int, set[int]], symbol: int) -> dict[int, set[int]]:
        out = {}
        for start, ends in state.items():
            new_ends = {w for e in ends for w in succ[e] if sym[w] == symbol}
            if new_ends:
                out[start] = new_ends
        return out

    stack = [((s,), seed(s)) for s in reversed(alphabet)]
    stack = [(p, st) for p, st in stack if len(st) >= minsup]
    while stack:
        pattern, state = stack.pop()
        results.append(
            Pattern(symbols=pattern, support=len(state), example=_find_path(min(state), pattern, succ, sym))
        )
        if len(pattern) >= maxlen:
            continue
        for s in reversed(alphabet):
            nxt = extend(state, s)
            if len(nxt) >= minsup:
                stack.append((pattern + (s,), nxt))
    results.sort(key=lambda p: (len(p.symbols), p.symbols))
    return results


def _find_path(start, pattern, succ, sym) -> tuple[int, ...]:
    if sym[start] != pattern[0]:
        return ()
    if len(pattern) == 1:
        return (start,)
    for nxt in succ[start]:
        tail = _find_path(nxt, pattern[1:], succ, sym)
        if tail:
            return (start,) + tail
    return ()


def events_csv(records: list[EventRecord]) -> str:
    lines = ["node,event,t"]
    lines += [f"{r.node},{r.event},{r.t}" for r in records]
    return "\n".join(lines) + "\n"


def patterns_csv(patterns: list[Pattern]) -> str:
    lines = ["pattern,support"]
    lines += ["-".join(map(str, p.symbols)) + f",{p.support}" for p in patterns]
    return "\n".join(lines) + "\n"
