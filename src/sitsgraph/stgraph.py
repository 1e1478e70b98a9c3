"""Multi-relational spatio-temporal graph: assembly, queries, serialization.

Nodes are per-date objects. Edges split into two disjoint sets: spatial edges
(same date, undirected, stored once with src < dst) and spatio-temporal edges
(directed past -> future). The canonical serialization is JSON; GraphML and
DOT are lossy views for external viewers.

A graph is stored as columns: the node ids, dates, pixel counts, an n x 2
float64 centroid array and the labels, in ascending id order, and one
``src``/``dst``/``weight`` array triple per relation, sorted by
``(src, dst)``. The constructor takes those columns, and building, reading,
writing and querying work on them alone; no object is built per node or per
edge. ``index_of`` maps a node id to its row. The JSON writer spells out the
``json.dumps(..., indent=1)`` layout of the document, so the bytes are those
of that call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigMismatch, DimMismatch, InvalidLag, InvalidSpec, ShapeMismatch, TooFewNodes, UnknownNode
from .errors import int_column, json_object, number_column
from .features import FeatureMatrix, geom_features
from .nearest import k_nearest, pairs_within
from .segmentation import SegStack, label_pairs, region_adjacency

SPATIAL = "S"
SPATIOTEMPORAL = "ST"


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """One relation as parallel arrays; a builder returns them read-only and
    sorted by ``(src, dst)``."""

    src: np.ndarray       # int64 node ids
    dst: np.ndarray       # int64 node ids
    weight: np.ndarray    # float64

    def __len__(self) -> int:
        return len(self.src)


class StGraph:
    """Immutable-after-build attributed graph over segmentation objects."""

    def __init__(
        self,
        ids: np.ndarray,
        t: np.ndarray,
        pixel_count: np.ndarray,
        centroid: np.ndarray,
        labels: list[int | None],
        spatial: tuple[np.ndarray, np.ndarray, np.ndarray],
        st: tuple[np.ndarray, np.ndarray, np.ndarray],
        features: FeatureMatrix | None = None,
        meta: dict | None = None,
    ):
        """A graph from node columns in any order and ``(src, dst, weight)``
        edge arrays in input order: nodes sorted by id, each edge oriented
        (spatial ``src < dst``, temporal past -> future), of each repeated
        pair the last one kept, and everything validated. A label is None or
        an integer (no bool) within 64 bits."""
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if dup.size:
            raise ShapeMismatch(f"duplicate node id {int(ids[dup[0]])}")
        self.ids = _frozen(ids)
        self.t = _frozen(t[order])
        self.pixel_count = _frozen(pixel_count[order])
        empty = np.flatnonzero(self.pixel_count < 1)
        if empty.size:
            i = empty[0]
            raise ShapeMismatch(f"node {int(ids[i])} has pixel_count {int(self.pixel_count[i])}; need at least 1")
        self.centroid = _frozen(centroid[order])
        int_column([v for v in labels if v is not None], "node 'label'", ShapeMismatch)
        self.labels = tuple(None if labels[i] is None else int(labels[i]) for i in order.tolist())
        self.features = features
        self.meta = dict(meta or {})

        n = len(ids)
        # endpoints as node rows, spatial edges first, in input order
        src = np.concatenate([spatial[0], st[0]]).astype(np.int64)
        dst = np.concatenate([spatial[1], st[1]]).astype(np.int64)
        src_row, dst_row = _rows(ids, src), _rows(ids, dst)
        unknown = np.flatnonzero((src_row < 0) | (dst_row < 0))
        if unknown.size:
            i = unknown[0]
            raise UnknownNode(f"edge {src[i]}->{dst[i]} names a node that does not exist")
        k = len(spatial[0])
        dates = self.t
        columns = []
        for temporal, a, b, w in ((False, src_row[:k], dst_row[:k], spatial[2]), (True, src_row[k:], dst_row[k:], st[2])):
            a, b, w = _canonical(a, b, np.asarray(w, dtype=np.float64), dates[a] > dates[b] if temporal else a > b, n)
            # a spatial edge joins two nodes of one date and a temporal edge
            # two dates, so a pair given in both sets fails the date check
            wrong_dates = dates[a] >= dates[b] if temporal else dates[a] != dates[b]
            bad = (a == b) | wrong_dates | (w < 0)
            if bad.any():
                i = int(np.argmax(bad))
                u, v = int(ids[a[i]]), int(ids[b[i]])
                if u == v:
                    raise ShapeMismatch(f"self-loop on node {u}")
                if wrong_dates[i] and temporal:
                    raise ShapeMismatch(f"temporal edge {u}->{v} not oriented past->future")
                if wrong_dates[i]:
                    raise ShapeMismatch(f"spatial edge {u}->{v} crosses dates")
                raise ShapeMismatch(f"negative weight on {u}->{v}")
            columns.append(EdgeColumns(_frozen(ids[a]), _frozen(ids[b]), _frozen(w)))
        self.spatial, self.st = columns

        if features is not None:
            if features.values.shape[0] != n:
                raise DimMismatch(f"{features.values.shape[0]} feature rows for {n} nodes")
            # feature row i belongs to node id i
            if (ids != np.arange(n)).any():
                raise DimMismatch("feature-carrying graphs need contiguous node ids 0..n-1")

    # -- queries ------------------------------------------------------------

    def index_of(self, node_id: int) -> int:
        """Row of ``node_id`` in the node columns."""
        if isinstance(node_id, (int, np.integer)):
            i = int(np.searchsorted(self.ids, node_id))
            if i < len(self.ids) and self.ids[i] == node_id:
                return i
        raise UnknownNode(f"no node with id {node_id}")

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def label_array(self) -> np.ndarray:
        """The labels in id order, -1 where a node has none."""
        return np.array([-1 if lab is None else lab for lab in self.labels], dtype=np.int64)

    def degrees(self, rel: EdgeColumns) -> tuple[np.ndarray, np.ndarray]:
        """(in-degree, out-degree) of every node under ``rel``, in id order."""
        n = self.n_nodes
        return (
            np.bincount(np.searchsorted(self.ids, rel.dst), minlength=n),
            np.bincount(np.searchsorted(self.ids, rel.src), minlength=n),
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _edge_columns(src, dst, weight) -> EdgeColumns:
    """Edges already sorted by ``(src, dst)`` as read-only columns."""
    return EdgeColumns(_frozen(src.astype(np.int64)), _frozen(dst.astype(np.int64)), _frozen(weight.astype(np.float64)))


def _joined(rels: list[EdgeColumns]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``rels`` end to end, in list order."""
    rels = [EdgeColumns(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)), *rels]
    return tuple(np.concatenate([getattr(r, col) for r in rels]) for col in ("src", "dst", "weight"))


def _rows(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each entry of ``x`` in the ascending unique array ``ids``,
    -1 where it does not occur."""
    if len(ids) == 0:
        return np.full(len(x), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, x), len(ids) - 1)
    return np.where(ids[pos] == x, pos, -1)


def _canonical(a, b, w, flip, n: int):
    """Edges ``a -> b`` (node rows) reversed where ``flip``, of each repeated
    pair the last one, sorted by ``(a, b)``. The edge builders find each
    undirected pair from both ends with the same distance, so which copy
    survives does not change their bytes."""
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    key = a * n + b
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    keep = order[last]
    return a[keep], b[keep], w[keep]


# ---------------------------------------------------------------------------
# edge builders


def adjacency_edges(seg: SegStack, t: int) -> EdgeColumns:
    """Region adjacency for one date; weight = shared 4-neighbor boundary
    length in pixel-pair units."""
    if not (0 <= t < seg.shape[0]):
        raise ShapeMismatch(f"date {t} out of range for {seg.shape[0]} dates")
    pairs, length = region_adjacency(seg.labels[t])
    return _edge_columns(pairs[:, 0], pairs[:, 1], length)


def _per_date(dates: np.ndarray, search, across: bool = False):
    """(a, b, distance) rows of the pairs ``search(members, t)`` finds for
    the rows ``members`` of each date ``t`` in ascending order, joined and
    made canonical: each pair once, from the lower row, or from the earlier
    date when ``across``."""
    a, b, dist = _joined([EdgeColumns(*search(np.nonzero(dates == t)[0], t)) for t in np.unique(dates)])
    return _canonical(a, b, dist, dates[a] > dates[b] if across else a > b, len(dates))


def eps_ball_edges(g: StGraph, eps: float) -> EdgeColumns:
    """Centroid distance <= eps (inclusive) between same-date nodes of ``g``."""
    if not eps > 0:
        raise ShapeMismatch(f"eps must be > 0, got {eps}")
    cent = g.centroid
    a, b, dist = _per_date(
        g.t, lambda members, t: pairs_within(members, eps, lambda a, b: _centroid_distance(cent, a, b), (cent, cent))
    )
    return _edge_columns(g.ids[a], g.ids[b], dist)


def knn_edges(g: StGraph, k: int) -> EdgeColumns:
    """Symmetrized k-nearest-neighbor relation over same-date centroids of ``g``."""
    cent = g.centroid

    def search(members, t):
        if k < 1 or k >= len(members):
            raise TooFewNodes(f"k={k} needs at least k+1 nodes at date {t}, have {len(members)}")
        return k_nearest(members, None, k, lambda a, b: _centroid_distance(cent, a, b), (cent, cent))

    a, b, dist = _per_date(g.t, search)
    return _edge_columns(g.ids[a], g.ids[b], dist)


def similarity_edges(
    fm: FeatureMatrix,
    node_dates: np.ndarray,
    scope: str,
    k: int,
) -> EdgeColumns:
    """k most feature-similar nodes per node, within or across dates.

    Weight = exp(-d^2) with d the Euclidean feature distance. Cross-date edges
    are oriented past -> future, for the spatio-temporal relation.
    """
    if scope not in ("within-date", "cross-date"):
        raise ShapeMismatch(f"unknown scope {scope!r}")
    if k < 1:
        raise ShapeMismatch(f"k must be >= 1, got {k}")
    v = fm.values
    node_dates = np.asarray(node_dates)
    if node_dates.shape[0] != v.shape[0]:
        raise DimMismatch(f"{node_dates.shape[0]} dates for {v.shape[0]} feature rows")

    def feature_distance(a, b):
        diff = v[b] - v[a]
        return np.sqrt(np.square(diff, out=diff).sum(axis=-1))

    # the first two features (a band's mean and standard deviation) bound the
    # distance from below and prune more candidates than any other two; a row
    # with a feature that is not finite scores every candidate at once, as a
    # NaN feature leaves it no distance to bound
    xy = np.zeros((v.shape[0], 2))
    xy[:, : min(2, v.shape[1])] = v[:, :2]
    xy[~np.isfinite(v).all(axis=1)] = np.nan
    across = scope == "cross-date"

    def search(members, t):
        cands = np.nonzero(node_dates != t)[0] if across else None
        return k_nearest(members, cands, k, feature_distance, (xy, xy))

    a, b, dist = _per_date(node_dates, search, across)
    # d ** 2 on Python floats (libm pow) differs from NumPy's d * d in the
    # last bit for some d; the weights keep the scalar rule
    weights = np.exp(-np.array([d ** 2 for d in dist.tolist()]))
    return _edge_columns(a, b, weights)


def _centroid_distance(cent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(cent[a, 0] - cent[b, 0], cent[a, 1] - cent[b, 1])


def overlap_edges(seg: SegStack, min_pixels: int = 1) -> EdgeColumns:
    """Directed edges between footprint-overlapping objects at consecutive
    dates; weight = |A & B| / min(|A|, |B|)."""
    if seg.shape[0] < 2:
        raise ShapeMismatch("overlap edges need at least two dates")
    return _lagged_overlap_edges(seg, 1, min_pixels)


def periodic_edges(seg: SegStack, lag: int) -> EdgeColumns:
    """Same overlap rule between dates t and t+lag (lag >= 2); one shared
    pixel makes an edge."""
    if lag < 2:
        raise InvalidLag(f"lag must be >= 2, got {lag}")
    return _lagged_overlap_edges(seg, lag, 1)


def _lagged_overlap_edges(seg: SegStack, lag: int, min_pixels: int) -> EdgeColumns:
    if min_pixels < 1:
        raise ShapeMismatch(f"min_pixels must be >= 1, got {min_pixels}")
    size = np.bincount(seg.labels.ravel(), minlength=seg.n_objects)
    # object ids are unique across dates: one pass pairs every date t with t + lag
    pairs, inter = label_pairs(seg.labels[:-lag], seg.labels[lag:])
    keep = inter >= min_pixels
    pairs, inter = pairs[keep], inter[keep]
    weight = inter / np.minimum(size[pairs[:, 0]], size[pairs[:, 1]])
    return _edge_columns(pairs[:, 0], pairs[:, 1], weight)


# ---------------------------------------------------------------------------
# assembly


def nodes_from_seg(seg: SegStack, label_maps: np.ndarray | None = None) -> StGraph:
    """An edge-less graph of one node per object with pixel count, centroid and
    (optionally) the modal class label of its pixels (-1 ignored; pure -1 -> None)."""
    geom = geom_features(seg).values
    labels = [None] * seg.n_objects
    if label_maps is not None:
        table = seg.class_counts(label_maps)
        modal = table.argmax(axis=1).tolist()  # ties -> lower class id
        labels = [m if s > 0 else None for m, s in zip(modal, table.sum(axis=1).tolist())]
    return StGraph(
        np.arange(seg.n_objects, dtype=np.int64), seg.object_dates(), geom[:, 0].astype(np.int64), geom[:, 1:3],
        labels, _joined([]), _joined([]),
    )


# The edge-spec grammar of build_graph and of build-graph's --spatial/--st
# flags: per relation, name -> (argument type, None for no argument; the value
# the argument must exceed; the argument when none is given; the spec's edge
# columns). The lambdas call each builder by its module name, so a wrapper
# installed on the module (a profiler's span) sees every call.
EDGE_SPECS = {
    "spatial": {
        "adjacency": (None, None, None, lambda seg, g, fm, _: [adjacency_edges(seg, t) for t in range(seg.shape[0])]),
        "eps": (float, 0, None, lambda seg, g, fm, r: [eps_ball_edges(g, r)]),
        "knn": (int, 0, None, lambda seg, g, fm, k: [knn_edges(g, k)]),
        "sim": (int, 0, None, lambda seg, g, fm, k: [similarity_edges(fm, g.t, "within-date", k)]),
    },
    "st": {
        "overlap": (int, 0, 1, lambda seg, g, fm, m: [overlap_edges(seg, m)]),
        "sim": (int, 0, None, lambda seg, g, fm, k: [similarity_edges(fm, g.t, "cross-date", k)]),
        "periodic": (int, 1, None, lambda seg, g, fm, lag: [periodic_edges(seg, lag)]),
    },
}


def parse_edge_spec(spec, relation: str):
    """One ``relation`` ("spatial" or "st") edge spec in its parsed form:
    ``"adjacency"`` or ``(name, value)``.

    ``spec`` is flag text (``"knn:6"``), the JSON form that
    ``run_config.json`` stores (``["knn", 6]``) or an already-parsed spec.
    An unknown name, a missing or malformed argument, an argument to
    ``adjacency`` and a value not above the builder's floor (NaN included)
    raise ``InvalidSpec``; its message names the build-graph flag.
    """
    text = ":".join(map(str, spec)) if isinstance(spec, (list, tuple)) else str(spec)
    name, colon, arg = text.partition(":")
    if name not in EDGE_SPECS[relation]:
        raise InvalidSpec(f"unknown --{relation} builder {text!r}")
    kind, floor, default, _ = EDGE_SPECS[relation][name]
    if kind is None:
        if colon:
            raise InvalidSpec(f"bad --{relation} spec {text!r}: {name} takes no argument")
        return name
    if not arg and default is not None:
        return (name, default)
    try:
        value = kind(arg)
    except ValueError:
        raise InvalidSpec(f"bad --{relation} spec {text!r}: {name} needs {'an integer' if kind is int else 'a number'}") from None
    if not value > floor:
        raise InvalidSpec(f"bad --{relation} spec {text!r}: {name} must be > {floor}")
    return (name, value)


def build_graph(
    seg: SegStack,
    features: FeatureMatrix | None = None,
    label_maps: np.ndarray | None = None,
    spatial: list | None = None,
    st: list | None = None,
    meta: dict | None = None,
) -> StGraph:
    """Assemble a graph from edge specs in any form ``parse_edge_spec`` reads.

    ``spatial`` entries: adjacency | eps:R | knn:K | sim:K.
    ``st`` entries: overlap[:MIN] | sim:K | periodic:LAG.
    Every spec is parsed before any edge is built.
    """
    parsed = {rel: [parse_edge_spec(e, rel) for e in entries or []] for rel, entries in (("spatial", spatial), ("st", st))}
    nodes = nodes_from_seg(seg, label_maps)
    rels = []
    for relation, specs in parsed.items():
        cols: list[EdgeColumns] = []
        for spec in specs:
            name, value = (spec, None) if isinstance(spec, str) else spec
            if name == "sim" and features is None:
                raise DimMismatch("similarity edges need a feature matrix")
            cols += EDGE_SPECS[relation][name][3](seg, nodes, features, value)
        rels.append(_joined(cols))
    return StGraph(
        nodes.ids, nodes.t, nodes.pixel_count, nodes.centroid, nodes.labels,
        *rels, features=features, meta=meta,
    )


# ---------------------------------------------------------------------------
# stats


def graph_stats(
    g: StGraph,
    cube_shape: tuple[int, int, int, int],
    f_v: int,
    f_e: int = 0,
    map_stored: bool = True,
) -> dict:
    """Size report with the storage compression ratio.

    ratio = C*T*H*W / (f_v*|V| + |E| + f_e*|E| [+ T*H*W if the object-pixel
    map is stored]), or None where that denominator is 0 (an empty graph
    without the map), so the report stays strict JSON. A negative ``f_v``
    or ``f_e`` raises ``ConfigMismatch``.
    """
    if f_v < 0 or f_e < 0:
        raise ConfigMismatch(f"f_v and f_e must be >= 0, got f_v={f_v}, f_e={f_e}")
    t, c, h, w = cube_shape
    n_edges = len(g.spatial) + len(g.st)
    denom = f_v * g.n_nodes + n_edges + f_e * n_edges
    if map_stored:
        denom += t * h * w
    ratio = (c * t * h * w) / denom if denom > 0 else None

    dates, per_date = np.unique(g.t, return_counts=True)
    indeg, outdeg = g.degrees(g.st)

    def hist(deg: np.ndarray) -> dict[int, int]:
        values, counts = np.unique(deg, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    return {
        "n_nodes": g.n_nodes,
        "n_edges_spatial": len(g.spatial),
        "n_edges_st": len(g.st),
        "nodes_per_date": dict(zip(dates.tolist(), per_date.tolist())),
        "degree_hist_spatial": hist(sum(g.degrees(g.spatial))),
        "degree_hist_st_in": hist(indeg),
        "degree_hist_st_out": hist(outdeg),
        "f_v": f_v,
        "f_e": f_e,
        "map_stored": map_stored,
        "compression_ratio": ratio,
    }


# ---------------------------------------------------------------------------
# serialization


def export_graph(g: StGraph, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _to_json(g).encode()
    if fmt == "graphml":
        return _to_graphml(g).encode()
    if fmt == "dot":
        return _to_dot(g).encode()
    raise ShapeMismatch(f"unknown export format {fmt!r}")


def _json_floats(values: np.ndarray) -> list[str]:
    """``values`` spelled as ``json.dumps`` spells floats."""
    out = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        v = values[i]
        out[i] = "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")
    return out


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already-encoded ``items`` in the ``indent=1`` layout,
    its closing bracket at depth ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _to_json(g: StGraph) -> str:
    # the layout of json.dumps(doc, indent=1) with doc = {"nodes": [...],
    # "edges": [...], "meta": {...}}: nodes at depth 2, their fields at 3
    if g.features is None:
        rows = ["null"] * g.n_nodes
    else:
        values = np.asarray(g.features.values, dtype=np.float64)
        cells = _json_floats(values.ravel())
        d = values.shape[1]
        rows = [
            _json_list(["    " + c for c in cells[i * d : (i + 1) * d]], "   ") for i in range(g.n_nodes)
        ]
    centroid = _json_floats(g.centroid.ravel())
    node = (
        '  {\n   "id": %d,\n   "t": %d,\n   "pixel_count": %d,\n'
        '   "centroid": [\n    %s,\n    %s\n   ],\n   "features": %s,\n   "label": %s\n  }'
    )
    nodes = [
        node % (i, t, px, centroid[2 * k], centroid[2 * k + 1], rows[k], "null" if lab is None else lab)
        for k, (i, t, px, lab) in enumerate(
            zip(g.ids.tolist(), g.t.tolist(), g.pixel_count.tolist(), g.labels)
        )
    ]
    edges = []
    for kind, rel in ((SPATIAL, g.spatial), (SPATIOTEMPORAL, g.st)):
        edge = '  {\n   "src": %d,\n   "dst": %d,\n   "kind": "' + kind + '",\n   "w": %s\n  }'
        edges += [edge % e for e in zip(rel.src.tolist(), rel.dst.tolist(), _json_floats(rel.weight))]
    meta = dict(g.meta)
    if g.features is not None:
        meta["feature_names"] = list(g.features.names)
    return (
        '{\n "nodes": ' + _json_list(nodes, " ")
        + ',\n "edges": ' + _json_list(edges, " ")
        + ',\n "meta": ' + json.dumps(meta, indent=1).replace("\n", "\n ")
        + "\n}"
    )


def import_graph(blob: bytes | str, source: str = "graph document") -> StGraph:
    """The graph of a canonical JSON document, called ``source`` in errors;
    anything else raises ``ShapeMismatch`` (``UnknownNode`` for an edge to a
    missing node)."""
    doc = json_object(blob, source, ShapeMismatch, {"nodes": list, "edges": list})
    nodes, edges = doc["nodes"], doc["edges"]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ShapeMismatch(f"graph 'meta' must be an object, got {type(meta).__name__}")
    ids, t, px, cent = _json_columns(nodes, ("id", "t", "pixel_count", "centroid"), "node")
    ids, t, px = (int_column(v, f"node {k!r}", ShapeMismatch) for k, v in (("id", ids), ("t", t), ("pixel_count", px)))
    if not (set(map(type, cent)) <= {list} and set(map(len, cent)) <= {2}):
        bad = next(c for c in cent if type(c) is not list or len(c) != 2)
        raise ShapeMismatch(f"node 'centroid' must be a list of two numbers, got {bad!r}")
    centroid = number_column(list(chain.from_iterable(cent)), "node 'centroid'", ShapeMismatch).reshape(len(cent), 2)
    labels = [n.get("label") for n in nodes]

    src, dst, kind, w = _json_columns(edges, ("src", "dst", "kind", "w"), "edge")
    src, dst = int_column(src, "edge 'src'", ShapeMismatch), int_column(dst, "edge 'dst'", ShapeMismatch)
    bad = [k for k in kind if k not in (SPATIAL, SPATIOTEMPORAL)]
    if bad:
        raise ShapeMismatch(f"edge kind must be 'S' or 'ST', got {bad[0]!r}")
    w = number_column(w, "edge 'w'", ShapeMismatch)
    is_s = np.array([k == SPATIAL for k in kind], dtype=bool)

    features = None
    rows = [n.get("features") for n in nodes]
    bare = [i for i, r in enumerate(rows) if r is None]
    if bare and len(bare) < len(rows):
        raise ShapeMismatch(f"node {ids[bare[0]]} has no 'features' where other nodes have them")
    if rows and not bare:
        if not (set(map(type, rows)) <= {list} and len(set(map(len, rows))) == 1):
            raise ShapeMismatch("graph node features must be equal-length lists of numbers")
        values = number_column(list(chain.from_iterable(rows)), "node 'features'", ShapeMismatch)
        values = values.reshape(len(rows), len(rows[0]))
        names = meta.get("feature_names", [f"f{i}" for i in range(values.shape[1])])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ShapeMismatch(f"graph 'meta.feature_names' must be a list of strings, got {names!r}")
        order = np.argsort(ids, kind="stable")
        features = FeatureMatrix(values=values[order], names=list(names))
    meta = {k: v for k, v in meta.items() if k != "feature_names"}
    return StGraph(
        ids, t, px, centroid, labels,
        (src[is_s], dst[is_s], w[is_s]),
        (src[~is_s], dst[~is_s], w[~is_s]),
        features=features,
        meta=meta,
    )


def _json_columns(items: list, keys: tuple[str, ...], what: str) -> list[list]:
    """``keys`` of every object in ``items``, one list per key."""
    try:
        return [[item[k] for item in items] for k in keys]
    except KeyError as e:
        raise ShapeMismatch(f"graph {what} without {e}") from None
    except TypeError:
        raise ShapeMismatch(f"graph {what}s must be JSON objects") from None


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    + "".join(
        f'<key for="{target}" attr.name="{name}" attr.type="{typ}" id="{kid}" />'
        for kid, name, target, typ in (
            ("d0", "t", "node", "int"),
            ("d1", "pixel_count", "node", "int"),
            ("d2", "label", "node", "int"),
            ("d3", "kind", "edge", "string"),
            ("d4", "weight", "edge", "double"),
        )
    )
)


def _to_graphml(g: StGraph) -> str:
    # ElementTree's serialization: attributes in insertion order, empty
    # elements as "<tag ... />"; no text here needs escaping
    body = [
        f'<node id="n{i}"><data key="d0">{t}</data><data key="d1">{px}</data>'
        + ("" if lab is None else f'<data key="d2">{lab}</data>')
        + "</node>"
        for i, t, px, lab in zip(g.ids.tolist(), g.t.tolist(), g.pixel_count.tolist(), g.labels)
    ]
    for kind, rel in ((SPATIAL, g.spatial), (SPATIOTEMPORAL, g.st)):
        edge = '<edge source="n%d" target="n%d"><data key="d3">' + kind + '</data><data key="d4">%r</data></edge>'
        body += [edge % e for e in zip(rel.src.tolist(), rel.dst.tolist(), rel.weight.tolist())]
    graph = '<graph id="G" edgedefault="directed"'
    graph += ">" + "".join(body) + "</graph>" if body else " />"
    return _GRAPHML_HEAD + graph + "</graphml>"


def _to_dot(g: StGraph) -> str:
    # spatial edges solid, spatio-temporal dashed; node size tracks pixel count
    px = g.pixel_count.tolist()
    max_px = max(px, default=1)
    lines = ["digraph stgraph {"]
    for i, t, p in zip(g.ids.tolist(), g.t.tolist(), px):
        size = 0.2 + 0.8 * p / max_px
        lines.append(f'  n{i} [label="{i} (t={t})", width={size:.3f}, height={size:.3f}, fixedsize=true];')
    for a, b, w in zip(g.spatial.src.tolist(), g.spatial.dst.tolist(), g.spatial.weight.tolist()):
        lines.append(f'  n{a} -> n{b} [dir=none, style=solid, weight_attr="{w:g}"];')
    for a, b, w in zip(g.st.src.tolist(), g.st.dst.tolist(), g.st.weight.tolist()):
        lines.append(f'  n{a} -> n{b} [style=dashed, weight_attr="{w:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
