"""Multi-relational spatio-temporal graph: assembly, queries, serialization.

Nodes are per-date objects. Edges split into two disjoint sets: spatial edges
(same date, undirected, stored once with src < dst) and spatio-temporal edges
(directed past -> future). The canonical serialization is JSON; GraphML and
DOT are lossy views for external viewers.

A graph is stored as columns: the node ids, dates, pixel counts, an n x 2
float64 centroid array and the labels, in ascending id order, and one
``src``/``dst``/``weight`` array triple per relation, sorted by
``(src, dst)``. Reading, writing and querying work on those columns; the
``Node`` and ``Edge`` lists are read-only views built on first access. The
JSON writer spells out the ``json.dumps(..., indent=1)`` layout of the
document, so the bytes are those of that call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimMismatch, InvalidLag, ShapeMismatch, TooFewNodes, UnknownNode
from .features import FeatureMatrix, geom_features
from .segmentation import SegStack, label_pairs, region_adjacency, smallest_k

SPATIAL = "S"
SPATIOTEMPORAL = "ST"


@dataclass(frozen=True)
class Node:
    id: int
    t: int
    pixel_count: int
    centroid: tuple[float, float]   # (row, col)
    label: int | None = None


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str                       # SPATIAL | SPATIOTEMPORAL
    weight: float


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """One relation as parallel read-only arrays, sorted by ``(src, dst)``."""

    src: np.ndarray       # int64 node ids
    dst: np.ndarray       # int64 node ids
    weight: np.ndarray    # float64

    def __len__(self) -> int:
        return len(self.src)


class StGraph:
    """Immutable-after-build attributed graph over segmentation objects."""

    def __init__(
        self,
        nodes: list[Node],
        edges_spatial: list[Edge],
        edges_st: list[Edge],
        features: FeatureMatrix | None = None,
        meta: dict | None = None,
    ):
        nodes = list(nodes)
        self._assemble(
            np.array([n.id for n in nodes], dtype=np.int64),
            np.array([n.t for n in nodes], dtype=np.int64),
            np.array([n.pixel_count for n in nodes], dtype=np.int64),
            np.array([n.centroid for n in nodes], dtype=np.float64).reshape(len(nodes), 2),
            [None if n.label is None else int(n.label) for n in nodes],
            _edge_arrays(edges_spatial),
            _edge_arrays(edges_st),
            features,
            meta,
        )

    @classmethod
    def from_columns(
        cls,
        ids: np.ndarray,
        t: np.ndarray,
        pixel_count: np.ndarray,
        centroid: np.ndarray,
        labels: list[int | None],
        spatial: tuple[np.ndarray, np.ndarray, np.ndarray],
        st: tuple[np.ndarray, np.ndarray, np.ndarray],
        features: FeatureMatrix | None = None,
        meta: dict | None = None,
    ) -> StGraph:
        """A graph from node columns in any order and ``(src, dst, weight)``
        edge arrays in input order; canonicalized and validated as the
        constructor does."""
        g = cls.__new__(cls)
        g._assemble(ids, t, pixel_count, centroid, labels, spatial, st, features, meta)
        return g

    def _assemble(self, ids, t, pixel_count, centroid, labels, spatial, st, features, meta) -> None:
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if dup.size:
            raise ShapeMismatch(f"duplicate node id {int(ids[dup[0]])}")
        self.ids = _frozen(ids)
        self.t = _frozen(t[order])
        self.pixel_count = _frozen(pixel_count[order])
        self.centroid = _frozen(centroid[order])
        self.labels = tuple(labels[i] for i in order.tolist())
        self.features = features
        self.meta = dict(meta or {})
        self._views: dict = {}

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
        s_src, s_dst, st_src, st_dst = src_row[:k], dst_row[:k], src_row[k:], dst_row[k:]
        dates = self.t
        s_src, s_dst, s_w = _canonical(s_src, s_dst, np.asarray(spatial[2], dtype=np.float64), s_src > s_dst, n)
        st_src, st_dst, st_w = _canonical(
            st_src, st_dst, np.asarray(st[2], dtype=np.float64), dates[st_src] > dates[st_dst], n
        )

        bad = (s_src == s_dst) | (dates[s_src] != dates[s_dst]) | (s_w < 0)
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(ids[s_src[i]]), int(ids[s_dst[i]])
            if a == b:
                raise ShapeMismatch(f"self-loop on node {a}")
            if dates[s_src[i]] != dates[s_dst[i]]:
                raise ShapeMismatch(f"spatial edge {a}->{b} crosses dates")
            raise ShapeMismatch(f"negative weight on {a}->{b}")
        s_key = s_src * n + s_dst  # ascending
        both = (_rows(s_key, st_src * n + st_dst) >= 0) | (_rows(s_key, st_dst * n + st_src) >= 0)
        bad = (st_src == st_dst) | (dates[st_src] >= dates[st_dst]) | (st_w < 0) | both
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(ids[st_src[i]]), int(ids[st_dst[i]])
            if a == b:
                raise ShapeMismatch(f"self-loop on node {a}")
            if dates[st_src[i]] >= dates[st_dst[i]]:
                raise ShapeMismatch(f"temporal edge {a}->{b} not oriented past->future")
            if st_w[i] < 0:
                raise ShapeMismatch(f"negative weight on {a}->{b}")
            raise ShapeMismatch(f"edge ({a},{b}) present in both relation sets")
        self.spatial = EdgeColumns(_frozen(ids[s_src]), _frozen(ids[s_dst]), _frozen(s_w))
        self.st = EdgeColumns(_frozen(ids[st_src]), _frozen(ids[st_dst]), _frozen(st_w))

        if features is not None:
            if features.values.shape[0] != n:
                raise DimMismatch(f"{features.values.shape[0]} feature rows for {n} nodes")
            # feature row i belongs to node id i
            if (ids != np.arange(n)).any():
                raise DimMismatch("feature-carrying graphs need contiguous node ids 0..n-1")

    # -- views ----------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        if "nodes" not in self._views:
            self._views["nodes"] = tuple(
                Node(i, t, px, (r, c), lab)
                for i, t, px, (r, c), lab in zip(
                    self.ids.tolist(),
                    self.t.tolist(),
                    self.pixel_count.tolist(),
                    self.centroid.tolist(),
                    self.labels,
                )
            )
        return self._views["nodes"]

    @property
    def edges_spatial(self) -> tuple[Edge, ...]:
        return self._edge_view(SPATIAL, self.spatial)

    @property
    def edges_st(self) -> tuple[Edge, ...]:
        return self._edge_view(SPATIOTEMPORAL, self.st)

    def _edge_view(self, kind: str, rel: EdgeColumns) -> tuple[Edge, ...]:
        if kind not in self._views:
            self._views[kind] = tuple(
                Edge(a, b, kind, w)
                for a, b, w in zip(rel.src.tolist(), rel.dst.tolist(), rel.weight.tolist())
            )
        return self._views[kind]

    # -- queries ------------------------------------------------------------

    def index_of(self, node_id: int) -> int:
        """Row of ``node_id`` in the node columns."""
        if isinstance(node_id, (int, np.integer)):
            i = int(np.searchsorted(self.ids, node_id))
            if i < len(self.ids) and self.ids[i] == node_id:
                return i
        raise UnknownNode(f"no node with id {node_id}")

    def node(self, node_id: int) -> Node:
        i = self.index_of(node_id)
        r, c = self.centroid[i].tolist()
        return Node(int(self.ids[i]), int(self.t[i]), int(self.pixel_count[i]), (r, c), self.labels[i])

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def dates(self) -> list[int]:
        return np.unique(self.t).tolist()

    def nodes_at(self, t: int) -> list[Node]:
        return [self.node(i) for i in self.ids[self.t == t].tolist()]

    def label_array(self) -> np.ndarray:
        """Node labels in id order, -1 where a node has none."""
        return np.array([-1 if lab is None else lab for lab in self.labels], dtype=np.int64)

    def neighborhood(self, node_id: int, kind: str = SPATIAL, direction: str = "both") -> set[int]:
        """Neighbor ids. Spatial neighbors are symmetric; for temporal edges
        ``direction`` selects incoming ("in", from the past), outgoing ("out",
        to the future) or both."""
        self.index_of(node_id)
        if kind == SPATIAL:
            rel = self.spatial
            return set(rel.dst[rel.src == node_id].tolist()) | set(rel.src[rel.dst == node_id].tolist())
        if kind != SPATIOTEMPORAL:
            raise ShapeMismatch(f"unknown edge kind {kind!r}")
        out: set[int] = set()
        if direction in ("out", "both"):
            out.update(self.st.dst[self.st.src == node_id].tolist())
        if direction in ("in", "both"):
            out.update(self.st.src[self.st.dst == node_id].tolist())
        return out

    def degrees(self, rel: EdgeColumns) -> tuple[np.ndarray, np.ndarray]:
        """(in-degree, out-degree) of every node under ``rel``, in id order."""
        n = self.n_nodes
        return (
            np.bincount(np.searchsorted(self.ids, rel.dst), minlength=n),
            np.bincount(np.searchsorted(self.ids, rel.src), minlength=n),
        )

    def st_degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        ids = self.ids.tolist()
        indeg, outdeg = self.degrees(self.st)
        return dict(zip(ids, indeg.tolist())), dict(zip(ids, outdeg.tolist()))

    def feature_row(self, node_id: int) -> np.ndarray:
        if self.features is None:
            raise DimMismatch("graph carries no feature matrix")
        self.index_of(node_id)
        return self.features.values[node_id]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edges = list(edges)
    return (
        np.array([e.src for e in edges], dtype=np.int64),
        np.array([e.dst for e in edges], dtype=np.int64),
        np.array([e.weight for e in edges], dtype=np.float64),
    )


def _rows(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each entry of ``x`` in the ascending unique array ``ids``,
    -1 where it does not occur."""
    if len(ids) == 0:
        return np.full(len(x), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, x), len(ids) - 1)
    return np.where(ids[pos] == x, pos, -1)


def _canonical(a, b, w, flip, n: int):
    """Edges ``a -> b`` (node rows) reversed where ``flip``, of each repeated
    pair the last one, sorted by ``(a, b)``."""
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


def adjacency_edges(seg: SegStack, t: int) -> list[Edge]:
    """Region adjacency for one date; weight = shared 4-neighbor boundary
    length in pixel-pair units."""
    if not (0 <= t < seg.shape[0]):
        raise ShapeMismatch(f"date {t} out of range for {seg.shape[0]} dates")
    pairs, length = region_adjacency(seg.labels[t])
    return [Edge(a, b, SPATIAL, float(c)) for (a, b), c in zip(pairs.tolist(), length.tolist())]


def eps_ball_edges(nodes: list[Node], eps: float) -> list[Edge]:
    """Centroid distance <= eps (inclusive) between same-date nodes."""
    if eps <= 0:
        raise ShapeMismatch(f"eps must be > 0, got {eps}")
    ids, dates, cent = _node_arrays(nodes)
    src, dst, dist = [], [], []
    for t in np.unique(dates):
        members = np.nonzero(dates == t)[0]
        for rows in _row_blocks(members, len(members)):
            d = _centroid_distance(cent, rows[:, None], members[None, :])
            hit = (d <= eps) & (members[None, :] > rows[:, None])
            r, c = np.nonzero(hit)
            src.append(rows[r])
            dst.append(members[c])
            dist.append(d[r, c])
    pairs, dist = _unique_pairs(src, dst, dist)
    return [Edge(a, b, SPATIAL, d) for (a, b), d in zip(ids[pairs].tolist(), dist.tolist())]


def knn_edges(nodes: list[Node], k: int) -> list[Edge]:
    """Symmetrized k-nearest-neighbor relation over same-date centroids."""
    ids, dates, cent = _node_arrays(nodes)
    src, dst, dist = [], [], []
    for t in np.unique(dates):
        members = np.nonzero(dates == t)[0]
        if k < 1 or k >= len(members):
            raise TooFewNodes(f"k={k} needs at least k+1 nodes at date {t}, have {len(members)}")
        for a, b, d in _k_nearest(members, None, k, lambda a, b: _centroid_distance(cent, a, b)):
            src.append(np.minimum(a, b))
            dst.append(np.maximum(a, b))
            dist.append(d)
    pairs, dist = _unique_pairs(src, dst, dist)
    return [Edge(a, b, SPATIAL, d) for (a, b), d in zip(ids[pairs].tolist(), dist.tolist())]


def similarity_edges(
    fm: FeatureMatrix,
    node_dates: np.ndarray,
    scope: str,
    k: int,
) -> list[Edge]:
    """k most feature-similar nodes per node, within or across dates.

    Weight = exp(-d^2) with d the Euclidean feature distance. Cross-date edges
    are oriented past -> future and classified spatio-temporal.
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
        diff = v[b]
        diff -= v[a]
        return np.sqrt(np.square(diff, out=diff).sum(axis=-1))

    src, dst, dist = [], [], []
    for t in np.unique(node_dates):
        members = np.nonzero(node_dates == t)[0]
        cands = None if scope == "within-date" else np.nonzero(node_dates != t)[0]
        for a, b, d in _k_nearest(members, cands, k, feature_distance):
            if scope == "within-date":
                a, b = np.minimum(a, b), np.maximum(a, b)
            else:
                past = node_dates[a] < node_dates[b]
                a, b = np.where(past, a, b), np.where(past, b, a)
            src.append(a)
            dst.append(b)
            dist.append(d)
    pairs, dist = _unique_pairs(src, dst, dist)
    # d ** 2 on Python floats (libm pow) differs from NumPy's d * d in the
    # last bit for some d; the weights keep the scalar rule
    weights = np.exp(-np.array([d ** 2 for d in dist.tolist()]))
    kind = SPATIAL if scope == "within-date" else SPATIOTEMPORAL
    return [Edge(a, b, kind, w) for (a, b), w in zip(pairs.tolist(), weights.tolist())]


# candidate pairs per distance block: bounds builder memory whatever the
# number of nodes per date
_BLOCK_PAIRS = 1 << 16


def _row_blocks(rows: np.ndarray, n_cols: int):
    step = max(1, _BLOCK_PAIRS // max(1, n_cols))
    for lo in range(0, len(rows), step):
        yield rows[lo : lo + step]


def _k_nearest(rows: np.ndarray, cands: np.ndarray | None, k: int, distance):
    """Each row's ``k`` nearest candidates, in bounded blocks of
    ``(row, neighbor, distance)`` arrays. ``rows`` and ``cands`` hold ascending
    indices; ``cands=None`` makes every row's candidates the other rows.
    Equal distances resolve to the lower index."""
    m = len(rows) - 1 if cands is None else len(cands)
    if m == 0:
        return
    for block in _row_blocks(rows, m):
        if cands is None:
            # row i's candidates skip column i: 0..i-1, i+1..n-1
            pos = np.searchsorted(rows, block)[:, None]
            j = np.arange(m)[None, :]
            cols = rows[j + (j >= pos)]
        else:
            cols = np.broadcast_to(cands, (len(block), m))
        d = distance(block[:, None], cols)
        pick = smallest_k(d, k)
        yield (
            np.repeat(block, pick.shape[1]),
            np.take_along_axis(cols, pick, axis=1).ravel(),
            np.take_along_axis(d, pick, axis=1).ravel(),
        )


def _node_arrays(nodes: list[Node]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, dates and (row, col) centroids of ``nodes`` in ascending id order."""
    nodes = sorted(nodes, key=lambda n: n.id)
    ids = np.array([n.id for n in nodes], dtype=np.int64)
    dates = np.array([n.t for n in nodes], dtype=np.int64)
    cent = np.array([n.centroid for n in nodes], dtype=np.float64).reshape(len(nodes), 2)
    return ids, dates, cent


def _centroid_distance(cent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(cent[a, 0] - cent[b, 0], cent[a, 1] - cent[b, 1])


def _unique_pairs(src: list, dst: list, dist: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``(src, dst)`` pairs sorted with duplicates dropped, and
    their distances. A duplicate pair always carries the same distance, so
    which copy survives does not matter."""
    if not src:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    pairs = np.stack([np.concatenate(src), np.concatenate(dst)], axis=1)
    pairs, first = np.unique(pairs, axis=0, return_index=True)
    return pairs, np.concatenate(dist)[first]


def overlap_edges(seg: SegStack, min_pixels: int = 1) -> list[Edge]:
    """Directed edges between footprint-overlapping objects at consecutive
    dates; weight = |A & B| / min(|A|, |B|)."""
    if seg.shape[0] < 2:
        raise ShapeMismatch("overlap edges need at least two dates")
    return _lagged_overlap_edges(seg, 1, min_pixels)


def periodic_edges(seg: SegStack, lag: int, min_pixels: int = 1) -> list[Edge]:
    """Same overlap rule between dates t and t+lag (lag >= 2)."""
    if lag < 2:
        raise InvalidLag(f"lag must be >= 2, got {lag}")
    return _lagged_overlap_edges(seg, lag, min_pixels)


def _lagged_overlap_edges(seg: SegStack, lag: int, min_pixels: int) -> list[Edge]:
    if min_pixels < 1:
        raise ShapeMismatch(f"min_pixels must be >= 1, got {min_pixels}")
    size = np.bincount(seg.labels.ravel(), minlength=seg.n_objects)
    out = []
    for date in range(seg.shape[0] - lag):
        pairs, inter = label_pairs(seg.labels[date], seg.labels[date + lag])
        keep = inter >= min_pixels
        pairs, inter = pairs[keep], inter[keep]
        weight = inter / np.minimum(size[pairs[:, 0]], size[pairs[:, 1]])
        out.extend(Edge(a, b, SPATIOTEMPORAL, w) for (a, b), w in zip(pairs.tolist(), weight.tolist()))
    return out


# ---------------------------------------------------------------------------
# assembly


def nodes_from_seg(seg: SegStack, label_maps: np.ndarray | None = None) -> list[Node]:
    """One node per object with pixel count, centroid and (optionally) the
    modal class label of its pixels (-1 labels ignored; pure -1 -> None)."""
    geom = geom_features(seg).values
    dates = seg.object_dates()
    labels = [None] * seg.n_objects
    if label_maps is not None:
        table = seg.class_counts(label_maps)
        modal = table.argmax(axis=1).tolist()  # ties -> lower class id
        labels = [m if s > 0 else None for m, s in zip(modal, table.sum(axis=1).tolist())]
    out = []
    for obj in range(seg.n_objects):
        out.append(
            Node(
                id=obj,
                t=int(dates[obj]),
                pixel_count=int(geom[obj, 0]),
                centroid=(float(geom[obj, 1]), float(geom[obj, 2])),
                label=labels[obj],
            )
        )
    return out


def build_graph(
    seg: SegStack,
    features: FeatureMatrix | None = None,
    label_maps: np.ndarray | None = None,
    spatial: list | None = None,
    st: list | None = None,
    meta: dict | None = None,
) -> StGraph:
    """Assemble a graph from builder specs.

    ``spatial`` entries: "adjacency" | ("eps", R) | ("knn", K) | ("sim", K).
    ``st`` entries: ("overlap", MIN) | ("sim", K) | ("periodic", LAG[, MIN]).
    """
    nodes = nodes_from_seg(seg, label_maps)
    dates = seg.object_dates()
    es: list[Edge] = []
    est: list[Edge] = []
    for item in spatial or []:
        kind, args = _split_spec(item)
        if kind == "adjacency":
            for t in range(seg.shape[0]):
                es.extend(adjacency_edges(seg, t))
        elif kind == "eps":
            es.extend(eps_ball_edges(nodes, float(args[0])))
        elif kind == "knn":
            es.extend(knn_edges(nodes, int(args[0])))
        elif kind == "sim":
            if features is None:
                raise DimMismatch("similarity edges need a feature matrix")
            es.extend(similarity_edges(features, dates, "within-date", int(args[0])))
        else:
            raise ShapeMismatch(f"unknown spatial builder {kind!r}")
    for item in st or []:
        kind, args = _split_spec(item)
        if kind == "overlap":
            est.extend(overlap_edges(seg, int(args[0]) if args else 1))
        elif kind == "sim":
            if features is None:
                raise DimMismatch("similarity edges need a feature matrix")
            est.extend(similarity_edges(features, dates, "cross-date", int(args[0])))
        elif kind == "periodic":
            lag = int(args[0])
            minpx = int(args[1]) if len(args) > 1 else 1
            est.extend(periodic_edges(seg, lag, minpx))
        else:
            raise ShapeMismatch(f"unknown spatio-temporal builder {kind!r}")
    return StGraph(nodes, es, est, features=features, meta=meta)


def _split_spec(item) -> tuple[str, tuple]:
    if isinstance(item, str):
        return item, ()
    return item[0], tuple(item[1:])


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
    map is stored]).
    """
    t, c, h, w = cube_shape
    n_edges = len(g.spatial) + len(g.st)
    denom = f_v * g.n_nodes + n_edges + f_e * n_edges
    if map_stored:
        denom += t * h * w
    ratio = (c * t * h * w) / denom if denom > 0 else float("inf")

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


def import_graph(blob: bytes | str) -> StGraph:
    """The graph of a canonical JSON document; anything else raises
    ``ShapeMismatch`` (``UnknownNode`` for an edge to a missing node)."""
    try:
        doc = json.loads(blob)
    except UnicodeDecodeError as e:
        raise ShapeMismatch(f"graph document is not UTF-8 text: {e}") from None
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"graph document must be a JSON object, got {type(doc).__name__}")
    nodes = _json_array(doc, "nodes")
    edges = _json_array(doc, "edges")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ShapeMismatch(f"graph 'meta' must be an object, got {type(meta).__name__}")
    ids, t, px, cent = _json_columns(nodes, ("id", "t", "pixel_count", "centroid"), "node")
    ids, t, px = (_json_ints(v, f"node {k!r}") for k, v in (("id", ids), ("t", t), ("pixel_count", px)))
    try:
        centroid = np.array([(c[0], c[1]) for c in cent], dtype=np.float64).reshape(len(cent), 2)
        labels = [None if n.get("label") is None else int(n["label"]) for n in nodes]
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as e:
        raise ShapeMismatch(f"graph node centroid or label is malformed: {e}") from None

    src, dst, kind, w = _json_columns(edges, ("src", "dst", "kind", "w"), "edge")
    src, dst = _json_ints(src, "edge 'src'"), _json_ints(dst, "edge 'dst'")
    bad = [k for k in kind if k not in (SPATIAL, SPATIOTEMPORAL)]
    if bad:
        raise ShapeMismatch(f"edge kind must be 'S' or 'ST', got {bad[0]!r}")
    if not set(map(type, w)) <= {int, float}:
        bad = next(v for v in w if type(v) not in (int, float))
        raise ShapeMismatch(f"edge 'w' must be a number, got {bad!r}")
    try:
        w = np.array(w, dtype=np.float64)
    except OverflowError:
        raise ShapeMismatch("edge 'w' does not fit a float") from None
    is_s = np.array([k == SPATIAL for k in kind], dtype=bool)

    features = None
    rows = [n.get("features") for n in nodes]
    if all(r is not None for r in rows) and rows:
        if not (
            set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}
            and len(set(map(len, rows))) == 1
        ):
            raise ShapeMismatch("graph node features must be equal-length lists of numbers")
        try:
            values = np.array(rows, dtype=np.float64)
        except OverflowError:
            raise ShapeMismatch("graph node feature does not fit a float") from None
        names = meta.get("feature_names", [f"f{i}" for i in range(values.shape[1])])
        if not isinstance(names, list):
            raise ShapeMismatch("graph 'meta.feature_names' must be a list")
        order = np.argsort(ids, kind="stable")
        features = FeatureMatrix(values=values[order], names=list(names))
    meta = {k: v for k, v in meta.items() if k != "feature_names"}
    return StGraph.from_columns(
        ids, t, px, centroid, labels,
        (src[is_s], dst[is_s], w[is_s]),
        (src[~is_s], dst[~is_s], w[~is_s]),
        features=features,
        meta=meta,
    )


def _json_array(doc: dict, key: str) -> list:
    if key not in doc:
        raise ShapeMismatch(f"graph document has no {key!r}")
    if not isinstance(doc[key], list):
        raise ShapeMismatch(f"graph {key!r} must be a list, got {type(doc[key]).__name__}")
    return doc[key]


def _json_columns(items: list, keys: tuple[str, ...], what: str) -> list[list]:
    """``keys`` of every object in ``items``, one list per key."""
    try:
        return [[item[k] for item in items] for k in keys]
    except KeyError as e:
        raise ShapeMismatch(f"graph {what} without {e}") from None
    except TypeError:
        raise ShapeMismatch(f"graph {what}s must be JSON objects") from None


def _json_ints(values: list, what: str) -> np.ndarray:
    """``values`` as int64, each a JSON integer (no bool, no float)."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ShapeMismatch(f"{what} must be an integer, got {bad!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ShapeMismatch(f"{what} out of the 64-bit range") from None


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
