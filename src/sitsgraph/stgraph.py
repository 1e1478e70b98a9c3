"""Multi-relational spatio-temporal graph: assembly, queries, serialization.

Nodes are per-date objects. Edges split into two disjoint sets: spatial edges
(same date, undirected, stored once with src < dst) and spatio-temporal edges
(directed past -> future). The canonical serialization is JSON; GraphML and
DOT are lossy views for external viewers.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .errors import DimMismatch, InvalidLag, ShapeMismatch, TooFewNodes, UnknownNode
from .features import FeatureMatrix, geom_features
from .segmentation import SegStack, label_pairs, region_adjacency

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
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self._by_id = {n.id: n for n in self.nodes}
        for e in (*edges_spatial, *edges_st):
            if e.src not in self._by_id or e.dst not in self._by_id:
                raise UnknownNode(f"edge {e.src}->{e.dst} names a node that does not exist")
        self.edges_spatial = _canonical_spatial(edges_spatial)
        self.edges_st = _canonical_st(edges_st, self._by_id)
        self.features = features
        self.meta = dict(meta or {})
        self.validate()

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        seen = set()
        for e in self.edges_spatial:
            if e.src == e.dst:
                raise ShapeMismatch(f"self-loop on node {e.src}")
            if self._by_id[e.src].t != self._by_id[e.dst].t:
                raise ShapeMismatch(f"spatial edge {e.src}->{e.dst} crosses dates")
            if e.weight < 0:
                raise ShapeMismatch(f"negative weight on {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
            seen.add((e.dst, e.src))
        for e in self.edges_st:
            if e.src == e.dst:
                raise ShapeMismatch(f"self-loop on node {e.src}")
            if self._by_id[e.src].t >= self._by_id[e.dst].t:
                raise ShapeMismatch(f"temporal edge {e.src}->{e.dst} not oriented past->future")
            if e.weight < 0:
                raise ShapeMismatch(f"negative weight on {e.src}->{e.dst}")
            if (e.src, e.dst) in seen:
                raise ShapeMismatch(f"edge ({e.src},{e.dst}) present in both relation sets")
        if self.features is not None:
            if self.features.values.shape[0] != len(self.nodes):
                raise DimMismatch(
                    f"{self.features.values.shape[0]} feature rows for {len(self.nodes)} nodes"
                )
            # feature row i belongs to node id i
            if any(n.id != i for i, n in enumerate(self.nodes)):
                raise DimMismatch("feature-carrying graphs need contiguous node ids 0..n-1")

    # -- queries ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def dates(self) -> list[int]:
        return sorted({n.t for n in self.nodes})

    def nodes_at(self, t: int) -> list[Node]:
        return [n for n in self.nodes if n.t == t]

    def neighborhood(self, node_id: int, kind: str = SPATIAL, direction: str = "both") -> set[int]:
        """Neighbor ids. Spatial neighbors are symmetric; for temporal edges
        ``direction`` selects incoming ("in", from the past), outgoing ("out",
        to the future) or both."""
        self.node(node_id)
        out: set[int] = set()
        if kind == SPATIAL:
            for e in self.edges_spatial:
                if e.src == node_id:
                    out.add(e.dst)
                elif e.dst == node_id:
                    out.add(e.src)
            return out
        if kind != SPATIOTEMPORAL:
            raise ShapeMismatch(f"unknown edge kind {kind!r}")
        for e in self.edges_st:
            if direction in ("out", "both") and e.src == node_id:
                out.add(e.dst)
            if direction in ("in", "both") and e.dst == node_id:
                out.add(e.src)
        return out

    def st_degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        indeg = {n.id: 0 for n in self.nodes}
        outdeg = {n.id: 0 for n in self.nodes}
        for e in self.edges_st:
            outdeg[e.src] += 1
            indeg[e.dst] += 1
        return indeg, outdeg

    def feature_row(self, node_id: int) -> np.ndarray:
        if self.features is None:
            raise DimMismatch("graph carries no feature matrix")
        self.node(node_id)
        return self.features.values[node_id]


def _canonical_spatial(edges: list[Edge]) -> list[Edge]:
    dedup: dict[tuple[int, int], Edge] = {}
    for e in edges:
        a, b = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
        dedup[(a, b)] = Edge(a, b, SPATIAL, float(e.weight))
    return [dedup[k] for k in sorted(dedup)]


def _canonical_st(edges: list[Edge], by_id: dict[int, Node]) -> list[Edge]:
    dedup: dict[tuple[int, int], Edge] = {}
    for e in edges:
        a, b = e.src, e.dst
        if by_id[a].t > by_id[b].t:
            a, b = b, a
        dedup[(a, b)] = Edge(a, b, SPATIOTEMPORAL, float(e.weight))
    return [dedup[k] for k in sorted(dedup)]


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
        pick = _smallest(d, k)
        yield (
            np.repeat(block, pick.shape[1]),
            np.take_along_axis(cols, pick, axis=1).ravel(),
            np.take_along_axis(d, pick, axis=1).ravel(),
        )


def _smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Column positions of each row's ``k`` smallest entries, ordered by value
    and then by position (NaN last), as a stable argsort would give them."""
    if k >= d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    # every entry tied with the k-th value stays a candidate
    r, c = np.nonzero((d <= kth) | np.isnan(kth))
    order = np.lexsort((c, d[r, c], r))
    r, c = r[order], c[order]
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    return c[rank < k].reshape(d.shape[0], k)


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
    n_edges = len(g.edges_spatial) + len(g.edges_st)
    denom = f_v * g.n_nodes + n_edges + f_e * n_edges
    if map_stored:
        denom += t * h * w
    ratio = (c * t * h * w) / denom if denom > 0 else float("inf")

    per_date = {int(d): len(g.nodes_at(d)) for d in g.dates()}
    sp_deg: dict[int, int] = {n.id: 0 for n in g.nodes}
    for e in g.edges_spatial:
        sp_deg[e.src] += 1
        sp_deg[e.dst] += 1
    indeg, outdeg = g.st_degrees()

    def hist(d: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in d.values():
            out[v] = out.get(v, 0) + 1
        return dict(sorted(out.items()))

    return {
        "n_nodes": g.n_nodes,
        "n_edges_spatial": len(g.edges_spatial),
        "n_edges_st": len(g.edges_st),
        "nodes_per_date": per_date,
        "degree_hist_spatial": hist(sp_deg),
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
        return _to_graphml(g)
    if fmt == "dot":
        return _to_dot(g).encode()
    raise ShapeMismatch(f"unknown export format {fmt!r}")


def _to_json(g: StGraph) -> str:
    nodes = []
    for n in g.nodes:
        row = None
        if g.features is not None:
            row = [float(x) for x in g.features.values[n.id]]
        nodes.append(
            {
                "id": n.id,
                "t": n.t,
                "pixel_count": n.pixel_count,
                "centroid": [n.centroid[0], n.centroid[1]],
                "features": row,
                "label": n.label,
            }
        )
    edges = [
        {"src": e.src, "dst": e.dst, "kind": e.kind, "w": e.weight}
        for e in list(g.edges_spatial) + list(g.edges_st)
    ]
    meta = dict(g.meta)
    if g.features is not None:
        meta["feature_names"] = list(g.features.names)
    return json.dumps({"nodes": nodes, "edges": edges, "meta": meta}, indent=1)


def import_graph(blob: bytes | str) -> StGraph:
    doc = json.loads(blob)
    nodes = [
        Node(
            id=int(n["id"]),
            t=int(n["t"]),
            pixel_count=int(n["pixel_count"]),
            centroid=(float(n["centroid"][0]), float(n["centroid"][1])),
            label=None if n.get("label") is None else int(n["label"]),
        )
        for n in doc["nodes"]
    ]
    es, est = [], []
    for e in doc["edges"]:
        edge = Edge(int(e["src"]), int(e["dst"]), e["kind"], float(e["w"]))
        (es if e["kind"] == SPATIAL else est).append(edge)
    features = None
    rows = [n.get("features") for n in doc["nodes"]]
    if all(r is not None for r in rows) and rows:
        names = doc.get("meta", {}).get(
            "feature_names", [f"f{i}" for i in range(len(rows[0]))]
        )
        order = np.argsort([n["id"] for n in doc["nodes"]])
        features = FeatureMatrix(values=np.asarray(rows, dtype=np.float64)[order], names=list(names))
    meta = {k: v for k, v in doc.get("meta", {}).items() if k != "feature_names"}
    return StGraph(nodes, es, est, features=features, meta=meta)


def _to_graphml(g: StGraph) -> bytes:
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for kid, name, target, typ in (
        ("d0", "t", "node", "int"),
        ("d1", "pixel_count", "node", "int"),
        ("d2", "label", "node", "int"),
        ("d3", "kind", "edge", "string"),
        ("d4", "weight", "edge", "double"),
    ):
        ET.SubElement(root, "key", id=kid, attrib={"for": target, "attr.name": name, "attr.type": typ})
    graph = ET.SubElement(root, "graph", id="G", edgedefault="directed")
    for n in g.nodes:
        el = ET.SubElement(graph, "node", id=f"n{n.id}")
        ET.SubElement(el, "data", key="d0").text = str(n.t)
        ET.SubElement(el, "data", key="d1").text = str(n.pixel_count)
        if n.label is not None:
            ET.SubElement(el, "data", key="d2").text = str(n.label)
    for e in list(g.edges_spatial) + list(g.edges_st):
        el = ET.SubElement(graph, "edge", source=f"n{e.src}", target=f"n{e.dst}")
        ET.SubElement(el, "data", key="d3").text = e.kind
        ET.SubElement(el, "data", key="d4").text = repr(e.weight)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def _to_dot(g: StGraph) -> str:
    # spatial edges solid, spatio-temporal dashed; node size tracks pixel count
    max_px = max((n.pixel_count for n in g.nodes), default=1)
    lines = ["digraph stgraph {"]
    for n in g.nodes:
        size = 0.2 + 0.8 * n.pixel_count / max_px
        label = f"{n.id} (t={n.t})"
        lines.append(
            f'  n{n.id} [label="{escape(label)}", width={size:.3f}, height={size:.3f}, fixedsize=true];'
        )
    for e in g.edges_spatial:
        lines.append(f'  n{e.src} -> n{e.dst} [dir=none, style=solid, weight_attr="{e.weight:g}"];')
    for e in g.edges_st:
        lines.append(f'  n{e.src} -> n{e.dst} [style=dashed, weight_attr="{e.weight:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
