"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (exhaustive scans,
flood fill, path enumeration, finite differences) and stays independent of
the library code paths it checks.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace
from typing import NamedTuple
from xml.sax.saxutils import escape

import numpy as np

from sitsgraph.errors import DimMismatch, ShapeMismatch, UnknownNode
from sitsgraph.stgraph import StGraph


def cc_equal_values(image: np.ndarray) -> np.ndarray:
    """8-connected components of exact value equality; 0-based labels in
    first-occurrence order. Oracle for threshold-free segmentation cases."""
    c, h, w = image.shape
    labels = np.full((h, w), -1, dtype=np.int64)
    nxt = 0
    for r0 in range(h):
        for c0 in range(w):
            if labels[r0, c0] >= 0:
                continue
            stack = [(r0, c0)]
            labels[r0, c0] = nxt
            while stack:
                r, cc = stack.pop()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, ccc = r + dr, cc + dc
                        if (
                            0 <= rr < h
                            and 0 <= ccc < w
                            and labels[rr, ccc] < 0
                            and np.array_equal(image[:, rr, ccc], image[:, r, cc])
                        ):
                            labels[rr, ccc] = nxt
                            stack.append((rr, ccc))
            nxt += 1
    return labels


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, ra: int, rb: int) -> int:
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def _grid_edges_8(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, h, w = image.shape
    flat = image.reshape(c, h * w).T.astype(np.float64)  # (HW, C)
    idx = np.arange(h * w).reshape(h, w)
    pairs = []
    if w > 1:
        pairs.append((idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    if h > 1:
        pairs.append((idx[:-1, :].ravel(), idx[1:, :].ravel()))
    if h > 1 and w > 1:
        pairs.append((idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()))
        pairs.append((idx[:-1, 1:].ravel(), idx[1:, :-1].ravel()))
    if not pairs:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))
    src = np.concatenate([p[0] for p in pairs])
    dst = np.concatenate([p[1] for p in pairs])
    weight = np.sqrt(((flat[src] - flat[dst]) ** 2).sum(axis=1))
    return src, dst, weight


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    flat = labels.ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].reshape(labels.shape).astype(np.int32)


def brute_felzenszwalb(image: np.ndarray, scale: float, min_size: int = 1) -> np.ndarray:
    """Graph-based merge segmentation with a NumPy-array union-find: the
    sequential Kruskal merge (ties by weight, src, dst), then the min_size
    pass over every edge in the same order, then first-occurrence labels."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = image[None]
    c, h, w = image.shape
    src, dst, weight = _grid_edges_8(image)
    order = np.lexsort((dst, src, weight))
    src, dst, weight = src[order], dst[order], weight[order]

    uf = _UnionFind(h * w)
    internal = np.zeros(h * w, dtype=np.float64)  # max MST edge weight per component root
    for a, b, wt in zip(src.tolist(), dst.tolist(), weight.tolist()):
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        if wt <= min(internal[ra] + scale / uf.size[ra], internal[rb] + scale / uf.size[rb]):
            internal[uf.union(ra, rb)] = wt

    if min_size > 1:
        for a, b in zip(src.tolist(), dst.tolist()):
            ra, rb = uf.find(a), uf.find(b)
            if ra != rb and (uf.size[ra] < min_size or uf.size[rb] < min_size):
                uf.union(ra, rb)

    roots = np.array([uf.find(i) for i in range(h * w)], dtype=np.int64)
    return _relabel_first_occurrence(roots.reshape(h, w))


def brute_components(labels: np.ndarray) -> np.ndarray:
    """4-connected component index per pixel, numbered in scan order: a
    depth-first flood fill from each unvisited pixel in scan order."""
    h, w = labels.shape
    comp = np.full((h, w), -1, dtype=np.int64)
    n = 0
    for r0 in range(h):
        for c0 in range(w):
            if comp[r0, c0] >= 0:
                continue
            lab = labels[r0, c0]
            stack = [(r0, c0)]
            comp[r0, c0] = n
            while stack:
                r, cc = stack.pop()
                for rr, ccc in ((r - 1, cc), (r + 1, cc), (r, cc - 1), (r, cc + 1)):
                    if 0 <= rr < h and 0 <= ccc < w and comp[rr, ccc] < 0 and labels[rr, ccc] == lab:
                        comp[rr, ccc] = n
                        stack.append((rr, ccc))
            n += 1
    return comp


def brute_enforce_connectivity(labels: np.ndarray, centers_rc: np.ndarray) -> np.ndarray:
    """SLIC connectivity pass with Python adjacency sets: every fragment but
    the largest of each label goes to the adjacent labeled fragment whose
    label center is nearest to the fragment centroid (ties to the lower
    label), in passes over the fragments in scan order."""
    h, w = labels.shape
    comp = brute_components(labels)
    n_comp = int(comp.max()) + 1
    flatc = comp.ravel()
    comp_label = labels.ravel()[np.unique(flatc, return_index=True)[1]]
    comp_size = np.bincount(flatc, minlength=n_comp)

    adj: list[set[int]] = [set() for _ in range(n_comp)]
    for a, b in ((comp[:, :-1], comp[:, 1:]), (comp[:-1, :], comp[1:, :])):
        diff = a != b
        for x, y in zip(a[diff].tolist(), b[diff].tolist()):
            adj[x].add(y)
            adj[y].add(x)
    rsum = np.bincount(flatc, weights=np.repeat(np.arange(h), w), minlength=n_comp)
    csum = np.bincount(flatc, weights=np.tile(np.arange(w), h), minlength=n_comp)
    cent = np.stack([rsum / comp_size, csum / comp_size], axis=1)

    # keep the largest fragment per label (scan order wins ties)
    keep: dict[int, int] = {}
    for ci in range(n_comp):
        lab = int(comp_label[ci])
        if lab not in keep or comp_size[ci] > comp_size[keep[lab]]:
            keep[lab] = ci
    frag_label = np.full(n_comp, -1, dtype=np.int64)
    for lab, ci in keep.items():
        frag_label[ci] = lab

    pending = [ci for ci in range(n_comp) if frag_label[ci] < 0]
    while pending:
        deferred = []
        progressed = False
        for ci in pending:
            cand = {int(frag_label[cj]) for cj in adj[ci] if frag_label[cj] >= 0}
            if not cand:
                deferred.append(ci)
                continue
            frag_label[ci] = min(
                cand, key=lambda lab: (((centers_rc[lab] - cent[ci]) ** 2).sum(), lab)
            )
            progressed = True
        if not progressed and deferred:
            # pocket fully surrounded by other orphans: retain the first as-is
            frag_label[deferred[0]] = comp_label[deferred[0]]
            deferred = deferred[1:]
        pending = deferred
    return frag_label[comp]


def _slic_grid(h: int, w: int, n_segments: int) -> tuple[int, int]:
    best = None
    for nrows in range(1, min(h, n_segments) + 1):
        ncols = min(w, max(1, round(n_segments / nrows)))
        score = (abs(nrows * ncols - n_segments), abs(h / nrows - w / ncols), nrows)
        if best is None or score < best[0]:
            best = (score, nrows, ncols)
    return best[1], best[2]


def _grid_positions(dim: int, n_axis: int) -> np.ndarray:
    k = np.arange(n_axis, dtype=np.int64)
    return ((2 * k + 1) * dim - n_axis) // (2 * n_axis)


def brute_lowest_gradient(img: np.ndarray, centers_rc: np.ndarray) -> np.ndarray:
    """Each center moved to the lowest central-difference gradient of its
    clipped 3x3 window, visited in row-major order with a strict ``<`` (the
    original pixel is kept on ties), one center at a time."""
    h, w = img.shape[:2]
    grad = np.zeros((h, w))
    if h > 2:
        grad[1:-1, :] += ((img[2:, :] - img[:-2, :]) ** 2).sum(-1)
    if w > 2:
        grad[:, 1:-1] += ((img[:, 2:] - img[:, :-2]) ** 2).sum(-1)
    out = centers_rc.copy()
    for k, (cy, cx) in enumerate(centers_rc):
        cy, cx = int(cy), int(cx)
        best = (grad[cy, cx], cy, cx)
        for r in range(max(0, cy - 1), min(h, cy + 2)):
            for cc in range(max(0, cx - 1), min(w, cx + 2)):
                if grad[r, cc] < best[0]:  # strict: keep the original on ties
                    best = (grad[r, cc], r, cc)
        out[k] = (best[1], best[2])
    return out


def brute_slic(image: np.ndarray, n_segments: int, compactness: float, iters: int = 10) -> np.ndarray:
    """SLIC superpixels with every pixel's center picked by a ``lexsort`` of
    all (pixel, d2, center id) candidate triples (NaN d2 last, ties to the
    lowest id), ``brute_lowest_gradient`` seeding and the flood-fill
    connectivity pass; first-occurrence int32 labels."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        image = image[None]
    c, h, w = image.shape

    step = float(np.sqrt(h * w / n_segments))
    nrows, ncols = _slic_grid(h, w, n_segments)
    rows = _grid_positions(h, nrows)
    cols = _grid_positions(w, ncols)
    centers_rc = np.array([(r, cc) for r in rows for cc in cols], dtype=np.float64)

    img = np.moveaxis(image, 0, -1)  # (H, W, C)
    centers_rc = brute_lowest_gradient(img, centers_rc)
    centers_color = img[centers_rc[:, 0].astype(int), centers_rc[:, 1].astype(int)].copy()

    n_centers = len(centers_rc)
    ratio2 = (compactness / step) ** 2
    half = int(np.ceil(step))
    offs = np.arange(-half, half + 2)  # covers floor..ceil of a fractional center
    dr = np.repeat(offs, len(offs))
    dc = np.tile(offs, len(offs))
    img_flat = img.reshape(h * w, c)
    center_ids = np.repeat(np.arange(n_centers), len(offs) ** 2)
    labels = np.full((h, w), -1, dtype=np.int64)

    for _ in range(iters):
        rows = np.clip(np.floor(centers_rc[:, 0]).astype(np.int64)[:, None] + dr, 0, h - 1)
        cols = np.clip(np.floor(centers_rc[:, 1]).astype(np.int64)[:, None] + dc, 0, w - 1)
        pix = (rows * w + cols).ravel()
        dcol2 = ((img_flat[pix] - np.repeat(centers_color, len(offs) ** 2, axis=0)) ** 2).sum(-1)
        dxy2 = (rows - centers_rc[:, 0][:, None]) ** 2 + (cols - centers_rc[:, 1][:, None]) ** 2
        d2 = dcol2 + ratio2 * dxy2.ravel()
        # per pixel: smallest distance wins, ties to the lowest center id
        order = np.lexsort((center_ids, d2, pix))
        sorted_pix = pix[order]
        first = np.ones(len(sorted_pix), dtype=bool)
        first[1:] = sorted_pix[1:] != sorted_pix[:-1]
        labels_flat = labels.ravel()
        labels_flat.fill(-1)
        labels_flat[sorted_pix[first]] = center_ids[order][first]

        unassigned = labels_flat < 0
        if unassigned.any():
            up = np.nonzero(unassigned)[0]
            pts = img_flat[up]
            dcol2 = ((pts[:, None, :] - centers_color[None]) ** 2).sum(-1)
            d2u = dcol2 + ratio2 * (
                (up[:, None] // w - centers_rc[None, :, 0]) ** 2
                + (up[:, None] % w - centers_rc[None, :, 1]) ** 2
            )
            # nearest center, NaN last and ties to the lower id
            labels_flat[up] = np.argsort(d2u, axis=1, kind="stable")[:, 0]

        counts = np.bincount(labels_flat, minlength=n_centers).astype(np.float64)
        rsum = np.bincount(labels_flat, weights=np.repeat(np.arange(h), w), minlength=n_centers)
        csum = np.bincount(labels_flat, weights=np.tile(np.arange(w), h), minlength=n_centers)
        nonzero = counts > 0
        centers_rc[nonzero, 0] = rsum[nonzero] / counts[nonzero]
        centers_rc[nonzero, 1] = csum[nonzero] / counts[nonzero]
        for ch in range(c):
            # the mean of the finite members; a center with none keeps its color
            v = img_flat[:, ch]
            ok = np.isfinite(v)
            n_ok = np.bincount(labels_flat[ok], minlength=n_centers)
            s = np.bincount(labels_flat[ok], weights=v[ok], minlength=n_centers)
            has = n_ok > 0
            centers_color[has, ch] = s[has] / n_ok[has]

    labels = brute_enforce_connectivity(labels, centers_rc)
    return _relabel_first_occurrence(labels)


def brute_adjacency(labels: np.ndarray) -> dict[tuple[int, int], int]:
    """All 4-neighbor label pairs with their boundary pair counts."""
    h, w = labels.shape
    out: dict[tuple[int, int], int] = {}
    for r in range(h):
        for c in range(w):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < h and cc < w and labels[r, c] != labels[rr, cc]:
                    key = (min(labels[r, c], labels[rr, cc]), max(labels[r, c], labels[rr, cc]))
                    out[key] = out.get(key, 0) + 1
    return {(int(a), int(b)): v for (a, b), v in out.items()}


def brute_eps_ball(
    centroids: dict[int, tuple[float, float]], eps: float, dates: dict[int, int] | None = None
) -> dict[tuple[int, int], float]:
    """Same-date pairs (lower id first) within centroid distance eps, with
    their distances. ``dates`` maps id -> date; omitted, all share one date."""
    ids = sorted(centroids)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if dates is not None and dates[a] != dates[b]:
                continue
            d = float(np.hypot(
                centroids[a][0] - centroids[b][0], centroids[a][1] - centroids[b][1]
            ))
            if d <= eps:
                out[(a, b)] = d
    return out


def brute_knn(
    centroids: dict[int, tuple[float, float]], k: int, dates: dict[int, int] | None = None
) -> dict[tuple[int, int], float]:
    """Symmetrized k nearest same-date centroids (ties to the lower id), with
    their distances."""
    ids = sorted(centroids)
    out = {}
    for a in ids:
        cand = sorted(
            (
                float(np.hypot(centroids[a][0] - centroids[b][0], centroids[a][1] - centroids[b][1])),
                b,
            )
            for b in ids
            if b != a and (dates is None or dates[a] == dates[b])
        )
        for d, b in cand[:k]:
            out.setdefault((min(a, b), max(a, b)), d)
    return out


def brute_similarity(
    feats: np.ndarray, dates: np.ndarray, scope: str, k: int
) -> dict[tuple[int, int], float]:
    """k most feature-similar nodes per node (ties to the lower index), with
    weights exp(-d^2)."""
    n = feats.shape[0]
    out = {}
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            same = dates[i] == dates[j]
            if (scope == "within-date") != same:
                continue
            cand.append((float(np.sqrt(((feats[j] - feats[i]) ** 2).sum())), j))
        cand.sort()
        for d, j in cand[:k]:
            if scope == "within-date":
                key = (min(i, j), max(i, j))
            else:
                key = (i, j) if dates[i] < dates[j] else (j, i)
            out.setdefault(key, float(np.exp(-d ** 2)))
    return out


def brute_overlap(
    lab_a: np.ndarray, lab_b: np.ndarray, min_pixels: int
) -> dict[tuple[int, int], float]:
    out = {}
    for a in np.unique(lab_a):
        for b in np.unique(lab_b):
            inter = int(((lab_a == a) & (lab_b == b)).sum())
            if inter >= min_pixels:
                sa = int((lab_a == a).sum())
                sb = int((lab_b == b).sum())
                out[(int(a), int(b))] = inter / min(sa, sb)
    return out


def brute_events(node_dates: dict[int, int], st_edges: list[tuple[int, int]]) -> set[tuple[int, str]]:
    indeg = {v: 0 for v in node_dates}
    outdeg = {v: 0 for v in node_dates}
    for a, b in st_edges:
        outdeg[a] += 1
        indeg[b] += 1
    t_min = min(node_dates.values())
    t_max = max(node_dates.values())
    out = set()
    for v, t in node_dates.items():
        if indeg[v] == 0 and t > t_min:
            out.add((v, "appearance"))
        if outdeg[v] == 0 and t < t_max:
            out.add((v, "disappearance"))
        if outdeg[v] >= 2:
            out.add((v, "split"))
        if indeg[v] >= 2:
            out.add((v, "merge"))
        if indeg[v] == 1 and outdeg[v] == 1:
            out.add((v, "continuation"))
    return out


def enumerate_patterns(
    symbols: dict[int, int],
    st_edges: list[tuple[int, int]],
    minsup: int,
    maxlen: int,
) -> dict[tuple[int, ...], int]:
    """Exhaustive path enumeration; support = distinct start nodes."""
    succ: dict[int, list[int]] = {v: [] for v in symbols}
    for a, b in st_edges:
        succ[a].append(b)
    starts: dict[tuple[int, ...], set[int]] = {}

    def walk(start: int, node: int, pattern: tuple[int, ...]):
        starts.setdefault(pattern, set()).add(start)
        if len(pattern) >= maxlen:
            return
        for nxt in succ[node]:
            walk(start, nxt, pattern + (symbols[nxt],))

    for v in symbols:
        walk(v, v, (symbols[v],))
    return {p: len(s) for p, s in starts.items() if len(s) >= minsup}


# ---------------------------------------------------------------------------
# graph storage and writers: the per-object implementation that the columnar
# StGraph replaced, kept as the reference its columns and bytes must match.
# Graphs are written as ``OracleNode`` and ``OracleEdge`` lists;
# ``graph_from_objects`` turns them into a StGraph and ``graph_objects`` turns
# a StGraph back into them.


class OracleNode(NamedTuple):
    id: int
    t: int
    pixel_count: int
    centroid: tuple[float, float]   # (row, col)
    label: int | None = None


class OracleEdge(NamedTuple):
    src: int
    dst: int
    kind: str
    weight: float


def graph_from_objects(nodes, spatial, st, features=None, meta=None):
    """The StGraph of node and edge objects (anything with the fields of
    ``OracleNode`` and ``OracleEdge``), built from their columns."""
    nodes = list(nodes)

    def edge_columns(edges):
        edges = list(edges)
        return (
            np.array([e.src for e in edges], dtype=np.int64),
            np.array([e.dst for e in edges], dtype=np.int64),
            np.array([e.weight for e in edges], dtype=np.float64),
        )

    return StGraph(
        np.array([n.id for n in nodes], dtype=np.int64),
        np.array([n.t for n in nodes], dtype=np.int64),
        np.array([n.pixel_count for n in nodes], dtype=np.int64),
        np.array([n.centroid for n in nodes], dtype=np.float64).reshape(len(nodes), 2),
        [n.label for n in nodes],
        edge_columns(spatial),
        edge_columns(st),
        features=features,
        meta=meta,
    )


def graph_objects(g) -> SimpleNamespace:
    """The columns of StGraph ``g`` as objects, in stored order: ``nodes``
    (``OracleNode``), ``edges_spatial`` and ``edges_st`` (``OracleEdge``),
    plus its ``features`` and ``meta``."""

    def edges(kind, rel):
        return tuple(OracleEdge(a, b, kind, w) for a, b, w in zip(rel.src.tolist(), rel.dst.tolist(), rel.weight.tolist()))

    nodes = tuple(
        OracleNode(i, t, px, (r, c), lab)
        for i, t, px, (r, c), lab in zip(g.ids.tolist(), g.t.tolist(), g.pixel_count.tolist(), g.centroid.tolist(), g.labels)
    )
    return SimpleNamespace(
        nodes=nodes, edges_spatial=edges("S", g.spatial), edges_st=edges("ST", g.st), features=g.features, meta=g.meta
    )


def _canonical_spatial(edges) -> list[OracleEdge]:
    dedup: dict[tuple[int, int], OracleEdge] = {}
    for e in edges:
        a, b = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
        dedup[(a, b)] = OracleEdge(a, b, "S", float(e.weight))
    return [dedup[k] for k in sorted(dedup)]


def _canonical_st(edges, by_id) -> list[OracleEdge]:
    dedup: dict[tuple[int, int], OracleEdge] = {}
    for e in edges:
        a, b = e.src, e.dst
        if by_id[a].t > by_id[b].t:
            a, b = b, a
        dedup[(a, b)] = OracleEdge(a, b, "ST", float(e.weight))
    return [dedup[k] for k in sorted(dedup)]


def _validate(nodes, by_id, edges_spatial, edges_st, features) -> None:
    seen = set()
    for e in edges_spatial:
        if e.src == e.dst:
            raise ShapeMismatch(f"self-loop on node {e.src}")
        if by_id[e.src].t != by_id[e.dst].t:
            raise ShapeMismatch(f"spatial edge {e.src}->{e.dst} crosses dates")
        if e.weight < 0:
            raise ShapeMismatch(f"negative weight on {e.src}->{e.dst}")
        seen.add((e.src, e.dst))
        seen.add((e.dst, e.src))
    for e in edges_st:
        if e.src == e.dst:
            raise ShapeMismatch(f"self-loop on node {e.src}")
        if by_id[e.src].t >= by_id[e.dst].t:
            raise ShapeMismatch(f"temporal edge {e.src}->{e.dst} not oriented past->future")
        if e.weight < 0:
            raise ShapeMismatch(f"negative weight on {e.src}->{e.dst}")
        if (e.src, e.dst) in seen:
            raise ShapeMismatch(f"edge ({e.src},{e.dst}) present in both relation sets")
    if features is not None:
        if features.values.shape[0] != len(nodes):
            raise DimMismatch(f"{features.values.shape[0]} feature rows for {len(nodes)} nodes")
        if any(n.id != i for i, n in enumerate(nodes)):
            raise DimMismatch("feature-carrying graphs need contiguous node ids 0..n-1")


def canonical_graph(nodes, edges_spatial, edges_st, features=None):
    """(nodes by id, spatial edges, temporal edges) as the per-object
    constructor stored them, or its error for an invalid graph. Node ids are
    assumed unique."""
    nodes = sorted(nodes, key=lambda n: n.id)
    by_id = {n.id: n for n in nodes}
    for e in (*edges_spatial, *edges_st):
        if e.src not in by_id or e.dst not in by_id:
            raise UnknownNode(f"edge {e.src}->{e.dst} names a node that does not exist")
    spatial = _canonical_spatial(edges_spatial)
    st = _canonical_st(edges_st, by_id)
    _validate(nodes, by_id, spatial, st, features)
    return nodes, spatial, st


def json_oracle(g) -> bytes:
    g = graph_objects(g)
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
    return json.dumps({"nodes": nodes, "edges": edges, "meta": meta}, indent=1).encode()


def graphml_oracle(g) -> bytes:
    g = graph_objects(g)
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


def dot_oracle(g) -> bytes:
    g = graph_objects(g)
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
    return ("\n".join(lines) + "\n").encode()


def temporal_profile_oracle(g, seed_node: int, feature_index: int, direction: str) -> list[tuple[int, float]]:
    g = graph_objects(g)
    by_id = {n.id: n for n in g.nodes}
    samples = [(by_id[seed_node].t, float(g.features.values[seed_node][feature_index]))]
    current = seed_node
    visited = {current}
    while True:
        best = None
        for e in g.edges_st:
            if direction == "out" and e.src == current:
                cand = (-e.weight, e.dst)
            elif direction == "in" and e.dst == current:
                cand = (-e.weight, e.src)
            else:
                continue
            if best is None or cand < best:
                best = cand
        if best is None or best[1] in visited:
            break
        current = best[1]
        visited.add(current)
        samples.append((by_id[current].t, float(g.features.values[current][feature_index])))
    if direction == "in":
        samples.sort(key=lambda s: s[0])
    return samples


def witness_oracle(g, symbols: np.ndarray, pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The miner's example path for ``pattern``: the first start node in id
    order with a depth-first path over lowest-id successors."""
    g = graph_objects(g)
    sym = {n.id: int(symbols[i]) for i, n in enumerate(g.nodes)}
    succ: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    for e in g.edges_st:
        succ[e.src].append(e.dst)
    for v in succ:
        succ[v].sort()

    def find_path(start, pattern):
        if sym[start] != pattern[0]:
            return ()
        if len(pattern) == 1:
            return (start,)
        for nxt in succ[start]:
            tail = find_path(nxt, pattern[1:])
            if tail:
                return (start,) + tail
        return ()

    for start in sorted(sym):
        if sym[start] != pattern[0]:
            continue
        path = find_path(start, pattern)
        if path:
            return path
    return ()


def modal_label_accuracy(seg_labels: np.ndarray, truth: np.ndarray) -> float:
    """Accuracy of per-object modal labels, recomputed with plain loops."""
    correct = 0
    total = 0
    for obj in np.unique(seg_labels):
        vals = truth[seg_labels == obj]
        vals = vals[vals >= 0]
        if vals.size == 0:
            continue
        counts: dict[int, int] = {}
        for v in vals.tolist():
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        correct += best
        total += vals.size
    return correct / total


def brute_modal_labels(seg_labels: np.ndarray, truth: np.ndarray, n_objects: int) -> list[int | None]:
    """Per object id: the most frequent non-negative class of its pixels
    (ties to the lower class), or None when none of its pixels is labeled."""
    out: list[int | None] = []
    for obj in range(n_objects):
        vals = truth[seg_labels == obj]
        counts: dict[int, int] = {}
        for v in vals[vals >= 0].tolist():
            counts[v] = counts.get(v, 0) + 1
        out.append(min(counts, key=lambda c: (-counts[c], c)) if counts else None)
    return out


def fd_gradient(f, arrays: list[np.ndarray], h: float = 1e-4) -> list[np.ndarray]:
    """Central finite differences of scalar f(arrays) wrt every entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        it = np.nditer(a, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = a[idx]
            a[idx] = old + h
            fp = f()
            a[idx] = old - h
            fm = f()
            a[idx] = old
            g[idx] = (fp - fm) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def addat_scatter_add_rows(x: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Row sums by ``np.add.at``: the forward of ``autograd.scatter_add_rows``
    before it summed over a ``ScatterPlan``."""
    idx = np.asarray(idx, dtype=np.int64)
    data = np.zeros((n_rows, x.shape[1]), dtype=x.dtype)
    np.add.at(data, idx, x)
    return data


def addat_gather_rows_backward(x: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``x[idx]`` by ``np.add.at``: the backward of
    ``autograd.gather_rows`` before it summed over a ``ScatterPlan``."""
    idx = np.asarray(idx, dtype=np.int64)
    acc = np.zeros_like(x)
    np.add.at(acc, idx, g)
    return acc


def brute_decoder(centroids: np.ndarray, h: int, w: int, k: int) -> np.ndarray:
    """Decoder sources of every pixel of an (h, w) frame by the dense search:
    all squared pixel-to-centroid distances at once, a stable argsort, and
    each pixel's ``k`` nearest centroids (ties to the lower region id)."""
    pix = np.stack(
        [np.repeat(np.arange(h), w).astype(np.float64), np.tile(np.arange(w), h).astype(np.float64)], axis=1
    )
    d2 = ((pix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k].ravel().astype(np.int64)


def brute_k_nearest(rows, cands, k: int, points: np.ndarray):
    """Each row's ``k`` nearest candidates by Euclidean distance between
    ``points``, one row at a time: a stable argsort of the row's distances
    (NaN last, ties to the earlier candidate). ``cands=None`` makes a row's
    candidates the other rows. Returns ``(row, neighbor, distance)`` lists."""
    out_r, out_n, out_d = [], [], []
    for r in rows:
        c = np.array([x for x in rows if x != r] if cands is None else list(cands), dtype=np.int64)
        d = np.sqrt(((points[c] - points[r]) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:k]
        out_r += [r] * len(order)
        out_n += c[order].tolist()
        out_d += d[order].tolist()
    return out_r, out_n, out_d


def reference_batchnorm(x, gamma, beta, running_mean, running_var, train: bool):
    """Batch norm by ``x.mean`` and ``x.var``, as one tape record with no ReLU:
    the op ``autograd.batchnorm`` was before it took the batch mean once,
    reused its buffers and carried the ReLU that follows it."""
    from sitsgraph.neural import autograd as ag

    if train:
        mean = x.data.mean(axis=0, keepdims=True)
        var = x.data.var(axis=0, keepdims=True)
        running_mean *= 1.0 - ag.BN_MOMENTUM
        running_mean += ag.BN_MOMENTUM * mean[0]
        running_var *= 1.0 - ag.BN_MOMENTUM
        running_var += ag.BN_MOMENTUM * var[0]
    else:
        mean = running_mean[None, :]
        var = running_var[None, :]
    inv = 1.0 / np.sqrt(var + ag.BN_EPS)
    xhat = (x.data - mean) * inv
    needs = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = ag.Tensor(xhat * gamma.data + beta.data, requires_grad=needs)

    def backward(g):
        if gamma.requires_grad:
            gamma.slot.accumulate((g * xhat).sum(axis=0, keepdims=True))
        if beta.requires_grad:
            beta.slot.accumulate(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            gy = g * gamma.data
            if train:
                x.slot.accumulate(inv * (gy - gy.mean(axis=0, keepdims=True) - xhat * (gy * xhat).mean(axis=0, keepdims=True)))
            else:
                x.slot.accumulate(gy * inv)

    return ag._emit(out, backward)


def unfused_gcn_conv(x, rel, w, bias=None):
    """``nn.gcn_conv`` from separate records: gather each edge's source row,
    scale it by its coefficient, scatter it onto its target and add the
    scaled self-loop."""
    from sitsgraph.neural import autograd as ag

    s, d = rel.src.idx, rel.dst.idx
    deg = (rel.dst.counts + 1).astype(x.data.dtype)
    h = ag.linear(x, w)
    msg = ag.scale_rows(ag.gather_rows(h, rel.src), 1.0 / np.sqrt(deg[s] * deg[d]))
    out = ag.add(ag.scatter_add_rows(msg, rel.dst), ag.scale_rows(h, 1.0 / np.sqrt(deg * deg)))
    return out if bias is None else ag.add(out, bias)


def unfused_sage_conv(x, rel, w_self, w_neigh):
    """``nn.sage_conv`` from separate gather, scatter and scale records."""
    from sitsgraph.neural import autograd as ag

    deg = rel.dst.counts.astype(x.data.dtype)
    neigh_sum = ag.scatter_add_rows(ag.gather_rows(x, rel.src), rel.dst)
    neigh_mean = ag.scale_rows(neigh_sum, 1.0 / np.maximum(deg, 1.0))
    return ag.add(ag.linear(x, w_self), ag.linear(neigh_mean, w_neigh))


def unfused_edge_update(x, e, rel, mlp_e, enc):
    """The forecaster's row-wise edge stage from separate records: both ends
    gathered by ``gather_rows`` (by plain indexing over a block of edges),
    ``concat_cols`` and an ``add`` of the residual after the edge MLP."""
    from sitsgraph.neural import autograd as ag

    def gather(rows, plan):
        return ag.gather_rows(x, plan) if rows.hi is None else ag.Tensor(x.data[plan.idx[rows.lo : rows.hi]])

    def stage(rows):
        e_rows = rows(e) if enc is None else enc(rows(e))
        return ag.add(e_rows, mlp_e(ag.concat_cols([e_rows, gather(rows, rel.src), gather(rows, rel.dst)])))

    return stage


def unfused_node_update(x, agg, mlp_v):
    """The forecaster's node update from ``concat_cols`` and an ``add`` of
    the residual, into a new array."""
    from sitsgraph.forecast.model import row_wise
    from sitsgraph.neural import autograd as ag

    return row_wise(lambda rows: ag.add(rows(x), mlp_v(ag.concat_cols([rows(x), rows(agg)]))), x.data.shape[0])
