"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (exhaustive scans,
flood fill, path enumeration, finite differences) and stays independent of
the library code paths it checks.
"""

from __future__ import annotations

import numpy as np


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


def _connected_components_4(labels: np.ndarray) -> np.ndarray:
    """4-connected component index per pixel, numbered in scan order."""
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
    comp = _connected_components_4(labels)
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
