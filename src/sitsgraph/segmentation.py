"""Per-date partitioning of a cube into objects.

Two segmenters are provided: a graph-based merge segmentation on the
8-connected pixel grid (threshold tau(comp) = scale/|comp| with a minimum
component size post-pass) and a superpixel k-means in joint (band, xy) space
with grid initialization and a 4-connectivity enforcement pass. Both are
deterministic: edge sorting breaks ties by (weight, src, dst), and each
superpixel iteration gives every pixel the lexicographic minimum of
(distance with NaN last, center id) over its candidate centers. That
minimum needs no sort: a scatter ``fmin`` takes each pixel's smallest
distance and a scatter ``minimum`` its lowest id at that distance, both
exact whatever the scatter order.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datacube import SitsCube, load_labels, save_labels
from .errors import EmptyImage, InvalidSegmentCount, MissingFile, ShapeMismatch, SitsGraphError
from .nearest import k_nearest


@dataclass
class SegStack:
    """Per-date object id map with ids globally unique across dates."""

    labels: np.ndarray              # (T, H, W) int32, >= 0 everywhere
    counts: list[int]               # objects per date
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.labels.ndim != 3:
            raise ShapeMismatch(f"labels must be (T,H,W), got {self.labels.shape}")
        if self.labels.min() < 0:
            raise ShapeMismatch("segmentation is not a total partition (negative ids)")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.labels.shape)

    @property
    def n_objects(self) -> int:
        return int(sum(self.counts))

    def object_dates(self) -> np.ndarray:
        """Date index per object id, shape (n_objects,)."""
        return np.repeat(np.arange(len(self.counts)), self.counts).astype(np.int64)

    def class_counts(self, label_maps: np.ndarray) -> np.ndarray:
        """(n_objects, n_classes) int64 table: pixels of each class per
        object, over every date. Negative class pixels are ignored; the table
        keeps at least one column when no pixel is labeled."""
        label_maps = np.asarray(label_maps)
        if label_maps.shape != self.shape:
            raise ShapeMismatch(f"label maps {label_maps.shape} do not match seg {self.shape}")
        cls = label_maps.ravel().astype(np.int64)
        ok = cls >= 0
        n_cls = int(cls.max(initial=0)) + 1
        key = self.labels.ravel()[ok].astype(np.int64) * n_cls + cls[ok]
        return np.bincount(key, minlength=self.n_objects * n_cls).reshape(self.n_objects, n_cls)


# ---------------------------------------------------------------------------
# label-map primitives


def label_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(a[i], b[i])`` pairs of two equally shaped non-negative
    integer arrays, as an ascending (n, 2) int64 array, and the number of
    positions holding each pair."""
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    base = int(b.max(initial=0)) + 1
    keys, counts = np.unique(a * base + b, return_counts=True)
    return np.stack([keys // base, keys % base], axis=1), counts


def region_adjacency(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regions of an (H, W) label map that touch across a 4-neighbour pixel
    pair: ascending ``(lo, hi)`` pairs and their boundary length in pixel
    pairs."""
    labels = np.asarray(labels)
    a = np.concatenate([labels[:, :-1].ravel(), labels[:-1, :].ravel()])
    b = np.concatenate([labels[:, 1:].ravel(), labels[1:, :].ravel()])
    diff = a != b
    a, b = a[diff], b[diff]
    return label_pairs(np.minimum(a, b), np.maximum(a, b))


def region_moments(labels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel count, row-index sum and column-index sum (float64, length
    ``n``) of every region of an (H, W) label map with ids in [0, n)."""
    h, w = labels.shape
    flat = labels.ravel()
    count = np.bincount(flat, minlength=n).astype(np.float64)
    rsum = np.bincount(flat, weights=np.repeat(np.arange(h), w), minlength=n)
    csum = np.bincount(flat, weights=np.tile(np.arange(w), h), minlength=n)
    return count, rsum, csum


# ---------------------------------------------------------------------------
# graph-based merge segmentation


def _grid_edges_8(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward 8-neighbor edges with Euclidean band-space weights."""
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


# edges converted to Python scalars at a time by the union-find loops, so a
# date holds three lists of this length rather than three of all its edges
_EDGE_CHUNK = 1 << 16


def _edge_rows(*columns: np.ndarray):
    """The rows of equally long 1-D arrays as tuples of Python scalars,
    converting ``_EDGE_CHUNK`` rows at a time."""
    return itertools.chain.from_iterable(
        zip(*(col[i : i + _EDGE_CHUNK].tolist() for col in columns))
        for i in range(0, len(columns[0]), _EDGE_CHUNK)
    )


def felzenszwalb(image: np.ndarray, scale: float, min_size: int = 1) -> np.ndarray:
    """Segment one (C, H, W) image; returns a 0-based int32 (H, W) partition."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] < 1:
        raise ShapeMismatch(f"image must be (C,H,W), got {image.shape}")
    c, h, w = image.shape
    if h * w == 0:
        raise EmptyImage("cannot segment an empty image")
    if not scale > 0:
        raise ShapeMismatch(f"scale must be > 0, got {scale}")
    if min_size < 1:
        raise ShapeMismatch(f"min_size must be >= 1, got {min_size}")

    scale = float(scale)  # float64 thresholds whatever scalar type scale has
    src, dst, weight = _grid_edges_8(image)
    order = np.lexsort((dst, src, weight))
    src, dst, weight = src[order], dst[order], weight[order]

    # union-find over plain lists (NumPy scalar indexing dominates otherwise);
    # thr[root] caches the merge threshold internal(comp) + scale / |comp|,
    # internal being the component's largest MST edge weight
    parent = list(range(h * w))
    size = [1] * (h * w)
    thr = [scale] * (h * w)
    for a, b, wt in _edge_rows(src, dst, weight):
        while parent[a] != a:  # find with path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b or not (wt <= thr[a] and wt <= thr[b]):  # NaN never merges
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        thr[a] = wt + scale / size[a]

    if min_size > 1:
        # merge any still-too-small component into its most-similar neighbor,
        # i.e. across the lowest-weight boundary edge first. Components only
        # grow, so an edge that joins one component, or two that already
        # reach min_size, can never merge anything: walk only the others.
        roots = _roots(parent)
        big = np.asarray(size)[roots] >= min_size
        live = (roots[src] != roots[dst]) & ~(big[src] & big[dst])
        for a, b in _edge_rows(src[live], dst[live]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b or (size[a] >= min_size and size[b] >= min_size):
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]

    return _relabel_first_occurrence(_roots(parent).reshape(h, w))


def _roots(parent: list[int] | np.ndarray) -> np.ndarray:
    """Root of every element of a union-find parent list (pointer jumping)."""
    par = np.asarray(parent, dtype=np.int64)
    while True:
        nxt = par[par]
        if np.array_equal(nxt, par):
            return par
        par = nxt


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    flat = labels.ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].reshape(labels.shape).astype(np.int32)


# ---------------------------------------------------------------------------
# superpixel k-means


def _slic_grid(h: int, w: int, n_segments: int) -> tuple[int, int]:
    """Grid dimensions whose product best approximates n_segments.

    The product never exceeds 1.5 * n_segments, keeping the final segment
    count within [1, 2 * n_segments].
    """
    best = None
    for nrows in range(1, min(h, n_segments) + 1):
        ncols = min(w, max(1, round(n_segments / nrows)))
        score = (abs(nrows * ncols - n_segments), abs(h / nrows - w / ncols), nrows)
        if best is None or score < best[0]:
            best = (score, nrows, ncols)
    return best[1], best[2]


def _grid_positions(dim: int, n_axis: int) -> np.ndarray:
    # integer centers of n_axis equal bands: ((2k+1)*dim - n_axis) // (2*n_axis)
    k = np.arange(n_axis, dtype=np.int64)
    return ((2 * k + 1) * dim - n_axis) // (2 * n_axis)


def slic(
    image: np.ndarray,
    n_segments: int,
    compactness: float,
    iters: int = 10,
) -> np.ndarray:
    """Superpixel partition of one (C, H, W) image; 0-based int32 (H, W).

    Each of the ``iters`` rounds gives every pixel the lowest center id
    among the candidates at its smallest squared distance
    ``dcol2 + ratio2 * dxy2``, the centers whose window covers the pixel.
    A NaN distance counts above every number, so a pixel whose candidates
    are all NaN goes to its lowest candidate id. A pixel no window covers
    takes the nearest of all centers by the same rule. Centers then
    move to their members' means, each color channel averaged over its
    finite members only, and a final pass makes every segment 4-connected."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ShapeMismatch(f"image must be (C,H,W), got {image.shape}")
    c, h, w = image.shape
    if h * w == 0:
        raise EmptyImage("cannot segment an empty image")
    if not (1 <= n_segments <= h * w):
        raise InvalidSegmentCount(f"n_segments must be in [1, {h * w}], got {n_segments}")
    if not compactness > 0:
        raise InvalidSegmentCount(f"compactness must be > 0, got {compactness}")
    if iters < 1:
        raise InvalidSegmentCount(f"iters must be >= 1, got {iters}")

    step = float(np.sqrt(h * w / n_segments))
    nrows, ncols = _slic_grid(h, w, n_segments)
    rows = _grid_positions(h, nrows)
    cols = _grid_positions(w, ncols)
    centers_rc = np.array([(r, cc) for r in rows for cc in cols], dtype=np.float64)

    img = np.moveaxis(image, 0, -1)  # (H, W, C)
    centers_rc = _move_to_lowest_gradient(img, centers_rc)
    centers_color = img[centers_rc[:, 0].astype(int), centers_rc[:, 1].astype(int)].copy()

    n_centers = len(centers_rc)
    ratio2 = (compactness / step) ** 2
    half = int(np.ceil(step))
    offs = np.arange(-half, half + 2)  # covers floor..ceil of a fractional center
    dr = np.repeat(offs, len(offs))
    dc = np.tile(offs, len(offs))
    img_flat = img.reshape(h * w, c)
    finite = np.isfinite(img_flat)
    center_ids = np.repeat(np.arange(n_centers), len(offs) ** 2)
    labels = np.empty((h, w), dtype=np.int64)
    labels_flat = labels.ravel()
    no_center = n_centers  # above every id: marks a pixel no window covers

    def d2u(a, b):
        # d2 of pixels a to centers b, for the pixels no window covers
        dcol2 = ((img_flat[a] - centers_color[b]) ** 2).sum(-1)
        return dcol2 + ratio2 * ((a // w - centers_rc[b, 0]) ** 2 + (a % w - centers_rc[b, 1]) ** 2)

    for _ in range(iters):
        # all candidate (center, pixel) pairs in one batch; border windows
        # clamp onto edge pixels, which only duplicates in-window entries
        rows = np.clip(np.floor(centers_rc[:, 0]).astype(np.int64)[:, None] + dr, 0, h - 1)
        cols = np.clip(np.floor(centers_rc[:, 1]).astype(np.int64)[:, None] + dc, 0, w - 1)
        pix = (rows * w + cols).ravel()
        dcol2 = ((img_flat[pix] - np.repeat(centers_color, len(offs) ** 2, axis=0)) ** 2).sum(-1)
        dxy2 = (rows - centers_rc[:, 0][:, None]) ** 2 + (cols - centers_rc[:, 1][:, None]) ** 2
        d2 = dcol2 + ratio2 * dxy2.ravel()
        # per pixel: the lowest id among the candidates at the smallest d2,
        # NaN counting above every number (fmin skips it, so a pixel's best
        # is NaN only when all its candidates are); both minima are exact,
        # so the scatter order cannot change them
        best = np.full(h * w, np.nan)
        np.fmin.at(best, pix, d2)
        best_pix = best[pix]
        win = (d2 == best_pix) | np.isnan(best_pix)
        labels_flat.fill(no_center)
        np.minimum.at(labels_flat, pix[win], center_ids[win])

        unassigned = labels_flat == no_center
        if unassigned.any():
            up = np.nonzero(unassigned)[0]
            labels_flat[up] = k_nearest(up, np.arange(n_centers), 1, d2u)[1]

        counts, rsum, csum = region_moments(labels, n_centers)
        nonzero = counts > 0
        centers_rc[nonzero, 0] = rsum[nonzero] / counts[nonzero]
        centers_rc[nonzero, 1] = csum[nonzero] / counts[nonzero]
        for ch in range(c):
            # the mean of the finite members; a center with none keeps its color
            ok = finite[:, ch]
            members = labels_flat[ok]
            n_ok = np.bincount(members, minlength=n_centers)
            s = np.bincount(members, weights=img_flat[ok, ch], minlength=n_centers)
            has = n_ok > 0
            centers_color[has, ch] = s[has] / n_ok[has]

    labels = _enforce_connectivity(labels, centers_rc)
    return _relabel_first_occurrence(labels)


def _move_to_lowest_gradient(img: np.ndarray, centers_rc: np.ndarray) -> np.ndarray:
    """Each center moved to the lowest central-difference gradient of its
    clipped 3x3 window. The window offsets are visited in row-major order
    with a strict ``<`` against the best so far, which starts at the center
    itself: the original pixel is kept on ties, and a NaN never wins."""
    h, w = img.shape[:2]
    grad = np.zeros((h, w))
    if h > 2:
        grad[1:-1, :] += ((img[2:, :] - img[:-2, :]) ** 2).sum(-1)
    if w > 2:
        grad[:, 1:-1] += ((img[:, 2:] - img[:, :-2]) ** 2).sum(-1)
    cy = centers_rc[:, 0].astype(np.int64)
    cx = centers_rc[:, 1].astype(np.int64)
    best_r, best_c = cy.copy(), cx.copy()
    best = grad[cy, cx]
    for dy in (-1, 0, 1):
        r = cy + dy
        for dx in (-1, 0, 1):
            cc = cx + dx
            inside = (r >= 0) & (r < h) & (cc >= 0) & (cc < w)
            g = grad[np.clip(r, 0, h - 1), np.clip(cc, 0, w - 1)]
            better = inside & (g < best)
            best = np.where(better, g, best)
            best_r = np.where(better, r, best_r)
            best_c = np.where(better, cc, best_c)
    return np.stack([best_r, best_c], axis=1).astype(np.float64)


def _connected_components(labels: np.ndarray) -> np.ndarray:
    """4-connected component index per pixel, numbered in scan order.

    Min-label propagation: every tree root hooks onto the smallest root
    across an equal-label 4-neighbour pair, then pointer jumping flattens
    the forest. Roots only decrease, so each component ends rooted at its
    first pixel in scan order."""
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    same_h = labels[:, :-1] == labels[:, 1:]
    same_v = labels[:-1, :] == labels[1:, :]
    a = np.concatenate([idx[:, :-1][same_h], idx[:-1, :][same_v]])
    b = np.concatenate([idx[:, 1:][same_h], idx[1:, :][same_v]])
    parent = idx.ravel().copy()
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb  # a pair inside one tree stays inside it
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, ra, rb)
        np.minimum.at(parent, rb, ra)
        parent = _roots(parent)
    is_root = parent == idx.ravel()
    return (np.cumsum(is_root) - 1)[parent].reshape(h, w)


def _enforce_connectivity(labels: np.ndarray, centers_rc: np.ndarray) -> np.ndarray:
    """Give every fragment but the largest of each (non-negative) label to
    the adjacent kept or already reassigned label whose center is nearest to
    the fragment's centroid (ties to the lower label)."""
    comp = _connected_components(labels)
    n_comp = int(comp.max()) + 1
    flatc = comp.ravel()
    comp_label = labels.ravel()[np.unique(flatc, return_index=True)[1]]
    comp_size, rsum, csum = region_moments(comp, n_comp)
    cent = np.stack([rsum / comp_size, csum / comp_size], axis=1)

    adj: list[list[int]] = [[] for _ in range(n_comp)]
    for a, b in region_adjacency(comp)[0].tolist():
        adj[a].append(b)
        adj[b].append(a)

    # keep the largest fragment per label (scan order wins ties)
    keep: dict[int, int] = {}
    for ci in range(n_comp):
        lab = int(comp_label[ci])
        if lab not in keep or comp_size[ci] > comp_size[keep[lab]]:
            keep[lab] = ci
    frag_label = np.full(n_comp, -1, dtype=np.int64)
    for lab, ci in keep.items():
        frag_label[ci] = lab

    # the grid is connected and every label keeps a fragment, so each pass
    # reassigns at least one pending fragment
    pending = np.nonzero(frag_label < 0)[0].tolist()
    while pending:
        deferred = []
        for ci in pending:
            cand = {int(frag_label[cj]) for cj in adj[ci] if frag_label[cj] >= 0}
            if not cand:
                deferred.append(ci)
                continue
            frag_label[ci] = min(
                cand, key=lambda lab: (((centers_rc[lab] - cent[ci]) ** 2).sum(), lab)
            )
        pending = deferred
    return frag_label[comp]


# Dates with fewer pixels than this run serially whatever the worker count:
# below it, forking and reaping the workers costs more than running dates
# side by side saves (see README, CLI)
POOL_MIN_PIXELS = 128 * 128


def date_workers(threads: int | None, dates: int, pixels: int) -> int:
    """Worker processes ``segment_cube`` runs ``dates`` dates of ``pixels``
    pixels each on: ``threads``, or by default the CPUs this process may run
    on, capped at ``dates``; 1, the serial path, below ``POOL_MIN_PIXELS``."""
    if pixels < POOL_MIN_PIXELS:
        return 1
    return min(threads or len(os.sched_getaffinity(0)), dates)


def _segment_date(job: tuple[np.ndarray, str, dict]) -> np.ndarray:
    """Labels of one date: the one per-date step of ``segment_cube``, run by
    the serial loop and by every worker process alike."""
    frame, algo, params = job
    if algo == "felzenszwalb":
        return felzenszwalb(frame, scale=float(params["scale"]), min_size=int(params.get("min_size", 1)))
    return slic(
        frame,
        n_segments=int(params["n_segments"]),
        compactness=float(params["compactness"]),
        iters=int(params.get("iters", 10)),
    )


def segment_cube(
    cube: SitsCube,
    algo: str,
    params: dict,
    band_subset: list[str] | None = None,
    threads: int | None = None,
) -> SegStack:
    """Segment every date independently and offset ids to be globally unique.
    Missing samples reach ``slic`` and ``felzenszwalb`` as NaN
    (``cube.masked_values()``).

    Dates run side by side in ``date_workers(threads, ...)`` processes forked
    from this one, each of which receives its dates' frames and returns
    their labels; the result does not depend on the worker count. An error
    raised in a worker is raised here with its own type and message."""
    t, c, h, w = cube.shape
    if algo not in ("felzenszwalb", "slic"):
        raise ShapeMismatch(f"unknown segmentation algorithm {algo!r}")
    if band_subset:
        idx = [cube.band_index(b) for b in band_subset]
    else:
        idx = list(range(c))
    values = cube.masked_values()
    jobs = [(values[k][idx], algo, params) for k in range(t)]

    workers = date_workers(threads, t, h * w)
    if workers > 1:
        # imported here: they cost every CLI process about 8 ms at start-up.
        # fork, not spawn: a spawned worker imports NumPy and the package
        # afresh, about 90 ms, most of what a worker saves on a 192² cube;
        # the pool forks all its workers before it starts a thread of its
        # own, and OpenBLAS, whose threads are the only others, stops them
        # around a fork
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                per_date = list(pool.map(_segment_date, jobs))
        except BrokenProcessPool as e:
            raise SitsGraphError(f"a segment worker process ended abruptly: {e}") from None
    else:
        per_date = list(map(_segment_date, jobs))

    labels = np.empty((t, h, w), dtype=np.int32)
    counts = []
    offset = 0
    for k, lab in enumerate(per_date):
        n = int(lab.max()) + 1
        labels[k] = lab + offset
        counts.append(n)
        offset += n
    return SegStack(
        labels=labels,
        counts=counts,
        provenance={"algorithm": algo, "params": dict(params), "bands": band_subset or list(cube.bands)},
    )


# ---------------------------------------------------------------------------
# serialization


def save_seg(seg: SegStack, path: str | Path) -> None:
    save_labels(seg.labels, path, stem="seg")
    meta = {
        "T": seg.labels.shape[0],
        "H": int(seg.labels.shape[1]),
        "W": int(seg.labels.shape[2]),
        "counts": [int(x) for x in seg.counts],
        "provenance": seg.provenance,
    }
    (Path(path) / "seg_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_seg(path: str | Path) -> SegStack:
    """Read ``save_seg`` output. Every required ``seg_meta.json`` key must be
    present, with one count per date, and each date's ids must lie in the
    range its count gives, ``[offset, offset + count)``."""
    path = Path(path)
    meta_path = path / "seg_meta.json"
    if not meta_path.is_file():
        raise MissingFile(f"missing {meta_path}")
    try:
        meta = json.loads(meta_path.read_bytes())
    except UnicodeDecodeError as e:
        raise ShapeMismatch(f"{meta_path} is not UTF-8 text: {e}") from None
    if not isinstance(meta, dict):
        raise ShapeMismatch(f"{meta_path} must hold a JSON object")
    missing = [k for k in ("T", "H", "W", "counts") if k not in meta]
    if missing:
        raise ShapeMismatch(f"{meta_path} lacks required key(s) {missing}")
    try:
        t, h, w = int(meta["T"]), int(meta["H"]), int(meta["W"])
        counts = [int(x) for x in meta["counts"]]
    except (TypeError, ValueError, OverflowError) as e:
        raise ShapeMismatch(f"{meta_path}: T, H, W and counts must be integers ({e})") from None
    if min(t, h, w) < 1:
        raise ShapeMismatch(f"{meta_path} declares T={t}, H={h}, W={w}; each must be >= 1")
    if len(counts) != t:
        raise ShapeMismatch(f"{meta_path} holds {len(counts)} counts for T={t} dates")
    labels = load_labels(path, t, h, w, stem="seg")
    offset = 0
    for k, n in enumerate(counts):
        if n > h * w:  # every object has a pixel; this also bounds the bincount below
            raise ShapeMismatch(f"{meta_path} declares {n} objects at date {k}, which has {h * w} pixels")
        lo, hi = int(labels[k].min()), int(labels[k].max())
        if lo < offset or hi >= offset + n:
            raise ShapeMismatch(
                f"date {k} of {path} holds object ids {lo}..{hi}, outside [{offset}, {offset + n}) from counts"
            )
        offset += n
    empty = np.flatnonzero(np.bincount(labels.ravel(), minlength=offset) == 0)
    if empty.size:
        raise ShapeMismatch(f"{meta_path} counts declare object {int(empty[0])}, which has no pixel")
    return SegStack(labels=labels, counts=counts, provenance=meta.get("provenance", {}))
