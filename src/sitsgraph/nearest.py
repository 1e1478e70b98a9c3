"""Nearest-neighbour search: each row's ``k`` nearest candidates by distance
and then by index, NaN last, as a stable argsort orders them, and every pair
of rows within a radius.

Both searches bucket the candidates on a uniform grid of square cells over
2-D points that bound the caller's distance from below (cell lists; Bentley,
CACM 1975). Rows that share a cell share one candidate block: at ring ``r``
the cell's (2r+1)^2 neighbourhood, its candidates in ascending index order,
scored by the caller's own ``distance``. No candidate outside the block lies
within ``r`` cells of the row, so a row is done once that bound exceeds its
k-th distance (or the radius), or once its block holds every candidate; a
cell's other rows go on to a ring as far out as they need. An input of one
distance block or less is a grid of one cell, which scores every candidate
at once, and a row whose point is not finite has every cell in its block.
Blocks are gathered a few cells at a time, at most ``BLOCK_PAIRS``
candidates in all (one cell at least), and distances come in blocks of at
most ``BLOCK_PAIRS`` (row, candidate) pairs, so the search's memory grows
with its output and the candidates, never with rows x candidates."""

from __future__ import annotations

import numpy as np

BLOCK_PAIRS = 1 << 16  # (row, candidate) pairs per distance block
# rows x width from which the rows of one cell share its one candidate list in
# a distance call of their own: below about a sixteenth of a block the extra
# call costs more than gathering a list per row (measured on the shapes of
# the decoder's, synth's and the cross-date similarity search)
_SHARED_PAIRS = BLOCK_PAIRS // 16
_MARGIN = 1e-9  # rounding margin: relative on a distance bound, in cells on a gap


def smallest_k(d: np.ndarray, k: int) -> np.ndarray:
    """Column positions of each row's ``k`` smallest entries of a 2-D array,
    ordered by value and then by position (NaN last), as a stable argsort
    would give them; all columns when ``k`` reaches the column count."""
    if k >= d.shape[1]:
        return np.argsort(d, axis=1, kind="stable")
    if k == 1:  # the first smallest; fmin skips NaN, so a row's best is NaN only when all are
        best = np.fmin.reduce(d, axis=1, keepdims=True)
        return np.argmax((d == best) | np.isnan(best), axis=1)[:, None]
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    # every entry tied with the k-th value stays a candidate
    r, c = np.nonzero((d <= kth) | np.isnan(kth))
    order = np.lexsort((c, d[r, c], r))
    r, c = r[order], c[order]
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    return c[rank < k].reshape(d.shape[0], k)


def _row_blocks(widths: np.ndarray):
    """Slices of rows in ascending order of width, each of at most
    ``BLOCK_PAIRS`` pairs at its largest width, one row at least."""
    lo = 0
    while lo < len(widths):
        # the rows a block holds at its first width bound the largest width it reaches
        step = max(1, BLOCK_PAIRS // max(1, widths[min(lo + BLOCK_PAIRS // max(1, widths[lo]), len(widths)) - 1]))
        yield slice(lo, lo + step)
        lo += step


def _cell_chunks(sizes: np.ndarray):
    """Slices of consecutive cells whose blocks take at most ``BLOCK_PAIRS``
    entries in all, one cell at least."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + BLOCK_PAIRS, side="right")))
        yield slice(lo, hi)
        lo = hi


class _Grid:
    """Candidate positions bucketed by cell in a stable sort, so each cell
    lists its candidates in index order. About ``n_cells`` square cells, none
    narrower than ``min_size``, span the finite points; the points that are
    not finite share one more bucket, which every block includes. ``bound``
    maps a gap between points to a lower bound of their distance."""

    def __init__(self, xy: np.ndarray, n_cells: int, min_size: float, bound):
        ok = np.isfinite(xy).all(axis=1)
        self.lo, self.size, self.shape, self.bound = np.zeros(2), 1.0, np.ones(2, dtype=np.int64), bound
        if n_cells > 1 and ok.any():
            lo = xy[ok].min(axis=0)
            span = xy[ok].max(axis=0) - lo
            # about n_cells cells over the bounding box, and no more than
            # n_cells along its longer side when the box is thin
            size = max(np.sqrt(span[0] * span[1] / n_cells), span.max() / n_cells, min_size)
            if 0 < size < np.inf:
                self.lo, self.size, self.shape = lo, size, (span // size).astype(np.int64) + 1
        self.n_cells = int(self.shape.prod())
        key = self.key(xy)
        self.order = np.argsort(key, kind="stable")
        self.starts = np.searchsorted(key[self.order], np.arange(self.n_cells + 2))
        # candidates in the cells below and left of each cell corner, for
        # the width of a block of cells in four lookups
        counts = np.diff(self.starts)
        self.below = np.zeros(self.shape + 1, dtype=np.int64)
        self.below[1:, 1:] = counts[:-1].reshape(self.shape).cumsum(axis=0).cumsum(axis=1)
        self.loose = counts[-1]

    def key(self, xy: np.ndarray) -> np.ndarray:
        """Each point's cell, clipped onto the grid, as ``x * ny + y``;
        ``n_cells`` for a point that is not finite."""
        u = (xy - self.lo) / self.size
        bad = ~(np.isfinite(u[:, 0]) & np.isfinite(u[:, 1]))
        u[bad] = 0.0
        cell = np.minimum(np.maximum(np.floor(u, out=u), 0, out=u), self.shape - 1, out=u).astype(np.int64)
        key = cell[:, 0] * self.shape[1] + cell[:, 1]
        key[bad] = self.n_cells
        return key

    def floor(self, r):
        """A lower bound of the distance from a point of a cell to every point
        of a cell more than ``r`` cells away from it."""
        return self.bound((r - _MARGIN) * self.size) * (1 - _MARGIN)

    def widths(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The candidate count of the blocks of cells ``lo[i]..hi[i]`` (both
        corners included) and of the bucket of points that are not finite."""
        t, x0, y0, x1, y1 = self.below, lo[:, 0], lo[:, 1], hi[:, 0] + 1, hi[:, 1] + 1
        return t[x1, y1] - t[x0, y1] - t[x1, y0] + t[x0, y0] + self.loose

    def blocks(self, lo: np.ndarray, hi: np.ndarray, width: np.ndarray) -> np.ndarray:
        """The candidate positions of the blocks of ``widths(lo, hi)``, each
        block in ascending order, in one flat array."""
        nb, ny = len(lo), self.shape[1]
        strips = hi[:, 0] - lo[:, 0] + 2  # one per column of cells, and the bucket
        b = np.repeat(np.arange(nb), strips)
        x = lo[b, 0] + np.arange(len(b)) - np.repeat(np.cumsum(strips) - strips, strips)
        bucket = x > hi[b, 0]
        first = self.starts[np.where(bucket, self.n_cells, x * ny + lo[b, 1])]
        lens = self.starts[np.where(bucket, self.n_cells + 1, x * ny + hi[b, 1] + 1)] - first
        pos = self.order[np.repeat(first - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
        m = len(self.order)
        return np.sort(np.repeat(b, lens) * m + pos) - np.repeat(np.arange(nb) * m, width)


def _done(floor: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Rows whose block holds every candidate, or whose bound beyond their
    block exceeds their reach: the k-th distance or the radius."""
    return (floor == np.inf) | (floor > reach)


def _search(rows, cands, distance, xy, bound, per_cell: int, min_size: float, settle) -> None:
    """Offer each row its block of candidates, ring by ring, on a grid of one
    cell per ``per_cell`` candidates, none narrower than ``min_size``, until
    its block holds every candidate or the ring's bound exceeds the reach
    that ``settle(at, cols, d, floor)`` returns for it. ``at`` holds the
    block's row positions, ``cols`` each row's candidate indices in ascending
    order (the row itself left out when ``cands`` is None), ``d`` their
    distances, NaN after a row's last candidate, and ``floor`` a lower bound
    of the distance to every candidate outside the block: inf when there is
    none."""
    n = len(rows)
    cand_idx = rows if cands is None else cands
    m = len(cand_idx)
    cand_xy = np.zeros((m, 2)) if xy is None else xy[1][cand_idx]
    grid = _Grid(cand_xy, 1 if n * m <= BLOCK_PAIRS else m // per_cell, min_size, bound)
    key = grid.key(np.zeros((n, 2)) if xy is None else xy[0][rows])
    pending = np.argsort(key, kind="stable")  # row positions, grouped by cell
    done = np.zeros(n, dtype=bool)
    reach = np.full(n, np.nan)
    # each cell's ring, and the bound of every ring up to the one that spans the grid
    ring = np.ones(grid.n_cells + 1, dtype=np.int64)
    bounds = grid.floor(np.arange(grid.shape.max()))
    while len(pending):
        kp = key[pending]
        first = np.concatenate(([True], kp[1:] != kp[:-1]))
        slot = np.cumsum(first)
        slot -= 1  # each pending row's block
        keys = kp[first]
        del kp  # one entry per pending row: free it before the distance blocks
        r = ring[keys][:, None]
        # a row whose point is not finite has every cell in its block
        inside = keys[:, None] < grid.n_cells
        at_cell = np.stack([keys // grid.shape[1], keys % grid.shape[1]], axis=1)
        lo = np.where(inside, np.maximum(at_cell - r, 0), 0)
        hi = np.where(inside, np.minimum(at_cell + r, grid.shape - 1), grid.shape - 1)
        width = grid.widths(lo, hi)
        floor = np.where((lo == 0).all(axis=1) & (hi == grid.shape - 1).all(axis=1), np.inf, grid.floor(r[:, 0]))
        start = np.cumsum(width) - width
        edges = np.append(np.flatnonzero(first), len(pending))  # each cell's pending rows
        # a block takes its candidates and one strip per column of its cells
        for cells in _cell_chunks(width + hi[:, 0] - lo[:, 0] + 2):
            pos = grid.blocks(lo[cells], hi[cells], width[cells])
            # the rows of a cell whose block holds _SHARED_PAIRS pairs share
            # its one candidate list; the others pool a list per row, by width
            base = start[cells.start]
            shared = (np.diff(edges[cells.start : cells.stop + 1]) * width[cells] >= _SHARED_PAIRS) & (cands is not None)
            groups = [np.arange(edges[c], edges[c + 1]) for c in cells.start + np.flatnonzero(shared)]
            pool = np.arange(edges[cells.start], edges[cells.stop])
            pool = pool[~shared[slot[pool] - cells.start]]
            pool = pool[np.argsort(width[slot[pool]], kind="stable")]
            groups.append(pool)
            for group in groups:
                for blk in _row_blocks(width[slot[group]]):
                    at, s = pending[group[blk]], slot[group[blk]]
                    w_b = width[s]
                    if shared[s[0] - cells.start]:
                        cols = pos[start[s[0]] - base : start[s[0]] - base + w_b[0]][None, :]
                    else:  # a row shorter than the block repeats its last candidate
                        cols = pos[start[s][:, None] - base + np.minimum(np.arange(w_b[-1]), w_b[:, None] - 1)]
                    if cands is None:  # drop the row itself, which its own block holds
                        j = np.arange(cols.shape[1] - 1)
                        cols = np.take_along_axis(cols, j + (j >= (cols < at[:, None]).sum(axis=1, keepdims=True)), axis=1)
                        w_b = w_b - 1
                    cols = cand_idx[cols]
                    d = distance(rows[at][:, None], cols)
                    if w_b[0] < w_b[-1]:
                        d[np.arange(d.shape[1]) >= w_b[:, None]] = np.nan
                    reach[at] = settle(at, np.broadcast_to(cols, d.shape), d, floor[s])
                    done[at] = _done(floor[s], reach[at])
        pending = pending[~done[pending]]
        if len(pending):
            # a cell's next ring is the first whose bound exceeds the least
            # reach of its rows left, or twice as far out while one of their
            # reaches is unknown
            kp = key[pending]
            cell = np.flatnonzero(np.concatenate(([True], kp[1:] != kp[:-1])))
            left = reach[pending]
            least = np.fmin.reduceat(left, cell)
            nxt = np.searchsorted(bounds, np.where(np.isnan(least), np.inf, least), side="right")
            r = ring[kp[cell]]
            nxt = np.where(np.logical_or.reduceat(np.isnan(left), cell), np.minimum(nxt, 2 * r + 1), nxt)
            ring[kp[cell]] = np.minimum(nxt, len(bounds) - 1)


def _euclidean(g):
    return g


def k_nearest(rows: np.ndarray, cands: np.ndarray | None, k: int, distance, xy=None, bound=_euclidean):
    """Each row's ``k`` nearest candidates (all when there are fewer) as whole
    ``(row, neighbor, distance)`` arrays, by row and then by the pick rule.
    ``rows`` and ``cands`` hold ascending indices; ``cands=None`` makes each
    row's candidates the other rows. ``distance(a, b)`` maps (r, 1) row
    indices and (r, m) or (1, m) candidate indices to (r, m) float64
    distances.

    ``xy = (row_points, cand_points)`` holds (n, 2) arrays of points indexed
    like ``distance``'s arguments: wherever ``distance(a, b)`` is a number, it
    is at least ``bound(g)`` for points ``g`` apart, and ``bound`` does not
    decrease. Without ``xy`` every row scores every candidate."""
    kk = min(k, len(rows) - 1 if cands is None else len(cands))
    near = np.zeros((len(rows), max(kk, 0)), dtype=(rows if cands is None else cands).dtype)
    dist = np.zeros(near.shape)

    def settle(at, cols, d, _):
        # a row's picks are final in the ring that finds it done, the last to write them
        if cols.shape[1] < kk:  # too few candidates in a block that is not all of them
            return np.full(len(at), np.nan)
        row, pick = np.arange(len(at))[:, None], smallest_k(d, kk)
        near[at], dist[at] = cols[row, pick], d[row, pick]
        return d[row[:, 0], pick[:, -1]]

    if kk > 0:
        _search(rows, cands, distance, xy, bound, k, 0.0, settle)
    return np.repeat(rows, near.shape[1]), near.ravel(), dist.ravel()


def pairs_within(rows: np.ndarray, eps: float, distance, xy):
    """Every pair of ``rows`` at a distance of at most ``eps``, once, as
    ``(a, b, distance)`` arrays with ``a < b``; ``distance`` and ``xy`` as for
    ``k_nearest``, where the distance is at least the points' own."""
    parts = [(rows[:0], rows[:0], np.zeros(0))]

    def settle(at, cols, d, floor):
        r, c = np.nonzero((d <= eps) & (cols > rows[at][:, None]) & _done(floor, eps)[:, None])
        parts.append((rows[at][r], cols[r, c], d[r, c]))
        return np.full(len(at), eps)

    # cells a little wider than eps settle every row at ring 1
    _search(rows, None, distance, xy, _euclidean, 1, eps * (1 + 8 * _MARGIN), settle)
    return tuple(np.concatenate(p) for p in zip(*parts))
