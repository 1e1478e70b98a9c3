"""Nearest-neighbour search: each row's ``k`` nearest candidates by distance
and then by index, NaN last, as a stable argsort orders them. Distances come
in blocks of at most ``BLOCK_PAIRS`` (row, candidate) pairs, so the search's
memory grows with its output, never with rows x candidates."""

from __future__ import annotations

import numpy as np

BLOCK_PAIRS = 1 << 16  # (row, candidate) pairs per distance block


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


def row_blocks(rows: np.ndarray, n_cols: int):
    """Slices of ``rows`` of at most ``BLOCK_PAIRS`` pairs at ``n_cols`` a row, one row at least."""
    step = max(1, BLOCK_PAIRS // max(1, n_cols))
    for lo in range(0, len(rows), step):
        yield rows[lo : lo + step]


def k_nearest(rows: np.ndarray, cands: np.ndarray | None, k: int, distance):
    """Each row's ``k`` nearest candidates (all when there are fewer) as whole
    ``(row, neighbor, distance)`` arrays, by row and then by the pick rule.
    ``rows`` and ``cands`` hold ascending indices; ``cands=None`` makes each
    row's candidates the other rows. ``distance(a, b)`` maps (r, 1) row
    indices and (r, m) or (1, m) candidate indices to (r, m) distances."""
    m = len(rows) - 1 if cands is None else len(cands)
    out = []
    for block in row_blocks(rows, m):
        if cands is None:
            # row i's candidates skip column i: 0..i-1, i+1..n-1
            pos = np.searchsorted(rows, block)[:, None]
            j = np.arange(m)[None, :]
            cols = rows[j + (j >= pos)]
        else:
            cols = cands[None, :]
        d = distance(block[:, None], cols)
        pick = smallest_k(d, k)
        near = np.take_along_axis(np.broadcast_to(cols, d.shape), pick, axis=1)
        out.append((np.repeat(block, pick.shape[1]), near.ravel(), np.take_along_axis(d, pick, axis=1).ravel()))
    return tuple(np.concatenate(parts) for parts in zip(*out))
