import tracemalloc

import numpy as np
import pytest

from _oracles import brute_k_nearest
from sitsgraph import nearest
from sitsgraph.nearest import k_nearest, smallest_k


def _points(seed: int, n: int = 40) -> np.ndarray:
    """Integer points on a 4 x 4 grid (exact ties and duplicate points), some
    with NaN coordinates (NaN distances)."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    pts[rng.uniform(size=n) < 0.15] = np.nan
    return pts


def _euclidean(pts):
    return lambda a, b: np.sqrt(((pts[b] - pts[a]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_smallest_k_is_a_stable_argsort_prefix(k):
    rng = np.random.default_rng(k)
    d = rng.integers(0, 5, size=(30, 12)).astype(np.float64)
    d[rng.uniform(size=d.shape) < 0.2] = np.nan
    d[0] = np.nan
    want = np.argsort(d, axis=1, kind="stable")[:, :k]
    assert np.array_equal(smallest_k(d, k), want)


@pytest.mark.parametrize("block", [1, 7, nearest.BLOCK_PAIRS])
@pytest.mark.parametrize("k", [1, 3, 40])
@pytest.mark.parametrize("scope", ["other_rows", "cands"])
def test_k_nearest_matches_per_row_argsort(block, k, scope, monkeypatch):
    monkeypatch.setattr(nearest, "BLOCK_PAIRS", block)
    pts = _points(k)
    idx = np.arange(len(pts))
    rows, cands = (idx[::2], None) if scope == "other_rows" else (idx[::3], idx[1::2])
    got = k_nearest(rows, cands, k, _euclidean(pts))
    want = brute_k_nearest(rows.tolist(), None if cands is None else cands.tolist(), k, pts)
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    assert got[0].tolist() == want[0] and got[1].tolist() == want[1]
    assert np.array_equal(got[2], np.array(want[2]), equal_nan=True)


def test_k_nearest_without_candidates_gives_typed_empty_arrays():
    # a date of one node has no within-date candidates, and the only date none across dates
    pts = _points(0)
    for rows, cands in [(np.arange(3), np.arange(0)), (np.arange(1), None)]:
        got = k_nearest(rows, cands, 2, _euclidean(pts))
        assert [len(a) for a in got] == [0, 0, 0]
        assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]


def _cloud(kind: str, seed: int, n: int = 200) -> np.ndarray:
    """Points of one kind: integer points in a 10 x 10 square with its
    corners among both the even and the odd indices (exact ties; at k=2 the
    100 candidates of either scope get cells of side 1, so every point lies
    on cell borders), the same with duplicates and NaN points, or one point
    n times (no span at all)."""
    rng = np.random.default_rng(seed)
    if kind == "equal":
        return np.full((n, 2), 3.0)
    pts = rng.integers(0, 11, size=(n, 2)).astype(np.float64)
    pts[:8] = np.repeat([[0, 0], [0, 10], [10, 0], [10, 10]], 2, axis=0)
    if kind == "duplicates_nan":
        pts[rng.integers(0, n, size=n // 4)] = pts[rng.integers(0, n, size=n // 4)]
        pts[rng.uniform(size=n) < 0.1] = np.nan
        pts[rng.uniform(size=n) < 0.05, 1] = np.nan
    return pts


def _counted(distance, seen: list):
    """``distance``, adding the number of pairs of each call to ``seen[0]``."""

    def count(a, b):
        seen[0] += a.shape[0] * b.shape[1]
        return distance(a, b)

    return count


@pytest.mark.parametrize("block", [1, 7, 1 << 10])
@pytest.mark.parametrize("k", [1, 2, 5, 200])
@pytest.mark.parametrize("scope", ["other_rows", "cands"])
@pytest.mark.parametrize("kind", ["lattice", "duplicates_nan", "equal"])
def test_grid_search_matches_per_row_argsort(block, k, scope, kind, monkeypatch):
    # k=200 reaches past every candidate; the patched blocks put every one of
    # these inputs on a grid of several cells, except where all points are equal
    monkeypatch.setattr(nearest, "BLOCK_PAIRS", block)
    pts = _cloud(kind, block + k)
    idx = np.arange(len(pts))
    rows, cands = (idx[::2], None) if scope == "other_rows" else (idx[::3], idx[1::2])
    seen = [0]
    got = k_nearest(rows, cands, k, _counted(_euclidean(pts), seen), (pts, pts))
    want = brute_k_nearest(rows.tolist(), None if cands is None else cands.tolist(), k, pts)
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    assert got[0].tolist() == want[0] and got[1].tolist() == want[1]
    assert np.array_equal(got[2], np.array(want[2]), equal_nan=True)
    if kind == "lattice" and k < 5:
        # the grid scored fewer pairs than every row against every candidate
        assert seen[0] < len(rows) * (len(rows) - 1 if cands is None else len(cands))


def test_grid_search_scores_a_few_percent_of_the_pairs():
    # 40,000 rows and 4,000 candidates on a plane: the blocked brute-force
    # search scores all 160 million pairs
    rng = np.random.default_rng(0)
    rows_xy, cands_xy = rng.uniform(0, 200, size=(40_000, 2)), rng.uniform(0, 200, size=(4_000, 2))
    seen = [0]

    def squared(a, b):
        return (rows_xy[a, 0] - cands_xy[b, 0]) ** 2 + (rows_xy[a, 1] - cands_xy[b, 1]) ** 2

    rows, cands = np.arange(len(rows_xy)), np.arange(len(cands_xy))
    got = k_nearest(rows, cands, 3, _counted(squared, seen), (rows_xy, cands_xy), np.square)
    assert seen[0] <= 0.02 * len(rows) * len(cands)
    sample = rows[::97]
    d = squared(sample[:, None], cands[None, :])
    want = np.argsort(d, axis=1, kind="stable")[:, :3]
    assert np.array_equal(got[1].reshape(-1, 3)[sample], want)
    assert np.array_equal(got[2].reshape(-1, 3)[sample], np.take_along_axis(d, want, axis=1))


def test_grid_search_memory_and_work_stay_bounded_between_clusters():
    # candidates in two tight clusters 100 apart and rows spread between
    # them: a row far from both has empty cells around it for hundreds of
    # rings, and a block that reaches a cluster holds all of it
    rng = np.random.default_rng(0)
    cands_xy = np.concatenate([rng.normal(0, 0.01, (1_000, 2)), rng.normal(0, 0.01, (1_000, 2)) + [100, 0]])
    rows_xy = np.stack([rng.uniform(0, 100, 4_000), rng.uniform(-1, 1, 4_000)], axis=1)
    seen = [0]

    def distance(a, b):
        return np.hypot(rows_xy[a, 0] - cands_xy[b, 0], rows_xy[a, 1] - cands_xy[b, 1])

    rows, cands = np.arange(len(rows_xy)), np.arange(len(cands_xy))
    tracemalloc.start()
    try:
        got = k_nearest(rows, cands, 1, _counted(distance, seen), (rows_xy, cands_xy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few float64 arrays of one distance block, where rows x candidates
    # float64 distances would take 64 MB
    assert peak < 16 * 8 * nearest.BLOCK_PAIRS
    # each cell rings out as far as its own rows need, so the rows that
    # score a whole cluster do not make every other row score it again
    assert seen[0] <= len(rows) * len(cands)
    d = distance(rows[:, None], cands[None, :])
    assert np.array_equal(got[1], np.argmin(d, axis=1))
