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
