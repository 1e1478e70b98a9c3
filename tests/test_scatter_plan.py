"""The scatter plan behind message passing: byte-equal to ``np.add.at`` in
the scatter forward and the gather backward, and strict about indices; and
the ``Relation`` that pairs a gather plan with a scatter plan."""

import numpy as np
import pytest

from _oracles import addat_gather_rows_backward, addat_scatter_add_rows
from sitsgraph.errors import ShapeMismatch
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Relation, ScatterPlan, Tape, Tensor
from sitsgraph.neural.nn import gcn_conv, relation, sage_conv


def _cases(dtype):
    """(rows, idx, n) cases: random edge sets with signed zeros, an empty
    edge set, rows nobody points at, and one hub of in-degree above 500."""
    rng = np.random.default_rng(0)
    out = [(np.zeros((0, 3), dtype=dtype), np.zeros(0, dtype=np.int64), 5)]
    for _ in range(40):
        n = int(rng.integers(1, 30))
        e = int(rng.integers(1, 200))
        idx = rng.integers(0, n, e)
        out.append((rng.standard_normal((e, int(rng.integers(1, 6)))).astype(dtype), idx, n))
    n = 50
    idx = rng.permutation(np.concatenate([np.full(700, 7), rng.integers(0, n // 2, 300)]))
    out.append((rng.standard_normal((idx.size, 4)).astype(dtype), idx, n))  # rows >= 25 get no edge
    for rows, _, _ in out:
        rows[rng.random(rows.shape) < 0.2] = -0.0
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_forward_matches_add_at_bytes(dtype):
    for rows, idx, n in _cases(dtype):
        want = addat_scatter_add_rows(rows, idx, n)
        plan = ScatterPlan(idx, n)
        assert plan.sum(rows).tobytes() == want.tobytes()
        out = ag.scatter_add_rows(Tensor(rows), plan)
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sum_from_a_base_row_holds_the_rows_from_it_on(dtype):
    for rows, idx, n in _cases(dtype):
        idx, n = idx + 5, n + 5  # no edge reaches the first five rows
        want = addat_scatter_add_rows(rows, idx, n)
        plan = ScatterPlan(idx, n)
        for base in (0, 3, int(idx.min(initial=n))):
            got = plan.sum(rows, base)
            assert got.shape == (n - base, rows.shape[1]) and got.tobytes() == want[base:].tobytes()
    plan = ScatterPlan(np.array([3, 2, 4]), 6)
    with pytest.raises(ShapeMismatch, match="sum from row 3 of a plan whose lowest target row is 2"):
        plan.sum(np.ones((3, 1)), 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_backward_matches_add_at_bytes(dtype):
    rng = np.random.default_rng(1)
    for g, idx, n in _cases(dtype):
        x = Tensor(rng.standard_normal((n, g.shape[1])).astype(dtype), requires_grad=True)
        with Tape() as tape:
            ag.gather_rows(x, ScatterPlan(idx, n))
        ((_, backward),) = tape._records
        backward(g)  # the case's rows as the upstream gradient
        want = np.zeros_like(x.data)
        want += addat_gather_rows_backward(x.data, idx, g)  # as Tensor.accumulate adds it
        assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocks_added_in_turn_match_add_at_bytes(dtype):
    # consecutive blocks of the edges, empty ones included, added in turn into
    # one zeroed buffer give the bytes of the whole sum
    rng = np.random.default_rng(2)
    for rows, idx, n in _cases(dtype):
        plan = ScatterPlan(idx, n)
        cuts = np.sort(rng.integers(0, idx.size + 1, 4))
        out = np.zeros((n,) + rows.shape[1:], dtype=dtype)
        for lo, hi in zip([0, *cuts], [*cuts, idx.size]):
            plan.add_to(out, rows[lo:hi], lo)
        assert out.tobytes() == addat_scatter_add_rows(rows, idx, n).tobytes()


@pytest.mark.parametrize("out_rows, n_rows, lo", [(4, 2, 4), (4, 2, -1), (5, 5, 0)])
def test_block_outside_the_plan_raises(out_rows, n_rows, lo):
    plan = ScatterPlan(np.array([2, 0, 2, 2, 1]), 4)
    with pytest.raises(ShapeMismatch, match="for a plan of 5 edges over 4"):
        plan.add_to(np.zeros((out_rows, 2)), np.ones((n_rows, 2)), lo)


def test_one_plan_serves_scatter_and_gather():
    idx = np.array([2, 0, 2, 2, 1])
    plan = ScatterPlan(idx, 4)
    x = Tensor(np.arange(8.0).reshape(4, 2))
    assert np.array_equal(ag.gather_rows(x, plan).data, x.data[idx])
    rows = Tensor(np.arange(10.0).reshape(5, 2))
    assert np.array_equal(ag.scatter_add_rows(rows, plan).data, addat_scatter_add_rows(rows.data, idx, 4))
    assert plan.counts.tolist() == [1, 1, 3, 0]
    with pytest.raises(ShapeMismatch, match="plan over 4 rows used for 5"):
        ag.gather_rows(Tensor(np.ones((5, 2))), plan)
    with pytest.raises(ShapeMismatch, match="4 rows for 5 indices"):
        ag.scatter_add_rows(Tensor(np.ones((4, 2))), plan)


@pytest.mark.parametrize("bad", [-1, 4])
def test_index_outside_rows_raises(bad):
    idx = np.array([0, bad, 1])
    with pytest.raises(ShapeMismatch, match=str(bad)):
        ScatterPlan(idx, 4)


def test_indices_not_1d_raise():
    with pytest.raises(ShapeMismatch, match="indices are 1-D"):
        ScatterPlan(np.zeros((2, 2), dtype=np.int64), 4)


@pytest.mark.parametrize(
    "src, dst, named",
    [
        (([0, 1], 3), ([1, 2], 4), "over 3 rows, dst plan of 2 over 4"),
        (([0, 1], 3), ([1], 3), "src plan of 2 edges over 3 rows, dst plan of 1"),
    ],
)
def test_relation_plans_must_agree(src, dst, named):
    with pytest.raises(ShapeMismatch, match=named):
        Relation(ScatterPlan(np.array(src[0]), src[1]), ScatterPlan(np.array(dst[0]), dst[1]))


def test_relation_needs_one_target_per_source():
    with pytest.raises(ShapeMismatch, match="2 sources for 1 targets"):
        relation((np.array([0, 1]), np.array([1])), 3)


def test_convolutions_reject_a_relation_over_other_nodes():
    rel = relation((np.array([0]), np.array([1])), 3)
    x, w = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch, match="plan over 3 rows used for 4"):
        gcn_conv(x, rel, w)
    with pytest.raises(ShapeMismatch, match="plan over 3 rows used for 4"):
        sage_conv(x, rel, w, w)
