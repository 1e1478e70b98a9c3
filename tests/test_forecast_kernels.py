"""The forecaster's fused records against their separate references, byte for
byte: the edge-input record against ``concat_cols`` over ``gather_rows``,
``linear`` with a residual against ``add`` after it, and whole training
steps through both; untaped node updates written in place against the
taped forward; and two memory guards on what the tape and an untaped node
update hold."""

import tracemalloc

import numpy as np
import pytest

from _gradcheck import check_gradients, weighted_sum
from _oracles import unfused_edge_update, unfused_node_update
from sitsgraph.errors import ShapeMismatch
from sitsgraph.forecast import model as forecast_model
from sitsgraph.forecast.mesh import build_mesh
from sitsgraph.forecast.model import ForecastConfig, Forecaster, gn_nodes, huber, pixel_pos_encoding
from sitsgraph.forecast.train import _window_mesh
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Relation, ScatterPlan, Tape, Tensor
from sitsgraph.neural.nn import MLP, Adam, Linear, Parameters
from test_forecast import _grid_labels
from test_fused_kernels import _relations, _rows


def _edge_case(rng, rel, n, dtype):
    """(e, x) rows for ``rel``: 1-5 edge and node columns, signed zeros and
    one NaN row in each (none in an empty array)."""
    e = _rows(rng, rel.src.size, int(rng.integers(1, 6)), dtype) if rel.src.size else np.zeros((0, 2), dtype)
    return e, _rows(rng, n, int(rng.integers(1, 6)), dtype)


def _probe(rng, rows, cols, dtype):
    """An upstream gradient with signed zeros and no NaN, which would spread
    over every gradient it reaches and hide any difference."""
    g = _rows(rng, rows, cols, dtype)
    g[np.isnan(g)] = 0.25
    return g


def _reference_inputs(e, x, rel):
    return ag.concat_cols([e, ag.gather_rows(x, rel.src), ag.gather_rows(x, rel.dst)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_inputs_forward_matches_concat_of_gathers_bytes(dtype):
    rng = np.random.default_rng(10)
    for rel, _, _, n in _relations():
        e, x = _edge_case(rng, rel, n, dtype)
        want = _reference_inputs(Tensor(e), Tensor(x), rel).data
        got = ag.edge_inputs(Tensor(e), Tensor(x), rel).data
        assert got.dtype == dtype and got.flags.c_contiguous and got.tobytes() == want.tobytes()
        for lo, hi in ((0, 0), (0, e.shape[0] // 2), (e.shape[0] // 3, e.shape[0])):  # edge blocks
            assert ag.edge_inputs(Tensor(e[lo:hi]), Tensor(x), rel, lo).data.tobytes() == want[lo:hi].tobytes()


def _edge_grads(inputs, e0, x0, rel, probe):
    """Leaf gradients of a tape where ``e`` and ``x`` are op outputs, ``x``
    has another consumer recorded before and after the edge inputs, and the
    upstream gradient carries signed zeros."""
    dtype = e0.dtype
    rng = np.random.default_rng(11)
    we = Tensor(rng.normal(size=(e0.shape[1], e0.shape[1])).astype(dtype), requires_grad=True)
    wx = Tensor(rng.normal(size=(x0.shape[1], x0.shape[1])).astype(dtype), requires_grad=True)
    e_leaf, x_leaf = Tensor(e0, requires_grad=True), Tensor(x0, requires_grad=True)
    with Tape() as tape:
        x = ag.linear(x_leaf, wx)
        before = ag.scale_rows(x, np.full(x0.shape[0], 0.5, dtype))
        out = inputs(ag.linear(e_leaf, we), x, rel)
        after = ag.concat_rows([before, ag.slice_rows(x, 0, x0.shape[0])])
        loss = ag.add(weighted_sum(out, probe), weighted_sum(after, np.ones(after.shape, dtype)))
        tape.backward(loss)
    return [t.grad.tobytes() for t in (e_leaf, x_leaf, we, wx)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_inputs_backward_matches_concat_of_gathers_bytes(dtype):
    rng = np.random.default_rng(12)
    for rel, _, _, n in _relations():
        if not rel.src.size:
            continue  # no output rows to probe
        e, x = _edge_case(rng, rel, n, dtype)  # their NaN rows reach only the weights' gradients
        probe = _probe(rng, e.shape[0], e.shape[1] + 2 * x.shape[1], dtype)
        got = _edge_grads(ag.edge_inputs, e, x, rel, probe)
        assert got == _edge_grads(_reference_inputs, e, x, rel, probe)


def test_edge_inputs_of_a_block_sum_its_own_edges():
    rng = np.random.default_rng(13)
    rel = _relations()[5][0]
    e, x = _edge_case(rng, rel, rel.src.n, np.float64)
    e[np.isnan(e)], x[np.isnan(x)] = 1.0, 2.0
    lo, hi = 2, rel.src.size - 1
    et, xt = Tensor(e[lo:hi], requires_grad=True), Tensor(x, requires_grad=True)
    g = rng.normal(size=(hi - lo, e.shape[1] + 2 * x.shape[1]))
    with Tape() as tape:
        ag.edge_inputs(et, xt, rel, lo)
    ((_, backward),) = tape._records
    backward(g.copy())
    h, k = x.shape[1], e.shape[1]
    want = np.zeros_like(x)
    np.add.at(want, rel.dst.idx[lo:hi], g[:, k + h :])
    np.add.at(want, rel.src.idx[lo:hi], g[:, k : k + h])
    assert np.array_equal(et.grad, g[:, :k]) and np.allclose(xt.grad, want, rtol=0, atol=1e-12)


def test_edge_inputs_gradients():
    rng = np.random.default_rng(14)
    rel = Relation(ScatterPlan(np.array([0, 1, 2, 0, 4, 3]), 6), ScatterPlan(np.array([1, 2, 3, 3, 0, 3]), 6))
    e = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    probe = rng.normal(size=(6, 8))
    assert check_gradients(lambda: weighted_sum(ag.edge_inputs(e, x, rel), probe), [e, x]) < 1e-6
    block = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    probe = rng.normal(size=(3, 8))
    assert check_gradients(lambda: weighted_sum(ag.edge_inputs(block, x, rel, 2), probe), [block, x]) < 1e-6


def test_edge_inputs_check_their_nodes_and_edges():
    rel = Relation(ScatterPlan(np.array([0, 1, 2]), 3), ScatterPlan(np.array([1, 2, 0]), 3))
    with pytest.raises(ShapeMismatch, match="relation over 3 nodes used for 4"):
        ag.edge_inputs(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))), rel)
    with pytest.raises(ShapeMismatch, match="2 edge features from edge 2 for 3 edges"):
        ag.edge_inputs(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))), rel, 2)


def _residual_run(fused, dtype, kind, shape, late):
    """Output and leaf-gradient bytes of ``x @ w + b`` plus a residual (a
    leaf, an op output, ``x`` itself or the bias), through ``linear``'s
    ``residual`` or through ``add(residual, linear(...))``. ``x`` and ``b``
    are op outputs. The residual's other consumer is recorded first, so that
    a residual that is ``x`` or ``b`` gets its first gradient from this
    record and stores the upstream gradient as its own, or ``late``, so that
    the order in which this record adds its gradients shows."""
    rows, k, m = shape
    rng = np.random.default_rng(15)
    x0 = Tensor(_probe(rng, rows, k, dtype), requires_grad=True)  # a NaN would hide the weights' gradients
    params = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for shape in [(k, k), (k, m), (1, m), (rows, m), (m, m)]]
    wx, w, b0, r0, wr = params
    probe = _probe(rng, rows, m, dtype)
    with Tape() as tape:
        x = ag.linear(x0, wx)
        b = ag.linear(Tensor(np.ones((1, m), dtype)), wr, b0)
        r = {"leaf": r0, "op": ag.linear(r0, wr), "x": x, "bias": b}[kind]
        other = None if late else weighted_sum(r, np.ones(r.shape, dtype))
        out = ag.linear(x, w, b, residual=r) if fused else ag.add(r, ag.linear(x, w, b))
        other = weighted_sum(r, np.ones(r.shape, dtype)) if late else other
        tape.backward(ag.add(weighted_sum(out, probe), other))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in [x0] + params if t.grad is not None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["leaf", "op", "x", "bias"])
@pytest.mark.parametrize("late", [False, True], ids=["first", "late"])
def test_linear_residual_matches_a_separate_add_bytes(dtype, kind, late):
    for shape in [(1, 3, 3), (1, 1, 1), (7, 3, 3), (64, 16, 16), (300, 64, 64), (4097, 8, 8)]:
        if kind == "bias" and shape[0] != 1 or kind == "x" and shape[1] != shape[2]:
            continue  # the bias is one row
        assert _residual_run(True, dtype, kind, shape, late) == _residual_run(False, dtype, kind, shape, late), shape


def test_linear_residual_gradients():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    r = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    probe = rng.normal(size=(5, 4))
    assert check_gradients(lambda: weighted_sum(ag.linear(x, w, b, residual=r), probe), [x, w, b, r]) < 1e-6
    with pytest.raises(ShapeMismatch, match=r"add \(4, 4\) \+ \(5, 4\)"):
        ag.linear(x, w, b, residual=Tensor(np.ones((4, 4))))


def _site(seed: int, side: int = 12):
    rng = np.random.default_rng(seed)
    window = rng.uniform(-0.9, 0.9, size=(4, side, side)).astype(np.float32)
    target = rng.uniform(-0.9, 0.9, size=(side * side, 1)).astype(np.float32)
    return window, target


def test_training_through_fused_records_matches_the_separate_ones(geo, monkeypatch):
    """Three Adam steps of a forecaster give the same ``state()`` and
    prediction bytes through the edge-input record and the residual linears
    as through blocks of ``gather_rows``, ``concat_cols`` and ``add``."""
    cfg = ForecastConfig(input_len=4, n_segments=6, compactness=0.1, hidden=16, processor_rounds=2, seed=0)
    sites = [_site(s) for s in range(3)]
    pos = pixel_pos_encoding(geo, 12, 12, "2020-06-01")
    meshes = [_window_mesh(w, cfg) for w, _ in sites]

    def train():
        model = Forecaster(cfg)
        rng = np.random.default_rng(1)
        for p in model.parameters():  # off the zero start, so every record carries signal
            p.data = rng.normal(scale=0.1, size=p.data.shape).astype(np.float32)
        opt = Adam(model.parameters(), lr=1e-2)
        for (window, target), mesh in zip(sites, meshes):
            with Tape() as tape:
                tape.backward(huber(model.forward(window, mesh, pos), target))
            opt.step()
            opt.zero_grad()
        return [a.tobytes() for a in model.state()], model.predict(sites[0][0], meshes[0], pos).tobytes()

    fused = train()
    monkeypatch.setattr(forecast_model, "_edge_update", unfused_edge_update)
    monkeypatch.setattr(forecast_model, "_node_update", unfused_node_update)
    assert train() == fused


def test_predict_over_blocks_written_in_place_equals_taped_forward(geo, monkeypatch):
    # blocks of 32 rows: 90 pixels and 7 regions give node arrays of 97 rows,
    # three blocks and a 1-row remainder that joins the last block, and 270
    # decoder edges; hidden 64 puts a lone row on BLAS's vector path
    monkeypatch.setattr(forecast_model, "ROW_BLOCK", 32)
    cfg = ForecastConfig(input_len=4, n_segments=7, compactness=0.1, hidden=64, processor_rounds=2, seed=0)
    model = Forecaster(cfg)
    rng = np.random.default_rng(17)
    for p in model.parameters():
        p.data = rng.normal(scale=0.05, size=p.data.shape).astype(np.float32)
    window = rng.uniform(-0.9, 0.9, size=(4, 9, 10)).astype(np.float32)
    mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness, labels=_grid_labels(9, 10, 7, 1))
    p, m = 90, mesh.n_regions
    assert m == 7 and p + m > 2 * 32 and p % 32 and (p + m) % 32 == 1
    assert forecast_model._blocks(p + m)[-1] == (64, 97)
    pos = pixel_pos_encoding(geo, 9, 10, "2020-06-01")
    with Tape():
        taped = model.forward(window, mesh, pos).data.reshape(9, 10)
    assert np.abs(taped).max() < 1.0  # no output sits on the clamp
    assert model.predict(window, mesh, pos).tobytes() == taped.tobytes()


def test_untaped_node_update_writes_over_its_input(monkeypatch):
    monkeypatch.setattr(forecast_model, "ROW_BLOCK", 32)
    rng = np.random.default_rng(18)
    mlp_v = MLP(rng, [8, 4, 4], dtype=np.float64, params=Parameters())
    x = Tensor(rng.normal(size=(70, 4)))
    agg = Tensor(rng.normal(size=(70, 4)))
    with Tape():
        want = forecast_model._node_update(x, agg, mlp_v).data.copy()
    before = x.data
    out = forecast_model._node_update(x, agg, mlp_v)
    assert out.data is before and out.data.tobytes() == want.tobytes()


def _tape_bytes(model, window, mesh, pos, target) -> int:
    """Bytes allocated by a taped forward pass and still held when it ends:
    what the tape keeps for the backward pass."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = huber(model.forward(window, mesh, pos), target)
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
        return held
    finally:
        tracemalloc.stop()


def test_one_training_step_tape_holds_no_dead_copies():
    # at 64x64 pixels and hidden 64 the tape held 66.9 MB while the edge
    # inputs were two gathers and their concat, and the residuals separate
    # adds; it holds 50.0 MB with one edge-input record per block and the
    # residuals added inside the last linear
    cfg = ForecastConfig(input_len=6, n_segments=128, hidden=64, processor_rounds=4)
    model = Forecaster(cfg)
    rng = np.random.default_rng(0)
    window = rng.uniform(-1, 1, size=(6, 64, 64)).astype(np.float32)
    target = rng.uniform(-1, 1, size=(64 * 64, 1)).astype(np.float32)
    pos = rng.uniform(-1, 1, size=(64 * 64, 4)).astype(np.float32)
    mesh = _window_mesh(window, cfg)
    _tape_bytes(model, window, mesh, pos, target)  # plans the mesh's ranks
    assert _tape_bytes(model, window, mesh, pos, target) <= 52e6


def test_untaped_decoder_block_holds_two_node_arrays(monkeypatch):
    # the decoder's input and aggregate are whole; its output used to be a
    # third whole array (3.2 node arrays at the peak with the input), and is
    # now written over the input block by block (2.2)
    monkeypatch.setattr(forecast_model, "ROW_BLOCK", 512)
    hidden, m, pixels = 64, 64, 128 * 128
    n = m + pixels
    rng = np.random.default_rng(19)
    params = Parameters()
    mlp_e = MLP(rng, [3 * hidden, hidden, hidden], params=params)
    mlp_v = MLP(rng, [2 * hidden, hidden, hidden], params=params)
    enc = Linear(rng, 2, hidden, params=params)
    src = rng.integers(0, m, 3 * pixels)
    rel = Relation(ScatterPlan(src, n), ScatterPlan(np.repeat(np.arange(m, n), 3), n))
    x = Tensor(rng.normal(size=(n, hidden)).astype(np.float32))
    e = Tensor(rng.normal(size=(3 * pixels, 2)).astype(np.float32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gn_nodes(x, e, rel, mlp_e, mlp_v, enc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert x.data.nbytes + peak <= 2.5 * n * hidden * 4
