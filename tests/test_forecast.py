import json
import tracemalloc

import numpy as np
import pytest

from _gradcheck import check_gradients, randomize_biases, weighted_sum
from _oracles import brute_adjacency, brute_decoder
from sitsgraph import nearest
from sitsgraph.datacube import synth_seasonal
from sitsgraph.errors import Diverged, LengthMismatch, MeshMismatch, NoData, ShapeMismatch, SiteLeakage
from sitsgraph.forecast import (
    ForecastConfig,
    ForecastSample,
    Forecaster,
    baseline_average,
    baseline_persistence,
    build_mesh,
    gn_block,
    huber,
    make_site_splits,
    pixel_embedding,
    train_forecaster,
)
from sitsgraph.forecast.model import gn_nodes, pixel_pos_encoding
from sitsgraph.forecast.train import _window_mesh, check_site_disjoint, forecaster_from_checkpoint, predict_next_frame
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Relation, ScatterPlan, Tape, Tensor, no_grad
from sitsgraph.neural.nn import MLP, Linear, Parameters


class TestBuildMesh:
    def test_constant_8x8_quarter_mesh(self):
        mesh = build_mesh(np.full((1, 8, 8), 0.5), n_segments=4, compactness=0.1)
        assert mesh.n_regions == 4
        # region adjacency of the quarters: 4 undirected pairs, both orientations stored
        assert len(mesh.proc_src) == 8
        pairs = {(min(a, b), max(a, b)) for a, b in zip(mesh.proc_src, mesh.proc_dst)}
        assert pairs == {(0, 1), (0, 2), (1, 3), (2, 3)}

    @pytest.mark.parametrize("seed", range(4))
    def test_processor_edges_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        h, w = (int(x) for x in rng.integers(2, 17, size=2))
        img = rng.uniform(size=(1, h, w))
        mesh = build_mesh(img, n_segments=int(rng.integers(1, h * w // 2 + 2)), compactness=0.3)
        # each adjacent pair once per orientation, lower id first, pairs ascending
        pairs = sorted(brute_adjacency(mesh.labels))
        want_src = [x for a, b in pairs for x in (a, b)]
        want_dst = [x for a, b in pairs for x in (b, a)]
        assert mesh.proc_src.dtype == mesh.proc_dst.dtype == np.int64
        assert mesh.proc_src.tolist() == want_src and mesh.proc_dst.tolist() == want_dst
        assert mesh.proc_feat.shape == (len(want_src), 2)

    def test_encoder_edge_targets_owning_region(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(1, 10, 10))
        mesh = build_mesh(img, n_segments=5, compactness=0.3)
        assert np.array_equal(mesh.g2m_dst, mesh.labels.ravel())
        assert np.array_equal(mesh.g2m_src, np.arange(100))

    def test_decoder_uses_three_nearest_with_brute_force(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(1, 9, 9))
        mesh = build_mesh(img, n_segments=6, compactness=0.3)
        k = min(3, mesh.n_regions)
        pix = np.stack(
            [np.repeat(np.arange(9), 9), np.tile(np.arange(9), 9)], axis=1
        ).astype(float)
        for p in range(81):
            d = ((mesh.centroids - pix[p]) ** 2).sum(axis=1)
            expect = sorted(range(mesh.n_regions), key=lambda m: (d[m], m))[:k]
            got = mesh.m2g_src[mesh.m2g_dst == p].tolist()
            assert got == expect

    def test_pixel_at_centroid_sources_include_own_region(self):
        mesh = build_mesh(np.full((1, 8, 8), 0.5), n_segments=4, compactness=0.1)
        for m in range(4):
            r, c = (int(round(x)) for x in mesh.centroids[m])
            p = r * 8 + c
            assert m in mesh.m2g_src[mesh.m2g_dst == p]

    def test_fewer_than_three_regions(self):
        mesh = build_mesh(np.full((1, 6, 6), 0.1), n_segments=1, compactness=0.1)
        assert mesh.n_regions == 1
        assert np.all(np.bincount(mesh.m2g_dst) == 1)  # one decoder edge per pixel
        assert len(mesh.proc_src) == len(mesh.proc_dst) == 0
        assert mesh.proc_feat.shape == (0, 2) and mesh.proc_feat.dtype == np.float64


def _grid_labels(h: int, w: int, rows: int, cols: int) -> np.ndarray:
    """(h, w) label map of a rows x cols grid of rectangles, numbered row by
    row."""
    return (np.arange(h)[:, None] * rows // h) * cols + np.arange(w)[None, :] * cols // w


class TestDecoderSearch:
    @pytest.mark.parametrize("tile", [1, 7, 180, 4096])
    @pytest.mark.parametrize(
        "grid", [(4, 5), (6, 5), (1, 2), (1, 1), None], ids=["3x3", "2x3", "halves", "one_region", "slic"]
    )
    def test_tiled_search_matches_dense_argsort(self, tile, grid, monkeypatch):
        # 3x3 regions have integer centroids and 2x3 ones half-integer rows:
        # many pixels sit at equal distance from several centroids
        monkeypatch.setattr(nearest, "BLOCK_PAIRS", tile)
        img = np.random.default_rng(tile).uniform(size=(1, 12, 15))
        labels = None if grid is None else _grid_labels(12, 15, *grid)
        mesh = build_mesh(img, n_segments=9, compactness=0.3, labels=labels)
        want = brute_decoder(mesh.centroids, 12, 15, min(3, mesh.n_regions))
        assert mesh.m2g_src.dtype == np.int64 and np.array_equal(mesh.m2g_src, want)


def _relation(src, dst, n: int) -> Relation:
    """The directed edges ``src -> dst`` over ``n`` nodes, planned."""
    return Relation(ScatterPlan(np.asarray(src, dtype=np.int64), n), ScatterPlan(np.asarray(dst, dtype=np.int64), n))


class TestGnBlock:
    def _mlps(self, hidden, zero=False):
        """The edge and node MLPs and the registry that holds their tensors."""
        rng = np.random.default_rng(0)
        params = Parameters()
        mlp_e = MLP(None if zero else rng, [3 * hidden, hidden, hidden], dtype=np.float64, params=params)
        mlp_v = MLP(None if zero else rng, [2 * hidden, hidden, hidden], dtype=np.float64, params=params)
        if not zero:
            randomize_biases(params.tensors, rng)
        return mlp_e, mlp_v, params

    def test_zero_mlps_identity(self):
        mlp_e, mlp_v, _ = self._mlps(4, zero=True)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 4)))
        e = Tensor(rng.normal(size=(3, 4)))
        x2, e2 = gn_block(x, e, _relation([0, 1, 2], [1, 2, 3], 5), mlp_e, mlp_v)
        assert np.array_equal(x2.data, x.data)
        assert np.array_equal(e2.data, e.data)

    def test_no_edges_zero_aggregate(self):
        mlp_e, mlp_v, _ = self._mlps(4)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 4)))
        e = Tensor(np.zeros((0, 4)))
        x2, _ = gn_block(x, e, _relation([], [], 3), mlp_e, mlp_v)
        with no_grad():
            expect = x.data + mlp_v(Tensor(np.concatenate([x.data, np.zeros_like(x.data)], axis=1))).data
        assert np.allclose(x2.data, expect)

    def test_three_node_fixture_matches_loop(self):
        hidden = 3
        mlp_e, mlp_v, _ = self._mlps(hidden)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, hidden))
        e = rng.normal(size=(2, hidden))
        src = np.array([0, 1])
        dst = np.array([2, 2])
        x2, e2 = gn_block(Tensor(x), Tensor(e), _relation(src, dst, 3), mlp_e, mlp_v)

        def run_mlp(mlp, v):
            with no_grad():
                return mlp(Tensor(v[None])).data[0]

        e2_expect = np.stack(
            [e[i] + run_mlp(mlp_e, np.concatenate([e[i], x[src[i]], x[dst[i]]])) for i in range(2)]
        )
        agg = np.zeros_like(x)
        for i in range(2):
            agg[dst[i]] += e2_expect[i]
        x2_expect = np.stack(
            [x[i] + run_mlp(mlp_v, np.concatenate([x[i], agg[i]])) for i in range(3)]
        )
        assert np.allclose(e2.data, e2_expect, atol=1e-12)
        assert np.allclose(x2.data, x2_expect, atol=1e-12)

    def test_edge_features_and_nodes_must_match_the_relation(self):
        mlp_e, mlp_v, _ = self._mlps(4)
        x = Tensor(np.zeros((3, 4)))
        rel = _relation([0, 1, 2], [1, 2, 0], 3)
        with pytest.raises(ShapeMismatch, match="2 edge features for 3 edges"):
            gn_block(x, Tensor(np.zeros((2, 4))), rel, mlp_e, mlp_v)
        with pytest.raises(ShapeMismatch, match="relation over 4 nodes used for 3"):
            gn_block(x, Tensor(np.zeros((3, 4))), _relation([0, 1, 2], [1, 2, 3], 4), mlp_e, mlp_v)

    @pytest.mark.parametrize("pixels", [10, 11, 22, 75])
    def test_nodes_without_a_tape_equal_the_taped_pass(self, pixels, monkeypatch):
        # 3 edges per pixel from 4 mesh nodes, in pixel order, summed in blocks
        # of 32 edges: pixels 10 (edges 30, 31 | 32) and 21 (63 | 64, 65)
        # straddle a block boundary, and 33 or 225 edges leave a 1-row remainder
        monkeypatch.setattr(ag, "ROW_BLOCK", 32)
        hidden, m = 16, 4
        mlp_e, mlp_v, _ = self._mlps(hidden)
        rng = np.random.default_rng(pixels)
        enc = Linear(rng, 2, hidden, dtype=np.float64, params=Parameters())
        n = m + pixels
        rel = _relation(rng.integers(0, m, 3 * pixels), np.repeat(np.arange(m, n), 3), n)
        x = Tensor(rng.normal(size=(n, hidden)))
        e = Tensor(rng.normal(size=(3 * pixels, 2)))
        with Tape():
            want = gn_nodes(x, e, rel, mlp_e, mlp_v, enc).data
        assert gn_nodes(x, e, rel, mlp_e, mlp_v, enc).data.tobytes() == want.tobytes()

    def test_gradients(self):
        hidden = 3
        mlp_e, mlp_v, block = self._mlps(hidden)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, hidden)), requires_grad=True)
        e = Tensor(rng.normal(size=(3, hidden)), requires_grad=True)
        src = np.array([0, 1, 3])
        dst = np.array([1, 2, 2])
        probe = rng.normal(size=(4, hidden))
        params = [x, e] + block.tensors
        rel = _relation(src, dst, 4)

        def loss():
            x2, _ = gn_block(x, e, rel, mlp_e, mlp_v)
            return weighted_sum(x2, probe)

        assert check_gradients(loss, params) < 1e-6


class TestPixelEmbedding:
    def _mlps(self, n, hidden):
        rng = np.random.default_rng(0)
        half = hidden // 2
        params = Parameters()
        mlps = (
            MLP(rng, [n, half, half], dtype=np.float64, params=params),
            MLP(rng, [4, half, half], dtype=np.float64, params=params),
            MLP(rng, [hidden, hidden, hidden], dtype=np.float64, params=params),
        )
        randomize_biases(params.tensors, rng)
        return mlps

    def test_zero_weights_zero_embedding(self):
        rng = np.random.default_rng(0)
        params = Parameters()
        mlps = tuple(
            MLP(None, dims, dtype=np.float64, params=params)
            for dims in ([6, 2, 2], [4, 2, 2], [4, 4, 4])
        )
        out = pixel_embedding(Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(5, 4))), *mlps)
        assert np.all(out.data == 0)

    def test_pure_function(self):
        mlps = self._mlps(6, 8)
        rng = np.random.default_rng(1)
        series = rng.normal(size=(2, 6))
        series[1] = series[0]
        pos = np.tile(rng.normal(size=(1, 4)), (2, 1))
        out = pixel_embedding(Tensor(series), Tensor(pos), *mlps)
        assert np.array_equal(out.data[0], out.data[1])

    def test_gradient_wrt_series(self):
        mlps = self._mlps(4, 6)
        rng = np.random.default_rng(2)
        series = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        pos = Tensor(rng.normal(size=(3, 4)))
        probe = rng.normal(size=(3, 6))

        def loss():
            return weighted_sum(pixel_embedding(series, pos, *mlps), probe)

        assert check_gradients(loss, [series]) < 1e-6


class TestBaselines:
    def test_constant_window(self):
        w = np.full((4, 3, 3), 0.7, dtype=np.float32)
        assert np.array_equal(baseline_persistence(w), w[0])
        assert np.allclose(baseline_average(w), w[0])

    def test_two_frames(self):
        w = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        assert np.array_equal(baseline_persistence(w), np.ones((2, 2)))
        assert np.allclose(baseline_average(w), np.full((2, 2), 0.5))

    def test_persistence_on_static_target(self):
        w = np.full((3, 4, 4), 0.2)
        rmse = np.sqrt(np.mean((baseline_persistence(w) - w[-1]) ** 2))
        assert rmse == 0.0


class TestHuber:
    def test_zero_residual(self):
        assert huber(Tensor(np.zeros((2, 2))), np.zeros((2, 2))).data[0, 0] == 0.0

    def test_linear_branch(self):
        loss = huber(Tensor(np.full((1, 1), 2.0)), np.zeros((1, 1)), delta=1.0)
        assert loss.data[0, 0] == pytest.approx(1.5)

    def test_quadratic_branch(self):
        loss = huber(Tensor(np.full((1, 1), 0.5)), np.zeros((1, 1)), delta=1.0)
        assert loss.data[0, 0] == pytest.approx(0.125)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        target = rng.normal(size=(3, 3))

        def loss():
            return huber(pred, target, delta=1.0)

        assert check_gradients(loss, [pred]) < 1e-6


def _make_samples(sites, t=8, n=6, h=16, w=16):
    out = []
    for s in sites:
        cube, _ = synth_seasonal(seed=s, t=t, h=h, w=w, n_blobs=4, period_dates=6)
        vals = cube.values[:, 0]
        for k in range(t - n):
            out.append(
                ForecastSample(
                    window=vals[k : k + n],
                    target=vals[k + n],
                    site=f"site{s}",
                    geo=cube.geo,
                    timestamp=cube.timestamps[k + n - 1],
                )
            )
    return out


class TestForecaster:
    def _cfg(self, **kw):
        base = dict(input_len=6, n_segments=8, compactness=0.1, hidden=8, processor_rounds=1, seed=0)
        base.update(kw)
        return ForecastConfig(**base)

    def test_zero_params_is_persistence(self, geo):
        cfg = self._cfg()
        model = Forecaster(cfg, state=[np.zeros_like(a) for a in Forecaster(cfg).state()])
        rng = np.random.default_rng(0)
        window = rng.uniform(-0.9, 0.9, size=(6, 12, 12)).astype(np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 12, 12, "2020-06-01")
        pred = model.predict(window, mesh, pos)
        assert np.array_equal(pred, window[-1])

    def test_untrained_default_init_is_persistence(self, geo):
        # residual branches start at zero by construction
        cfg = self._cfg(seed=3)
        model = Forecaster(cfg)
        rng = np.random.default_rng(1)
        window = rng.uniform(-0.9, 0.9, size=(6, 10, 10)).astype(np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 10, 10, "2020-06-01")
        assert np.array_equal(model.predict(window, mesh, pos), window[-1])

    def test_output_shape_and_range(self, geo):
        cfg = self._cfg()
        model = Forecaster(cfg)
        for p in model.parameters():
            p.data = np.random.default_rng(0).normal(size=p.data.shape).astype(np.float32)
        window = np.random.default_rng(1).uniform(-1, 1, size=(6, 9, 9)).astype(np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 9, 9, "2020-06-01")
        pred = model.predict(window, mesh, pos)
        assert pred.shape == (9, 9)
        assert pred.min() >= -1.0 and pred.max() <= 1.0

    def test_deterministic_prediction(self, geo):
        cfg = self._cfg(seed=4)
        window = np.random.default_rng(2).uniform(-0.5, 0.5, size=(6, 10, 10)).astype(np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 10, 10, "2020-06-01")
        a = Forecaster(cfg).predict(window, mesh, pos)
        b = Forecaster(cfg).predict(window, mesh, pos)
        assert np.array_equal(a, b)

    def test_window_length_mismatch(self, geo):
        cfg = self._cfg()
        model = Forecaster(cfg)
        window = np.zeros((4, 8, 8), dtype=np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 8, 8, "2020-06-01")
        with pytest.raises(LengthMismatch):
            model.forward(window, mesh, pos)

    def test_mesh_mismatch(self, geo):
        cfg = self._cfg()
        model = Forecaster(cfg)
        window = np.zeros((6, 8, 8), dtype=np.float32)
        mesh = build_mesh(np.zeros((1, 10, 10)), cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 8, 8, "2020-06-01")
        with pytest.raises(MeshMismatch):
            model.forward(window, mesh, pos)

    @pytest.mark.parametrize(
        "shape, n_segments, mesh_from",
        [
            ((5, 5), 6, "last"),  # fewer pixels than one block
            ((4, 8), 6, "last"),  # exactly one block of pixels
            ((6, 9), 8, "last"),  # a ragged last block
            ((3, 11), 5, "last"),  # one row past a block
            ((6, 7), 2, "last"),  # fewer than 3 regions
            ((7, 6), 6, "stack"),
            ((3, 25), 5, "last"),  # 225 decoder edges: one edge past 7 blocks
            ((4, 11), 6, "last"),  # pixel 10's 3 decoder edges are edges 30, 31 | 32
        ],
        ids=["under_one_block", "one_block", "ragged", "one_row_past", "two_regions", "stack", "edges_one_past", "edges_straddle"],
    )
    def test_predict_in_blocks_equals_taped_forward(self, shape, n_segments, mesh_from, geo, monkeypatch):
        monkeypatch.setattr(ag, "ROW_BLOCK", 32)
        # hidden 64: a 1-row product of that width takes BLAS's vector path,
        # whose sums round differently from the matrix path
        cfg = self._cfg(input_len=4, n_segments=n_segments, hidden=64, processor_rounds=2, mesh_from=mesh_from)
        model = Forecaster(cfg)
        rng = np.random.default_rng(shape[0] * shape[1])
        for p in model.parameters():
            p.data = rng.normal(scale=0.05, size=p.data.shape).astype(np.float32)
        window = rng.uniform(-0.9, 0.9, size=(4, *shape)).astype(np.float32)
        mesh = _window_mesh(window, cfg)
        pos = pixel_pos_encoding(geo, *shape, "2020-06-01")
        with Tape():
            taped = model.forward(window, mesh, pos).data.reshape(shape)
        assert np.abs(taped).max() < 1.0  # no output sits on the clamp
        assert model.predict(window, mesh, pos).tobytes() == taped.tobytes()

    def test_end_to_end_gradients_small_instance(self, geo):
        cfg = ForecastConfig(input_len=3, n_segments=4, compactness=0.1, hidden=4, processor_rounds=1, seed=0)
        model = Forecaster(cfg, dtype=np.float64)
        rng = np.random.default_rng(5)
        # nudge all parameters off their zero starting points
        for p in model.parameters():
            p.data = p.data + rng.normal(scale=0.2, size=p.data.shape)
        window = rng.uniform(-0.6, 0.6, size=(3, 8, 8))
        target = rng.uniform(-0.6, 0.6, size=(8 * 8, 1))
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(geo, 8, 8, "2020-06-01")
        params = model.parameters()
        sampled = params[:: max(1, len(params) // 12)]

        def loss():
            return huber(model.forward(window, mesh, pos), target, delta=1.0)

        assert check_gradients(loss, sampled, h=1e-5) < 1e-3


class TestTraining:
    def test_site_splits_disjoint(self):
        samples = _make_samples(range(8))
        train, val, test = make_site_splits(samples, seed=0)
        check_site_disjoint(train=train, val=val, test=test)
        assert train and val and test

    def test_site_leakage_detected(self):
        samples = _make_samples([0, 1])
        with pytest.raises(SiteLeakage):
            check_site_disjoint(train=samples, val=samples)

    def test_too_few_sites(self):
        with pytest.raises(NoData):
            make_site_splits(_make_samples([0, 1]), seed=0)

    def test_train_rejects_leaky_split(self):
        samples = _make_samples([0, 1])
        cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=1, epochs=1)
        with pytest.raises(SiteLeakage):
            train_forecaster(samples, samples, cfg)

    def test_no_finite_validation_rmse_is_a_typed_error(self):
        # a learning rate at float32's ceiling turns the weights infinite
        samples = _make_samples(range(4), t=7)
        train = [s for s in samples if s.site != "site3"]
        val = [s for s in samples if s.site == "site3"]
        cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=1, lr=3e38, epochs=2, seed=0)
        with pytest.raises(Diverged, match="no epoch of 2"):
            train_forecaster(train, val, cfg)

    def test_diverged_epochs_log_null_losses(self):
        # the first step keeps epoch 0 finite; later steps overflow, and those
        # epochs log null in place of NaN, so the log is strict JSON
        samples = _make_samples(range(4), t=8)
        train = [s for s in samples if s.site != "site3"]
        val = [s for s in samples if s.site == "site3"]
        cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=1, lr=1e38, epochs=4, seed=0)
        ckpt, log = train_forecaster(train, val, cfg)
        assert ckpt["best_epoch"] == 0 and ckpt["best_val_rmse"] == log[0]["val_rmse"]
        assert np.isfinite(log[0]["val_loss"]) and np.isfinite(log[0]["val_rmse"])
        assert [(r["val_loss"], r["val_rmse"], r["lr"], r["lr_reduced"]) for r in log[1:]] == [(None, None, 1e38, False)] * 3
        json.dumps(log, allow_nan=False)

    def test_zero_lr_val_rmse_equals_untrained(self):
        samples = _make_samples(range(4), t=8)
        train = [s for s in samples if s.site != "site3"]
        val = [s for s in samples if s.site == "site3"]
        cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=1, lr=0.0, epochs=2, seed=0)
        ckpt, log = train_forecaster(train, val, cfg)
        # untrained network is exactly persistence, so val RMSE must match it
        pers = np.sqrt(
            np.mean([np.mean((s.window[-1].astype(np.float64) - s.target) ** 2) for s in val])
        )
        assert log[0]["val_rmse"] == pytest.approx(pers, rel=1e-6)
        assert log[-1]["val_rmse"] == pytest.approx(pers, rel=1e-6)

    def test_scatter_plans_built_once_per_mesh(self, monkeypatch):
        built = []
        init = ag.ScatterPlan.__init__

        def counting_init(plan, idx, n):
            built.append(n)
            init(plan, idx, n)

        monkeypatch.setattr(ag.ScatterPlan, "__init__", counting_init)
        samples = _make_samples(range(4), t=7)
        train = [s for s in samples if s.site != "site3"]
        val = [s for s in samples if s.site == "site3"]
        counts = []
        for epochs in (1, 3):
            built.clear()
            cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=2, lr=1e-3, epochs=epochs, seed=0)
            train_forecaster(train, val, cfg)
            counts.append(len(built))
        # src and dst plans of g2m, processor and m2g, for each of the 4 meshes
        assert counts == [24, 24]

    def test_stack_mesh_rule_shared_by_training_and_prediction(self, monkeypatch):
        from sitsgraph.forecast import train as forecast_train

        sources = []

        def recording_build_mesh(source, *args, **kw):
            sources.append(source.shape)
            return build_mesh(source, *args, **kw)

        monkeypatch.setattr(forecast_train, "build_mesh", recording_build_mesh)
        samples = _make_samples(range(4), t=8)
        train = [s for s in samples if s.site != "site3"]
        val = [s for s in samples if s.site == "site3"]
        cfg = ForecastConfig(input_len=6, n_segments=4, hidden=4, processor_rounds=1, epochs=1, seed=0, mesh_from="stack")
        ckpt, _ = train_forecaster(train, val, cfg)
        model = forecaster_from_checkpoint(ckpt)
        assert model.cfg.mesh_from == "stack"
        s = val[0]
        pred = predict_next_frame(model, s.window, s.geo, s.timestamp)
        # every mesh, in training and in prediction, comes from the whole window
        assert sources == [s.window.shape] * (len(train) + len(val) + 1)
        mesh = build_mesh(s.window, cfg.n_segments, cfg.compactness, cfg.slic_iters)
        pos = pixel_pos_encoding(s.geo, *s.target.shape, s.timestamp)
        assert np.array_equal(pred, model.predict(s.window, mesh, pos))

    def test_training_beats_persistence_quick(self):
        samples = _make_samples(range(5), t=9)
        train = [s for s in samples if s.site not in ("site3", "site4")]
        val = [s for s in samples if s.site == "site3"]
        test = [s for s in samples if s.site == "site4"]
        cfg = ForecastConfig(input_len=6, n_segments=8, hidden=8, processor_rounds=1, lr=3e-3, epochs=12, seed=0)
        ckpt, _ = train_forecaster(train, val, cfg)
        model = forecaster_from_checkpoint(ckpt)
        m = np.sqrt(np.mean([np.mean((predict_next_frame(model, s.window, s.geo, s.timestamp).astype(np.float64) - s.target) ** 2) for s in test]))
        p = np.sqrt(np.mean([np.mean((s.window[-1].astype(np.float64) - s.target) ** 2) for s in test]))
        assert m < p


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGrowsWithOutput:
    """Scene-sized paths whose memory grows with the output (pixels x 3
    decoder edges), not with pixels x regions."""

    def test_512_mesh_stays_under_the_dense_decoder_distances(self):
        # the dense decoder's (H*W x M) float64 distances alone took
        # 512 * 512 * 128 * 8 bytes = 268 MB; the whole tiled build, its
        # 70 MB of output included, peaks near 105 MB
        labels = _grid_labels(512, 512, 8, 16)
        peak = _traced_peak(lambda: build_mesh(np.zeros((1, 512, 512), np.float32), 128, 0.1, labels=labels))
        assert peak < 150e6

    def test_256_predict_in_blocks(self, geo):
        # the whole-batch forward without a tape peaked at 439 MB on this
        # scene and model size; the blocked one near 110 MB
        labels = _grid_labels(256, 256, 8, 16)
        mesh = build_mesh(np.zeros((1, 256, 256), np.float32), 128, 0.1, labels=labels)
        cfg = ForecastConfig(input_len=6, n_segments=128, hidden=64, processor_rounds=4)
        model = Forecaster(cfg)
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.data = rng.normal(scale=0.1, size=p.data.shape).astype(np.float32)
        window = rng.uniform(-1, 1, size=(6, 256, 256)).astype(np.float32)
        pos = pixel_pos_encoding(geo, 256, 256, "2020-06-01")
        assert _traced_peak(lambda: model.predict(window, mesh, pos)) < 160e6

    def test_256_predict_holds_under_three_node_arrays(self, geo):
        # the encoder's aggregate over every node row, pixel rows no edge
        # reaches included, and copies of the pixel rows for the decoder and
        # the head put the peak at 3.35 node arrays; it is 2.77 without them
        labels = _grid_labels(256, 256, 8, 16)
        mesh = build_mesh(np.zeros((1, 256, 256), np.float32), 128, 0.1, labels=labels)
        hidden = 64
        model = Forecaster(ForecastConfig(input_len=6, n_segments=128, hidden=hidden, processor_rounds=4))
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.data = rng.normal(scale=0.1, size=p.data.shape).astype(np.float32)
        window = rng.uniform(-1, 1, size=(6, 256, 256)).astype(np.float32)
        pos = pixel_pos_encoding(geo, 256, 256, "2020-06-01")
        node_array = (256 * 256 + mesh.n_regions) * hidden * 4
        assert _traced_peak(lambda: model.predict(window, mesh, pos)) <= 3.0 * node_array

    def test_128_predict_never_holds_a_whole_decoder_edge_output(self, geo):
        # the decoder's input and aggregate are whole node arrays, and its
        # output is written over its input block by block; a whole edge
        # output (3 edges per pixel) on top of them breaks the bound, and the
        # block temporaries fit under it
        side, hidden = 128, 64
        labels = _grid_labels(side, side, 8, 8)
        mesh = build_mesh(np.zeros((1, side, side), np.float32), 64, 0.1, labels=labels)
        model = Forecaster(ForecastConfig(input_len=6, n_segments=64, hidden=hidden, processor_rounds=4))
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.data = rng.normal(scale=0.1, size=p.data.shape).astype(np.float32)
        window = rng.uniform(-1, 1, size=(6, side, side)).astype(np.float32)
        pos = pixel_pos_encoding(geo, side, side, "2020-06-01")
        pixels = side * side
        node_array = (pixels + mesh.n_regions) * hidden * 4
        edge_output = mesh.m2g_dst.size * hidden * 4
        assert mesh.m2g_dst.size == 3 * pixels
        assert _traced_peak(lambda: model.predict(window, mesh, pos)) < 3 * node_array + edge_output
