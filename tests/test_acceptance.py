"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expensive training runs are shared through module-scoped fixtures; every
tolerance and runtime budget is asserted where the criterion states it.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _gradcheck import check_gradients, randomize_biases, weighted_sum
from _oracles import OracleEdge as Edge
from _oracles import OracleNode as Node
from _oracles import (
    brute_adjacency,
    brute_eps_ball,
    brute_events,
    brute_knn,
    brute_overlap,
    brute_similarity,
    enumerate_patterns,
    graph_from_objects,
    graph_objects,
    modal_label_accuracy,
)
import sitsgraph as sg
from sitsgraph.analysis import detect_events, mine_frequent
from sitsgraph.cli import main as cli_main
from sitsgraph.datacube import GeoBounds, SitsCube, synth_context, synth_seasonal
from sitsgraph.features import FeatureMatrix, band_stats, standardize
from sitsgraph.forecast import (
    ForecastConfig,
    ForecastSample,
    Forecaster,
    build_mesh,
    make_site_splits,
    train_forecaster,
)
from sitsgraph.forecast.model import pixel_pos_encoding
from sitsgraph.forecast.train import forecaster_from_checkpoint, predict_next_frame
from sitsgraph.metrics import confusion, iou_oa, majority_upper_bound, rmse_psnr_ssim
from sitsgraph.neural import ClassifierConfig, train_classifier
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Relation, ScatterPlan, Tensor
from sitsgraph.neural.classifier import classifier_from_checkpoint, graph_arrays, predict_nodes
from sitsgraph.neural.nn import MLP, BatchNorm, Parameters, cross_entropy, gcn_conv, relation, relu, sage_conv
from sitsgraph.segmentation import SegStack, felzenszwalb, segment_cube, slic
from sitsgraph.stgraph import (
    SPATIOTEMPORAL,
    StGraph,
    adjacency_edges,
    build_graph,
    eps_ball_edges,
    graph_stats,
    knn_edges,
    nodes_from_seg,
    overlap_edges,
    similarity_edges,
)

GEO = GeoBounds(43.0, 44.0, 1.0, 2.0)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. segmentation partition suite


def test_criterion_01_segmentation_partition_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(50):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        t = int(rng.integers(1, 5))
        n_seg = int(rng.integers(2, min(h * w, 64) + 1))
        for _ in range(t):
            img = rng.uniform(0, 1, size=(2, h, w))
            fa = felzenszwalb(img, scale=3.0, min_size=2)
            fb = felzenszwalb(img, scale=3.0, min_size=2)
            sa = slic(img, n_segments=n_seg, compactness=0.2)
            sb = slic(img, n_segments=n_seg, compactness=0.2)
            ok &= np.array_equal(fa, fb) and np.array_equal(sa, sb)
            ok &= fa.min() == 0 and sa.min() == 0 and fa.shape == (h, w)
            ok &= 1 <= len(np.unique(sa)) <= 2 * n_seg
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(1, ok, f"50 cubes, total partitions + determinism + count bounds in {elapsed:.1f}s (< 10s)")
    assert ok


# ---------------------------------------------------------------------------
# 2. graph-builder oracle equivalence


def _random_partition(rng, h, w, k):
    seeds = rng.choice(h * w, size=k, replace=False)
    sr, sc = seeds // w, seeds % w
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    d2 = (rr[..., None] - sr) ** 2 + (cc[..., None] - sc) ** 2
    lab = np.argmin(d2, axis=-1)
    _, lab = np.unique(lab, return_inverse=True)
    return lab.reshape(h, w)


def _edge_map(cols) -> dict[tuple[int, int], float]:
    """``{(src, dst): weight}`` of a builder's ``EdgeColumns``."""
    return dict(zip(zip(cols.src.tolist(), cols.dst.tolist()), cols.weight.tolist()))


def test_criterion_02_graph_builder_oracles():
    rng = np.random.default_rng(77)
    ok = True
    for trial in range(12):
        h = int(rng.integers(6, 17))
        w = int(rng.integers(6, 17))
        a = _random_partition(rng, h, w, int(rng.integers(3, 7)))
        b = _random_partition(rng, h, w, int(rng.integers(3, 7))) + a.max() + 1
        seg = SegStack(labels=np.stack([a, b]).astype(np.int32), counts=[int(a.max()) + 1, int(b.max() - a.max())])
        nodes = nodes_from_seg(seg)

        adj = _edge_map(adjacency_edges(seg, 0))
        ok &= adj == {k: float(v) for k, v in brute_adjacency(a).items()}

        ov = _edge_map(overlap_edges(seg, min_pixels=2))
        oracle_ov = brute_overlap(a, b, 2)
        ok &= set(ov) == set(oracle_ov) and all(abs(ov[k] - oracle_ov[k]) < 1e-12 for k in ov)

        cents = {n.id: n.centroid for n in graph_objects(nodes).nodes}
        node_dates = {n.id: n.t for n in graph_objects(nodes).nodes}
        eps = float(rng.uniform(1.5, 5.0))
        got = _edge_map(eps_ball_edges(nodes, eps))
        ok &= got == brute_eps_ball(cents, eps, node_dates)
        k = int(rng.integers(1, min(seg.counts)))
        got = _edge_map(knn_edges(nodes, k))
        ok &= got == brute_knn(cents, k, node_dates)

        feats = rng.normal(size=(seg.n_objects, 3))
        fm = standardize(FeatureMatrix(values=feats, names=list("abc")))
        dates = seg.object_dates()
        for scope in ("within-date", "cross-date"):
            got = _edge_map(similarity_edges(fm, dates, scope, k=2))
            ok &= got == brute_similarity(fm.values, dates, scope, 2)

        g = build_graph(seg, features=fm, spatial=["adjacency"], st=[("overlap", 1)])
        v = graph_objects(g)
        date_of = {n.id: n.t for n in v.nodes}
        ok &= all(date_of[e.src] < date_of[e.dst] for e in v.edges_st)
    _report(2, ok, "adjacency/overlap/eps/knn/similarity match brute force; ST edges oriented past->future")
    assert ok


# ---------------------------------------------------------------------------
# 3. miner oracle


def _random_st_graph(rng, max_nodes=12):
    n = int(rng.integers(4, max_nodes + 1))
    dates = np.sort(rng.integers(0, 4, size=n))
    nodes = [Node(i, int(dates[i]), 1, (0.0, float(i))) for i in range(n)]
    edges = [
        Edge(i, j, SPATIOTEMPORAL, float(rng.uniform(0.1, 1.0)))
        for i in range(n)
        for j in range(n)
        if dates[i] < dates[j] and rng.uniform() < 0.35
    ]
    return graph_from_objects(nodes, [], edges), dates


def test_criterion_03_miner_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    ok = True
    for trial in range(100):
        g, _ = _random_st_graph(rng)
        symbols = rng.integers(0, 3, size=g.n_nodes)
        v = graph_objects(g)
        sym_map = {n.id: int(symbols[i]) for i, n in enumerate(v.nodes)}
        st_edges = [(e.src, e.dst) for e in v.edges_st]
        for minsup in (1, 2, 3):
            got = {p.symbols: p.support for p in mine_frequent(g, symbols, minsup=minsup, maxlen=4)}
            ok &= got == enumerate_patterns(sym_map, st_edges, minsup, 4)
            for pat, sup in got.items():
                for cut in range(1, len(pat)):
                    ok &= got.get(pat[:cut], 0) >= sup  # anti-monotone
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(3, ok, f"100 graphs x minsup {{1,2,3}} equal exhaustive enumeration in {elapsed:.1f}s (< 30s)")
    assert ok


# ---------------------------------------------------------------------------
# 4. event operators


def test_criterion_04_event_operators():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        g, dates = _random_st_graph(rng)
        got = {(r.node, r.event) for r in detect_events(g)}
        v = graph_objects(g)
        oracle = brute_events(
            {n.id: n.t for n in v.nodes}, [(e.src, e.dst) for e in v.edges_st]
        )
        ok &= got == oracle
        indeg, outdeg = g.degrees(g.st)
        ok &= indeg.sum() == outdeg.sum() == len(v.edges_st)
    _report(4, ok, "100 random fixtures match the brute-force degree scan; degree sums equal |E_ST|")
    assert ok


# ---------------------------------------------------------------------------
# 5. gradient suite


def test_criterion_05_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    tol = 1e-4
    worst: dict[str, float] = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for shape_i in range(20):
        n = int(rng.integers(2, 7))
        din = int(rng.integers(1, 5))
        dout = int(rng.integers(1, 5))
        hidden = 2 * int(rng.integers(1, 3))

        # linear
        x = Tensor(rng.normal(size=(n, din)))
        w = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, dout)), requires_grad=True)
        probe = rng.normal(size=(n, dout))
        record("linear", check_gradients(lambda: weighted_sum(ag.add(ag.linear(x, w), b), probe), [w, b]))

        # relu (gradient wrt input)
        xr = Tensor(rng.normal(size=(n, din)) + 0.05, requires_grad=True)
        prober = rng.normal(size=(n, din))
        record("relu", check_gradients(lambda: weighted_sum(relu(xr), prober), [xr]))

        # batchnorm, train mode
        bn = BatchNorm(din, dtype=np.float64, params=Parameters())
        xb = Tensor(rng.normal(size=(n + 1, din)), requires_grad=True)
        probeb = rng.normal(size=(n + 1, din))
        record(
            "batchnorm",
            check_gradients(lambda: weighted_sum(bn(xb, train=True), probeb), [xb, bn.gamma, bn.beta]),
        )

        # graph convolutions over a random edge set
        n_edges = int(rng.integers(1, n * (n - 1) // 2 + 1))
        pairs = rng.choice(n * n, size=n_edges, replace=False)
        src = pairs // n
        dst = pairs % n
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if len(src) == 0:
            src, dst = np.array([0]), np.array([min(1, n - 1)])
        rel = relation((src, dst), n)
        xg = Tensor(rng.normal(size=(n, din)), requires_grad=True)
        wg = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        bg = Tensor(rng.normal(size=(1, dout)), requires_grad=True)
        probeg = rng.normal(size=(n, dout))
        record(
            "gcn_conv",
            check_gradients(
                lambda: weighted_sum(gcn_conv(xg, rel, wg, bg), probeg), [xg, wg, bg]
            ),
        )
        ws = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        wn = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        record(
            "sage_conv",
            check_gradients(
                lambda: weighted_sum(sage_conv(xg, rel, ws, wn), probeg), [xg, ws, wn]
            ),
        )

        # relational block
        block = Parameters()
        mlp_e = MLP(rng, [3 * hidden, hidden, hidden], dtype=np.float64, params=block)
        mlp_v = MLP(rng, [2 * hidden, hidden, hidden], dtype=np.float64, params=block)
        randomize_biases(block.tensors, rng)
        from sitsgraph.forecast.model import gn_block, pixel_embedding

        xe = Tensor(rng.normal(size=(n, hidden)), requires_grad=True)
        ee = Tensor(rng.normal(size=(len(src), hidden)), requires_grad=True)
        probee = rng.normal(size=(n, hidden))
        params = [xe, ee] + block.tensors
        directed = Relation(ScatterPlan(src, n), ScatterPlan(dst, n))
        record(
            "gn_block",
            check_gradients(
                lambda: weighted_sum(gn_block(xe, ee, directed, mlp_e, mlp_v)[0], probee), params
            ),
        )

        # pixel embedding
        nser = int(rng.integers(2, 5))
        half = hidden // 2
        embed = Parameters()
        mlp_ts = MLP(rng, [nser, half, half], dtype=np.float64, params=embed)
        mlp_pos = MLP(rng, [4, half, half], dtype=np.float64, params=embed)
        mlp_mix = MLP(rng, [hidden, hidden, hidden], dtype=np.float64, params=embed)
        randomize_biases(embed.tensors, rng)
        series = Tensor(rng.normal(size=(n, nser)), requires_grad=True)
        pos = Tensor(rng.normal(size=(n, 4)))
        probep = rng.normal(size=(n, hidden))
        params = [series] + embed.tensors
        record(
            "pixel_embedding",
            check_gradients(
                lambda: weighted_sum(pixel_embedding(series, pos, mlp_ts, mlp_pos, mlp_mix), probep),
                params,
            ),
        )

        # classification / regression heads
        wh = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        bh = Tensor(rng.normal(size=(1, dout)), requires_grad=True)
        xh = Tensor(rng.normal(size=(n, din)))
        probeh = rng.normal(size=(n, dout))
        record(
            "head",
            check_gradients(
                lambda: weighted_sum(ag.add(ag.linear(relu(xh), wh), bh), probeh), [wh, bh]
            ),
        )

        # losses
        k = dout + 1
        logits = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        labels = rng.integers(0, k, size=n)
        labels[rng.integers(0, n)] = -1 if n > 1 else labels[0]
        record("cross_entropy", check_gradients(lambda: cross_entropy(logits, labels), [logits]))

        predh = Tensor(rng.normal(size=(n, din)) * 2, requires_grad=True)
        targeth = rng.normal(size=(n, din))
        record("huber", check_gradients(lambda: ag.huber(predh, targeth, delta=1.0), [predh]))

    elapsed = time.monotonic() - t0
    ok = all(err < tol for err in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    _report(5, ok, f"max rel err per target ({detail}) all < 1e-4 in {elapsed:.1f}s (< 60s)")
    assert all(err < tol for name, err in worst.items()), worst
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. context-benefit reproduction


def _context_graph(seed: int) -> StGraph:
    cube, labels = synth_context(seed=seed, cells=6, cell_px=4, t=3)
    seg = segment_cube(cube, "felzenszwalb", {"scale": 1e-6, "min_size": 1})
    fm = band_stats(cube, seg)
    return build_graph(seg, features=fm, label_maps=labels, spatial=["adjacency"], st=[("overlap", 1)])


def _accuracy(model, graphs):
    num = den = 0
    for g in graphs:
        _, _, _, labels = graph_arrays(g)
        pred = predict_nodes(model, g)
        keep = labels >= 0
        num += int((pred[keep] == labels[keep]).sum())
        den += int(keep.sum())
    return num / den


def test_criterion_06_context_benefit():
    t0 = time.monotonic()
    train_graphs = [_context_graph(s) for s in range(6)]
    val_graphs = [_context_graph(100 + s) for s in range(2)]
    test_graphs = [_context_graph(200 + s) for s in range(2)]
    gaps = []
    for seed in (0, 1, 2):
        accs = {}
        for conv in ("sage", "mlp"):
            cfg = ClassifierConfig(
                n_classes=2, conv=conv, hidden=32, n_layers=4, lr=1e-2, epochs=60, seed=seed
            )
            ckpt, _ = train_classifier(train_graphs, val_graphs, cfg)
            accs[conv] = _accuracy(classifier_from_checkpoint(ckpt), test_graphs)
        gaps.append(accs["sage"] - accs["mlp"])
    elapsed = time.monotonic() - t0
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.15 and elapsed < 300.0
    _report(6, ok, f"sage-mlp test accuracy gap {mean_gap:.3f} (>= 0.15) over 3 seeds in {elapsed:.0f}s (< 300s)")
    assert ok


# ---------------------------------------------------------------------------
# 7. object-ceiling bound


def test_criterion_07_majority_bound():
    rng = np.random.default_rng(31)
    ok = True
    checked_predictions = 0
    for trial in range(10):
        lab = _random_partition(rng, 12, 12, int(rng.integers(3, 8)))
        seg = SegStack(labels=lab[None].astype(np.int32), counts=[int(lab.max()) + 1])
        truth = rng.integers(0, 4, size=(1, 12, 12)).astype(np.int32)
        bound = majority_upper_bound(seg, truth)
        ok &= bound == modal_label_accuracy(lab[None], truth)
        n_obj = seg.n_objects
        for _ in range(100):
            assign = rng.integers(0, 4, size=n_obj)
            pred = assign[seg.labels]
            oa = iou_oa(confusion(truth, pred, 4))["oa"]
            ok &= oa <= bound + 1e-12
            checked_predictions += 1
    _report(7, ok, f"bound equals modal oracle exactly; {checked_predictions} region-constant predictions never exceed it")
    assert ok


# ---------------------------------------------------------------------------
# 8 & 10. forecaster vs persistence, mesh stability (shared trainings)


def _forecast_dataset():
    samples = []
    for site in range(10):
        cube, _ = synth_seasonal(seed=site, t=8, h=32, w=32, n_blobs=6, period_dates=6)
        vals = cube.values[:, 0]
        for k in range(2):
            samples.append(
                ForecastSample(
                    window=vals[k : k + 6],
                    target=vals[k + 6],
                    site=f"site{site}",
                    geo=cube.geo,
                    timestamp=cube.timestamps[k + 5],
                )
            )
    return make_site_splits(samples, seed=0)


def _rmse(a, b):
    return float(np.sqrt(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2)))


@pytest.fixture(scope="module")
def forecast_runs():
    """Test RMSE per (n_segments, seed) on the seasonal task, plus the
    persistence baseline RMSE on the same test split."""
    train, val, test = _forecast_dataset()
    persistence = float(np.sqrt(np.mean([np.mean((s.window[-1].astype(np.float64) - s.target) ** 2) for s in test])))
    results = {}
    t0 = time.monotonic()
    for n_segments in (16, 64, 256):
        for seed in (0, 1, 2):
            cfg = ForecastConfig(
                input_len=6,
                n_segments=n_segments,
                compactness=0.1,
                hidden=32,
                processor_rounds=2,
                lr=2e-3,
                epochs=30,
                seed=seed,
            )
            ckpt, _ = train_forecaster(train, val, cfg)
            model = forecaster_from_checkpoint(ckpt)
            rmse = float(
                np.sqrt(
                    np.mean(
                        [
                            np.mean(
                                (
                                    predict_next_frame(model, s.window, s.geo, s.timestamp).astype(np.float64)
                                    - s.target
                                )
                                ** 2
                            )
                            for s in test
                        ]
                    )
                )
            )
            results[(n_segments, seed)] = rmse
    return {"results": results, "persistence": persistence, "train_time": time.monotonic() - t0}


def test_criterion_08_forecaster_beats_persistence(forecast_runs):
    res = forecast_runs["results"]
    persistence = forecast_runs["persistence"]
    model_mean = float(np.mean([res[(256, s)] for s in (0, 1, 2)]))
    ok = model_mean < 0.9 * persistence and forecast_runs["train_time"] < 600.0
    _report(
        8,
        ok,
        f"model RMSE {model_mean:.4f} vs persistence {persistence:.4f} "
        f"(margin {(1 - model_mean / persistence) * 100:.0f}% >= 10%), trainings took {forecast_runs['train_time']:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_10_mesh_stability(forecast_runs):
    res = forecast_runs["results"]
    means = {n: float(np.mean([res[(n, s)] for s in (0, 1, 2)])) for n in (16, 64, 256)}
    spread = (max(means.values()) - min(means.values())) / min(means.values())
    ok = spread < 0.25
    _report(
        10,
        ok,
        "test RMSE per n_segments "
        + ", ".join(f"{n}: {v:.4f}" for n, v in means.items())
        + f"; relative spread {spread * 100:.1f}% (< 25%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. residual identity


def test_criterion_09_residual_identity():
    rng = np.random.default_rng(17)
    cfg = ForecastConfig(input_len=6, n_segments=16, compactness=0.1, hidden=16, processor_rounds=2, seed=0)
    model = Forecaster(cfg, state=[np.zeros_like(a) for a in Forecaster(cfg).state()])
    ok = True
    for _ in range(5):
        window = rng.uniform(-1.0, 1.0, size=(6, 16, 16)).astype(np.float32)
        mesh = build_mesh(window[-1][None], cfg.n_segments, cfg.compactness)
        pos = pixel_pos_encoding(GEO, 16, 16, "2020-06-01")
        pred = model.predict(window, mesh, pos)
        ok &= np.array_equal(pred, window[-1])  # bit-exact for in-range inputs
    _report(9, ok, "zero-parameter forecaster reproduces the last input frame bit-exactly")
    assert ok


# ---------------------------------------------------------------------------
# 11. metric closed forms


def test_criterion_11_metric_closed_forms():
    ok = True
    x = np.linspace(-1, 1, 256).reshape(16, 16)
    rep = rmse_psnr_ssim(x, x)
    ok &= rep["rmse"] == 0.0 and rep["psnr"] == 100.0 and abs(rep["ssim"] - 1.0) < 1e-12

    a = np.full((16, 16), 0.25)
    rep = rmse_psnr_ssim(a, a + 0.1)
    expected_psnr = 20 * np.log10(2 / 0.1)
    ok &= abs(rep["rmse"] - 0.1) < 1e-12
    ok &= abs(rep["psnr"] - expected_psnr) < 1e-6

    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    rep = iou_oa(confusion(truth, pred, 2))
    ok &= abs(rep["per_class_iou"][0] - 0.5) < 1e-12
    ok &= abs(rep["per_class_iou"][1] - 2 / 3) < 1e-12
    ok &= abs(rep["oa"] - 0.75) < 1e-12
    _report(11, ok, "perfect-prediction, 0.1-offset PSNR (1e-6) and hand-counted IoU/OA all exact")
    assert ok


# ---------------------------------------------------------------------------
# 12. compression ratio vs measured bytes


def test_criterion_12_compression_ratio(tmp_path):
    # formula exactness on the plug-in fixture
    nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(10)]
    edges = (
        [Edge(i, i + 1, "S", 1.0) for i in range(9)]
        + [Edge(i, i + 2, "S", 1.0) for i in range(8)]
        + [Edge(i, i + 3, "S", 1.0) for i in range(3)]
    )
    g0 = graph_from_objects(nodes, edges, [])
    r = graph_stats(g0, (2, 4, 64, 64), f_v=4, f_e=1, map_stored=False)["compression_ratio"]
    ok = abs(r - 409.6) < 1e-9

    # measured byte sizes on a 64x64, T=6, C=4 synthetic cube
    parts = [synth_seasonal(seed=s, t=6, h=64, w=64, n_blobs=8, period_dates=6, band=f"B{s:02d}")[0] for s in range(4)]
    cube = SitsCube(
        values=np.concatenate([p.values for p in parts], axis=1),
        timestamps=parts[0].timestamps,
        bands=[f"B{s:02d}" for s in range(4)],
        geo=GEO,
    )
    seg = segment_cube(cube, "felzenszwalb", {"scale": 0.5, "min_size": 8})
    fm = band_stats(cube, seg)
    g = build_graph(seg, features=fm, spatial=["adjacency"], st=[("overlap", 1)])
    report = graph_stats(g, cube.shape, f_v=fm.dim, f_e=0, map_stored=True)

    sg.save_cube(cube, tmp_path / "cube")
    cube_bytes = (tmp_path / "cube" / "cube.bin").stat().st_size
    sg.segmentation.save_seg(seg, tmp_path / "seg")
    seg_bytes = sum(f.stat().st_size for f in (tmp_path / "seg").glob("seg_t*.bin"))
    feat_bytes = len(np.ascontiguousarray(fm.values, dtype="<f4").tobytes())
    v = graph_objects(g)
    n_edges = len(v.edges_spatial) + len(v.edges_st)
    edge_bytes = len(
        np.asarray(
            [[e.src, e.dst] for e in list(v.edges_spatial) + list(v.edges_st)], dtype="<i4"
        ).tobytes()
    )
    measured = cube_bytes / (seg_bytes + feat_bytes + edge_bytes)
    rel = abs(measured - report["compression_ratio"]) / report["compression_ratio"]
    ok &= rel <= 0.20
    _report(
        12,
        ok,
        f"formula 409.6 exact; measured ratio {measured:.2f} vs formula {report['compression_ratio']:.2f} "
        f"({rel * 100:.1f}% <= 20%) on {g.n_nodes} nodes / {n_edges} edges",
    )
    assert ok


# ---------------------------------------------------------------------------
# 13. end-to-end CLI pipeline


def _run_pipeline(root: Path) -> dict:
    cube = root / "cube"
    seg = root / "seg"
    graph = root / "graph"
    steps = [
        ["synth", "--kind", "context", "--seed", "21", "--cells", "6", "--cell-px", "4", "--t", "3", "--out", str(cube), "--threads", "1"],
        ["segment", "--cube", str(cube), "--algo", "felzenszwalb", "--scale", "1e-6", "--min-size", "1", "--out", str(seg), "--threads", "1"],
        ["features", "--cube", str(cube), "--seg", str(seg), "--out", str(root / "features"), "--threads", "1"],
        ["build-graph", "--cube", str(cube), "--seg", str(seg), "--spatial", "adjacency", "--st", "overlap:1", "--out", str(graph), "--threads", "1"],
    ]
    for conv in ("sage", "mlp"):
        steps.append(
            ["train", "--graph", str(graph / "graph.json"), "--conv", conv, "--hidden", "32",
             "--layers", "4", "--lr", "1e-2", "--epochs", "40", "--seed", "0", "--val-frac", "0.25",
             "--out", str(root / f"model_{conv}"), "--threads", "1"]
        )
        steps.append(
            ["eval", "--task", "classify", "--checkpoint", str(root / f"model_{conv}" / "checkpoint.bin"),
             "--graph", str(graph / "graph.json"), "--seg", str(seg), "--cube", str(cube),
             "--out", str(root / f"report_{conv}"), "--threads", "1"]
        )
    for s in steps:
        assert cli_main(s) == 0, s
    return {
        conv: json.loads((root / f"report_{conv}" / "report.json").read_text()) for conv in ("sage", "mlp")
    }


def test_criterion_13_end_to_end_cli(tmp_path):
    t0 = time.monotonic()
    rep_a = _run_pipeline(tmp_path / "a")
    rep_b = _run_pipeline(tmp_path / "b")
    elapsed = time.monotonic() - t0

    # byte reproducibility of every artifact except run_config.json (embeds paths)
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file() and p.name != "run_config.json")
    same = True
    for fa in files_a:
        fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
        same &= fb.is_file() and fa.read_bytes() == fb.read_bytes()

    gap_ok = rep_a["sage"]["miou"] > rep_a["mlp"]["miou"]
    ok = same and gap_ok and elapsed < 600.0
    _report(
        13,
        ok,
        f"pipeline x2 in {elapsed:.0f}s (< 600s); byte-reproducible={same}; "
        f"sage mIoU {rep_a['sage']['miou']:.3f} > mlp mIoU {rep_a['mlp']['miou']:.3f}",
    )
    assert ok
