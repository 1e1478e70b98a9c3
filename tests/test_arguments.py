"""Each library function rejects a bad argument with its typed error.

One row per check: the call, the error it raises and text its message
must hold. Checks on input from outside the program (files, graph
documents, flags) are rows of ``FAILURES`` in ``test_cli.py`` instead."""

import numpy as np
import pytest

from _oracles import OracleNode as Node
from _oracles import graph_from_objects
from sitsgraph.analysis import mine_frequent, symbolize
from sitsgraph.datacube import GeoBounds, SitsCube, load_labels, save_labels, synth_context, synth_seasonal
from sitsgraph.errors import DimMismatch, EmptyImage, InvalidSpec, LengthMismatch, MissingFile, NoData, ShapeMismatch
from sitsgraph.features import FeatureMatrix, band_stats
from sitsgraph.forecast import ForecastConfig, Forecaster, build_mesh, train_forecaster
from sitsgraph.forecast.model import baseline_average, baseline_persistence
from sitsgraph.forecast.train import ForecastSample
from sitsgraph.metrics import ConfusionMatrix, confusion, ssim
from sitsgraph.neural import ClassifierConfig, train_classifier
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Tensor
from sitsgraph.neural.nn import MLP, Parameters
from sitsgraph.segmentation import SegStack, felzenszwalb, segment_cube, slic
from sitsgraph.stgraph import adjacency_edges, build_graph, export_graph, overlap_edges, similarity_edges

GEO = GeoBounds(43.0, 44.0, 1.0, 2.0)
SMALL = ForecastConfig(input_len=2, n_segments=2, hidden=4, processor_rounds=1, epochs=1)


def _t(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols), dtype=np.float32))


def _fm(n: int) -> FeatureMatrix:
    return FeatureMatrix(values=np.arange(n, dtype=np.float64).reshape(n, 1), names=["f0"])


def _graph(ids=(0, 1), features=None):
    nodes = [Node(i, 0, 1, (0.0, float(i)), label=i % 2) for i in ids]
    return graph_from_objects(nodes, [], [], features=features)


def _seg() -> SegStack:
    """Two dates of a 2x2 image, two objects each."""
    return SegStack(labels=np.array([[[0, 0], [1, 1]], [[2, 3], [2, 3]]]), counts=[2, 2])


def _cube(t: int = 2, h: int = 4, w: int = 4) -> SitsCube:
    stamps = [f"2020-0{k + 1}-01" for k in range(t)]
    return SitsCube(values=np.zeros((t, 1, h, w)), timestamps=stamps, bands=["B03"], geo=GEO)


def _sample(site: str, frames: int) -> ForecastSample:
    return ForecastSample(np.zeros((frames, 4, 4), np.float32), np.zeros((4, 4), np.float32), site, GEO, "2020-01-01")


def _train_classifier(train, val):
    return train_classifier(train, val, ClassifierConfig(n_classes=2, conv="mlp", hidden=4, n_layers=2, epochs=1))


# (call given a scratch directory, error, text of its message)
ARGUMENT_ERRORS = {
    # analysis
    "symbolize_one_bin": (lambda tmp: symbolize(_fm(2), 0, 1), ShapeMismatch, "n_bins must be >= 2, got 1"),
    "mine_minsup_zero": (lambda tmp: mine_frequent(_graph(), np.zeros(2, int), 0, 2), ShapeMismatch, "minsup must be >= 1"),
    "mine_maxlen_zero": (lambda tmp: mine_frequent(_graph(), np.zeros(2, int), 1, 0), ShapeMismatch, "maxlen must be >= 1"),
    "mine_symbols_short": (lambda tmp: mine_frequent(_graph(), np.zeros(1, int), 1, 2), ShapeMismatch, "1 symbols for 2 nodes"),
    # datacube
    "cube_values_3d": (
        lambda tmp: SitsCube(np.zeros((2, 4, 4)), ["2020-01-01", "2020-02-01"], ["B03"], GEO), ShapeMismatch, "must be 4-D",
    ),
    "cube_width_zero": (lambda tmp: _cube(w=0), ShapeMismatch, "all cube dimensions must be >= 1"),
    "pixel_geo_outside": (lambda tmp: _cube().pixel_geo(4, 0, 0), ShapeMismatch, "pixel (4,0) at t=0 outside cube"),
    "save_labels_2d": (lambda tmp: save_labels(np.zeros((4, 4)), tmp), ShapeMismatch, "labels must be (T,H,W)"),
    "load_labels_missing": (lambda tmp: load_labels(tmp, 2, 4, 4), MissingFile, "labels_t0.bin"),
    "synth_blobs_beyond_pixels": (
        lambda tmp: synth_seasonal(seed=0, t=4, h=4, w=4, n_blobs=17, period_dates=2), InvalidSpec, "n_blobs=17 exceeds pixel count 16",
    ),
    "synth_period_zero": (
        lambda tmp: synth_seasonal(seed=0, t=4, h=4, w=4, n_blobs=2, period_dates=0), InvalidSpec, "period_dates must be >= 1",
    ),
    "synth_context_one_cell": (lambda tmp: synth_context(seed=0, cells=1), InvalidSpec, "need cells >= 2"),
    # features
    "feature_matrix_1d": (lambda tmp: FeatureMatrix(np.zeros(3), ["f0"]), ShapeMismatch, "feature matrix must be 2-D"),
    "band_stats_other_shape": (lambda tmp: band_stats(_cube(), _seg()), ShapeMismatch, "does not match cube (2, 4, 4)"),
    # forecast
    "build_mesh_2d_image": (lambda tmp: build_mesh(np.zeros((4, 4)), 2, 0.1), ShapeMismatch, "image must be (C,H,W)"),
    "build_mesh_labels_other_shape": (
        lambda tmp: build_mesh(np.zeros((1, 4, 4)), 2, 0.1, labels=np.zeros((3, 3), int)), ShapeMismatch, "do not match image (4, 4)",
    ),
    "persistence_2d_window": (lambda tmp: baseline_persistence(np.zeros((4, 4))), ShapeMismatch, "window must be (N,H,W)"),
    "average_empty_window": (lambda tmp: baseline_average(np.zeros((0, 4, 4))), ShapeMismatch, "window must be (N,H,W)"),
    "forecaster_2d_window": (
        lambda tmp: Forecaster(SMALL).predict(np.zeros((4, 4)), None, None), ShapeMismatch, "window must be (N,H,W)",
    ),
    "forecaster_window_length": (
        lambda tmp: train_forecaster([_sample("a", 3)], [_sample("b", 2)], SMALL), LengthMismatch, "holds 3 frames, config says 2",
    ),
    "forecaster_no_val_samples": (lambda tmp: train_forecaster([_sample("a", 2)], [], SMALL), NoData, "must both be non-empty"),
    # metrics
    "confusion_matrix_not_square": (lambda tmp: ConfusionMatrix(np.zeros((2, 3))), ShapeMismatch, "must be square"),
    "confusion_matrix_negative": (lambda tmp: ConfusionMatrix([[1, -1], [0, 0]]), ShapeMismatch, "negative counts"),
    "confusion_lengths_differ": (lambda tmp: confusion([0, 1, 1], [0, 1], 2), ShapeMismatch, "truth (3,) vs pred (2,)"),
    "confusion_label_outside": (lambda tmp: confusion([0, 2], [0, 0], 2), ShapeMismatch, "truth label 2 outside [0, 2)"),
    "ssim_shapes_differ": (lambda tmp: ssim(np.zeros((4, 4)), np.zeros((4, 5))), ShapeMismatch, "x (4, 4) vs y (4, 5)"),
    "ssim_non_finite": (lambda tmp: ssim(np.zeros((4, 4)), np.full((4, 4), np.inf)), NoData, "the y frame holds a non-finite"),
    # neural
    "tensor_1d": (lambda tmp: Tensor(np.zeros(3)), ShapeMismatch, "tensors are 2-D"),
    "linear_inner_dims": (lambda tmp: ag.linear(_t(2, 3), _t(4, 2)), ShapeMismatch, "matmul (2, 3) @ (4, 2)"),
    "linear_bias_width": (lambda tmp: ag.linear(_t(2, 3), _t(3, 2), _t(1, 3)), ShapeMismatch, "add (2, 2) + (1, 3)"),
    "add_shapes": (lambda tmp: ag.add(_t(2, 3), _t(3, 3)), ShapeMismatch, "add (2, 3) + (3, 3)"),
    "mul_shapes": (lambda tmp: ag.mul(_t(2, 3), _t(1, 3)), ShapeMismatch, "mul (2, 3) * (1, 3)"),
    "concat_cols_rows_differ": (lambda tmp: ag.concat_cols([_t(2, 1), _t(3, 1)]), ShapeMismatch, "mismatched row counts"),
    "concat_rows_cols_differ": (lambda tmp: ag.concat_rows([_t(2, 1), _t(2, 2)]), ShapeMismatch, "mismatched column counts"),
    "slice_rows_outside": (lambda tmp: ag.slice_rows(_t(2, 1), 1, 3), ShapeMismatch, "slice [1:3] outside 2 rows"),
    "scale_rows_count": (lambda tmp: ag.scale_rows(_t(2, 1), [1.0]), ShapeMismatch, "1 coefficients for 2 rows"),
    "batchnorm_gamma_width": (
        lambda tmp: ag.batchnorm(_t(2, 3), _t(1, 2), _t(1, 3), np.zeros(3), np.ones(3), True), ShapeMismatch, "gamma/beta",
    ),
    "cross_entropy_label_count": (lambda tmp: ag.cross_entropy(_t(2, 2), [0]), ShapeMismatch, "1 labels for 2 rows"),
    "cross_entropy_label_outside": (lambda tmp: ag.cross_entropy(_t(2, 2), [0, 2]), ShapeMismatch, "label outside [0, n_classes)"),
    "huber_target_shape": (lambda tmp: ag.huber(_t(2, 1), np.zeros((1, 2))), ShapeMismatch, "target (1, 2) vs pred (2, 1)"),
    "mlp_one_dim": (lambda tmp: MLP(np.random.default_rng(0), [3], params=Parameters()), ShapeMismatch, "at least input and output dims"),
    "classifier_no_train_graphs": (lambda tmp: _train_classifier([], [_graph(features=_fm(2))]), NoData, "must both be non-empty"),
    "classifier_no_val_graphs": (lambda tmp: _train_classifier([_graph(features=_fm(2))], []), NoData, "must both be non-empty"),
    # segmentation
    "seg_labels_2d": (lambda tmp: SegStack(np.zeros((2, 2)), [1]), ShapeMismatch, "labels must be (T,H,W)"),
    "seg_negative_id": (lambda tmp: SegStack(-np.ones((1, 2, 2)), [1]), ShapeMismatch, "negative ids"),
    "class_counts_other_shape": (lambda tmp: _seg().class_counts(np.zeros((1, 2, 2))), ShapeMismatch, "do not match seg (2, 2, 2)"),
    "felzenszwalb_2d_image": (lambda tmp: felzenszwalb(np.zeros((4, 4)), 1.0), ShapeMismatch, "image must be (C,H,W)"),
    "felzenszwalb_no_band": (lambda tmp: felzenszwalb(np.zeros((0, 4, 4)), 1.0), ShapeMismatch, "image must be (C,H,W)"),
    "felzenszwalb_min_size_zero": (lambda tmp: felzenszwalb(np.zeros((1, 4, 4)), 1.0, 0), ShapeMismatch, "min_size must be >= 1"),
    "slic_2d_image": (lambda tmp: slic(np.zeros((4, 4)), 2, 0.1), ShapeMismatch, "image must be (C,H,W)"),
    "slic_empty_image": (lambda tmp: slic(np.zeros((1, 0, 4)), 2, 0.1), EmptyImage, "cannot segment an empty image"),
    "segment_cube_unknown_algo": (lambda tmp: segment_cube(_cube(), "watershed", {}), ShapeMismatch, "'watershed'"),
    # stgraph
    "graph_feature_rows": (lambda tmp: _graph(features=_fm(3)), DimMismatch, "3 feature rows for 2 nodes"),
    "graph_feature_ids_gapped": (lambda tmp: _graph((0, 5), _fm(2)), DimMismatch, "contiguous node ids"),
    "adjacency_date_outside": (lambda tmp: adjacency_edges(_seg(), 2), ShapeMismatch, "date 2 out of range for 2 dates"),
    "similarity_unknown_scope": (lambda tmp: similarity_edges(_fm(2), [0, 0], "anywhere", 1), ShapeMismatch, "'anywhere'"),
    "similarity_k_zero": (lambda tmp: similarity_edges(_fm(2), [0, 0], "within-date", 0), ShapeMismatch, "k must be >= 1"),
    "similarity_dates_short": (lambda tmp: similarity_edges(_fm(2), [0], "within-date", 1), DimMismatch, "1 dates for 2 feature rows"),
    "overlap_one_date": (lambda tmp: overlap_edges(SegStack(np.zeros((1, 2, 2)), [1])), ShapeMismatch, "at least two dates"),
    "overlap_min_pixels_zero": (lambda tmp: overlap_edges(_seg(), 0), ShapeMismatch, "min_pixels must be >= 1"),
    "build_graph_sim_without_features": (
        lambda tmp: build_graph(_seg(), spatial=["sim:1"]), DimMismatch, "similarity edges need a feature matrix",
    ),
    "export_unknown_format": (lambda tmp: export_graph(_graph(), "xml"), ShapeMismatch, "unknown export format 'xml'"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_bad_argument_raises_its_typed_error(case, tmp_path):
    call, error, named = ARGUMENT_ERRORS[case]
    with pytest.raises(error) as e:
        call(tmp_path)
    assert named in str(e.value)
