import math

import numpy as np
import pytest

from _oracles import modal_label_accuracy
from sitsgraph.errors import EmptyMatrix, NoData, NoLabels, ShapeMismatch
from sitsgraph.metrics import (
    ConfusionMatrix,
    confusion,
    iou_oa,
    majority_upper_bound,
    rmse_psnr_ssim,
    ssim,
)
from sitsgraph.segmentation import SegStack


def _seg(labels):
    labels = np.asarray(labels, dtype=np.int32)
    counts = [len(np.unique(labels[t])) for t in range(labels.shape[0])]
    return SegStack(labels=labels, counts=counts)


class TestIouOa:
    def test_perfect_prediction(self):
        cm = confusion(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        rep = iou_oa(cm)
        assert rep["per_class_iou"] == [1.0, 1.0, 1.0]
        assert rep["miou"] == 1.0 and rep["oa"] == 1.0

    def test_hand_count(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        rep = iou_oa(confusion(truth, pred, 2))
        assert rep["per_class_iou"][0] == pytest.approx(1 / 2)
        assert rep["per_class_iou"][1] == pytest.approx(2 / 3)
        assert rep["oa"] == pytest.approx(3 / 4)

    def test_absent_class_excluded_from_miou(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        rep = iou_oa(confusion(truth, pred, 3))
        assert rep["per_class_iou"][2] is None
        assert rep["miou"] == 1.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            iou_oa(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

    def test_oa_invariant_under_relabeling(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 100)
        pred = rng.integers(0, 4, 100)
        perm = np.array([2, 3, 1, 0])
        a = iou_oa(confusion(truth, pred, 4))["oa"]
        b = iou_oa(confusion(perm[truth], perm[pred], 4))["oa"]
        assert a == pytest.approx(b)

    def test_ignored_pixels(self):
        cm = confusion(np.array([0, -1, 1]), np.array([0, 0, 1]), 2)
        assert cm.total == 2


class TestMajorityBound:
    def test_aligned_segmentation_perfect(self):
        lab = np.array([[[0, 0, 1, 1]]], dtype=np.int32)
        truth = np.array([[[5, 5, 2, 2]]], dtype=np.int32) % 3
        assert majority_upper_bound(_seg(lab), truth) == 1.0

    def test_half_half_object(self):
        lab = np.zeros((1, 1, 4), dtype=np.int32)
        truth = np.array([[[0, 0, 1, 1]]], dtype=np.int32)
        assert majority_upper_bound(_seg(lab), truth) == 0.5

    def test_no_labels(self):
        lab = np.zeros((1, 2, 2), dtype=np.int32)
        truth = np.full((1, 2, 2), -1, dtype=np.int32)
        with pytest.raises(NoLabels):
            majority_upper_bound(_seg(lab), truth)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_modal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0, 6, size=(2, 8, 8)).astype(np.int32)
        _, lab_flat = np.unique(lab, return_inverse=True)
        lab = lab_flat.reshape(2, 8, 8).astype(np.int32)
        truth = rng.integers(0, 3, size=(2, 8, 8)).astype(np.int32)
        seg = SegStack(labels=lab, counts=[int(lab.max()) + 1, 0])
        got = majority_upper_bound(seg, truth)
        assert got == pytest.approx(modal_label_accuracy(lab, truth))

    def test_dominates_region_constant_predictions(self):
        rng = np.random.default_rng(9)
        lab = rng.integers(0, 5, size=(1, 10, 10))
        _, flat = np.unique(lab, return_inverse=True)
        lab = flat.reshape(1, 10, 10).astype(np.int32)
        truth = rng.integers(0, 3, size=(1, 10, 10)).astype(np.int32)
        seg = SegStack(labels=lab, counts=[int(lab.max()) + 1])
        bound = majority_upper_bound(seg, truth)
        n_obj = int(lab.max()) + 1
        for _ in range(100):
            assign = rng.integers(0, 3, size=n_obj)
            pred = assign[lab]
            oa = iou_oa(confusion(truth, pred, 3))["oa"]
            assert oa <= bound + 1e-12


class TestFrameMetrics:
    def test_perfect_prediction(self):
        x = np.linspace(-1, 1, 64).reshape(8, 8)
        rep = rmse_psnr_ssim(x, x)
        assert rep["rmse"] == 0.0
        assert rep["psnr"] == 100.0
        assert rep["ssim"] == pytest.approx(1.0)

    def test_constant_offset_closed_form(self):
        a = np.full((16, 16), 0.2)
        b = np.full((16, 16), 0.3)
        rep = rmse_psnr_ssim(a, b)
        assert rep["rmse"] == pytest.approx(0.1, abs=1e-12)
        assert rep["psnr"] == pytest.approx(20 * math.log10(2 / 0.1), abs=1e-6)

    def test_ssim_of_negated_zero_mean_pattern_negative(self):
        # period-7 zero-sum profile: every 7x7 window has exactly zero mean,
        # so the covariance term drives the score below zero
        v = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 0.0])
        rows = v[np.arange(21) % 7]
        x = np.outer(rows, rows)
        assert ssim(x, -x) < 0
        # direct formula check on one window (means are zero by construction)
        win = x[:7, :7]
        c1, c2 = (0.01 * 2) ** 2, (0.03 * 2) ** 2
        var = win.var()
        expect_window = (c1 * (2 * (-var) + c2)) / (c1 * (2 * var + c2))
        assert expect_window < 0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, size=(12, 12))
        b = rng.uniform(-1, 1, size=(12, 12))
        assert rmse_psnr_ssim(a, b)["rmse"] == pytest.approx(rmse_psnr_ssim(b, a)["rmse"])
        assert ssim(a, b) == pytest.approx(ssim(b, a))
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rmse_psnr_ssim(np.zeros((4, 4)), np.zeros((4, 5)))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_a_frame_with_no_pixel_is_no_data(self, shape):
        # its RMSE and SSIM would be NaN, and the PSNR cap a perfect 100 dB
        for metric in (rmse_psnr_ssim, ssim):
            with pytest.raises(NoData, match="no pixel"):
                metric(np.zeros(shape), np.zeros(shape))
