"""Evaluation metrics: pixel-level IoU/OA, the object-based accuracy ceiling,
and frame reconstruction quality (RMSE / PSNR / SSIM)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix, NoData, NoLabels, ShapeMismatch
from .segmentation import SegStack

# PSNR data range: index values span [-1, 1]
DATA_RANGE = 2.0
PSNR_CAP_DB = 100.0

# SSIM's window side in pixels and its stabilizing constants
SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass
class ConfusionMatrix:
    counts: np.ndarray          # (n_classes, n_classes); rows = truth

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ShapeMismatch(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ShapeMismatch("confusion matrix holds negative counts")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(truth: np.ndarray, pred: np.ndarray, n_classes: int) -> ConfusionMatrix:
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    if truth.shape != pred.shape:
        raise ShapeMismatch(f"truth {truth.shape} vs pred {pred.shape}")
    ok = truth != -1  # unlabeled
    truth, pred = truth[ok], pred[ok]
    for name, v in (("truth", truth), ("pred", pred)):
        if v.size and (v.min() < 0 or v.max() >= n_classes):
            raise ShapeMismatch(f"{name} label {v[(v < 0) | (v >= n_classes)][0]} outside [0, {n_classes})")
    counts = np.bincount(truth.astype(np.int64) * n_classes + pred, minlength=n_classes * n_classes)
    return ConfusionMatrix(counts=counts.reshape(n_classes, n_classes))


def iou_oa(cm: ConfusionMatrix) -> dict:
    """Per-class IoU, mean IoU over classes with nonzero union, and OA."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix is empty")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    union = tp + fp + fn
    per_class = np.full(len(tp), np.nan)
    valid = union > 0
    per_class[valid] = tp[valid] / union[valid]
    return {
        "per_class_iou": [None if not v else float(i) for v, i in zip(valid, per_class)],
        "miou": float(per_class[valid].mean()) if valid.any() else float("nan"),
        "oa": float(tp.sum() / cm.total),
    }


def majority_upper_bound(seg: SegStack, label_maps: np.ndarray) -> float:
    """Overall accuracy of assigning every object its modal class.

    This is the ceiling for any method that predicts one class per object;
    pixels labeled -1 are ignored.
    """
    table = seg.class_counts(label_maps)
    labeled = table.sum()
    if labeled == 0:
        raise NoLabels("no labeled pixel")
    return float(table.max(axis=1).sum() / labeled)


def _check_data(frames: dict[str, np.ndarray]) -> None:
    """Raise ``NoData`` unless the named frames, all of one shape, hold a
    pixel and only finite samples."""
    shape = next(iter(frames.values())).shape
    if 0 in shape:
        raise NoData(f"the frames hold no pixel (shape {shape})")
    for name, frame in frames.items():
        if not np.isfinite(frame).all():
            raise NoData(f"the {name} frame holds a non-finite sample")


def rmse_psnr_ssim(pred: np.ndarray, target: np.ndarray) -> dict:
    """Frame reconstruction report for index-valued images in [-1, 1]. A
    frame with no pixel or a non-finite sample in either frame is a
    ``NoData`` error: its RMSE would be NaN, which the PSNR cap would report
    as a perfect frame."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    _check_data({"predicted": pred, "target": target})
    rmse = float(np.sqrt(np.mean((pred - target) ** 2)))
    if rmse < DATA_RANGE * 1e-5:
        psnr = PSNR_CAP_DB
    else:
        psnr = min(PSNR_CAP_DB, float(20.0 * np.log10(DATA_RANGE / rmse)))
    return {"rmse": rmse, "psnr": psnr, "ssim": ssim(pred, target)}


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean structural similarity with a uniform ``SSIM_WINDOW`` window,
    shrunk to fit a smaller image, over fully interior positions. Moments are
    population moments. A frame with no pixel or a non-finite sample is a
    ``NoData`` error, as in ``rmse_psnr_ssim``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ShapeMismatch(f"x {x.shape} vs y {y.shape}")
    _check_data({"x": x, "y": y})
    h, w = x.shape
    win = min(SSIM_WINDOW, h, w)
    c1 = (SSIM_K1 * DATA_RANGE) ** 2
    c2 = (SSIM_K2 * DATA_RANGE) ** 2

    def win_mean(a: np.ndarray) -> np.ndarray:
        v = np.lib.stride_tricks.sliding_window_view(a, (win, win))
        return v.mean(axis=(-2, -1))

    mx = win_mean(x)
    my = win_mean(y)
    mxx = win_mean(x * x)
    myy = win_mean(y * y)
    mxy = win_mean(x * y)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    s = ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(s.mean())
