"""Per-object attribute vectors and positional encodings."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datacube import GeoBounds, PixelGeo, SitsCube, day_of_year_fraction
from .errors import AllNodataWarning, DimMismatch, ShapeMismatch
from .segmentation import SegStack


@dataclass
class FeatureMatrix:
    values: np.ndarray                 # (n_objects, dim) float64
    names: list[str]
    standardization: dict | None = None  # {"mean": [...], "std": [...]} once applied

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeMismatch(f"feature matrix must be 2-D, got {self.values.shape}")
        if len(self.names) != self.values.shape[1]:
            raise DimMismatch(f"{len(self.names)} names for dim {self.values.shape[1]}")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self) -> str:
        lines = [",".join(["object_id"] + self.names)]
        for i, row in enumerate(self.values):
            lines.append(",".join([str(i)] + [repr(float(x)) for x in row]))
        return "\n".join(lines) + "\n"


def band_stats(cube: SitsCube, seg: SegStack) -> FeatureMatrix:
    """Per object: [mean, std, min, max] of every band over the object's date.

    std is the population standard deviation. Missing samples (NaN / nodata)
    are excluded; an object whose pixels are all missing yields zeros and a
    warning naming it.
    """
    t, c, h, w = cube.shape
    if seg.shape != (t, h, w):
        raise ShapeMismatch(f"segmentation {seg.shape} does not match cube {(t, h, w)}")

    n = seg.n_objects
    out = np.zeros((n, 4 * c), dtype=np.float64)
    invalid = cube.invalid_mask()
    empty_objects: list[int] = []

    for date in range(t):
        lab = seg.labels[date].ravel().astype(np.int64)
        for b in range(c):
            vals = cube.values[date, b].ravel().astype(np.float64)
            ok = ~invalid[date, b].ravel()
            lab_ok = lab[ok]
            v = vals[ok]
            count = np.bincount(lab_ok, minlength=n).astype(np.float64)
            s = np.bincount(lab_ok, weights=v, minlength=n)
            s2 = np.bincount(lab_ok, weights=v * v, minlength=n)
            mn = np.full(n, np.inf)
            mx = np.full(n, -np.inf)
            np.minimum.at(mn, lab_ok, v)
            np.maximum.at(mx, lab_ok, v)

            ids = np.unique(lab)  # objects present at this date
            present = np.zeros(n, dtype=bool)
            present[ids] = True
            nonempty = present & (count > 0)
            mean = np.zeros(n)
            std = np.zeros(n)
            mean[nonempty] = s[nonempty] / count[nonempty]
            var = np.zeros(n)
            var[nonempty] = np.maximum(0.0, s2[nonempty] / count[nonempty] - mean[nonempty] ** 2)
            std[nonempty] = np.sqrt(var[nonempty])
            mn[~nonempty] = 0.0
            mx[~nonempty] = 0.0

            out[:, 4 * b + 0] += mean
            out[:, 4 * b + 1] += std
            out[:, 4 * b + 2] += mn
            out[:, 4 * b + 3] += mx

            empty_objects.extend(int(i) for i in ids[count[ids] == 0])

    if empty_objects:
        warnings.warn(
            f"objects with no valid pixel, statistics zero-filled: {sorted(set(empty_objects))}",
            AllNodataWarning,
            stacklevel=2,
        )

    names = [f"{band}_{stat}" for band in cube.bands for stat in ("mean", "std", "min", "max")]
    return FeatureMatrix(values=out, names=names)


def geom_features(seg: SegStack) -> FeatureMatrix:
    """Per object: [area_pixels, centroid_row, centroid_col, date_index]."""
    t, h, w = seg.shape
    n = seg.n_objects
    out = np.zeros((n, 4), dtype=np.float64)
    for date in range(t):
        lab = seg.labels[date].ravel().astype(np.int64)
        count = np.bincount(lab, minlength=n).astype(np.float64)
        rsum = np.bincount(lab, weights=np.repeat(np.arange(h), w), minlength=n)
        csum = np.bincount(lab, weights=np.tile(np.arange(w), h), minlength=n)
        present = count > 0
        out[present, 0] = count[present]
        out[present, 1] = rsum[present] / count[present]
        out[present, 2] = csum[present] / count[present]
        out[present, 3] = date
    return FeatureMatrix(values=out, names=["area", "centroid_row", "centroid_col", "date_index"])


def object_features(cube: SitsCube, seg: SegStack, geometry: bool = False) -> FeatureMatrix:
    """``band_stats`` columns, followed by the ``geom_features`` columns when
    ``geometry`` is set."""
    fm = band_stats(cube, seg)
    if not geometry:
        return fm
    gm = geom_features(seg)
    return FeatureMatrix(values=np.concatenate([fm.values, gm.values], axis=1), names=fm.names + gm.names)


def pos_encoding(p: PixelGeo) -> np.ndarray:
    """[sin(lat), sin(lon), cos(lon), sin(2*pi*doy)], all in [-1, 1]."""
    return _encode_positions(np.array([p.lat]), np.array([p.lon]), p.doy)[0]


def pixel_pos_encoding(geo: GeoBounds, h: int, w: int, timestamp: str) -> np.ndarray:
    """(H*W, 4) ``pos_encoding`` of every pixel centre in row-major order."""
    lat, lon = geo.pixel_centers(h, w)
    return _encode_positions(np.repeat(lat, w), np.tile(lon, h), day_of_year_fraction(timestamp))


def _encode_positions(lat: np.ndarray, lon: np.ndarray, doy: float) -> np.ndarray:
    lat_r = np.radians(lat)
    lon_r = np.radians(lon)
    return np.stack(
        [
            np.sin(lat_r),
            np.sin(lon_r),
            np.cos(lon_r),
            np.full(lat_r.shape, math.sin(2.0 * math.pi * doy)),
        ],
        axis=1,
    )


def standardize(fm: FeatureMatrix, stats: dict | None = None) -> FeatureMatrix:
    """Column-wise (x - mean) / std with a 1e-8 std floor.

    Without ``stats`` the moments are computed from ``fm`` itself (population
    std) and recorded on the result, so they can be reapplied to held-out
    rows.
    """
    v = fm.values
    if stats is None:
        mean = v.mean(axis=0)
        std = v.std(axis=0)
        stats = {"mean": mean.tolist(), "std": std.tolist()}
    mean = np.asarray(stats["mean"], dtype=np.float64)
    std = np.asarray(stats["std"], dtype=np.float64)
    if mean.shape != (fm.dim,) or std.shape != (fm.dim,):
        raise DimMismatch(f"stats of dim {mean.shape} for features of dim {fm.dim}")
    out = (v - mean) / np.maximum(std, 1e-8)
    return FeatureMatrix(values=out, names=list(fm.names), standardization=stats)
