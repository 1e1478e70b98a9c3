"""Datacube loading, validation, synthesis and spectral indices.

A cube is a dense ``(T, C, H, W)`` float32 array of reflectances (or index
values) with one calendar date per time step and a linear lat/lon
georeference. On disk a cube is a directory holding ``meta.json`` plus
``cube.bin`` (raw little-endian float32, t-major then c, h, w). Per-date
label maps live next to it as ``labels_t{k}.bin`` (int32 row-major,
-1 = unlabeled).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidCube,
    InvalidSpec,
    NonMonotonicTimestamps,
    ShapeMismatch,
    UnknownBand,
    int_column,
    json_object,
    number_column,
    read_array,
    read_file,
    write_files,
)
from .nearest import k_nearest

# Index bands whose finite values must stay inside [-1, 1].
RANGE_BOUND_BANDS = ("NDWI", "NDVI")

# Land-cover class palette used by the synthetic generators.
CLASS_NAMES = (
    "impervious",
    "agriculture",
    "forest",
    "wetlands",
    "soil",
    "water",
    "snow",
)


@dataclass(frozen=True)
class GeoBounds:
    lat0: float
    lat1: float
    lon0: float
    lon1: float

    def as_dict(self) -> dict:
        return {"lat0": self.lat0, "lat1": self.lat1, "lon0": self.lon0, "lon1": self.lon1}

    def pixel_centers(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Latitudes of the ``h`` row centres and longitudes of the ``w``
        column centres, interpolated linearly between the bounds."""
        lat = self.lat0 + (np.arange(h) + 0.5) / h * (self.lat1 - self.lat0)
        lon = self.lon0 + (np.arange(w) + 0.5) / w * (self.lon1 - self.lon0)
        return lat, lon


@dataclass(frozen=True)
class PixelGeo:
    """Geographic view of one pixel at one date.

    ``lat``/``lon`` interpolate linearly between the cube bounds using pixel
    centers; ``doy`` is the day-of-year fraction in [0, 1) on a fixed 365-day
    year (a leap day maps to the same fraction as day 365).
    """

    row: int
    col: int
    lat: float
    lon: float
    doy: float


@dataclass
class SitsCube:
    values: np.ndarray          # (T, C, H, W) float32
    timestamps: list[str]       # ISO-8601 dates, strictly increasing
    bands: list[str]
    geo: GeoBounds
    nodata: float | None = None  # extra sentinel; NaN is always treated as missing

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 4:
            raise ShapeMismatch(f"cube values must be 4-D (T,C,H,W), got ndim={v.ndim}")
        t, c, h, w = v.shape
        if min(t, c, h, w) < 1:
            raise ShapeMismatch(f"all cube dimensions must be >= 1, got {v.shape}")
        if len(self.timestamps) != t:
            raise ShapeMismatch(f"{len(self.timestamps)} timestamps for T={t}")
        if len(self.bands) != c:
            raise ShapeMismatch(f"{len(self.bands)} band names for C={c}")
        dates = [_parse_date(s) for s in self.timestamps]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise NonMonotonicTimestamps(f"timestamps not strictly increasing: {self.timestamps}")
        for i, name in enumerate(self.bands):
            if name in RANGE_BOUND_BANDS:
                band = v[:, i]
                valid = band[~_missing(band, self.nodata)]
                if valid.size and (valid.min() < -1.0 or valid.max() > 1.0):
                    raise InvalidCube(f"band {name} has finite values outside [-1, 1]")
        self.values = v

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(self.values.shape)

    def band_index(self, name: str) -> int:
        try:
            return self.bands.index(name)
        except ValueError:
            raise UnknownBand(f"band {name!r} not in {self.bands}") from None

    def masked_values(self) -> np.ndarray:
        """``values`` with NaN at every missing sample (``_missing``): the one
        view of the samples that segmentation, features and NDWI read. It is
        ``values`` itself when no sample is missing, otherwise a copy."""
        missing = _missing(self.values, self.nodata)
        return np.where(missing, np.float32(np.nan), self.values) if missing.any() else self.values

    def pixel_geo(self, row: int, col: int, t: int) -> PixelGeo:
        t_, _, h, w = self.shape
        if not (0 <= row < h and 0 <= col < w and 0 <= t < t_):
            raise ShapeMismatch(f"pixel ({row},{col}) at t={t} outside cube {self.shape}")
        lat, lon = self.geo.pixel_centers(h, w)
        return PixelGeo(
            row=row, col=col, lat=float(lat[row]), lon=float(lon[col]), doy=day_of_year_fraction(self.timestamps[t])
        )


def _missing(values: np.ndarray, nodata: float | None) -> np.ndarray:
    """True where a sample is not finite or equals a finite ``nodata``."""
    mask = ~np.isfinite(values)
    if nodata is not None and math.isfinite(nodata):
        mask |= values == nodata
    return mask


def _parse_date(s: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(s)
    except ValueError as e:
        raise NonMonotonicTimestamps(f"bad ISO date {s!r}: {e}") from None


def day_of_year_fraction(timestamp: str) -> float:
    """(day_of_year - 1) / 365, clamped to [0, 1); Dec 31 of a leap year maps to day 365."""
    yday = _parse_date(timestamp).timetuple().tm_yday
    return min((yday - 1) / 365.0, 364.0 / 365.0)


# ---------------------------------------------------------------------------
# directory layout

_META_FIELDS = {"T": object, "C": object, "H": object, "W": object, "bands": object, "timestamps": object, "geo": dict}
_GEO_KEYS = ("lat0", "lat1", "lon0", "lon1")


def load_cube(path: str | Path) -> SitsCube:
    """Load ``meta.json`` + ``cube.bin`` from a directory."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = json_object(read_file(meta_path, "cube meta"), str(meta_path), InvalidCube, _META_FIELDS)
    for k in _GEO_KEYS:
        if k not in meta["geo"]:
            raise InvalidCube(f"{meta_path} has no 'geo.{k}'")
    t, c, h, w = (int_column([meta[k]], f"{meta_path} key {k!r}", InvalidCube).item() for k in ("T", "C", "H", "W"))
    if min(t, c, h, w) < 1:
        raise InvalidCube(f"{meta_path} declares a cube of shape {(t, c, h, w)}; every dimension must be >= 1")
    for key in ("timestamps", "bands"):
        if not isinstance(meta[key], list) or not all(isinstance(v, str) for v in meta[key]):
            raise InvalidCube(f"{meta_path} key {key!r} must be a list of strings")
    if meta.get("dtype", "f32") != "f32":
        raise InvalidCube(f"{meta_path} declares unsupported dtype {meta.get('dtype')!r}")
    geo = GeoBounds(**{k: number_column([meta["geo"][k]], f"{meta_path} key 'geo.{k}'", InvalidCube).item() for k in _GEO_KEYS})
    nodata = meta.get("nodata")
    if nodata is not None:
        nodata = number_column([nodata], f"{meta_path} key 'nodata'", InvalidCube).item()
    return SitsCube(  # a loaded cube is shared read-only: its values view the file's bytes
        values=read_array(path / "cube.bin", "cube data", "<f4", (t, c, h, w)),
        timestamps=list(meta["timestamps"]),
        bands=list(meta["bands"]),
        geo=geo,
        nodata=nodata,
    )


def save_cube(cube: SitsCube, path: str | Path) -> None:
    t, c, h, w = cube.shape
    meta = {
        "T": t,
        "C": c,
        "H": h,
        "W": w,
        "dtype": "f32",
        "bands": list(cube.bands),
        "timestamps": list(cube.timestamps),
        "geo": cube.geo.as_dict(),
        "nodata": cube.nodata,
    }
    write_files(path, {"meta.json": meta, "cube.bin": np.ascontiguousarray(cube.values, dtype="<f4")})


def save_labels(labels: np.ndarray, path: str | Path, stem: str = "labels") -> None:
    """Write per-date maps as ``{stem}_t{k}.bin`` (int32 row-major); the
    segmentation writes its object id maps with ``stem="seg"``."""
    labels = np.asarray(labels, dtype="<i4")
    if labels.ndim != 3:
        raise ShapeMismatch(f"labels must be (T,H,W), got {labels.shape}")
    write_files(path, {f"{stem}_t{k}.bin": np.ascontiguousarray(frame) for k, frame in enumerate(labels)})


def load_labels(path: str | Path, t: int, h: int, w: int, stem: str = "labels") -> np.ndarray:
    """The ``t`` maps ``{stem}_t{k}.bin`` as an int32 ``(t, h, w)`` array;
    sizes from a damaged file allocate nothing before each file is checked."""
    frames = [read_array(Path(path) / f"{stem}_t{k}.bin", f"{stem} map", "<i4", (h, w)) for k in range(t)]
    return np.array(frames, dtype=np.int32).reshape(t, h, w)


def has_labels(path: str | Path) -> bool:
    return (Path(path) / "labels_t0.bin").is_file()


# ---------------------------------------------------------------------------
# spectral index

# the Sentinel-2 green and near-infrared bands that NDWI is computed from
NDWI_GREEN, NDWI_NIR = "B03", "B08"


def ndwi(cube: SitsCube) -> SitsCube:
    """(green - nir) / (green + nir) over ``NDWI_GREEN`` and ``NDWI_NIR`` as
    a single-band cube named NDWI.

    Near-zero denominators (|g+n| < 1e-12) map to 0; missing inputs
    (``masked_values``) propagate as NaN; output is clipped to the physical
    [-1, 1] range.
    """
    values = cube.masked_values()
    g = values[:, cube.band_index(NDWI_GREEN)].astype(np.float64)
    n = values[:, cube.band_index(NDWI_NIR)].astype(np.float64)
    denom = g + n
    guard = np.abs(denom) < 1e-12
    safe = np.where(guard, 1.0, denom)
    out = np.where(guard, 0.0, (g - n) / safe)
    out = np.clip(out, -1.0, 1.0)
    return SitsCube(
        values=out[:, None].astype(np.float32),
        timestamps=list(cube.timestamps),
        bands=["NDWI"],
        geo=cube.geo,
        nodata=None,
    )


def ndwi_values(cube: SitsCube) -> np.ndarray:
    """(T, H, W) NDWI frames: the cube's own NDWI band when it has one,
    otherwise ``ndwi`` computed from ``NDWI_GREEN``/``NDWI_NIR``. Missing
    samples (``masked_values``) are NaN either way."""
    if "NDWI" in cube.bands:
        return cube.masked_values()[:, cube.bands.index("NDWI")]
    if NDWI_GREEN in cube.bands and NDWI_NIR in cube.bands:
        return ndwi(cube).values[:, 0]
    raise UnknownBand(f"cube bands {cube.bands} hold neither NDWI nor {NDWI_GREEN}/{NDWI_NIR}")


# ---------------------------------------------------------------------------
# synthetic generators


def _month_sequence(n: int, start: str = "2018-01-01") -> list[str]:
    d0 = _parse_date(start)
    out = []
    y, m = d0.year, d0.month
    for _ in range(n):
        out.append(datetime.date(y, m, d0.day).isoformat())
        m += 1
        if m > 12:
            m, y = 1, y + 1
    return out


_DEFAULT_GEO = GeoBounds(lat0=43.0, lat1=44.0, lon0=1.0, lon1=2.0)

# (base, amplitude, phase) of the seasonal reflectance profile per class.
_CLASS_PROFILE = (
    (0.05, 0.02, 0.00),   # impervious: flat
    (-0.30, 0.45, 0.00),  # agriculture: strong cycle
    (-0.45, 0.25, 0.25),  # forest: shifted cycle
    (0.20, 0.20, 0.50),   # wetlands
    (-0.10, 0.10, 0.10),  # soil
    (0.55, 0.30, 0.75),   # water
    (0.35, 0.05, 0.40),   # snow
)


def synth_seasonal(
    seed: int,
    t: int,
    h: int,
    w: int,
    n_blobs: int,
    period_dates: int,
    sigma: float = 0.02,
    band: str = "NDWI",
) -> tuple[SitsCube, np.ndarray]:
    """Deterministic desk-scale stand-in cube, georeferenced to
    ``_DEFAULT_GEO``.

    The frame is split into ``n_blobs`` Voronoi regions; every region carries a
    land-cover class whose value follows a class-specific sinusoid with the
    declared period, plus Gaussian noise. Returns the cube and an int32
    ``(T, H, W)`` ground-truth class map (static over time).
    """
    if min(t, h, w) < 4:
        raise InvalidSpec(f"T,H,W must each be >= 4, got ({t},{h},{w})")
    if n_blobs < 2:
        raise InvalidSpec(f"n_blobs must be >= 2, got {n_blobs}")
    if n_blobs > h * w:
        raise InvalidSpec(f"n_blobs={n_blobs} exceeds pixel count {h * w}")
    if period_dates < 1:
        raise InvalidSpec(f"period_dates must be >= 1, got {period_dates}")
    if not 0 <= sigma < np.inf:
        raise InvalidSpec(f"sigma must be finite and >= 0, got {sigma}")

    rng = np.random.default_rng(seed)
    seed_flat = rng.choice(h * w, size=n_blobs, replace=False)
    seeds = np.stack([seed_flat // w, seed_flat % w], axis=1).astype(np.float64)

    # nearest seed, ties resolved to the lower blob index
    pix = np.arange(h * w)
    blob_map = k_nearest(
        pix,
        np.arange(n_blobs),
        1,
        lambda a, b: (a // w - seeds[b, 0]) ** 2 + (a % w - seeds[b, 1]) ** 2,
        (np.indices((h, w), dtype=np.float64).reshape(2, -1).T, seeds),
        np.square,
    )[1].reshape(h, w)

    blob_class = (np.arange(n_blobs) % len(CLASS_NAMES)).astype(np.int32)
    profile = np.array(_CLASS_PROFILE)
    base = profile[blob_class, 0]
    amp = profile[blob_class, 1]
    phase = profile[blob_class, 2]

    ts = np.arange(t, dtype=np.float64)
    per_blob = base[None, :] + amp[None, :] * np.sin(
        2.0 * np.pi * (ts[:, None] / period_dates + phase[None, :])
    )  # (T, n_blobs)

    values = per_blob[:, blob_map]  # (T, H, W)
    if sigma > 0:
        values = values + rng.normal(0.0, sigma, size=values.shape)
    values = np.clip(values, -1.0, 1.0)

    cube = SitsCube(
        values=values[:, None].astype(np.float32),
        timestamps=_month_sequence(t),
        bands=[band],
        geo=_DEFAULT_GEO,
        nodata=None,
    )
    labels = np.broadcast_to(blob_class[blob_map], (t, h, w)).astype(np.int32).copy()
    return cube, labels


def synth_context(
    seed: int,
    cells: int = 6,
    cell_px: int = 4,
    t: int = 3,
) -> tuple[SitsCube, np.ndarray]:
    """Context-coded fixture: a cell's class is the majority signal of its
    4-neighbor cells, while its own band values are uninformative for it.
    The cube is georeferenced to ``_DEFAULT_GEO``.

    Band 0 carries the binary signal (0.25 / 0.75); band 1 carries a distinct
    per-cell identity value so any boundary survives low-threshold
    segmentation. Labels: class 1 iff strictly more than half of the existing
    neighbors carry signal 1.
    """
    if cells < 2 or cell_px < 1 or t < 1:
        raise InvalidSpec(f"need cells >= 2, cell_px >= 1, t >= 1; got ({cells},{cell_px},{t})")

    rng = np.random.default_rng(seed)
    signal = rng.integers(0, 2, size=(cells, cells))
    identity = rng.permutation(cells * cells).reshape(cells, cells) / max(1, cells * cells - 1)

    label = np.zeros((cells, cells), dtype=np.int32)
    for i in range(cells):
        for j in range(cells):
            neigh = []
            if i > 0:
                neigh.append(signal[i - 1, j])
            if i < cells - 1:
                neigh.append(signal[i + 1, j])
            if j > 0:
                neigh.append(signal[i, j - 1])
            if j < cells - 1:
                neigh.append(signal[i, j + 1])
            label[i, j] = 1 if sum(neigh) * 2 > len(neigh) else 0

    up = np.repeat(np.repeat(signal, cell_px, axis=0), cell_px, axis=1)
    upid = np.repeat(np.repeat(identity, cell_px, axis=0), cell_px, axis=1)
    band0 = 0.25 + 0.5 * up
    frame = np.stack([band0, upid], axis=0)  # (2, H, W)
    values = np.broadcast_to(frame, (t,) + frame.shape).astype(np.float32).copy()

    h = w = cells * cell_px
    cube = SitsCube(
        values=values,
        timestamps=_month_sequence(t),
        bands=["SIG", "IDT"],
        geo=_DEFAULT_GEO,
        nodata=None,
    )
    labels = np.broadcast_to(
        np.repeat(np.repeat(label, cell_px, axis=0), cell_px, axis=1), (t, h, w)
    ).astype(np.int32).copy()
    return cube, labels
