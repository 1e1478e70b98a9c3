import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fuzz import CLI_ERRORS, damage, mutate
from sitsgraph import datacube
from sitsgraph.datacube import GeoBounds, SitsCube, load_cube, ndwi, save_cube, synth_seasonal
from sitsgraph.errors import (
    InvalidCube,
    InvalidSpec,
    MissingFile,
    NonMonotonicTimestamps,
    ShapeMismatch,
    UnknownBand,
)


def _write_cube_dir(tmp_path, t=2, c=1, h=4, w=4, timestamps=None, blob=None):
    meta = {
        "T": t,
        "C": c,
        "H": h,
        "W": w,
        "dtype": "f32",
        "bands": [f"B{i:02d}" for i in range(c)],
        "timestamps": timestamps or ["2020-01-01", "2020-03-01"][:t],
        "geo": {"lat0": 43.0, "lat1": 44.0, "lon0": 1.0, "lon1": 2.0},
        "nodata": None,
    }
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    if blob is None:
        blob = np.arange(t * c * h * w, dtype="<f4").tobytes()
    (tmp_path / "cube.bin").write_bytes(blob)
    return tmp_path


class TestLoadCube:
    def test_shape_bookkeeping(self, tmp_path):
        cube = load_cube(_write_cube_dir(tmp_path))
        assert cube.shape == (2, 1, 4, 4)
        assert cube.values.size == 32

    def test_short_blob_rejected(self, tmp_path):
        blob = bytes(120)
        with pytest.raises(ShapeMismatch):
            load_cube(_write_cube_dir(tmp_path, blob=blob))

    def test_non_monotonic_timestamps(self, tmp_path):
        with pytest.raises(NonMonotonicTimestamps):
            load_cube(_write_cube_dir(tmp_path, timestamps=["2020-03-01", "2020-01-01"]))

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingFile):
            load_cube(tmp_path)
        _write_cube_dir(tmp_path)
        (tmp_path / "cube.bin").unlink()
        with pytest.raises(MissingFile):
            load_cube(tmp_path)

    def test_unsupported_dtype_is_an_invalid_cube(self, tmp_path):
        _write_cube_dir(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps({**meta, "dtype": "f64"}))
        with pytest.raises(InvalidCube, match="meta.json declares unsupported dtype 'f64'"):
            load_cube(tmp_path)

    def test_roundtrip_is_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        cube = load_cube(_write_cube_dir(tmp_path / "a"))
        save_cube(cube, tmp_path / "b")
        assert (tmp_path / "a" / "cube.bin").read_bytes() == (tmp_path / "b" / "cube.bin").read_bytes()

    def test_load_and_save_copy_no_values(self, tmp_path):
        # load_cube's values view the file's bytes; what it holds above them
        # is the NDWI range check's copy of the valid samples and its mask.
        # save_cube writes the values from where they are.
        cube, _ = synth_seasonal(seed=0, t=6, h=256, w=256, n_blobs=8, period_dates=3)
        data = cube.values.nbytes
        assert _peak(lambda: save_cube(cube, tmp_path / "c")) <= 0.25 * data
        loaded = None

        def load():
            nonlocal loaded
            loaded = load_cube(tmp_path / "c")

        assert _peak(load) <= 2.5 * data
        assert not loaded.values.flags.writeable
        np.testing.assert_array_equal(loaded.values, cube.values)


def _peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNdwi:
    def _cube(self, g, n, geo):
        vals = np.zeros((1, 2, 1, 1), dtype=np.float32)
        vals[0, 0, 0, 0] = g
        vals[0, 1, 0, 0] = n
        return SitsCube(vals, ["2020-01-01"], ["B03", "B08"], geo)

    def test_direct_arithmetic(self, geo):
        out = ndwi(self._cube(0.2, 0.1, geo))
        assert out.bands == ["NDWI"]
        assert out.values[0, 0, 0, 0] == pytest.approx(0.1 / 0.3, abs=1e-7)

    def test_zero_denominator_guard(self, geo):
        out = ndwi(self._cube(0.0, 0.0, geo))
        assert out.values[0, 0, 0, 0] == 0.0

    def test_boundary(self, geo):
        out = ndwi(self._cube(0.0, 0.5, geo))
        assert out.values[0, 0, 0, 0] == -1.0

    def test_unknown_band(self, geo):
        with pytest.raises(UnknownBand):
            ndwi(SitsCube(self._cube(0.1, 0.2, geo).values, ["2020-01-01"], ["B99", "B08"], geo))

    def test_nan_propagates(self, geo):
        out = ndwi(self._cube(np.nan, 0.5, geo))
        assert np.isnan(out.values[0, 0, 0, 0])

    def test_finite_nodata_sentinel_is_missing(self, tmp_path, geo):
        # the sentinel comes from meta.json; a sample equal to it is missing like NaN
        vals = np.full((2, 2, 3, 3), 0.5, dtype=np.float32)
        vals[1, 0, 2, 1] = -9999.0
        save_cube(SitsCube(vals, ["2020-01-01", "2020-02-01"], ["B03", "B08"], geo, nodata=-9999.0), tmp_path)
        cube = load_cube(tmp_path)
        assert cube.nodata == -9999.0
        assert np.argwhere(np.isnan(cube.masked_values())).tolist() == [[1, 0, 2, 1]]
        frames = datacube.ndwi_values(cube)
        assert np.argwhere(np.isnan(frames)).tolist() == [[1, 2, 1]]
        assert np.nansum(np.abs(frames)) == 0.0

    def test_ndwi_band_holds_its_nodata_sentinel(self, tmp_path, geo):
        # the [-1, 1] check of an NDWI band skips the sentinel, which is missing
        vals = np.full((2, 1, 3, 3), 0.25, dtype=np.float32)
        vals[0, 0, 1, 2] = -9999.0
        save_cube(SitsCube(vals, ["2020-01-01", "2020-02-01"], ["NDWI"], geo, nodata=-9999.0), tmp_path)
        cube = load_cube(tmp_path)
        assert cube.nodata == -9999.0 and cube.values.tobytes() == vals.tobytes()
        frames = datacube.ndwi_values(cube)
        assert np.argwhere(np.isnan(frames)).tolist() == [[0, 1, 2]]
        assert np.nanmin(frames) == np.nanmax(frames) == np.float32(0.25)

    def test_ndwi_band_outside_the_range_still_fails(self, geo):
        vals = np.full((1, 1, 2, 2), 0.25, dtype=np.float32)
        vals[0, 0, 0, 0] = -2.0
        with pytest.raises(InvalidCube, match="band NDWI has finite values outside"):
            SitsCube(vals, ["2020-01-01"], ["NDWI"], geo, nodata=-9999.0)

    @given(
        g=st.floats(0.0, 1.0, allow_nan=False),
        n=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_antisymmetric_outside_guard(self, g, n):
        geo = GeoBounds(43.0, 44.0, 1.0, 2.0)
        if abs(g + n) < 1e-12:
            return
        a = ndwi(self._cube(g, n, geo)).values[0, 0, 0, 0]
        b = ndwi(self._cube(n, g, geo)).values[0, 0, 0, 0]
        assert a == pytest.approx(-b, abs=1e-6)


class TestPixelGeo:
    def test_doy_clamps_leap_day(self):
        assert datacube.day_of_year_fraction("2020-12-31") == pytest.approx(364 / 365)
        assert datacube.day_of_year_fraction("2021-12-31") == pytest.approx(364 / 365)
        assert datacube.day_of_year_fraction("2020-01-01") == 0.0

    def test_lat_lon_within_hull(self, fix_a):
        p = fix_a.pixel_geo(0, 0, 0)
        assert 43.0 <= p.lat <= 44.0
        assert 1.0 <= p.lon <= 2.0


class TestSynthSeasonal:
    def test_deterministic(self):
        a_cube, a_lab = synth_seasonal(seed=9, t=6, h=8, w=8, n_blobs=3, period_dates=3)
        b_cube, b_lab = synth_seasonal(seed=9, t=6, h=8, w=8, n_blobs=3, period_dates=3)
        assert a_cube.values.tobytes() == b_cube.values.tobytes()
        assert np.array_equal(a_lab, b_lab)

    def test_two_blobs_no_noise_two_values(self):
        cube, _ = synth_seasonal(seed=1, t=5, h=8, w=8, n_blobs=2, period_dates=4, sigma=0.0)
        for t in range(5):
            assert len(np.unique(cube.values[t, 0])) == 2

    def test_periodicity_measured_on_cube(self):
        # difference of two samples p apart is N(0, sqrt(2)*sigma); the 3-sigma
        # band on that scale holds for >= 99% of (pixel, t) samples
        sigma = 0.02
        cube, _ = synth_seasonal(seed=4, t=12, h=16, w=16, n_blobs=4, period_dates=6, sigma=sigma)
        v = cube.values[:, 0].astype(np.float64)
        diffs = np.abs(v[6:] - v[:-6])
        frac = (diffs <= 3 * np.sqrt(2) * sigma).mean()
        assert frac >= 0.99

    def test_labels_partition_every_pixel(self):
        _, lab = synth_seasonal(seed=2, t=4, h=10, w=12, n_blobs=5, period_dates=4)
        assert lab.min() >= 0
        assert lab.shape == (4, 10, 12)

    def test_memory_grows_with_the_output(self):
        # the dense pixel-to-seed distances took 96 * 96 * 600 * 8 bytes =
        # 44 MB per term; the blocked search peaks near 3 MB
        tracemalloc.start()
        try:
            synth_seasonal(seed=0, t=4, h=96, w=96, n_blobs=600, period_dates=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            synth_seasonal(seed=0, t=2, h=8, w=8, n_blobs=3, period_dates=3)
        with pytest.raises(InvalidSpec):
            synth_seasonal(seed=0, t=4, h=8, w=8, n_blobs=1, period_dates=3)


class TestSynthContext:
    def test_label_is_neighbor_majority(self):
        cube, labels = datacube.synth_context(seed=5, cells=4, cell_px=2, t=2)
        sig = cube.values[0, 0, ::2, ::2]  # one sample per cell
        lab = labels[0, ::2, ::2]
        cells = 4
        for i in range(cells):
            for j in range(cells):
                neigh = []
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= i + di < cells and 0 <= j + dj < cells:
                        neigh.append(1 if sig[i + di, j + dj] > 0.5 else 0)
                expect = 1 if sum(neigh) * 2 > len(neigh) else 0
                assert lab[i, j] == expect


def _fuzz_cube(path: Path) -> None:
    """A valid 2x1x2x3 cube directory at ``path``."""
    values = np.arange(12, dtype=np.float32).reshape(2, 1, 2, 3) / 20
    save_cube(SitsCube(values, ["2020-01-01", "2020-02-01"], ["NDWI"], GeoBounds(43.0, 44.0, 1.0, 2.0)), path)


class TestLoadCubeFuzz:
    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_only_typed_errors_escape(self, data):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            _fuzz_cube(d)
            meta = json.loads((d / "meta.json").read_text())
            if data.draw(st.booleans()):
                meta = mutate(data, meta)
            (d / "meta.json").write_bytes(damage(data, json.dumps(meta).encode()))
            (d / "cube.bin").write_bytes(damage(data, (d / "cube.bin").read_bytes()))
            try:
                cube = load_cube(d)
            except CLI_ERRORS:
                return
            # what loads is what the file holds, in the declared shape
            assert cube.shape == tuple(int(meta[k]) for k in ("T", "C", "H", "W"))
            assert cube.values.astype("<f4").tobytes() == (d / "cube.bin").read_bytes()

    def test_valid_cube_loads(self, tmp_path):
        _fuzz_cube(tmp_path)
        assert load_cube(tmp_path).shape == (2, 1, 2, 3)
