import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitsgraph.datacube import PixelGeo, SitsCube
from sitsgraph.errors import AllNodataWarning, DimMismatch
from sitsgraph.features import band_stats, geom_features, pos_encoding, standardize
from sitsgraph.segmentation import SegStack, segment_cube


def _seg_from(labels: np.ndarray) -> SegStack:
    counts = [len(np.unique(labels[t])) for t in range(labels.shape[0])]
    return SegStack(labels=labels, counts=counts)


class TestBandStats:
    def test_two_point_stats(self, geo):
        vals = np.array([[[[0.2, 0.4]]]], dtype=np.float32)  # (1,1,1,2)
        cube = SitsCube(vals, ["2020-01-01"], ["B03"], geo)
        seg = _seg_from(np.zeros((1, 1, 2), dtype=np.int32))
        fm = band_stats(cube, seg)
        assert fm.values[0] == pytest.approx([0.3, 0.1, 0.2, 0.4], abs=1e-7)
        assert fm.names == ["B03_mean", "B03_std", "B03_min", "B03_max"]

    def test_constant_object(self, geo):
        vals = np.full((1, 1, 2, 2), 0.7, dtype=np.float32)
        cube = SitsCube(vals, ["2020-01-01"], ["B03"], geo)
        fm = band_stats(cube, _seg_from(np.zeros((1, 2, 2), dtype=np.int32)))
        mean, std, mn, mx = fm.values[0]
        assert std == 0.0
        assert mean == pytest.approx(mn) == pytest.approx(mx)

    def test_fix_a_matches_naive_loop(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        fm = band_stats(fix_a, seg)
        # naive recomputation per object
        for obj in range(seg.n_objects):
            t = int(seg.object_dates()[obj])
            pix = fix_a.values[t, 0][seg.labels[t] == obj]
            expect = [pix.mean(), pix.std(), pix.min(), pix.max()]
            assert fm.values[obj] == pytest.approx(expect, abs=1e-7)

    def test_all_nodata_object_warns_and_zero_fills(self, geo):
        vals = np.array([[[[np.nan, 0.5]]]], dtype=np.float32)
        cube = SitsCube(vals, ["2020-01-01"], ["B03"], geo)
        seg = _seg_from(np.array([[[0, 1]]], dtype=np.int32))
        with pytest.warns(AllNodataWarning):
            fm = band_stats(cube, seg)
        assert fm.values[0] == pytest.approx([0, 0, 0, 0])
        assert fm.values[1] == pytest.approx([0.5, 0.0, 0.5, 0.5])

    def test_min_mean_max_order(self, geo):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, size=(2, 3, 8, 8)).astype(np.float32)
        cube = SitsCube(vals, ["2020-01-01", "2020-02-01"], ["B02", "B03", "B04"], geo)
        seg = segment_cube(cube, "slic", {"n_segments": 4, "compactness": 0.5})
        fm = band_stats(cube, seg)
        for b in range(3):
            mean, std, mn, mx = (fm.values[:, 4 * b + i] for i in range(4))
            assert np.all(mn <= mean + 1e-9)
            assert np.all(mean <= mx + 1e-9)
            assert np.all(std >= 0)


class TestGeomFeatures:
    def _stack(self, frame):
        return _seg_from(np.asarray(frame, dtype=np.int32)[None])

    def test_square(self):
        frame = np.zeros((4, 4), dtype=np.int32)
        frame[2:, 2:] = 1
        fm = geom_features(self._stack(frame))
        # object 0: all but the 2x2 square
        assert fm.values[1] == pytest.approx([4, 2.5, 2.5, 0])

    def test_single_pixel(self):
        frame = np.zeros((4, 4), dtype=np.int32)
        frame[3, 1] = 1
        fm = geom_features(self._stack(frame))
        assert fm.values[1] == pytest.approx([1, 3, 1, 0])

    def test_l_tromino_centroid(self):
        frame = np.full((2, 2), 1, dtype=np.int32)
        frame[0, 0] = 0
        frame[1, 0] = 0
        frame[1, 1] = 0
        # object 0 = {(0,0),(1,0),(1,1)}, object 1 = {(0,1)}
        fm = geom_features(self._stack(frame))
        assert fm.values[0] == pytest.approx([3, 2 / 3, 1 / 3, 0])

    def test_area_partition(self):
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 4, size=(6, 6)).astype(np.int32)
        # relabel to consecutive ids
        _, frame = np.unique(frame, return_inverse=True)
        fm = geom_features(self._stack(frame.reshape(6, 6).astype(np.int32)))
        assert fm.values[:, 0].sum() == 36


class TestPosEncoding:
    def test_origin(self):
        enc = pos_encoding(PixelGeo(0, 0, lat=0.0, lon=0.0, doy=0.0))
        assert enc == pytest.approx([0, 0, 1, 0], abs=1e-12)

    def test_exact_trig_points(self):
        enc = pos_encoding(PixelGeo(0, 0, lat=90.0, lon=180.0, doy=0.25))
        assert enc == pytest.approx([1, 0, -1, 1], abs=1e-12)

    def test_lon_periodicity(self):
        a = pos_encoding(PixelGeo(0, 0, lat=10.0, lon=-180.0, doy=0.5))
        b = pos_encoding(PixelGeo(0, 0, lat=10.0, lon=180.0, doy=0.5))
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        lat=st.floats(-90, 90),
        lon=st.floats(-180, 180),
        doy=st.floats(0, 0.999),
    )
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_bounded(self, lat, lon, doy):
        enc = pos_encoding(PixelGeo(0, 0, lat=lat, lon=lon, doy=doy))
        assert np.all(np.abs(enc) <= 1.0 + 1e-12)


class TestStandardize:
    def test_two_point_column(self):
        from sitsgraph.features import FeatureMatrix

        fm = FeatureMatrix(values=np.array([[1.0], [3.0]]), names=["x"])
        out = standardize(fm)
        assert out.values[:, 0] == pytest.approx([-1.0, 1.0])

    def test_constant_column_floored(self):
        from sitsgraph.features import FeatureMatrix

        fm = FeatureMatrix(values=np.array([[2.0], [2.0]]), names=["x"])
        out = standardize(fm)
        assert out.values[:, 0] == pytest.approx([0.0, 0.0])

    def test_train_stats_on_heldout_rows(self):
        from sitsgraph.features import FeatureMatrix

        rng = np.random.default_rng(0)
        train = rng.normal(2.0, 3.0, size=(20, 2))
        held = rng.normal(2.0, 3.0, size=(5, 2))
        fm_train = standardize(FeatureMatrix(values=train, names=["a", "b"]))
        fm_held = standardize(FeatureMatrix(values=held, names=["a", "b"]), stats=fm_train.standardization)
        mean = train.mean(axis=0)
        std = train.std(axis=0)
        assert fm_held.values == pytest.approx((held - mean) / std)

    def test_dim_mismatch(self):
        from sitsgraph.features import FeatureMatrix

        fm = FeatureMatrix(values=np.zeros((2, 2)), names=["a", "b"])
        with pytest.raises(DimMismatch):
            standardize(fm, stats={"mean": [0.0], "std": [1.0]})
