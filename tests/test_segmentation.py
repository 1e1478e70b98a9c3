import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fuzz import CLI_ERRORS, damage, mutate
from _oracles import (
    brute_components,
    brute_enforce_connectivity,
    brute_felzenszwalb,
    brute_lowest_gradient,
    brute_slic,
    cc_equal_values,
)
from sitsgraph import segmentation
from sitsgraph.errors import EmptyImage, InvalidSegmentCount, ShapeMismatch
from sitsgraph.segmentation import (
    SegStack,
    _connected_components,
    _enforce_connectivity,
    _move_to_lowest_gradient,
    felzenszwalb,
    load_seg,
    save_seg,
    segment_cube,
    slic,
)


def _partition_ok(labels, h, w):
    return labels.shape == (h, w) and labels.min() == 0 and np.all(labels >= 0)


class TestFelzenszwalb:
    def test_constant_image_single_segment(self):
        lab = felzenszwalb(np.full((2, 5, 7), 0.4), scale=1.0, min_size=1)
        assert np.all(lab == 0)

    def test_single_pixel_image(self):
        # a 1x1 image has no pixel pairs to merge
        lab = felzenszwalb(np.full((2, 1, 1), 0.4), scale=1.0, min_size=2)
        assert lab.tolist() == [[0]] and lab.dtype == np.int32

    def test_half_half_matches_cc_oracle(self):
        img = np.zeros((1, 4, 4))
        img[0, :, 2:] = 1.0
        lab = felzenszwalb(img, scale=0.01, min_size=1)
        oracle = cc_equal_values(img)
        assert len(np.unique(lab)) == 2
        assert np.array_equal(lab, oracle)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(3, 9, 11))
        lab = felzenszwalb(img, scale=2.0, min_size=2)
        assert _partition_ok(lab, 9, 11)
        assert len(np.unique(lab)) <= 9 * 11

    def test_min_size_monotone(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(1, 12, 12))
        counts = [
            len(np.unique(felzenszwalb(img, scale=1.0, min_size=m))) for m in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(2, 10, 10))
        assert np.array_equal(
            felzenszwalb(img, scale=0.7, min_size=3), felzenszwalb(img, scale=0.7, min_size=3)
        )

    def test_empty_image(self):
        with pytest.raises(EmptyImage):
            felzenszwalb(np.zeros((1, 0, 4)), scale=1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_scale_not_above_zero_raises(self, scale):
        with pytest.raises(ShapeMismatch, match="scale must be > 0"):
            felzenszwalb(np.zeros((1, 4, 4)), scale=scale)

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("block", range(4))
    def test_matches_union_find_oracle(self, block, quantized):
        # quantized images carry few distinct values, so most edge weights tie
        rng = np.random.default_rng(1000 * block + quantized)
        for _ in range(50):
            c, h, w = (int(x) for x in rng.integers(1, [4, 21, 21]))
            if quantized:
                img = rng.integers(0, 3, size=(c, h, w)) * 0.25
            else:
                img = rng.uniform(size=(c, h, w))
            scale = float(10 ** rng.uniform(-6, np.log10(50)))
            min_size = int(rng.integers(1, 13))
            got = felzenszwalb(img, scale=scale, min_size=min_size)
            want = brute_felzenszwalb(img, scale=scale, min_size=min_size)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (c, h, w, scale, min_size)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_edge_chunks_match_union_find_oracle(self, monkeypatch, chunk):
        # chunks far smaller than the edge count, so every loop crosses many
        monkeypatch.setattr(segmentation, "_EDGE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for _ in range(10):
            img = rng.integers(0, 3, size=(2, 15, 17)) * 0.25
            scale, min_size = float(rng.uniform(0.01, 5)), int(rng.integers(1, 13))
            got = felzenszwalb(img, scale=scale, min_size=min_size)
            assert np.array_equal(got, brute_felzenszwalb(img, scale=scale, min_size=min_size))

    def test_memory_bounded_by_edge_chunks(self):
        # 256² pixels, about 260k edges: the traced peak was 39.2 MiB with
        # all edges as Python lists and is 18.4 MiB with them in chunks
        img = np.random.default_rng(0).random((1, 256, 256))
        tracemalloc.start()
        try:
            felzenszwalb(img, scale=0.5, min_size=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20


class TestSlic:
    def test_every_pixel_its_own_segment(self):
        img = np.full((1, 4, 4), 0.5)
        lab = slic(img, n_segments=16, compactness=1e6)
        assert len(np.unique(lab)) == 16

    def test_constant_image_grid_quarters(self):
        lab = slic(np.full((1, 8, 8), 0.5), n_segments=4, compactness=0.1)
        assert sorted(np.bincount(lab.ravel()).tolist()) == [16, 16, 16, 16]
        # quarters exactly: each 4x4 block is one segment
        for r0 in (0, 4):
            for c0 in (0, 4):
                assert len(np.unique(lab[r0 : r0 + 4, c0 : c0 + 4])) == 1

    def test_count_bounds_and_partition(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(2, 15, 13))
        for n in (1, 5, 12):
            lab = slic(img, n_segments=n, compactness=0.5)
            assert _partition_ok(lab, 15, 13)
            assert 1 <= len(np.unique(lab)) <= 2 * n

    def test_segments_are_connected(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(1, 14, 14))
        lab = slic(img, n_segments=9, compactness=0.2)
        for seg_id in np.unique(lab):
            mask = lab == seg_id
            # flood fill from first pixel must reach every pixel of the segment
            rr, cc = np.nonzero(mask)
            seen = {(rr[0], cc[0])}
            stack = [(rr[0], cc[0])]
            while stack:
                r, c = stack.pop()
                for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if (
                        0 <= r2 < 14
                        and 0 <= c2 < 14
                        and mask[r2, c2]
                        and (r2, c2) not in seen
                    ):
                        seen.add((r2, c2))
                        stack.append((r2, c2))
            assert len(seen) == mask.sum()

    # the top-left pixel is a label-2 fragment touching only a label-1
    # fragment that is itself an orphan: it is resolved in a second pass
    POCKET = np.array(
        [
            [2, 1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1],
            [2, 2, 2, 2, 2, 2],
            [2, 2, 2, 2, 2, 2],
        ]
    )

    @pytest.mark.parametrize("grid_centers", [False, True])
    @pytest.mark.parametrize("block", range(3))
    def test_enforce_connectivity_matches_oracle(self, block, grid_centers):
        # integer centers put many fragment centroids at equal distances
        rng = np.random.default_rng(100 * block + grid_centers)
        cases = [(self.POCKET, rng.uniform(0, 6, size=(3, 2)))]
        for _ in range(60):
            h, w, k = (int(x) for x in rng.integers(1, [13, 13, 6]))
            labels = rng.integers(0, k, size=(h, w))
            if grid_centers:
                centers = rng.integers(0, max(h, w), size=(k, 2)).astype(np.float64)
            else:
                centers = rng.uniform(-1, max(h, w), size=(k, 2))
            cases.append((labels, centers))
        for labels, centers in cases:
            got = _enforce_connectivity(labels, centers)
            want = brute_enforce_connectivity(labels, centers)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (labels, centers)

    def test_invalid_segment_count(self):
        img = np.zeros((1, 4, 4))
        with pytest.raises(InvalidSegmentCount):
            slic(img, n_segments=0, compactness=0.1)
        with pytest.raises(InvalidSegmentCount):
            slic(img, n_segments=17, compactness=0.1)

    @pytest.mark.parametrize("compactness", [0.0, -1.0, float("nan")])
    def test_compactness_not_above_zero_raises(self, compactness):
        with pytest.raises(InvalidSegmentCount, match="compactness must be > 0"):
            slic(np.zeros((1, 4, 4)), n_segments=4, compactness=compactness)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_iters_below_one_raise(self, iters):
        with pytest.raises(InvalidSegmentCount, match="iters"):
            slic(np.zeros((1, 4, 4)), n_segments=4, compactness=0.1, iters=iters)

    @pytest.mark.parametrize("kind", ["continuous", "quantized", "nan", "nan_uncovered"])
    def test_matches_sorted_assignment_oracle(self, kind):
        # quantized values tie many distances; NaN pixels give NaN distances,
        # and whole windows of them; no +-inf, whose differences warn. The
        # uncovered case's setting leaves pixels that no window covers, to be
        # matched against all centers, some of them of NaN colour
        rng = np.random.default_rng(["continuous", "quantized", "nan", "nan_uncovered"].index(kind))
        for _ in range(100):
            c = int(rng.integers(1, 4))
            h, w = (int(x) for x in rng.integers(1, 31, size=2))
            if kind == "nan_uncovered":
                h, w = 9, 11
            if kind == "quantized":
                img = rng.integers(0, 3, size=(c, h, w)).astype(np.float64)
            else:
                img = rng.uniform(size=(c, h, w))
            if kind.startswith("nan"):
                img[rng.uniform(size=img.shape) < 0.2] = np.nan
            n = int(rng.integers(1, h * w + 1))
            iters = int(rng.integers(1, 4))
            compactness = float(rng.choice([0.05, 1.0, 30.0]))
            if kind == "nan_uncovered":
                n, compactness, iters = 11, 10.0, 2
            got = slic(img, n, compactness, iters)
            want = brute_slic(img, n, compactness, iters)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (img, n, compactness, iters)

    def test_nan_pixels_leave_center_colors_finite(self):
        # four flat quadrants with one NaN pixel each: a center's color is
        # the mean of its finite members, so no center turns NaN and each
        # quadrant stays one segment
        img = np.zeros((1, 16, 16))
        img[0, :8, 8:], img[0, 8:, :8], img[0, 8:, 8:] = 0.3, 0.6, 0.9
        quadrants = np.zeros((16, 16), dtype=np.int32)
        quadrants[:8, 8:], quadrants[8:, :8], quadrants[8:, 8:] = 1, 2, 3
        for r, c in [(1, 2), (2, 13), (13, 1), (14, 14)]:
            img[0, r, c] = np.nan
        assert np.array_equal(slic(img, 4, 0.05, 10), quadrants)
        assert np.array_equal(brute_slic(img, 4, 0.05, 10), quadrants)

    def test_matches_oracle_on_an_all_nan_image(self):
        img = np.full((2, 7, 5), np.nan)
        for n in (1, 6, 35):
            assert np.array_equal(slic(img, n, 1.0, 2), brute_slic(img, n, 1.0, 2))

    def test_components_match_flood_fill(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h, w = (int(x) for x in rng.integers(1, 25, size=2))
            labels = rng.integers(0, int(rng.integers(1, 5)), size=(h, w))
            got = _connected_components(labels)
            want = brute_components(labels)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), labels

    def test_components_of_a_serpentine(self):
        # one region winding through the whole grid: its pixel ids rise and
        # fall along the path, row after row
        h, w = 41, 40
        labels = np.zeros((h, w), dtype=np.int64)
        labels[::2, :] = 1
        labels[1::4, -1] = 1
        labels[3::4, 0] = 1
        labels[0, 0] = 2
        got = _connected_components(labels)
        want = brute_components(labels)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert len(np.unique(got[labels == 1])) == 1

    @pytest.mark.parametrize(
        "img, centers",
        [
            # plateau: every gradient is zero, so every center stays put
            (np.zeros((6, 7, 1)), [[0, 0], [2, 3], [5, 6], [5, 0]]),
            # centered ridge: the two flanking rows tie, the upper one wins
            (np.array([[0, 0, 0], [5, 5, 5], [10, 10, 10], [5, 5, 5], [0, 0, 0]], float)[..., None], [[2, 1]]),
            # single row and single column: only one axis has a gradient
            (np.array([[3, 1, 4, 1, 5, 9, 2, 6]], float)[..., None], [[0, 0], [0, 3], [0, 7]]),
            (np.array([[3], [1], [4], [1], [5], [9], [2], [6]], float)[..., None], [[0, 0], [3, 0], [7, 0]]),
            (np.ones((1, 1, 2)), [[0, 0]]),
            (np.arange(4.0).reshape(2, 2, 1), [[0, 0], [1, 1]]),
        ],
    )
    def test_lowest_gradient_plateaus_and_borders(self, img, centers):
        centers = np.asarray(centers, dtype=np.float64)
        got = _move_to_lowest_gradient(img, centers)
        want = brute_lowest_gradient(img, centers)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_lowest_gradient_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = int(rng.integers(1, 3))
            h, w = (int(x) for x in rng.integers(1, 12, size=2))
            img = rng.integers(0, 3, size=(h, w, c)).astype(np.float64)
            img[rng.uniform(size=img.shape) < 0.1] = np.nan
            centers = np.stack([rng.integers(0, h, 8), rng.integers(0, w, 8)], axis=1).astype(np.float64)
            got = _move_to_lowest_gradient(img, centers)
            want = brute_lowest_gradient(img, centers)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (img, centers)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10_000), h=st.integers(4, 14), w=st.integers(4, 14))
def test_partitions_cover_all_pixels(seed, h, w):
    rng = np.random.default_rng(seed)
    img = rng.uniform(size=(1, h, w))
    for lab in (felzenszwalb(img, 1.0, 2), slic(img, min(4, h * w), 0.3)):
        assert lab.shape == (h, w)
        assert lab.min() >= 0


class TestSegmentCube:
    def test_globally_unique_ids(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        assert seg.counts == [2, 2]
        assert seg.n_objects == 4
        assert sorted(np.unique(seg.labels).tolist()) == [0, 1, 2, 3]

    def test_constant_frames_one_object_per_date(self, geo):
        from sitsgraph.datacube import SitsCube

        vals = np.full((3, 1, 4, 4), 0.2, dtype=np.float32)
        cube = SitsCube(vals, ["2020-01-01", "2020-02-01", "2020-03-01"], ["B03"], geo)
        seg = segment_cube(cube, "felzenszwalb", {"scale": 1.0, "min_size": 1})
        assert seg.counts == [1, 1, 1]

    def test_threads_do_not_change_results(self, fix_a):
        a = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1}, threads=1)
        b = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1}, threads=4)
        assert np.array_equal(a.labels, b.labels)

    def test_partition_pixel_sum(self, fix_a):
        seg = segment_cube(fix_a, "slic", {"n_segments": 4, "compactness": 0.5})
        for t in range(2):
            areas = np.bincount(seg.labels[t].ravel() - sum(seg.counts[:t]))
            assert areas.sum() == 16

    def test_serialization_roundtrip(self, tmp_path, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        save_seg(seg, tmp_path)
        back = load_seg(tmp_path)
        assert np.array_equal(back.labels, seg.labels)
        assert back.counts == seg.counts
        assert back.provenance["algorithm"] == "felzenszwalb"

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: m.pop("T"), "'T'"),
            (lambda m: m.update(counts=5), "must be integers"),
            (lambda m: m["counts"].append(1), "3 counts for T=2"),
            (lambda m: m.update(counts=[m["counts"][0] + 1, m["counts"][1] - 1]), "date 1"),
            (lambda m: m["counts"].append(m["counts"].pop() + 1), r"seg_meta.json counts declare object 4, which has no pixel"),
        ],
    )
    def test_load_rejects_malformed_meta(self, tmp_path, fix_a, edit, named):
        save_seg(segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1}), tmp_path)
        meta = json.loads((tmp_path / "seg_meta.json").read_text())
        edit(meta)
        (tmp_path / "seg_meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatch, match=named):
            load_seg(tmp_path)


def _fuzz_seg(path: Path) -> None:
    """A valid two-date segmentation of 2x3 frames with two objects a date."""
    labels = np.array([[[0, 0, 1], [0, 1, 1]], [[2, 3, 3], [2, 2, 3]]], dtype=np.int32)
    save_seg(SegStack(labels=labels, counts=[2, 2], provenance={"algorithm": "felzenszwalb"}), path)


class TestLoadSegFuzz:
    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_only_typed_errors_escape(self, data):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            _fuzz_seg(d)
            meta = json.loads((d / "seg_meta.json").read_text())
            if data.draw(st.booleans()):
                meta = mutate(data, meta)
            (d / "seg_meta.json").write_bytes(damage(data, json.dumps(meta).encode()))
            frame = d / data.draw(st.sampled_from(["seg_t0.bin", "seg_t1.bin"]))
            frame.write_bytes(damage(data, frame.read_bytes()))
            try:
                seg = load_seg(d)
            except CLI_ERRORS:
                return
        # what loads keeps the format's promise: date k holds the ids its
        # count gives, and every declared object has a pixel
        offsets = np.cumsum([0, *seg.counts])
        for k in range(len(seg.counts)):
            assert np.array_equal(np.unique(seg.labels[k]), np.arange(offsets[k], offsets[k + 1]))

    def test_valid_segmentation_loads(self, tmp_path):
        _fuzz_seg(tmp_path)
        assert load_seg(tmp_path).counts == [2, 2]
