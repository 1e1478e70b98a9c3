import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_enforce_connectivity, brute_felzenszwalb, cc_equal_values
from sitsgraph.errors import EmptyImage, InvalidSegmentCount, ShapeMismatch
from sitsgraph.segmentation import (
    _enforce_connectivity,
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


@settings(max_examples=15, deadline=None)
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
            areas = np.bincount(seg.labels[t].ravel() - seg.date_offset(t))
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
        ],
    )
    def test_load_rejects_malformed_meta(self, tmp_path, fix_a, edit, named):
        save_seg(segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1}), tmp_path)
        meta = json.loads((tmp_path / "seg_meta.json").read_text())
        edit(meta)
        (tmp_path / "seg_meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatch, match=named):
            load_seg(tmp_path)
