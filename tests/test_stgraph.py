import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fuzz import mutate, truncate
from _oracles import OracleEdge as Edge
from _oracles import OracleNode as Node
from _oracles import (
    brute_adjacency,
    brute_eps_ball,
    brute_knn,
    brute_overlap,
    brute_modal_labels,
    brute_similarity,
    canonical_graph,
    dot_oracle,
    graph_from_objects,
    graph_objects,
    graphml_oracle,
    json_oracle,
    modal_label_accuracy,
    temporal_profile_oracle,
)
from sitsgraph.cli import build_parser
from sitsgraph.errors import (
    ConfigMismatch,
    DimMismatch,
    InvalidLag,
    InvalidSpec,
    NoLabels,
    ShapeMismatch,
    SitsGraphError,
    TooFewNodes,
    UnknownNode,
)
from sitsgraph.analysis import temporal_profile
from sitsgraph.features import FeatureMatrix, band_stats
from sitsgraph.metrics import majority_upper_bound
from sitsgraph.segmentation import SegStack, segment_cube
from sitsgraph.stgraph import (
    EDGE_SPECS,
    SPATIAL,
    SPATIOTEMPORAL,
    StGraph,
    adjacency_edges,
    build_graph,
    eps_ball_edges,
    export_graph,
    graph_stats,
    import_graph,
    knn_edges,
    nodes_from_seg,
    overlap_edges,
    parse_edge_spec,
    periodic_edges,
    similarity_edges,
)


def _seg(labels: np.ndarray) -> SegStack:
    labels = np.asarray(labels, dtype=np.int32)
    counts = [len(np.unique(labels[t])) for t in range(labels.shape[0])]
    return SegStack(labels=labels, counts=counts)


def edge_map(cols) -> dict[tuple[int, int], float]:
    """``{(src, dst): weight}`` of a builder's ``EdgeColumns``."""
    return dict(zip(zip(cols.src.tolist(), cols.dst.tolist()), cols.weight.tolist()))


def _pairs(cols) -> list[tuple[int, int]]:
    return list(zip(cols.src.tolist(), cols.dst.tolist()))


def _random_seg_frame(rng, h, w, k):
    """Random k-region partition with consecutive ids (Voronoi of k seeds)."""
    seeds = rng.choice(h * w, size=k, replace=False)
    sr, sc = seeds // w, seeds % w
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    d2 = (rr[..., None] - sr) ** 2 + (cc[..., None] - sc) ** 2
    lab = np.argmin(d2, axis=-1)
    _, lab = np.unique(lab, return_inverse=True)
    return lab.reshape(h, w)


class TestAdjacency:
    def test_half_planes(self):
        lab = np.zeros((1, 4, 4), dtype=np.int32)
        lab[0, :, 2:] = 1
        edges = adjacency_edges(_seg(lab), 0)
        assert len(edges) == 1
        assert edge_map(edges) == {(0, 1): 4.0}

    def test_single_object_empty(self):
        edges = adjacency_edges(_seg(np.zeros((1, 3, 3), dtype=np.int32)), 0)
        assert len(edges) == 0

    def test_checkerboard_no_diagonals(self):
        lab = np.array([[[0, 1], [2, 3]]], dtype=np.int32)
        edges = adjacency_edges(_seg(lab), 0)
        got = set(edge_map(edges))
        assert got == {(0, 1), (0, 2), (1, 3), (2, 3)}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        lab = _random_seg_frame(rng, 12, 16, 6)
        edges = adjacency_edges(_seg(lab[None]), 0)
        oracle = brute_adjacency(lab)
        assert edge_map(edges) == {
            k: float(v) for k, v in oracle.items()
        }
        # weight sum equals the count of 4-neighbor pairs with differing labels
        assert sum(edges.weight.tolist()) == sum(oracle.values())


def _nodes_at(centroids: dict[int, tuple[float, float]], t: int = 0):
    return graph_from_objects(
        [Node(id=i, t=t, pixel_count=1, centroid=c) for i, c in sorted(centroids.items())], [], []
    )


class TestProximity:
    def test_eps_boundary_inclusive(self):
        nodes = _nodes_at({0: (0.0, 0.0), 1: (0.0, 5.0)})
        assert len(eps_ball_edges(nodes, eps=4.0)) == 0
        edges = eps_ball_edges(nodes, eps=5.0)
        assert _pairs(edges) == [(0, 1)]

    @pytest.mark.parametrize("eps", [1.0, float(np.hypot(1.0, 1.0)), 2.0, float(np.hypot(1.0, 2.0)), 3.0])
    def test_eps_on_a_lattice_keeps_pairs_at_exactly_eps(self, eps):
        # 18 x 18 integer centroids and one duplicate are more pairs than one
        # distance block, so the radius search runs on a grid of cells, and
        # many pairs lie exactly eps apart
        cents = {i: (float(i // 18), float(i % 18)) for i in range(18 * 18)}
        cents[18 * 18] = (5.0, 5.0)
        edges = eps_ball_edges(_nodes_at(cents), eps=eps)
        assert edge_map(edges) == brute_eps_ball(cents, eps)
        assert eps in edges.weight.tolist()

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_not_above_zero_raises(self, eps):
        with pytest.raises(ShapeMismatch, match="eps must be > 0"):
            eps_ball_edges(_nodes_at({0: (0.0, 0.0), 1: (0.0, 1.0)}), eps=eps)

    def test_knn_complete_graph(self):
        cents = {i: (0.0, float(i)) for i in range(4)}
        edges = knn_edges(_nodes_at(cents), k=3)
        assert len(edges) == 6  # complete graph on 4 nodes

    def test_knn_too_few(self):
        with pytest.raises(TooFewNodes):
            knn_edges(_nodes_at({0: (0, 0), 1: (1, 1)}), k=2)

    @pytest.mark.parametrize("seed", range(5))
    def test_knn_matches_bruteforce(self, seed):
        rng = np.random.default_rng(100 + seed)
        cents = {i: tuple(rng.uniform(0, 10, size=2)) for i in range(5)}
        edges = knn_edges(_nodes_at(cents), k=2)
        assert edge_map(edges) == brute_knn(cents, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_eps_matches_bruteforce(self, seed):
        rng = np.random.default_rng(200 + seed)
        cents = {i: tuple(rng.uniform(0, 8, size=2)) for i in range(7)}
        edges = eps_ball_edges(_nodes_at(cents), eps=3.0)
        assert edge_map(edges) == brute_eps_ball(cents, 3.0)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_several_dates_match_bruteforce(self, seed, grid):
        # integer-grid centroids make many distances equal
        rng = np.random.default_rng(400 + seed)
        n = 30
        dates = {i: int(t) for i, t in enumerate(rng.integers(0, 3, size=n))}
        pos = rng.integers(0, 5, size=(n, 2)) if grid else rng.uniform(0, 10, size=(n, 2))
        cents = {i: (float(pos[i, 0]), float(pos[i, 1])) for i in range(n)}
        nodes = graph_from_objects([Node(id=i, t=dates[i], pixel_count=1, centroid=cents[i]) for i in range(n)], [], [])
        k = min(4, min(list(dates.values()).count(t) for t in set(dates.values())) - 1)
        edges = knn_edges(nodes, k=k)
        assert _pairs(edges) == sorted(brute_knn(cents, k, dates))
        assert edge_map(edges) == brute_knn(cents, k, dates)
        edges = eps_ball_edges(nodes, eps=2.0)
        assert _pairs(edges) == sorted(brute_eps_ball(cents, 2.0, dates))
        assert edge_map(edges) == brute_eps_ball(cents, 2.0, dates)


class TestSimilarity:
    def test_identical_features_weight_one(self):
        fm = FeatureMatrix(values=np.zeros((2, 3)), names=list("abc"))
        edges = similarity_edges(fm, np.array([0, 0]), "within-date", k=1)
        assert len(edges) == 1 and edge_map(edges) == {(0, 1): 1.0}

    def test_nearest_pair_mutually_selected(self):
        fm = FeatureMatrix(values=np.array([[0.0], [0.1], [9.0]]), names=["x"])
        edges = similarity_edges(fm, np.zeros(3, dtype=int), "within-date", k=1)
        pairs = set(edge_map(edges))
        assert (0, 1) in pairs

    def test_cross_date_orientation(self):
        rng = np.random.default_rng(0)
        fm = FeatureMatrix(values=rng.normal(size=(6, 2)), names=["a", "b"])
        dates = np.array([0, 0, 1, 1, 2, 2])
        edges = similarity_edges(fm, dates, "cross-date", k=2)
        assert len(edges) > 0
        assert all(dates[a] < dates[b] for a, b in edge_map(edges))

    @pytest.mark.parametrize("scope", ["within-date", "cross-date"])
    def test_matches_bruteforce(self, scope):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(8, 3))
        dates = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        edges = similarity_edges(
            FeatureMatrix(values=feats, names=list("abc")), dates, scope, k=2
        )
        assert edge_map(edges) == brute_similarity(feats, dates, scope, 2)

    @pytest.mark.parametrize("scope", ["within-date", "cross-date"])
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_and_several_dates_match_bruteforce(self, seed, grid, scope):
        # integer-grid features make many distances equal; 10 columns take
        # the pairwise-summation path of the distance reduction
        rng = np.random.default_rng(500 + seed)
        n = 40
        feats = rng.integers(0, 3, size=(n, 10)).astype(float) if grid else rng.normal(size=(n, 10))
        dates = rng.integers(0, 4, size=n)
        k = int(rng.integers(1, 6))
        edges = similarity_edges(FeatureMatrix(values=feats, names=list("abcdefghij")), dates, scope, k)
        oracle = brute_similarity(feats, dates, scope, k)
        assert _pairs(edges) == sorted(oracle)
        assert edge_map(edges) == oracle


class TestOverlap:
    def test_static_object_full_overlap(self):
        lab = np.zeros((2, 3, 3), dtype=np.int32)
        lab[1] = 1
        edges = overlap_edges(_seg(lab))
        assert len(edges) == 1
        assert edge_map(edges) == {(0, 1): 1.0}

    def test_disjoint_footprints_no_edge(self):
        lab = np.zeros((2, 2, 2), dtype=np.int32)
        lab[0] = [[0, 0], [1, 1]]
        lab[1] = [[2, 2], [3, 3]]
        edges = overlap_edges(_seg(lab), min_pixels=3)
        assert len(edges) == 0

    def test_split_two_full_weight_edges(self):
        lab = np.zeros((2, 2, 4), dtype=np.int32)
        lab[1, :, :2] = 1
        lab[1, :, 2:] = 2
        edges = overlap_edges(_seg(lab))
        assert _pairs(edges) == [(0, 1), (0, 2)]
        assert edge_map(edges) == {(0, 1): 1.0, (0, 2): 1.0}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(300 + seed)
        a = _random_seg_frame(rng, 10, 10, 4)
        b = _random_seg_frame(rng, 10, 10, 5) + a.max() + 1
        seg = _seg(np.stack([a, b]))
        edges = overlap_edges(seg, min_pixels=2)
        oracle = brute_overlap(a, b, 2)
        assert edge_map(edges) == pytest.approx(oracle)


class TestPeriodic:
    def test_lag_equal_t_empty(self):
        lab = np.stack([np.zeros((3, 3), dtype=np.int32) + i for i in range(3)])
        assert len(periodic_edges(_seg(lab), lag=3)) == 0

    def test_static_scene(self):
        lab = np.stack([np.zeros((2, 2), dtype=np.int32) + i for i in range(3)])
        edges = periodic_edges(_seg(lab), lag=2)
        assert _pairs(edges) == [(0, 2)]

    def test_oscillating_scene_links_same_phase(self):
        a = np.array([[0, 0], [1, 1]], dtype=np.int32)
        b = np.array([[2, 2], [2, 2]], dtype=np.int32)
        lab = np.stack([a, b, a + 3, b + 3])  # phase 0 at t=0,2; phase 1 at t=1,3
        edges = periodic_edges(_seg(lab), lag=2)
        pairs = set(edge_map(edges))
        assert pairs == {(0, 3), (1, 4), (2, 5)}

    def test_invalid_lag(self):
        lab = np.zeros((3, 2, 2), dtype=np.int32)
        lab[1] = 1
        lab[2] = 2
        with pytest.raises(InvalidLag):
            periodic_edges(_seg(lab), lag=1)


def _three_date_seg(rng):
    """Random partitions of a 9x11 frame at three dates, ids consecutive
    across dates."""
    frames, offset = [], 0
    for _ in range(3):
        frame = _random_seg_frame(rng, 9, 11, int(rng.integers(4, 8)))
        frames.append(frame + offset)
        offset += int(frame.max()) + 1
    return _seg(np.stack(frames))


_BUILDERS = {
    "adjacency": lambda seg, nodes, fm: adjacency_edges(seg, 1),
    "eps": lambda seg, nodes, fm: eps_ball_edges(nodes, eps=3.0),
    "knn": lambda seg, nodes, fm: knn_edges(nodes, k=2),
    "sim_within": lambda seg, nodes, fm: similarity_edges(fm, nodes.t, "within-date", k=2),
    "sim_cross": lambda seg, nodes, fm: similarity_edges(fm, nodes.t, "cross-date", k=2),
    "overlap": lambda seg, nodes, fm: overlap_edges(seg),
    "periodic": lambda seg, nodes, fm: periodic_edges(seg, lag=2),
    "periodic_beyond_dates": lambda seg, nodes, fm: periodic_edges(seg, lag=3),
}


class TestBuilderColumns:
    @pytest.mark.parametrize("builder", sorted(_BUILDERS))
    @pytest.mark.parametrize("seed", range(3))
    def test_ascending_unique_and_typed(self, builder, seed):
        rng = np.random.default_rng(900 + seed)
        seg = _three_date_seg(rng)
        fm = FeatureMatrix(values=rng.integers(0, 3, size=(seg.n_objects, 2)).astype(float), names=["a", "b"])
        cols = _BUILDERS[builder](seg, nodes_from_seg(seg), fm)
        assert (cols.src.dtype, cols.dst.dtype, cols.weight.dtype) == (np.int64, np.int64, np.float64)
        assert len(cols.src) == len(cols.dst) == len(cols.weight) == len(cols)
        pairs = _pairs(cols)
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        assert (len(cols) == 0) == (builder == "periodic_beyond_dates")

    def test_empty_graph_gives_empty_columns(self):
        g = graph_from_objects([], [], [])
        fm = FeatureMatrix(values=np.zeros((0, 2)), names=["a", "b"])
        for cols in (
            eps_ball_edges(g, 1.0),
            knn_edges(g, 1),
            similarity_edges(fm, g.t, "within-date", 1),
            similarity_edges(fm, g.t, "cross-date", 1),
        ):
            assert len(cols) == 0
            assert (cols.src.dtype, cols.dst.dtype, cols.weight.dtype) == (np.int64, np.int64, np.float64)

    def test_overlap_and_cross_date_similarity_land_in_st(self):
        lab = np.zeros((3, 2, 2), dtype=np.int32)
        for t in range(3):
            lab[t, :, 0], lab[t, :, 1] = 2 * t, 2 * t + 1
        seg = _seg(lab)
        fm = FeatureMatrix(values=np.random.default_rng(0).normal(size=(6, 2)), names=["a", "b"])
        cross = similarity_edges(fm, seg.object_dates(), "cross-date", k=2)
        for spec, built in ((("overlap", 1), overlap_edges(seg)), (("sim", 2), cross)):
            g = build_graph(seg, features=fm, st=[spec])
            assert len(built) > 0 and len(g.spatial) == 0
            assert edge_map(g.st) == edge_map(built)
            assert all(e.kind == SPATIOTEMPORAL for e in graph_objects(g).edges_st)


# (relation, flag text, JSON form, parsed spec)
_SPEC_FORMS = [
    ("spatial", "adjacency", "adjacency", "adjacency"),
    ("spatial", "eps:3.5", ["eps", 3.5], ("eps", 3.5)),
    ("spatial", "eps:2", ["eps", 2], ("eps", 2.0)),
    ("spatial", "knn:6", ["knn", 6], ("knn", 6)),
    ("spatial", "sim:4", ["sim", 4], ("sim", 4)),
    ("st", "overlap", ["overlap"], ("overlap", 1)),
    ("st", "overlap:4", ["overlap", 4], ("overlap", 4)),
    ("st", "sim:2", ["sim", 2], ("sim", 2)),
    ("st", "periodic:3", ["periodic", 3], ("periodic", 3)),
]


class TestEdgeSpecGrammar:
    @pytest.mark.parametrize("relation, text, doc, spec", _SPEC_FORMS)
    def test_text_json_and_tuple_forms_agree(self, relation, text, doc, spec):
        got = [parse_edge_spec(form, relation) for form in (text, doc, spec)]
        assert [repr(g) for g in got] == [repr(spec)] * 3  # repr tells 2 from 2.0

    @pytest.mark.parametrize(
        "relation, spec",
        [
            ("spatial", "adjacency:5"),
            ("spatial", "eps:nan"),
            ("spatial", "eps:0"),
            ("spatial", "eps:-1"),
            ("spatial", "knn"),
            ("spatial", "knn:1.7"),
            ("spatial", ["knn", 1.7]),
            ("spatial", ["knn", True]),
            ("spatial", "knn:0"),
            ("spatial", "overlap:1"),
            ("st", "periodic:1"),
            ("st", ("periodic", 3, 2)),
            ("st", "overlap:0"),
            ("st", "knn:2"),
            ("st", "voronoi"),
        ],
    )
    def test_rejected(self, relation, spec):
        with pytest.raises(InvalidSpec, match=f"--{relation} "):
            parse_edge_spec(spec, relation)

    @pytest.mark.parametrize(
        "relation, spec",
        [("st", "periodic:1"), ("st", ("periodic", 1)), ("st", ("periodic", 3, 2)), ("spatial", ("eps", float("nan")))],
        ids=["periodic_text", "periodic_tuple", "periodic_three_parts", "eps_nan_tuple"],
    )
    def test_build_graph_parses_every_form(self, relation, spec):
        seg = _three_date_seg(np.random.default_rng(0))
        with pytest.raises(InvalidSpec, match=f"--{relation} "):
            build_graph(seg, **{relation: ["adjacency" if relation == "spatial" else "overlap", spec]})

    def test_text_specs_build_the_same_bytes_as_tuples(self):
        rng = np.random.default_rng(3)
        seg = _three_date_seg(rng)
        fm = FeatureMatrix(values=rng.normal(size=(seg.n_objects, 2)), names=["a", "b"])
        text = build_graph(
            seg, features=fm, spatial=["adjacency", "eps:3.5", "knn:2", "sim:2"],
            st=["overlap", "overlap:2", "sim:2", "periodic:2"],
        )
        parsed = build_graph(
            seg, features=fm, spatial=["adjacency", ("eps", 3.5), ("knn", 2), ("sim", 2)],
            st=[("overlap", 1), ("overlap", 2), ("sim", 2), ("periodic", 2)],
        )
        blob = export_graph(text, "json")
        assert len(text.spatial) > 0 and len(text.st) > 0
        assert blob == export_graph(parsed, "json")

    def test_every_builder_name_is_in_its_flag_metavar(self):
        _, registry = build_parser()
        metavars = {a.dest: a.metavar for a in registry[("build-graph",)]._actions if a.dest in EDGE_SPECS}
        assert set(metavars) == set(EDGE_SPECS)
        for relation, names in EDGE_SPECS.items():
            shown = set(re.split(r"[|:\[\]]", metavars[relation]))
            assert set(names) <= shown, relation


class TestGraphInvariants:
    def _graph(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        fm = band_stats(fix_a, seg)
        return build_graph(seg, features=fm, spatial=["adjacency"], st=[("overlap", 1)])

    def test_disjoint_relations_and_orientation(self, fix_a):
        g = self._graph(fix_a)
        v = graph_objects(g)
        spatial = {(e.src, e.dst) for e in v.edges_spatial}
        st = {(e.src, e.dst) for e in v.edges_st}
        assert not (spatial & st)
        for e in v.edges_st:
            assert g.t[g.index_of(e.src)] < g.t[g.index_of(e.dst)]
        for e in v.edges_spatial:
            assert e.src < e.dst

    def test_insertion_order_independent(self, fix_a):
        g = self._graph(fix_a)
        rng = np.random.default_rng(0)
        v = graph_objects(g)
        nodes = list(v.nodes)
        order = rng.permutation(len(nodes))
        shuffled = graph_from_objects(
            [nodes[i] for i in order],
            list(reversed(v.edges_spatial)),
            list(reversed(v.edges_st)),
            features=g.features,
        )
        shuffled = graph_objects(shuffled)
        assert shuffled.nodes == v.nodes
        assert shuffled.edges_spatial == v.edges_spatial
        assert shuffled.edges_st == v.edges_st

    def test_pair_in_both_relations_fails_the_orientation_check(self):
        # a spatial edge joins one date, so the same pair as a temporal edge
        # never runs past -> future
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 0, 1, (0, 1))]
        for a, b in ((0, 1), (1, 0)):
            with pytest.raises(ShapeMismatch, match=f"temporal edge {a}->{b} not oriented past->future"):
                graph_from_objects(nodes, [Edge(0, 1, SPATIAL, 1.0)], [Edge(a, b, SPATIOTEMPORAL, 1.0)])

    def test_merge_node_in_degree(self):
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 0, 1, (1, 1)), Node(2, 1, 1, (0, 0))]
        g = graph_from_objects(
            nodes,
            [],
            [Edge(0, 2, SPATIOTEMPORAL, 1.0), Edge(1, 2, SPATIOTEMPORAL, 1.0)],
        )
        indeg, _ = g.degrees(g.st)
        assert indeg[2] == 2


class TestGraphStats:
    def test_empty_graph_unit_ratio(self):
        g = graph_from_objects([], [], [])
        report = graph_stats(g, (1, 1, 4, 4), f_v=0, f_e=0, map_stored=True)
        assert report["compression_ratio"] == 1.0

    def test_plug_in_arithmetic(self):
        nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(10)]
        edges = [Edge(i, i + 1, SPATIAL, 1.0) for i in range(9)]
        extra = [Edge(i, i + 2, SPATIAL, 1.0) for i in range(8)]
        more = [Edge(i, i + 3, SPATIAL, 1.0) for i in range(3)]
        g = graph_from_objects(nodes, edges + extra + more, [])
        assert len(g.spatial) == 20
        report = graph_stats(g, (2, 4, 64, 64), f_v=4, f_e=1, map_stored=False)
        assert report["compression_ratio"] == pytest.approx(32768 / 80)
        assert report["compression_ratio"] == pytest.approx(409.6)

    def test_adding_edges_decreases_ratio(self):
        nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(5)]
        g1 = graph_from_objects(nodes, [Edge(0, 1, SPATIAL, 1.0)], [])
        g2 = graph_from_objects(nodes, [Edge(0, 1, SPATIAL, 1.0), Edge(1, 2, SPATIAL, 1.0)], [])
        shape = (1, 1, 8, 8)
        r1 = graph_stats(g1, shape, f_v=2, map_stored=False)["compression_ratio"]
        r2 = graph_stats(g2, shape, f_v=2, map_stored=False)["compression_ratio"]
        assert r2 < r1

    @pytest.mark.parametrize("sizes", [{"f_v": -5}, {"f_v": 1, "f_e": -3, "map_stored": False}], ids=["f_v", "f_e"])
    def test_negative_sizes_are_a_typed_error(self, sizes):
        # a negative size would shrink the denominator: f_v=-5 gave a ratio
        # of 2.29 and f_e=-3 without the map gave None
        nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(2)]
        g = graph_from_objects(nodes, [Edge(0, 1, SPATIAL, 1.0)], [])
        with pytest.raises(ConfigMismatch, match="must be >= 0"):
            graph_stats(g, (1, 1, 4, 4), **sizes)


class TestExport:
    def _graph(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        fm = band_stats(fix_a, seg)
        return build_graph(
            seg, features=fm, spatial=["adjacency"], st=[("overlap", 1)], meta={"tag": "x"}
        )

    def test_json_roundtrip(self, fix_a):
        g = self._graph(fix_a)
        back = import_graph(export_graph(g, "json"))
        got, want = graph_objects(back), graph_objects(g)
        assert got.nodes == want.nodes
        assert got.edges_spatial == want.edges_spatial
        assert got.edges_st == want.edges_st
        assert np.allclose(back.features.values, g.features.values)
        assert back.meta["tag"] == "x"

    def test_empty_graph_all_formats(self):
        g = graph_from_objects([], [], [])
        assert import_graph(export_graph(g, "json")).n_nodes == 0
        assert b"graphml" in export_graph(g, "graphml")
        assert export_graph(g, "dot").decode().startswith("digraph")

    def test_dot_dashed_st_edges(self):
        nodes = [Node(0, 0, 2, (0, 0)), Node(1, 1, 1, (0, 0)), Node(2, 2, 1, (0, 0))]
        g = graph_from_objects(
            nodes, [], [Edge(0, 1, SPATIOTEMPORAL, 1.0), Edge(1, 2, SPATIOTEMPORAL, 0.5)]
        )
        dot = export_graph(g, "dot").decode()
        assert dot.count("style=dashed") == 2
        assert dot.count("style=solid") == 0

    def test_graphml_is_wellformed_xml(self, fix_a):
        import xml.etree.ElementTree as ET

        g = self._graph(fix_a)
        root = ET.fromstring(export_graph(g, "graphml"))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph = root.find(f"{ns}graph")
        assert len(graph.findall(f"{ns}node")) == g.n_nodes
        assert len(graph.findall(f"{ns}edge")) == len(g.spatial) + len(g.st)


class TestNodesFromSeg:
    def test_modal_labels(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        maps = np.zeros((2, 4, 4), dtype=np.int32)
        maps[:, :, 2:] = 2
        maps[0, 0, 0] = -1  # ignored pixel
        nodes = graph_objects(nodes_from_seg(seg, maps)).nodes
        assert nodes[0].label == 0 and nodes[1].label == 2

    def test_unlabeled_object_none(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        maps = np.full((2, 4, 4), -1, dtype=np.int32)
        maps[0, 0, 0] = 1
        nodes = graph_objects(nodes_from_seg(seg, maps)).nodes
        assert nodes[0].label == 1
        assert nodes[1].label is None

    def test_edge_less_graph(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        g = nodes_from_seg(seg)
        assert isinstance(g, StGraph) and len(g.spatial) == len(g.st) == 0
        assert g.ids.tolist() == list(range(seg.n_objects))
        assert g.t.tolist() == seg.object_dates().tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_modal_labels_and_majority_bound_match_bruteforce(self, seed):
        # few classes on small objects make modal ties common; seed 0 labels
        # no pixel at all
        rng = np.random.default_rng(700 + seed)
        t, h, w = (int(x) for x in rng.integers([1, 3, 3], [4, 10, 10]))
        frames, offset = [], 0
        for _ in range(t):
            frame = _random_seg_frame(rng, h, w, int(rng.integers(1, 8)))
            frames.append(frame + offset)
            offset += int(frame.max()) + 1
        seg = _seg(np.stack(frames))
        low = -1 if seed else -2
        truth = rng.integers(low, 3 if seed else 0, size=(t, h, w)).astype(np.int32)
        labels = [n.label for n in graph_objects(nodes_from_seg(seg, truth)).nodes]
        assert labels == brute_modal_labels(seg.labels, truth, seg.n_objects)
        if seed == 0:
            assert labels == [None] * seg.n_objects
            with pytest.raises(NoLabels):
                majority_upper_bound(seg, truth)
        else:
            assert majority_upper_bound(seg, truth) == modal_label_accuracy(seg.labels, truth)


def _weight(rng) -> float:
    pick = rng.random()
    if pick < 0.5:
        return float(rng.uniform(0, 2))
    if pick < 0.7:
        return float(rng.integers(0, 9))
    return float(rng.choice([0.0, 1e-310, 1e300, 0.1, np.inf, np.nan]))


def _random_graph_parts(rng, invalid: bool = False):
    """Nodes in shuffled order, spatial and temporal edges in random
    orientation with repeated pairs, features with NaN and +-inf cells, and
    unicode meta; ``invalid`` adds edges the constructor must reject."""
    n_dates = int(rng.integers(1, 5))
    n = int(rng.integers(0, 13))
    with_features = n > 0 and rng.random() < 0.5
    ids = np.arange(n) if with_features else np.sort(rng.choice(2000, n, replace=False)) - 1000
    dates = rng.integers(0, n_dates, n)
    nodes = [
        Node(
            int(ids[i]),
            int(dates[i]),
            int(rng.integers(1, 500)),
            (float(rng.uniform(0, 100)), float(rng.integers(0, 50)) + 0.5 * (rng.random() < 0.5)),
            None if rng.random() < 0.3 else int(rng.integers(0, 5)),
        )
        for i in rng.permutation(n)
    ]
    spatial, temporal = [], []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a == b:
            continue
        pair = (ids[a], ids[b])
        same = dates[a] == dates[b]
        for _ in range(1 + (rng.random() < 0.3)):  # repeats, in either orientation
            s, d = pair if rng.random() < 0.5 else pair[::-1]
            (spatial if same else temporal).append(Edge(int(s), int(d), SPATIAL if same else SPATIOTEMPORAL, _weight(rng)))
    if invalid and n:
        for _ in range(int(rng.integers(1, 4))):
            a, b = (int(v) for v in rng.integers(0, n, 2))
            bad = int(rng.integers(0, 5))
            w = -1.0 if bad == 0 else _weight(rng)
            src, dst = int(ids[a]), int(ids[b]) if bad != 1 else 5000
            target = spatial if (bad == 2) != (dates[a] == dates[b]) else temporal
            target.insert(int(rng.integers(0, len(target) + 1)), Edge(src, dst, SPATIAL, w))
    features = None
    if with_features:
        d = int(rng.integers(0, 4))
        values = rng.normal(size=(n, d))
        values[rng.random((n, d)) < 0.15] = np.nan
        values[rng.random((n, d)) < 0.1] = np.inf
        values[rng.random((n, d)) < 0.1] = -np.inf
        features = FeatureMatrix(values=values, names=[f"bänd{i}" for i in range(d)])
    meta = {} if rng.random() < 0.3 else {"tag": "ünïcødé ✓", "shape": [n_dates, 1, 8, 8], "nested": {"a": [1, 2.5, None], "e": {}}}
    return nodes, spatial, temporal, features, meta


def _node_key(n):
    return (n.id, n.t, n.pixel_count, n.centroid, n.label)


def _edge_key(e):
    return (e.src, e.dst, e.kind, float(e.weight).hex())


class TestMatchesPerObjectOracles:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_columns_and_bytes(self, seed):
        nodes, spatial, temporal, features, meta = _random_graph_parts(np.random.default_rng(seed))
        g = graph_from_objects(nodes, spatial, temporal, features=features, meta=meta)
        o_nodes, o_spatial, o_st = canonical_graph(nodes, spatial, temporal, features)
        v = graph_objects(g)
        assert list(map(_node_key, v.nodes)) == list(map(_node_key, o_nodes))
        assert list(map(_edge_key, v.edges_spatial)) == list(map(_edge_key, o_spatial))
        assert list(map(_edge_key, v.edges_st)) == list(map(_edge_key, o_st))
        blob = export_graph(g, "json")
        assert blob == json_oracle(g)
        assert export_graph(g, "graphml") == graphml_oracle(g)
        assert export_graph(g, "dot") == dot_oracle(g)
        back = import_graph(blob)
        assert export_graph(back, "json") == blob
        assert list(map(_edge_key, graph_objects(back).edges_st)) == list(map(_edge_key, o_st))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_errors(self, seed):
        nodes, spatial, temporal, features, meta = _random_graph_parts(np.random.default_rng(seed), invalid=True)

        def outcome(build):
            try:
                build()
            except (ShapeMismatch, UnknownNode, DimMismatch) as e:
                return type(e), str(e)
            return None

        expect = outcome(lambda: canonical_graph(nodes, spatial, temporal, features))
        assert outcome(lambda: graph_from_objects(nodes, spatial, temporal, features=features)) == expect

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_queries(self, seed):
        nodes, spatial, temporal, features, _ = _random_graph_parts(np.random.default_rng(seed))
        g = graph_from_objects(nodes, spatial, temporal, features=features)
        for n in graph_objects(g).nodes:
            if features is not None and features.dim:
                for direction in ("in", "out"):
                    got = temporal_profile(g, n.id, 0, direction)
                    want = temporal_profile_oracle(g, n.id, 0, direction)
                    assert [(t, float(v).hex()) for t, v in got] == [(t, float(v).hex()) for t, v in want]

    def test_empty_graph(self):
        g = graph_from_objects([], [], [], meta={"k": "ü"})
        for fmt, oracle in (("json", json_oracle), ("graphml", graphml_oracle), ("dot", dot_oracle)):
            assert export_graph(g, fmt) == oracle(g)
        assert export_graph(import_graph(export_graph(g, "json")), "json") == export_graph(g, "json")

    def test_last_duplicate_wins_and_orientation(self):
        nodes = [Node(5, 1, 1, (0.0, 0.0)), Node(2, 0, 1, (0.0, 0.0)), Node(9, 1, 1, (1.0, 0.0))]
        spatial = [Edge(9, 5, SPATIAL, 1.0), Edge(5, 9, SPATIAL, 2.0)]
        temporal = [Edge(5, 2, SPATIOTEMPORAL, 3.0), Edge(2, 5, SPATIOTEMPORAL, 4.0), Edge(9, 2, SPATIOTEMPORAL, 5.0)]
        g = graph_objects(graph_from_objects(nodes, spatial, temporal))
        assert [(e.src, e.dst, e.weight) for e in g.edges_spatial] == [(5, 9, 2.0)]
        assert [(e.src, e.dst, e.weight) for e in g.edges_st] == [(2, 5, 4.0), (2, 9, 5.0)]

    @pytest.mark.parametrize("kind", [SPATIAL, SPATIOTEMPORAL])
    def test_self_loop_is_a_typed_error(self, kind):
        nodes = [Node(2, 0, 1, (0.0, 0.0)), Node(5, 1, 1, (0.0, 0.0))]
        loop = [Edge(5, 5, kind, 1.0)]
        with pytest.raises(ShapeMismatch, match="self-loop on node 5"):
            graph_from_objects(nodes, loop if kind == SPATIAL else [], loop if kind == SPATIOTEMPORAL else [])

    def test_integer_centroids_are_written_as_floats(self):
        g = graph_from_objects([Node(0, 0, 1, (0, 3))], [], [])
        assert b'"centroid": [\n    0.0,\n    3.0\n   ]' in export_graph(g, "json")


class TestDuplicateNodeIds:
    def test_rejected_in_memory(self):
        with pytest.raises(ShapeMismatch, match="duplicate node id 0"):
            graph_from_objects([Node(0, 0, 1, (0.0, 0.0)), Node(0, 1, 1, (0.0, 0.0))], [], [])

    def test_rejected_from_json(self):
        node = {"t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": None}
        doc = {"nodes": [dict(node, id=3), dict(node, id=3, t=1)], "edges": [], "meta": {}}
        with pytest.raises(ShapeMismatch, match="duplicate node id 3"):
            import_graph(json.dumps(doc))


class TestNodeFieldChecks:
    @pytest.mark.parametrize("pixel_count", [0, -3])
    def test_pixel_count_below_one_rejected_in_memory(self, pixel_count):
        with pytest.raises(ShapeMismatch, match=f"node 4 has pixel_count {pixel_count}"):
            graph_from_objects([Node(7, 0, 2, (0.0, 0.0)), Node(4, 0, pixel_count, (1.0, 0.0))], [], [])

    def test_pixel_count_below_one_rejected_from_json(self):
        node = {"t": 0, "centroid": [0.0, 0.0], "features": None, "label": None}
        doc = {"nodes": [dict(node, id=i, pixel_count=0) for i in range(2)], "edges": [], "meta": {}}
        with pytest.raises(ShapeMismatch, match="node 0 has pixel_count 0"):
            import_graph(json.dumps(doc))

    @pytest.mark.parametrize("label", [1.7, 2.0, "2", True, [1], 2**70])
    def test_label_must_be_a_json_integer(self, label):
        node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": label}
        with pytest.raises(ShapeMismatch, match="'label' must be an integer|'label' out of the 64-bit range"):
            import_graph(json.dumps({"nodes": [node], "edges": [], "meta": {}}))

    @pytest.mark.parametrize("label", [1.7, True, "2", 2**70])
    def test_label_must_be_an_integer_in_memory(self, label):
        with pytest.raises(ShapeMismatch, match="'label' must be an integer|'label' out of the 64-bit range"):
            graph_from_objects([Node(0, 0, 1, (0.0, 0.0), label=label)], [], [])

    def test_numpy_integer_label_stored_as_int(self):
        g = graph_from_objects([Node(0, 0, 1, (0.0, 0.0), label=np.int32(3)), Node(1, 0, 1, (0.0, 0.0))], [], [])
        assert g.labels == (3, None) and type(g.labels[0]) is int

    @pytest.mark.parametrize("label", [None, 0, 3, -1])
    def test_integer_and_null_labels_round_trip(self, label):
        node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": label}
        g = import_graph(json.dumps({"nodes": [node], "edges": [], "meta": {}}))
        assert g.labels == (label,)
        assert export_graph(import_graph(export_graph(g, "json")), "json") == export_graph(g, "json")


def _fuzz_doc() -> dict:
    """A small valid graph document: three nodes at two dates with features,
    one edge per relation and unicode meta."""
    node = {"pixel_count": 3, "centroid": [1.0, 2.5], "label": 1}
    return {
        "nodes": [
            dict(node, id=0, t=0, features=[0.5, -1.0]),
            dict(node, id=1, t=0, features=[2.0, 0.0], label=None),
            dict(node, id=2, t=1, features=[1.5, 3.25]),
        ],
        "edges": [
            {"src": 0, "dst": 1, "kind": "S", "w": 2.0},
            {"src": 1, "dst": 2, "kind": "ST", "w": 0.5},
        ],
        "meta": {"tag": "ünï", "feature_names": ["a", "b"]},
    }


class TestImportGraphFuzz:
    @given(data=st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_only_typed_errors_escape(self, data):
        blob = truncate(data, json.dumps(mutate(data, _fuzz_doc())).encode())
        try:
            g = import_graph(blob)
        except SitsGraphError:
            return
        again = export_graph(g, "json")
        assert export_graph(import_graph(again), "json") == again

    def test_valid_document_loads(self):
        g = import_graph(json.dumps(_fuzz_doc()))
        assert (g.n_nodes, len(g.spatial), len(g.st), g.features.names) == (3, 1, 1, ["a", "b"])
