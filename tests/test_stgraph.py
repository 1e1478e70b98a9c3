import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_adjacency,
    brute_eps_ball,
    brute_knn,
    brute_overlap,
    brute_modal_labels,
    brute_similarity,
    canonical_graph,
    dot_oracle,
    graphml_oracle,
    json_oracle,
    modal_label_accuracy,
    neighborhood_oracle,
    temporal_profile_oracle,
)
from sitsgraph.errors import DimMismatch, InvalidLag, NoLabels, ShapeMismatch, TooFewNodes, UnknownNode
from sitsgraph.analysis import temporal_profile
from sitsgraph.features import FeatureMatrix, band_stats
from sitsgraph.metrics import majority_upper_bound
from sitsgraph.segmentation import SegStack, segment_cube
from sitsgraph.stgraph import (
    SPATIAL,
    SPATIOTEMPORAL,
    Edge,
    Node,
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
    periodic_edges,
    similarity_edges,
)


def _seg(labels: np.ndarray) -> SegStack:
    labels = np.asarray(labels, dtype=np.int32)
    counts = [len(np.unique(labels[t])) for t in range(labels.shape[0])]
    return SegStack(labels=labels, counts=counts)


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
        assert edges[0].src == 0 and edges[0].dst == 1 and edges[0].weight == 4.0

    def test_single_object_empty(self):
        edges = adjacency_edges(_seg(np.zeros((1, 3, 3), dtype=np.int32)), 0)
        assert edges == []

    def test_checkerboard_no_diagonals(self):
        lab = np.array([[[0, 1], [2, 3]]], dtype=np.int32)
        edges = adjacency_edges(_seg(lab), 0)
        got = {(e.src, e.dst) for e in edges}
        assert got == {(0, 1), (0, 2), (1, 3), (2, 3)}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        lab = _random_seg_frame(rng, 12, 16, 6)
        edges = adjacency_edges(_seg(lab[None]), 0)
        oracle = brute_adjacency(lab)
        assert {(e.src, e.dst): e.weight for e in edges} == {
            k: float(v) for k, v in oracle.items()
        }
        # weight sum equals the count of 4-neighbor pairs with differing labels
        assert sum(e.weight for e in edges) == sum(oracle.values())


def _nodes_at(centroids: dict[int, tuple[float, float]], t: int = 0):
    return [
        Node(id=i, t=t, pixel_count=1, centroid=c) for i, c in sorted(centroids.items())
    ]


class TestProximity:
    def test_eps_boundary_inclusive(self):
        nodes = _nodes_at({0: (0.0, 0.0), 1: (0.0, 5.0)})
        assert eps_ball_edges(nodes, eps=4.0) == []
        edges = eps_ball_edges(nodes, eps=5.0)
        assert [(e.src, e.dst) for e in edges] == [(0, 1)]

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
        assert {(e.src, e.dst): e.weight for e in edges} == brute_knn(cents, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_eps_matches_bruteforce(self, seed):
        rng = np.random.default_rng(200 + seed)
        cents = {i: tuple(rng.uniform(0, 8, size=2)) for i in range(7)}
        edges = eps_ball_edges(_nodes_at(cents), eps=3.0)
        assert {(e.src, e.dst): e.weight for e in edges} == brute_eps_ball(cents, 3.0)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_several_dates_match_bruteforce(self, seed, grid):
        # integer-grid centroids make many distances equal
        rng = np.random.default_rng(400 + seed)
        n = 30
        dates = {i: int(t) for i, t in enumerate(rng.integers(0, 3, size=n))}
        pos = rng.integers(0, 5, size=(n, 2)) if grid else rng.uniform(0, 10, size=(n, 2))
        cents = {i: (float(pos[i, 0]), float(pos[i, 1])) for i in range(n)}
        nodes = [Node(id=i, t=dates[i], pixel_count=1, centroid=cents[i]) for i in range(n)]
        k = min(4, min(list(dates.values()).count(t) for t in set(dates.values())) - 1)
        edges = knn_edges(nodes, k=k)
        assert [(e.src, e.dst) for e in edges] == sorted(brute_knn(cents, k, dates))
        assert {(e.src, e.dst): e.weight for e in edges} == brute_knn(cents, k, dates)
        edges = eps_ball_edges(nodes, eps=2.0)
        assert [(e.src, e.dst) for e in edges] == sorted(brute_eps_ball(cents, 2.0, dates))
        assert {(e.src, e.dst): e.weight for e in edges} == brute_eps_ball(cents, 2.0, dates)


class TestSimilarity:
    def test_identical_features_weight_one(self):
        fm = FeatureMatrix(values=np.zeros((2, 3)), names=list("abc"))
        edges = similarity_edges(fm, np.array([0, 0]), "within-date", k=1)
        assert len(edges) == 1 and edges[0].weight == 1.0

    def test_nearest_pair_mutually_selected(self):
        fm = FeatureMatrix(values=np.array([[0.0], [0.1], [9.0]]), names=["x"])
        edges = similarity_edges(fm, np.zeros(3, dtype=int), "within-date", k=1)
        pairs = {(e.src, e.dst) for e in edges}
        assert (0, 1) in pairs

    def test_cross_date_orientation(self):
        rng = np.random.default_rng(0)
        fm = FeatureMatrix(values=rng.normal(size=(6, 2)), names=["a", "b"])
        dates = np.array([0, 0, 1, 1, 2, 2])
        edges = similarity_edges(fm, dates, "cross-date", k=2)
        assert all(e.kind == SPATIOTEMPORAL for e in edges)
        assert all(dates[e.src] < dates[e.dst] for e in edges)

    @pytest.mark.parametrize("scope", ["within-date", "cross-date"])
    def test_matches_bruteforce(self, scope):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(8, 3))
        dates = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        edges = similarity_edges(
            FeatureMatrix(values=feats, names=list("abc")), dates, scope, k=2
        )
        assert {(e.src, e.dst): e.weight for e in edges} == brute_similarity(feats, dates, scope, 2)

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
        assert [(e.src, e.dst) for e in edges] == sorted(oracle)
        assert {(e.src, e.dst): e.weight for e in edges} == oracle


class TestOverlap:
    def test_static_object_full_overlap(self):
        lab = np.zeros((2, 3, 3), dtype=np.int32)
        lab[1] = 1
        edges = overlap_edges(_seg(lab))
        assert len(edges) == 1
        assert edges[0].weight == 1.0 and edges[0].kind == SPATIOTEMPORAL

    def test_disjoint_footprints_no_edge(self):
        lab = np.zeros((2, 2, 2), dtype=np.int32)
        lab[0] = [[0, 0], [1, 1]]
        lab[1] = [[2, 2], [3, 3]]
        edges = overlap_edges(_seg(lab), min_pixels=3)
        assert edges == []

    def test_split_two_full_weight_edges(self):
        lab = np.zeros((2, 2, 4), dtype=np.int32)
        lab[1, :, :2] = 1
        lab[1, :, 2:] = 2
        edges = overlap_edges(_seg(lab))
        assert [(e.src, e.dst, e.weight) for e in edges] == [(0, 1, 1.0), (0, 2, 1.0)]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(300 + seed)
        a = _random_seg_frame(rng, 10, 10, 4)
        b = _random_seg_frame(rng, 10, 10, 5) + a.max() + 1
        seg = _seg(np.stack([a, b]))
        edges = overlap_edges(seg, min_pixels=2)
        oracle = brute_overlap(a, b, 2)
        assert {(e.src, e.dst): e.weight for e in edges} == pytest.approx(oracle)


class TestPeriodic:
    def test_lag_equal_t_empty(self):
        lab = np.stack([np.zeros((3, 3), dtype=np.int32) + i for i in range(3)])
        assert periodic_edges(_seg(lab), lag=3) == []

    def test_static_scene(self):
        lab = np.stack([np.zeros((2, 2), dtype=np.int32) + i for i in range(3)])
        edges = periodic_edges(_seg(lab), lag=2)
        assert [(e.src, e.dst) for e in edges] == [(0, 2)]

    def test_oscillating_scene_links_same_phase(self):
        a = np.array([[0, 0], [1, 1]], dtype=np.int32)
        b = np.array([[2, 2], [2, 2]], dtype=np.int32)
        lab = np.stack([a, b, a + 3, b + 3])  # phase 0 at t=0,2; phase 1 at t=1,3
        edges = periodic_edges(_seg(lab), lag=2)
        pairs = {(e.src, e.dst) for e in edges}
        assert pairs == {(0, 3), (1, 4), (2, 5)}

    def test_invalid_lag(self):
        lab = np.zeros((3, 2, 2), dtype=np.int32)
        lab[1] = 1
        lab[2] = 2
        with pytest.raises(InvalidLag):
            periodic_edges(_seg(lab), lag=1)


class TestGraphInvariants:
    def _graph(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        fm = band_stats(fix_a, seg)
        return build_graph(seg, features=fm, spatial=["adjacency"], st=[("overlap", 1)])

    def test_disjoint_relations_and_orientation(self, fix_a):
        g = self._graph(fix_a)
        spatial = {(e.src, e.dst) for e in g.edges_spatial}
        st = {(e.src, e.dst) for e in g.edges_st}
        assert not (spatial & st)
        for e in g.edges_st:
            assert g.node(e.src).t < g.node(e.dst).t
        for e in g.edges_spatial:
            assert e.src < e.dst

    def test_insertion_order_independent(self, fix_a):
        g = self._graph(fix_a)
        rng = np.random.default_rng(0)
        nodes = list(g.nodes)
        order = rng.permutation(len(nodes))
        shuffled = StGraph(
            [nodes[i] for i in order],
            list(reversed(g.edges_spatial)),
            list(reversed(g.edges_st)),
            features=g.features,
        )
        assert shuffled.nodes == g.nodes
        assert shuffled.edges_spatial == g.edges_spatial
        assert shuffled.edges_st == g.edges_st

    def test_neighborhood_symmetry_and_direction(self, fix_a):
        g = self._graph(fix_a)
        e = g.edges_spatial[0]
        assert e.dst in g.neighborhood(e.src, SPATIAL)
        assert e.src in g.neighborhood(e.dst, SPATIAL)
        est = g.edges_st[0]
        assert est.dst in g.neighborhood(est.src, SPATIOTEMPORAL, "out")
        assert est.src in g.neighborhood(est.dst, SPATIOTEMPORAL, "in")

    def test_isolated_node_empty_neighborhood(self):
        g = StGraph([Node(0, 0, 1, (0.0, 0.0))], [], [])
        assert g.neighborhood(0, SPATIAL) == set()
        assert g.neighborhood(0, SPATIOTEMPORAL) == set()

    def test_merge_node_in_degree(self):
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 0, 1, (1, 1)), Node(2, 1, 1, (0, 0))]
        g = StGraph(
            nodes,
            [],
            [Edge(0, 2, SPATIOTEMPORAL, 1.0), Edge(1, 2, SPATIOTEMPORAL, 1.0)],
        )
        indeg, _ = g.st_degrees()
        assert indeg[2] == 2


class TestGraphStats:
    def test_empty_graph_unit_ratio(self):
        g = StGraph([], [], [])
        report = graph_stats(g, (1, 1, 4, 4), f_v=0, f_e=0, map_stored=True)
        assert report["compression_ratio"] == 1.0

    def test_plug_in_arithmetic(self):
        nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(10)]
        edges = [Edge(i, i + 1, SPATIAL, 1.0) for i in range(9)]
        extra = [Edge(i, i + 2, SPATIAL, 1.0) for i in range(8)]
        more = [Edge(i, i + 3, SPATIAL, 1.0) for i in range(3)]
        g = StGraph(nodes, edges + extra + more, [])
        assert len(g.edges_spatial) == 20
        report = graph_stats(g, (2, 4, 64, 64), f_v=4, f_e=1, map_stored=False)
        assert report["compression_ratio"] == pytest.approx(32768 / 80)
        assert report["compression_ratio"] == pytest.approx(409.6)

    def test_adding_edges_decreases_ratio(self):
        nodes = [Node(i, 0, 1, (0.0, float(i))) for i in range(5)]
        g1 = StGraph(nodes, [Edge(0, 1, SPATIAL, 1.0)], [])
        g2 = StGraph(nodes, [Edge(0, 1, SPATIAL, 1.0), Edge(1, 2, SPATIAL, 1.0)], [])
        shape = (1, 1, 8, 8)
        r1 = graph_stats(g1, shape, f_v=2, map_stored=False)["compression_ratio"]
        r2 = graph_stats(g2, shape, f_v=2, map_stored=False)["compression_ratio"]
        assert r2 < r1


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
        assert back.nodes == g.nodes
        assert back.edges_spatial == g.edges_spatial
        assert back.edges_st == g.edges_st
        assert np.allclose(back.features.values, g.features.values)
        assert back.meta["tag"] == "x"

    def test_empty_graph_all_formats(self):
        g = StGraph([], [], [])
        assert import_graph(export_graph(g, "json")).n_nodes == 0
        assert b"graphml" in export_graph(g, "graphml")
        assert export_graph(g, "dot").decode().startswith("digraph")

    def test_dot_dashed_st_edges(self):
        nodes = [Node(0, 0, 2, (0, 0)), Node(1, 1, 1, (0, 0)), Node(2, 2, 1, (0, 0))]
        g = StGraph(
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
        assert len(graph.findall(f"{ns}edge")) == len(g.edges_spatial) + len(g.edges_st)


class TestNodesFromSeg:
    def test_modal_labels(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        maps = np.zeros((2, 4, 4), dtype=np.int32)
        maps[:, :, 2:] = 2
        maps[0, 0, 0] = -1  # ignored pixel
        nodes = nodes_from_seg(seg, maps)
        assert nodes[0].label == 0 and nodes[1].label == 2

    def test_unlabeled_object_none(self, fix_a):
        seg = segment_cube(fix_a, "felzenszwalb", {"scale": 0.01, "min_size": 1})
        maps = np.full((2, 4, 4), -1, dtype=np.int32)
        maps[0, 0, 0] = 1
        nodes = nodes_from_seg(seg, maps)
        assert nodes[0].label == 1
        assert nodes[1].label is None

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
        labels = [n.label for n in nodes_from_seg(seg, truth)]
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
    @settings(max_examples=150, deadline=None)
    def test_columns_and_bytes(self, seed):
        nodes, spatial, temporal, features, meta = _random_graph_parts(np.random.default_rng(seed))
        g = StGraph(nodes, spatial, temporal, features=features, meta=meta)
        o_nodes, o_spatial, o_st = canonical_graph(nodes, spatial, temporal, features)
        assert list(map(_node_key, g.nodes)) == list(map(_node_key, o_nodes))
        assert list(map(_edge_key, g.edges_spatial)) == list(map(_edge_key, o_spatial))
        assert list(map(_edge_key, g.edges_st)) == list(map(_edge_key, o_st))
        blob = export_graph(g, "json")
        assert blob == json_oracle(g)
        assert export_graph(g, "graphml") == graphml_oracle(g)
        assert export_graph(g, "dot") == dot_oracle(g)
        back = import_graph(blob)
        assert export_graph(back, "json") == blob
        assert list(map(_edge_key, back.edges_st)) == list(map(_edge_key, o_st))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_errors(self, seed):
        nodes, spatial, temporal, features, meta = _random_graph_parts(np.random.default_rng(seed), invalid=True)

        def outcome(build):
            try:
                build()
            except (ShapeMismatch, UnknownNode, DimMismatch) as e:
                return type(e), str(e)
            return None

        expect = outcome(lambda: canonical_graph(nodes, spatial, temporal, features))
        assert outcome(lambda: StGraph(nodes, spatial, temporal, features=features)) == expect

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_queries(self, seed):
        nodes, spatial, temporal, features, _ = _random_graph_parts(np.random.default_rng(seed))
        g = StGraph(nodes, spatial, temporal, features=features)
        for n in g.nodes:
            assert g.node(n.id) == n
            assert g.nodes_at(n.t) == [m for m in g.nodes if m.t == n.t]
            assert g.neighborhood(n.id, SPATIAL) == neighborhood_oracle(g, n.id, SPATIAL)
            for direction in ("in", "out", "both"):
                got = g.neighborhood(n.id, SPATIOTEMPORAL, direction)
                assert got == neighborhood_oracle(g, n.id, SPATIOTEMPORAL, direction)
            if features is not None and features.dim:
                for direction in ("in", "out"):
                    got = temporal_profile(g, n.id, 0, direction)
                    want = temporal_profile_oracle(g, n.id, 0, direction)
                    assert [(t, float(v).hex()) for t, v in got] == [(t, float(v).hex()) for t, v in want]

    def test_empty_graph(self):
        g = StGraph([], [], [], meta={"k": "ü"})
        for fmt, oracle in (("json", json_oracle), ("graphml", graphml_oracle), ("dot", dot_oracle)):
            assert export_graph(g, fmt) == oracle(g)
        assert export_graph(import_graph(export_graph(g, "json")), "json") == export_graph(g, "json")

    def test_last_duplicate_wins_and_orientation(self):
        nodes = [Node(5, 1, 1, (0.0, 0.0)), Node(2, 0, 1, (0.0, 0.0)), Node(9, 1, 1, (1.0, 0.0))]
        spatial = [Edge(9, 5, SPATIAL, 1.0), Edge(5, 9, SPATIAL, 2.0)]
        temporal = [Edge(5, 2, SPATIOTEMPORAL, 3.0), Edge(2, 5, SPATIOTEMPORAL, 4.0), Edge(9, 2, SPATIOTEMPORAL, 5.0)]
        g = StGraph(nodes, spatial, temporal)
        assert [(e.src, e.dst, e.weight) for e in g.edges_spatial] == [(5, 9, 2.0)]
        assert [(e.src, e.dst, e.weight) for e in g.edges_st] == [(2, 5, 4.0), (2, 9, 5.0)]

    def test_integer_centroids_are_written_as_floats(self):
        g = StGraph([Node(0, 0, 1, (0, 3))], [], [])
        assert b'"centroid": [\n    0.0,\n    3.0\n   ]' in export_graph(g, "json")


class TestDuplicateNodeIds:
    def test_rejected_in_memory(self):
        with pytest.raises(ShapeMismatch, match="duplicate node id 0"):
            StGraph([Node(0, 0, 1, (0.0, 0.0)), Node(0, 1, 1, (0.0, 0.0))], [], [])

    def test_rejected_from_json(self):
        node = {"t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": None}
        doc = {"nodes": [dict(node, id=3), dict(node, id=3, t=1)], "edges": [], "meta": {}}
        with pytest.raises(ShapeMismatch, match="duplicate node id 3"):
            import_graph(json.dumps(doc))
