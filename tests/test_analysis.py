import numpy as np
import pytest

from _oracles import OracleEdge as Edge
from _oracles import OracleNode as Node
from _oracles import brute_events, enumerate_patterns, graph_from_objects, graph_objects, witness_oracle
from sitsgraph.analysis import (
    coverage_indicator,
    detect_events,
    mine_frequent,
    symbolize,
    temporal_profile,
)
from sitsgraph.errors import DegenerateFeature, DimMismatch, ShapeMismatch, UnknownNode
from sitsgraph.features import FeatureMatrix
from sitsgraph.stgraph import SPATIOTEMPORAL


def _chain_graph(n=3, weights=None):
    nodes = [Node(i, i, 1, (0.0, 0.0)) for i in range(n)]
    weights = weights or [1.0] * (n - 1)
    edges = [Edge(i, i + 1, SPATIOTEMPORAL, w) for i, w in enumerate(weights)]
    return graph_from_objects(nodes, [], edges)


def _random_st_graph(rng, n_nodes=12, n_dates=4, p=0.4):
    dates = np.sort(rng.integers(0, n_dates, size=n_nodes))
    nodes = [Node(i, int(dates[i]), 1, (0.0, float(i))) for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if dates[i] < dates[j] and rng.uniform() < p:
                edges.append(Edge(i, j, SPATIOTEMPORAL, float(rng.uniform(0.1, 1))))
    return graph_from_objects(nodes, [], edges), {i: int(dates[i]) for i in range(n_nodes)}


class TestDetectEvents:
    def test_graph_without_nodes_has_no_events(self):
        assert detect_events(graph_from_objects([], [], [])) == []

    def test_chain(self):
        g = _chain_graph(3)
        events = {(r.node, r.event) for r in detect_events(g)}
        assert (1, "continuation") in events
        assert (0, "appearance") not in events  # t == t_min
        assert (2, "disappearance") not in events  # t == t_max

    def test_merge(self):
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 0, 1, (0, 1)), Node(2, 1, 1, (0, 0))]
        g = graph_from_objects(nodes, [], [Edge(0, 2, SPATIOTEMPORAL, 1.0), Edge(1, 2, SPATIOTEMPORAL, 1.0)])
        assert (2, "merge") in {(r.node, r.event) for r in detect_events(g)}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_degree_scan(self, seed):
        rng = np.random.default_rng(seed)
        g, dates = _random_st_graph(rng)
        got = {(r.node, r.event) for r in detect_events(g)}
        oracle = brute_events(dates, [(e.src, e.dst) for e in graph_objects(g).edges_st])
        assert got == oracle

    def test_degree_sums_equal_edge_count(self):
        rng = np.random.default_rng(42)
        g, _ = _random_st_graph(rng)
        indeg, outdeg = g.degrees(g.st)
        assert indeg.sum() == outdeg.sum() == len(g.st)


class TestTemporalProfile:
    def _with_features(self, g, values):
        fm = FeatureMatrix(values=np.asarray(values, dtype=float), names=["f"])
        v = graph_objects(g)
        return graph_from_objects(v.nodes, v.edges_spatial, v.edges_st, features=fm)

    def test_static_three_dates(self):
        g = self._with_features(_chain_graph(3), [[0.5], [0.5], [0.5]])
        prof = temporal_profile(g, 0, 0, "out")
        assert prof == [(0, 0.5), (1, 0.5), (2, 0.5)]

    def test_no_successor_single_sample(self):
        g = self._with_features(_chain_graph(2), [[0.1], [0.9]])
        assert temporal_profile(g, 1, 0, "out") == [(1, 0.9)]

    def test_follows_heaviest_branch(self):
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 1, 1, (0, 0)), Node(2, 1, 1, (0, 1))]
        edges = [Edge(0, 1, SPATIOTEMPORAL, 1.0), Edge(0, 2, SPATIOTEMPORAL, 0.6)]
        fm = FeatureMatrix(values=np.array([[0.0], [1.0], [2.0]]), names=["f"])
        g = graph_from_objects(nodes, [], edges, features=fm)
        assert temporal_profile(g, 0, 0, "out") == [(0, 0.0), (1, 1.0)]

    def test_in_walk_follows_heaviest_predecessor(self):
        # 3 <- 2 (1.0); 2 <- 1 (0.9) beats 2 <- 0 (0.4); samples come back in date order
        nodes = [Node(0, 0, 1, (0, 0)), Node(1, 0, 1, (0, 1)), Node(2, 1, 1, (0, 0)), Node(3, 2, 1, (0, 0))]
        edges = [Edge(0, 2, SPATIOTEMPORAL, 0.4), Edge(1, 2, SPATIOTEMPORAL, 0.9), Edge(2, 3, SPATIOTEMPORAL, 1.0)]
        fm = FeatureMatrix(values=np.array([[0.0], [1.0], [2.0], [3.0]]), names=["f"])
        g = graph_from_objects(nodes, [], edges, features=fm)
        assert temporal_profile(g, 3, 0, "in") == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_unknown_node(self):
        g = self._with_features(_chain_graph(2), [[0.0], [0.0]])
        with pytest.raises(UnknownNode):
            temporal_profile(g, 99, 0, "out")

    def test_graph_without_features(self):
        with pytest.raises(DimMismatch, match="graph carries no feature matrix"):
            temporal_profile(_chain_graph(2), 0, 0, "out")

    def test_unknown_direction(self):
        g = self._with_features(_chain_graph(2), [[0.0], [0.0]])
        with pytest.raises(ShapeMismatch, match="direction must be 'out' or 'in', got 'sideways'"):
            temporal_profile(g, 0, 0, "sideways")


class TestCoverage:
    def test_full_partition_is_one(self):
        nodes = [Node(0, 0, 10, (0, 0)), Node(1, 0, 6, (0, 1))]
        g = graph_from_objects(nodes, [], [])
        cov = coverage_indicator(g, {0: [0, 1]}, frame_pixels=16)
        assert cov == {0: 1.0}

    def test_empty_subset(self):
        g = graph_from_objects([Node(0, 0, 4, (0, 0))], [], [])
        assert coverage_indicator(g, {0: []}, 16) == {0: 0.0}

    def test_half_frame(self):
        g = graph_from_objects([Node(0, 0, 8, (0, 0)), Node(1, 0, 8, (0, 1))], [], [])
        assert coverage_indicator(g, {0: [0]}, 16) == {0: 0.5}

    def test_node_at_another_date(self):
        g = graph_from_objects([Node(0, 0, 8, (0, 0)), Node(1, 1, 8, (0, 0))], [], [])
        with pytest.raises(UnknownNode, match="node 1 is at date 1, not 0"):
            coverage_indicator(g, {0: [0, 1]}, 16)

    def test_unknown_node(self):
        g = graph_from_objects([Node(0, 0, 8, (0, 0))], [], [])
        with pytest.raises(UnknownNode, match="no node with id 7"):
            coverage_indicator(g, {0: [7]}, 16)


class TestSymbolize:
    def test_median_split(self):
        fm = FeatureMatrix(values=np.array([[1.0], [2.0], [3.0], [4.0]]), names=["f"])
        symbols, _ = symbolize(fm, 0, 2)
        assert symbols.tolist() == [0, 0, 1, 1]

    def test_constant_warns(self):
        fm = FeatureMatrix(values=np.ones((5, 1)), names=["f"])
        with pytest.warns(DegenerateFeature):
            symbols, _ = symbolize(fm, 0, 3)
        assert symbols.tolist() == [0] * 5

    def test_edges_match_sort_based_quantiles(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=40)
        fm = FeatureMatrix(values=vals[:, None], names=["f"])
        _, edges = symbolize(fm, 0, 4)
        expect = np.quantile(vals, [0.25, 0.5, 0.75])
        assert edges == pytest.approx(expect)

    @pytest.mark.parametrize("index", [-1, 2, 99])
    def test_feature_index_outside_dim(self, index):
        fm = FeatureMatrix(values=np.arange(8.0).reshape(4, 2), names=["a", "b"])
        with pytest.raises(DimMismatch, match=f"feature index {index} out of range for dim 2"):
            symbolize(fm, index, 2)


class TestMineFrequent:
    def test_two_disjoint_chains(self):
        nodes = [Node(i, i % 2, 1, (0.0, float(i))) for i in range(4)]
        edges = [Edge(0, 1, SPATIOTEMPORAL, 1.0), Edge(2, 3, SPATIOTEMPORAL, 1.0)]
        g = graph_from_objects(nodes, [], edges)
        symbols = np.array([0, 1, 0, 1])  # both chains read A -> B
        pats = {p.symbols: p.support for p in mine_frequent(g, symbols, minsup=2, maxlen=2)}
        assert pats[(0, 1)] == 2

    def test_minsup_above_node_count(self):
        g = _chain_graph(3)
        assert mine_frequent(g, np.zeros(3, dtype=int), minsup=4, maxlen=3) == []

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("minsup", [1, 2, 3])
    def test_matches_exhaustive_enumeration(self, seed, minsup):
        rng = np.random.default_rng(seed)
        g, _ = _random_st_graph(rng, n_nodes=10)
        symbols = rng.integers(0, 3, size=10)
        got = {p.symbols: p.support for p in mine_frequent(g, symbols, minsup=minsup, maxlen=4)}
        oracle = enumerate_patterns(
            {i: int(symbols[i]) for i in range(10)},
            [(e.src, e.dst) for e in graph_objects(g).edges_st],
            minsup,
            4,
        )
        assert got == oracle

    def test_antimonotone_prefixes(self):
        rng = np.random.default_rng(11)
        g, _ = _random_st_graph(rng, n_nodes=12)
        symbols = rng.integers(0, 2, size=12)
        pats = {p.symbols: p.support for p in mine_frequent(g, symbols, minsup=1, maxlen=4)}
        for symbols_, support in pats.items():
            for cut in range(1, len(symbols_)):
                assert pats[symbols_[:cut]] >= support

    def test_example_paths_realize_patterns(self):
        rng = np.random.default_rng(13)
        g, _ = _random_st_graph(rng, n_nodes=10)
        symbols = rng.integers(0, 2, size=10)
        v = graph_objects(g)
        succ = {n.id: set() for n in v.nodes}
        for e in v.edges_st:
            succ[e.src].add(e.dst)
        for p in mine_frequent(g, symbols, minsup=1, maxlen=3):
            path = p.example
            assert tuple(int(symbols[v]) for v in path) == p.symbols
            assert all(b in succ[a] for a, b in zip(path, path[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_examples_match_first_start_scan(self, seed):
        # ids with gaps, so symbol rows and node ids differ
        rng = np.random.default_rng(900 + seed)
        g, _ = _random_st_graph(rng, n_nodes=14, p=0.5)
        ids = np.sort(rng.choice(100, size=14, replace=False))
        v = graph_objects(g)
        g = graph_from_objects(
            [Node(int(ids[n.id]), n.t, 1, n.centroid) for n in v.nodes],
            [],
            [Edge(int(ids[e.src]), int(ids[e.dst]), SPATIOTEMPORAL, e.weight) for e in v.edges_st],
        )
        symbols = rng.integers(0, 2, size=14)
        pats = mine_frequent(g, symbols, minsup=1, maxlen=4)
        assert pats
        for p in pats:
            assert p.example == witness_oracle(g, symbols, p.symbols)

    def test_output_sorted(self):
        rng = np.random.default_rng(3)
        g, _ = _random_st_graph(rng, n_nodes=8)
        symbols = rng.integers(0, 2, size=8)
        pats = mine_frequent(g, symbols, minsup=1, maxlen=3)
        keys = [(len(p.symbols), p.symbols) for p in pats]
        assert keys == sorted(keys)
