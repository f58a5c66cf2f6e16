import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccnet import (
    AXES,
    STANDARD_MEASURE_NAMES,
    GraphError,
    MeasureVector,
    WeightedDigraph,
    aspl,
    build_graph,
    degree,
    diameter,
    eigenvector_centrality,
    max_flow,
    maxflow_measure,
    measures,
    standard_measure_set,
    strength,
    summarize,
)
from helpers import (
    complete_digraph,
    cycle_graph,
    make_tradelike,
    min_cut_oracle,
    random_digraph,
    random_strongly_connected,
    summary_means_oracle,
)


class TestDegreeStrength:
    def test_complete_degrees(self):
        g = complete_digraph(4)
        assert np.array_equal(degree(g, "in").values, [3, 3, 3, 3])
        assert np.array_equal(degree(g, "out").values, [3, 3, 3, 3])

    def test_chain_degrees(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        assert np.array_equal(degree(g, "out").values, [1, 1, 0])
        assert np.array_equal(degree(g, "in").values, [0, 1, 1])

    def test_single_edge_strength(self):
        g = build_graph([("a", "b", 5.0)])
        assert np.array_equal(strength(g, "out").values, [5.0, 0.0])
        assert np.array_equal(strength(g, "in").values, [0.0, 5.0])

    def test_two_cycle_strength_swap(self):
        g = build_graph([("a", "b", 2.0), ("b", "a", 3.0)])
        assert np.array_equal(strength(g, "in").values, [3.0, 2.0])
        assert np.array_equal(strength(g, "out").values, [2.0, 3.0])

    def test_strength_conservation(self):
        for seed in range(5):
            g = random_digraph(12, seed)
            assert strength(g, "in").values.sum() == pytest.approx(g.total_weight)
            assert strength(g, "out").values.sum() == pytest.approx(g.total_weight)

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            degree(complete_digraph(3), "sideways")


@pytest.mark.parametrize("values, message", [
    ([[1.0, 2.0], [3.0, 4.0]], "measure values must be a 1-D vector"),
    ([1.0, np.inf, 2.0], "measure 'm' contains non-finite values"),
    ([1.0, np.nan, 2.0], "measure 'm' contains non-finite values"),
], ids=["two-d", "inf", "nan"])
def test_measure_vector_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MeasureVector("m", values)


class TestAspl:
    def test_complete(self):
        g = complete_digraph(5)
        assert np.allclose(aspl(g, "in").values, 1.0)
        assert np.allclose(aspl(g, "out").values, 1.0)

    def test_three_cycle(self):
        g = cycle_graph(["a", "b", "c"])
        assert np.allclose(aspl(g, "in").values, 1.5)
        assert np.allclose(aspl(g, "out").values, 1.5)

    def test_four_cycle(self):
        g = cycle_graph(["a", "b", "c", "d"])
        assert np.allclose(aspl(g, "out").values, 2.0)
        assert np.allclose(aspl(g, "in").values, 2.0)

    def test_smaller_is_better(self):
        assert aspl(cycle_graph(["a", "b", "c"]), "in").bigger_is_better is False

    def test_unreachable_rejected(self):
        with pytest.raises(GraphError):
            aspl(build_graph([("a", "b", 1.0)]), "out")

    def test_range_one_to_diameter(self):
        for seed in range(5):
            g = random_strongly_connected(14, seed)
            dia = diameter(g)
            for direction in ("in", "out"):
                vals = aspl(g, direction).values
                assert np.all(vals >= 1.0) and np.all(vals <= dia)


class TestMaxFlow:
    def test_single_edge_with_return(self):
        g = build_graph([("s", "t", 5.0), ("t", "s", 1.0)])
        assert max_flow(g, "s", "t") == 5.0

    def test_diamond(self):
        g = build_graph([
            ("s", "a", 3.0), ("s", "b", 2.0),
            ("a", "t", 2.0), ("b", "t", 2.0),
        ])
        assert max_flow(g, "s", "t") == 4.0

    def test_same_node_rejected(self):
        with pytest.raises(GraphError):
            max_flow(complete_digraph(3), "v0", "v0")

    # the oracle comparisons run on one ``_pair_flows`` matrix per graph;
    # TestFlowBlocks::test_block_seams_bit_equal checks that each entry is
    # ``max_flow`` of its pair
    def test_matches_exhaustive_cut_oracle(self):
        for seed in range(40):
            n = 4 + seed % 5
            g = random_digraph(n, seed, p=0.45)
            flows = measures._pair_flows(g)
            for s in range(n):
                for t in range(n):
                    if s != t:
                        assert flows[s, t] == min_cut_oracle(g.weights, s, t)

    def test_float_weights_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for n, seed in ((20, 1), (30, 2)):
            g = make_tradelike(n, seed)
            ref = nx.DiGraph()
            ref.add_nodes_from(range(n))
            for i, j in zip(*np.nonzero(g.weights)):
                ref.add_edge(int(i), int(j), capacity=float(g.weights[i, j]))
            flows = measures._pair_flows(g)
            for s in range(n):
                for t in range(n):
                    if s != t:
                        assert flows[s, t] == pytest.approx(
                            nx.maximum_flow_value(ref, s, t), rel=1e-12, abs=0.0)

    def test_integer_flow_matrix_matches_cut_oracle(self):
        for seed in range(4):
            n = 9 + seed
            g = random_strongly_connected(n, seed, p=0.3)
            oracle = np.array([[min_cut_oracle(g.weights, s, t) if s != t else 0.0
                                for t in range(n)] for s in range(n)])
            assert np.array_equal(maxflow_measure(g, "in").values, oracle.sum(axis=0) / (n - 1))
            assert np.array_equal(maxflow_measure(g, "out").values, oracle.sum(axis=1) / (n - 1))

    def test_bounded_by_endpoint_strengths(self):
        for seed in range(5):
            g = random_strongly_connected(10, seed)
            s_out = strength(g, "out").values
            s_in = strength(g, "in").values
            flows = measures._pair_flows(g)
            for s in range(g.n):
                for t in range(g.n):
                    if s != t:
                        assert flows[s, t] <= min(s_out[s], s_in[t]) + 1e-12


class TestMaxflowMeasure:
    def test_symmetric_two_cycle(self):
        g = build_graph([("a", "b", 7.0), ("b", "a", 7.0)])
        assert np.allclose(maxflow_measure(g, "in").values, 7.0)
        assert np.allclose(maxflow_measure(g, "out").values, 7.0)

    def test_unit_three_cycle(self):
        g = cycle_graph(["a", "b", "c"])
        assert np.allclose(maxflow_measure(g, "in").values, 1.0)
        assert np.allclose(maxflow_measure(g, "out").values, 1.0)

    def test_in_out_means_agree(self):
        for seed in range(3):
            g = random_strongly_connected(8, seed)
            f_in = maxflow_measure(g, "in").values
            f_out = maxflow_measure(g, "out").values
            assert f_in.mean() == pytest.approx(f_out.mean(), rel=1e-12)

    def test_cached_flow_matrix_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for n, seed in ((20, 1), (30, 2)):
            g = make_tradelike(n, seed)
            f_in = maxflow_measure(g, "in").values
            flows = g.cached("maxflow", measures._pair_flows)
            assert np.array_equal(f_in, flows.sum(axis=0) / (n - 1))
            ref = nx.DiGraph()
            ref.add_nodes_from(range(n))
            for i, j in zip(*np.nonzero(g.weights)):
                ref.add_edge(int(i), int(j), capacity=float(g.weights[i, j]))
            for s in range(n):
                assert flows[s, s] == 0.0
                for t in range(n):
                    if s != t:
                        assert flows[s, t] == pytest.approx(
                            nx.maximum_flow_value(ref, s, t), rel=1e-12, abs=0.0)


class TestStrongConnectivityCheck:
    # c is reached from a and b but reaches neither: (c, a) is the first
    # unreachable ordered pair in node order
    G = build_graph([("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0)])

    @pytest.mark.parametrize("fn", [lambda g: aspl(g, "in"), lambda g: aspl(g, "out"),
                                    lambda g: maxflow_measure(g, "in"),
                                    lambda g: maxflow_measure(g, "out"), diameter],
                             ids=["aspl-in", "aspl-out", "maxflow-in", "maxflow-out", "diameter"])
    def test_rejected_naming_an_unreachable_pair_before_any_flow(self, fn, monkeypatch):
        def no_flows(g):
            raise AssertionError("computed pair flows on a graph that is not strongly connected")

        monkeypatch.setattr(measures, "_pair_flows", no_flows)
        with pytest.raises(GraphError, match="^graph is not strongly connected: "
                                             "'c' does not reach 'a'$"):
            fn(self.G)


class TestRadialNames:
    FUNCTIONS = {"LO-QL": aspl, "LO-QN": maxflow_measure, "SH-QL": degree, "SH-QN": strength}

    def test_functions_return_the_standard_names(self):
        g = make_tradelike(10, 0)
        names = [m.name for m in standard_measure_set(g)]
        assert names == list(STANDARD_MEASURE_NAMES)
        for name in names:
            direction, range_texture = name.split("-", 1)
            m = self.FUNCTIONS[range_texture](g, direction.lower())
            assert m.name == name

    @pytest.mark.parametrize("range_texture", ["LO-QL", "LO-QN", "SH-QL", "SH-QN"])
    def test_size_error_names_the_measure(self, range_texture):
        g = WeightedDigraph(("a",), np.zeros((1, 1)))
        with pytest.raises(GraphError, match=f"^OUT-{range_texture} needs at least 2 nodes$"):
            self.FUNCTIONS[range_texture](g, "out")
        with pytest.raises(ValueError, match="direction must be"):
            self.FUNCTIONS[range_texture](g, "sideways")


class TestFlowBlocks:
    """The all-pairs matrix does not depend on how the pairs are cut into blocks."""

    @pytest.mark.parametrize("g", [make_tradelike(20, 1), random_strongly_connected(11, 0),
                                   random_digraph(9, 3, p=0.2)],
                             ids=["tradelike-float", "integer", "zero-flow-pairs"])
    def test_block_seams_bit_equal(self, g, monkeypatch):
        n = g.n
        default = measures._pair_flows(g)
        assert n * (n - 1) * n * n <= measures._BLOCK  # one block holds every pair
        for block in (n * n, 7 * n * n):  # one pair per block; an uneven last block
            monkeypatch.setattr(measures, "_BLOCK", block)
            assert measures._pair_flows(g).tobytes() == default.tobytes()
        pairwise = np.array([[max_flow(g, s, t) if s != t else 0.0 for t in range(n)]
                             for s in range(n)])
        assert pairwise.tobytes() == default.tobytes()

    def test_integer_matrix_matches_cut_oracle_and_zero_flows(self):
        g = random_strongly_connected(11, 0)
        oracle = np.array([[min_cut_oracle(g.weights, s, t) if s != t else 0.0
                            for t in range(11)] for s in range(11)])
        assert np.array_equal(measures._pair_flows(g), oracle)
        g = random_digraph(9, 3, p=0.2)
        flows = measures._pair_flows(g)
        off = ~np.eye(9, dtype=bool)
        assert np.any(flows[off] == 0.0)
        for s, t in zip(*np.nonzero(off)):
            assert flows[s, t] == min_cut_oracle(g.weights, s, t)


class TestEigenvectorCentrality:
    def test_complete_graph_uniform(self):
        for n in (3, 5, 8):
            vec = eigenvector_centrality(complete_digraph(n)).values
            assert np.allclose(vec, 1.0 / np.sqrt(n), atol=1e-10)

    def test_star_ratio(self):
        g = build_graph([("hub", leaf, 1.0) for leaf in ("l1", "l2", "l3")])
        vec = eigenvector_centrality(g).values
        by = dict(zip(g.labels, vec))
        assert by["hub"] / by["l1"] == pytest.approx(np.sqrt(3), abs=1e-10)

    def test_path_ratio(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        vec = eigenvector_centrality(g).values
        assert vec[1] / vec[0] == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_positive_unit_norm(self):
        for seed in range(5):
            g = random_strongly_connected(12, seed)
            vec = eigenvector_centrality(g).values
            assert np.all(vec > 0.0)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)

    def test_disconnected_rejected(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0),
                         ("c", "d", 1.0), ("d", "c", 1.0)])
        with pytest.raises(GraphError):
            eigenvector_centrality(g)


class TestStandardMeasureSet:
    def test_names_and_order(self):
        ms = standard_measure_set(make_tradelike(10, 0))
        assert [m.name for m in ms] == [
            "IN-LO-QL", "IN-LO-QN", "IN-SH-QL", "IN-SH-QN",
            "OUT-LO-QL", "OUT-LO-QN", "OUT-SH-QL", "OUT-SH-QN",
        ]
        assert [m.bigger_is_better for m in ms] == [
            False, True, True, True, False, True, True, True,
        ]

    def test_names_come_from_the_axis_table(self):
        assert STANDARD_MEASURE_NAMES == tuple(
            "-".join(p) for p in itertools.product(*AXES.values()))
        assert tuple(AXES) == ("d", "r", "t")

    def test_vertex_transitive_graph_gives_constants(self):
        ms = standard_measure_set(cycle_graph(["a", "b", "c"]))
        assert len(ms) == 8
        for m in ms:
            assert np.allclose(m.values, m.values[0])

    def test_transpose_duality(self):
        pairs = [("IN-LO-QL", "OUT-LO-QL"), ("IN-LO-QN", "OUT-LO-QN"),
                 ("IN-SH-QL", "OUT-SH-QL"), ("IN-SH-QN", "OUT-SH-QN")]
        for seed in range(6):
            g = random_strongly_connected(4 + 2 * seed, seed)
            fwd = {m.name: m.values for m in standard_measure_set(g)}
            rev = {m.name: m.values for m in standard_measure_set(g.transpose())}
            for in_name, out_name in pairs:
                assert np.array_equal(fwd[in_name], rev[out_name])
                assert np.array_equal(fwd[out_name], rev[in_name])


class TestSummarize:
    def test_fields_within_ranges(self):
        g = make_tradelike(15, 2)
        s = summarize(g)
        assert s.n == 15 and s.n_edges == g.n_edges
        assert s.diameter >= 1
        assert s.mean_aspl >= 1.0
        assert s.mean_maxflow > 0.0
        assert 0.0 <= s.asymmetry <= 1.0
        assert 0.0 < s.edge_density <= 1.0
        assert 0.0 <= s.mean_clustering <= 1.0
        assert s.algebraic_connectivity > 0.0
        assert s.assortativity is None or -1.0 <= s.assortativity <= 1.0
        assert s.coverage == 1.0
        assert s.n_edges <= s.n * (s.n - 1)
        assert s.diameter >= int(np.ceil(s.mean_aspl))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.booleans())
    @example(2, 0, 0.0, False)
    @example(2, 0, 0.0, True)
    @example(40, 0, 0.0, True)
    def test_integer_means_equal_the_float_matrix_averages(self, n, seed, p, complete):
        g = complete_digraph(n) if complete else random_strongly_connected(n, seed, p)
        s = summarize(g)
        mean_aspl, mean_degree = summary_means_oracle(g)
        assert np.float64(s.mean_aspl).tobytes() == np.float64(mean_aspl).tobytes()
        assert np.float64(s.mean_degree).tobytes() == np.float64(mean_degree).tobytes()

    def test_coverage_against_full_graph(self):
        from ccnet import largest_scc, threshold_graph

        g = make_tradelike(15, 3)
        cut = float(np.quantile(g.weights[g.weights > 0], 0.3))
        reduced = largest_scc(threshold_graph(g, cut))
        s = summarize(reduced, full=g)
        assert 0.0 < s.coverage < 1.0
