import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccnet
from ccnet import (
    GraphError,
    WeightedDigraph,
    algebraic_connectivity,
    assortativity,
    build_graph,
    clustering,
    coverage,
    diameter,
    edge_density,
    graph_asymmetry,
    hop_distance_matrix,
    largest_scc,
    strongly_connected_components,
    threshold_graph,
)
from ccnet.graph import _hop_distances
from helpers import (
    build_graph_two_pass,
    clustering_oracle,
    largest_scc_oracle,
    make_tradelike,
    random_digraph,
    random_strongly_connected,
    scc_node_loop,
    scc_oracle,
)


def cycle_graph(labels):
    edges = [(labels[i], labels[(i + 1) % len(labels)], 1.0) for i in range(len(labels))]
    return build_graph(edges)


def complete_digraph(n):
    return build_graph([(f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(n) if i != j])


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([("a", "b", 1.0)])
        assert g.n == 2 and g.n_edges == 1

    def test_reciprocal_edges(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 2.0)])
        assert g.n == 2 and g.n_edges == 2
        assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph([("a", "a", 1.0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphError):
            build_graph([("a", "b", 0.0)])
        with pytest.raises(GraphError):
            build_graph([("a", "b", -1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            build_graph([("a", "b", 1.0), ("a", "b", 2.0)])

    def test_first_appearance_order(self):
        g = build_graph([("c", "a", 1.0), ("a", "b", 1.0)])
        assert g.labels == ("c", "a", "b")

    def test_empty_label_rejected(self):
        with pytest.raises(GraphError):
            build_graph([("", "b", 1.0)])


class TestThreshold:
    def test_drops_below(self):
        g = build_graph([("a", "b", 5.0), ("b", "c", 20.0)])
        out = threshold_graph(g, 10.0)
        assert out.n_edges == 1 and out.weights[1, 2] == 20.0
        assert out.labels == g.labels  # isolated nodes retained

    def test_min_weight_keeps_everything(self):
        g = build_graph([("a", "b", 5.0), ("b", "c", 20.0)])
        out = threshold_graph(g, 5.0)
        assert np.array_equal(out.weights, g.weights)

    def test_boundary_inclusive(self):
        g = build_graph([("a", "b", 9.999), ("b", "c", 10.0)])
        out = threshold_graph(g, 10.0)
        assert out.n_edges == 1 and out.weights[1, 2] == 10.0

    def test_idempotent(self):
        for seed in range(5):
            g = random_digraph(12, seed)
            once = threshold_graph(g, 4.0)
            twice = threshold_graph(once, 4.0)
            assert np.array_equal(once.weights, twice.weights)

    def test_empty_result_is_legal(self):
        g = build_graph([("a", "b", 1.0)])
        assert threshold_graph(g, 2.0).n_edges == 0

    def test_non_positive_threshold_rejected(self):
        g = build_graph([("a", "b", 1.0)])
        with pytest.raises(GraphError):
            threshold_graph(g, 0.0)

    @pytest.mark.parametrize("e_th", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, e_th):
        # inf would drop every edge and surface later as an empty LSCC
        g = build_graph([("a", "b", 1.0)])
        with pytest.raises(GraphError, match="finite"):
            threshold_graph(g, e_th)


class TestLargestScc:
    def test_cycle_is_returned_whole(self):
        g = cycle_graph(["a", "b", "c"])
        out = largest_scc(g)
        assert out.labels == g.labels
        assert np.array_equal(out.weights, g.weights)

    def test_chain_has_no_component(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        with pytest.raises(GraphError):
            largest_scc(g)

    def test_bridge_between_cycles(self):
        g = build_graph([
            ("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
            ("d", "e", 1.0), ("e", "d", 1.0),
            ("c", "d", 1.0),
        ])
        out = largest_scc(g)
        assert set(out.labels) == {"a", "b", "c"}
        assert set(out.labels) == set(largest_scc_oracle(g))

    def test_matches_reachability_oracle(self):
        checked = 0
        for seed in range(60):
            g = random_digraph(int(5 + (seed * 7) % 46), seed, p=0.08)
            assert sorted(strongly_connected_components(g)) == sorted(scc_oracle(g))
            expected = largest_scc_oracle(g)
            if len(expected) < 2:
                with pytest.raises(GraphError):
                    largest_scc(g)
                continue
            assert largest_scc(g).labels == expected
            checked += 1
        assert checked > 20

    def test_components_sorted_and_ordered_by_smallest_index(self):
        g = build_graph([
            ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "b", 1.0),
            ("e", "a", 1.0), ("a", "e", 1.0),
        ])
        assert strongly_connected_components(g) == [[0, 4], [1, 2, 3]]

    def test_inherited_hop_matrix_matches_fresh_bfs_and_networkx(self):
        nx = pytest.importorskip("networkx")
        checked = 0
        for seed in range(60):
            g = random_digraph(int(5 + (seed * 7) % 46), seed, p=0.08)
            components = strongly_connected_components(g)
            # the LSCC must drop nodes, so its matrix is cut from g's
            if len(components) < 2 or max(map(len, components)) < 2:
                continue
            lscc = largest_scc(g)
            dist = hop_distance_matrix(lscc)
            assert not dist.flags.writeable
            assert np.array_equal(dist, _hop_distances(lscc))
            lengths = dict(nx.shortest_path_length(nx.from_numpy_array(
                lscc.adjacency().astype(int), create_using=nx.DiGraph)))
            assert [[lengths[i][j] for j in range(lscc.n)] for i in range(lscc.n)] \
                == dist.tolist()
            checked += 1
        assert checked > 20

    def test_tie_break_smallest_index(self):
        g = build_graph([
            ("x", "y", 1.0), ("y", "x", 1.0),
            ("p", "q", 1.0), ("q", "p", 1.0),
        ])
        assert largest_scc(g).labels == ("x", "y")


class TestAsymmetry:
    def test_symmetric_matrix_is_zero(self):
        g = build_graph([("a", "b", 3.0), ("b", "a", 3.0)])
        assert graph_asymmetry(g) == 0.0

    def test_single_edge(self):
        g = build_graph([("a", "b", 1.0)])
        assert graph_asymmetry(g) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_two_one(self):
        g = build_graph([("a", "b", 2.0), ("b", "a", 1.0)])
        assert graph_asymmetry(g) == pytest.approx(np.sqrt(2) / (2 * np.sqrt(5)), abs=1e-12)

    def test_bounds_and_unreciprocated_value(self):
        for seed in range(8):
            g = random_digraph(10, seed)
            if g.n_edges == 0:
                continue
            assert 0.0 <= graph_asymmetry(g) <= 1.0
        # no reciprocated edges: exactly sqrt(2)/2
        g = build_graph([("a", "b", 3.0), ("b", "c", 1.0), ("c", "a", 7.0)])
        assert graph_asymmetry(g) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_empty_edge_set_rejected(self):
        g = threshold_graph(build_graph([("a", "b", 1.0)]), 5.0)
        with pytest.raises(GraphError):
            graph_asymmetry(g)


class TestEdgeDensity:
    def test_complete(self):
        assert edge_density(complete_digraph(3)) == 1.0

    def test_partial(self):
        g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
        assert edge_density(g) == pytest.approx(1 / 3)

    def test_trade_web_scale(self):
        # 181 nodes, 2078 edges
        rng = np.random.default_rng(0)
        n = 181
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        picks = rng.choice(len(cells), size=2078, replace=False)
        w = np.zeros((n, n))
        for k in picks:
            w[cells[k]] = 1.0
        g = WeightedDigraph(tuple(f"c{i}" for i in range(n)), w)
        assert edge_density(g) == pytest.approx(2078 / (181 * 180))
        assert edge_density(g) == pytest.approx(0.0638, abs=5e-4)


class TestDiameterAndDistances:
    def test_complete_is_one(self):
        for n in range(2, 21):
            assert diameter(complete_digraph(n)) == 1
            assert edge_density(complete_digraph(n)) == 1.0

    def test_directed_four_cycle(self):
        assert diameter(cycle_graph(["a", "b", "c", "d"])) == 3

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(GraphError):
            diameter(build_graph([("a", "b", 1.0), ("b", "c", 1.0)]))

    def test_diameter_at_least_mean_aspl(self):
        for seed in range(6):
            g = random_strongly_connected(15, seed)
            dist = hop_distance_matrix(g).astype(float)
            mean = dist[~np.eye(g.n, dtype=bool)].mean()
            assert diameter(g) >= int(np.ceil(mean))

    def test_hop_matrix_shared_and_read_only(self):
        g = random_strongly_connected(10, 0)
        dist = hop_distance_matrix(g)
        assert hop_distance_matrix(g) is dist
        assert not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[0, 1] = 0


class TestClustering:
    def test_triangle(self):
        vals, mean = clustering(cycle_graph(["a", "b", "c"]))
        assert np.allclose(vals, 1.0) and mean == 1.0

    def test_star_is_zero(self):
        g = build_graph([("hub", leaf, 1.0) for leaf in ("l1", "l2", "l3")])
        vals, mean = clustering(g)
        assert np.allclose(vals, 0.0) and mean == 0.0

    def test_triangle_with_pendant(self):
        g = build_graph([
            ("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
            ("a", "p", 1.0),
        ])
        vals, mean = clustering(g)
        by = dict(zip(g.labels, vals))
        assert by["p"] == 0.0
        assert by["a"] == pytest.approx(1 / 3)
        assert by["b"] == 1.0 and by["c"] == 1.0
        assert mean == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)


class TestAlgebraicConnectivity:
    def test_k2(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0)])
        assert algebraic_connectivity(g) == pytest.approx(2.0, abs=1e-10)

    def test_k3(self):
        assert algebraic_connectivity(complete_digraph(3)) == pytest.approx(1.5, abs=1e-10)

    def test_positive_on_connected(self):
        for seed in range(5):
            g = random_strongly_connected(12, seed)
            assert algebraic_connectivity(g) > 0.0

    def test_matches_direct_construction(self):
        # entrywise-constructed normalized Laplacian as the oracle
        for seed in range(5):
            g = random_strongly_connected(int(5 + 3 * seed), seed)
            sym = (g.weights + g.weights.T) / 2.0
            s = sym.sum(axis=1)
            n = g.n
            lap = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    d = (s[i] if i == j else 0.0) - sym[i, j]
                    lap[i, j] = d / np.sqrt(s[i] * s[j])
            expected = np.sort(np.linalg.eigvalsh(lap))[1]
            assert algebraic_connectivity(g) == pytest.approx(expected, abs=1e-8)

    def test_disconnected_rejected(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0),
                         ("c", "d", 1.0), ("d", "c", 1.0)])
        with pytest.raises(GraphError):
            algebraic_connectivity(g)


class TestAssortativity:
    def test_equal_strength_cycle_is_degenerate(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 1.0)])
        assert assortativity(g) is None

    def test_star_is_disassortative(self):
        edges = []
        for leaf in ("l1", "l2", "l3"):
            edges.append(("hub", leaf, 1.0))
            edges.append((leaf, "hub", 1.0))
        assert assortativity(build_graph(edges)) == pytest.approx(-1.0, abs=1e-12)

    def test_disjoint_tiers_are_assortative(self):
        g = build_graph([
            ("a", "b", 10.0), ("b", "a", 10.0),
            ("c", "d", 1.0), ("d", "c", 1.0),
        ])
        assert assortativity(g) == pytest.approx(1.0, abs=1e-12)

    def test_single_edge_rejected(self):
        with pytest.raises(GraphError):
            assortativity(build_graph([("a", "b", 1.0)]))


class TestCoverage:
    def test_identity(self):
        g = make_tradelike(10, 0)
        assert coverage(g, g) == pytest.approx(1.0)

    def test_partial(self):
        full = build_graph([("a", "b", 1.0), ("b", "c", 3.0)])
        reduced = threshold_graph(full, 2.0)
        assert coverage(full, reduced) == pytest.approx(0.75)

    def test_empty_reduced(self):
        full = build_graph([("a", "b", 1.0)])
        assert coverage(full, threshold_graph(full, 9.0)) == 0.0

    def test_subset_violation_rejected(self):
        full = build_graph([("a", "b", 1.0)])
        other = build_graph([("a", "b", 2.0)])
        with pytest.raises(GraphError):
            coverage(full, other)

    def test_lsctg_pipeline_coverage(self):
        g = make_tradelike(15, 1)
        reduced = largest_scc(threshold_graph(g, float(np.median(g.weights[g.weights > 0]))))
        cov = coverage(g, reduced)
        assert 0.0 < cov <= 1.0


class TestTranspose:
    def test_transpose_reverses_edges(self):
        g = build_graph([("a", "b", 2.0), ("b", "c", 5.0)])
        gt = g.transpose()
        assert gt.weights[1, 0] == 2.0 and gt.weights[2, 1] == 5.0
        assert np.array_equal(gt.transpose().weights, g.weights)


def test_import_loads_no_scipy():
    # scipy.special alone was about 85 % of import ccnet's time and 25 MB of
    # peak RSS; numpy is the only runtime dependency
    code = ("import sys, ccnet; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(ccnet.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_components_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use, about 1.7 MB of peak RSS that
    # nothing else on the analyze path loads
    code = ("import sys, numpy as np, ccnet; "
            "w = np.zeros((3, 3)); w[0, 1] = w[1, 0] = w[2, 1] = 1; "
            "ccnet.largest_scc(ccnet.WeightedDigraph(('a', 'b', 'c'), w)); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(ccnet.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# seeded and without an example database, so every run tries the same cases
PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def small_digraphs(draw):
    """A random digraph on 2-15 nodes with log-normal weights, sparse to dense."""
    n = draw(st.integers(2, 15))
    p = draw(st.sampled_from((0.1, 0.3, 0.7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = np.where(mask, rng.lognormal(0.0, 1.5, (n, n)), 0.0)
    return WeightedDigraph(tuple(f"n{k:02d}" for k in range(n)), w)


class TestAgainstNetworkx:
    @PROPERTY
    @given(small_digraphs())
    def test_strongly_connected_components(self, g):
        nx = pytest.importorskip("networkx")
        ref = list(nx.strongly_connected_components(
            nx.from_numpy_array(g.weights, create_using=nx.DiGraph)))
        assert sorted(map(sorted, ref)) == strongly_connected_components(g)
        # ties go to the component holding the smallest node index
        chosen = min(ref, key=lambda c: (-len(c), min(c)))
        if len(chosen) < 2:
            with pytest.raises(GraphError):
                largest_scc(g)
        else:
            assert largest_scc(g).labels == tuple(g.labels[i] for i in sorted(chosen))

    @PROPERTY
    @given(small_digraphs())
    def test_clustering(self, g):
        nx = pytest.importorskip("networkx")
        ref = nx.clustering(nx.from_numpy_array(g.simple_adjacency().astype(int)))
        coeffs, mean = clustering(g)
        expected = np.array([ref[i] for i in range(g.n)])
        assert coeffs == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert mean == pytest.approx(float(expected.mean()), rel=1e-15, abs=0.0)
        # and bit for bit the per-node loop's
        oracle = clustering_oracle(g)
        assert np.array_equal(coeffs, oracle)
        assert mean == float(oracle.mean())

    @pytest.mark.parametrize("n", [3, 40, 150])
    def test_clustering_equals_per_node_loop_at_scale(self, n):
        for g in (make_tradelike(n, 1), random_digraph(n, 2, p=0.05), random_digraph(n, 3, p=0.6)):
            assert np.array_equal(clustering(g)[0], clustering_oracle(g))

    @PROPERTY
    @given(small_digraphs())
    def test_algebraic_connectivity(self, g):
        nx = pytest.importorskip("networkx")
        sym = nx.from_numpy_array((g.weights + g.weights.T) / 2.0)
        if not nx.is_connected(sym):
            with pytest.raises(GraphError):
                algebraic_connectivity(g)
            return
        lap = nx.normalized_laplacian_matrix(sym).toarray()
        expected = np.linalg.eigvalsh(lap)[1]
        assert algebraic_connectivity(g) == pytest.approx(expected, rel=1e-10, abs=0.0)


@st.composite
def sparse_digraphs(draw):
    """A random digraph on 1-15 nodes, from edgeless to dense, so that many
    graphs split into several components, often of equal size."""
    n = draw(st.integers(1, 15))
    p = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return WeightedDigraph(tuple(f"n{k:02d}" for k in range(n)), np.where(mask, 1.0, 0.0))


def disjoint_cycles(*sizes):
    """Disjoint directed cycles of the given sizes (each at least 2), their nodes
    dealt out round-robin so that the components' members interleave."""
    members: list[list[int]] = [[] for _ in sizes]
    for i in range(max(sizes)):
        for c, size in enumerate(sizes):
            if i < size:
                members[c].append(sum(map(len, members)))
    n = sum(sizes)
    w = np.zeros((n, n))
    for cycle in members:
        w[cycle, np.roll(cycle, -1)] = 1.0
    return WeightedDigraph(tuple(f"v{k:02d}" for k in range(n)), w)


class TestAgainstLoopOracles:
    @PROPERTY
    @given(sparse_digraphs())
    @example(WeightedDigraph(("a",), np.zeros((1, 1))))
    @example(WeightedDigraph(tuple("abcde"), np.zeros((5, 5))))
    @example(disjoint_cycles(3, 4))
    @example(disjoint_cycles(3, 3, 2, 3))
    def test_components_equal_the_node_loop_in_order(self, g):
        components = strongly_connected_components(g)
        assert components == scc_node_loop(g)
        assert components == scc_oracle(g)

    def test_empty_graph_has_no_components(self):
        g = WeightedDigraph((), np.zeros((0, 0)))
        assert strongly_connected_components(g) == scc_node_loop(g) == []

    def test_tied_cycles_interleaved_keep_smallest_member_order(self):
        g = disjoint_cycles(3, 3, 2, 3)
        assert strongly_connected_components(g) == [
            [0, 4, 8], [1, 5, 9], [2, 6], [3, 7, 10]]
        assert largest_scc(g).labels == ("v00", "v04", "v08")

    @PROPERTY
    @given(small_digraphs(), st.integers(0, 2**32 - 1))
    @example(WeightedDigraph(("a", "b"), np.zeros((2, 2))), 0)
    def test_build_graph_equals_two_pass_on_shuffled_edges(self, g, seed):
        edges = g.edge_list()
        edges = [edges[k] for k in np.random.default_rng(seed).permutation(len(edges))]
        built, expected = build_graph(edges), build_graph_two_pass(edges)
        assert built.labels == expected.labels
        assert built.weights.tobytes() == expected.weights.tobytes()

    @pytest.mark.parametrize("edges, message", [
        ([("a", "b", 1.0), ("c", "c", 1.0), ("d", "e", 0.0)], "self-loop edge on 'c'"),
        ([("a", "b", 1.0), ("d", "e", 0.0), ("c", "c", 1.0)],
         "non-positive weight 0.0 on edge 'd'->'e'"),
        ([("a", "b", 1.0), ("a", "b", 2.0), ("", "x", 1.0)], "duplicate edge 'a'->'b'"),
        ([("a", "", 1.0), ("b", "c", float("nan"))], "edge labels must be non-empty"),
        ([("b", "c", float("inf")), ("a", "", 1.0)], "non-positive weight inf on edge 'b'->'c'"),
    ])
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(GraphError) as exc:
            build_graph(edges)
        assert str(exc.value) == message
        with pytest.raises(GraphError) as exc:
            build_graph_two_pass(edges)
        assert str(exc.value) == message
