"""The three-hop blocking sweep of the max-flow kernel, and the kernel's flows
against networkx and the exhaustive cut oracle on random digraphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnet import WeightedDigraph, measures
from helpers import make_tradelike, min_cut_oracle, random_digraph, random_strongly_connected

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def wide_range_graph():
    """s=0 -> a=1 -> {b=2, b=3} -> t=4, with a->3->4 17 decades above the rest.

    For the pair (0, 4) the exclusive prefix before b=3 is 1, which
    ``cumsum - c`` loses beside 1e17 (ulp 16): it pushes a second unit
    through a, whose budget is 1.
    """
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 2] = w[2, 4] = 1.0
    w[1, 3] = w[3, 4] = 1e17
    return WeightedDigraph(tuple("sabct"), w)


def swept(g):
    """Residuals, flows and cut bounds of every ordered pair after the sweep."""
    w = g.weights
    s, t = np.nonzero(~np.eye(g.n, dtype=bool))
    res, total = measures._warm_start(w, s, t)
    measures._three_hop_sweep(w, res, s, t, np.arange(s.size), total)
    bound = np.minimum(w.sum(axis=1)[s], w.sum(axis=0)[t])
    return s, t, res, total, bound


@pytest.mark.parametrize("g", [make_tradelike(20, 1), random_strongly_connected(11, 0),
                               random_digraph(9, 3, p=0.2), wide_range_graph()],
                         ids=["tradelike-float", "integer", "zero-flow-pairs", "wide-range"])
class TestThreeHopSweep:
    def test_no_three_hop_path_left(self, g):
        s, t, res, _, bound = swept(g)
        for k in range(s.size):
            r = res[k] > 1e-12 * bound[k]
            path = r[s[k]][:, None] & r & r[:, t[k]][None, :]
            assert not path.any(), (s[k], t[k], np.argwhere(path)[:3])

    def test_residuals_hold_a_flow(self, g):
        """Capacities kept, the flow leaving s reaches t, every other node balances.

        Residuals into s and out of t are not recorded, so the flow on s->a
        and b->t is read from row s and column t, and the net flow on an
        inner edge u->v from its reverse entry, res[v, u] - w[v, u].  Each
        tolerance scales with the capacities that the read-out rounds.
        """
        s, t, res, total, _ = swept(g)
        w = g.weights
        assert np.all(res >= 0.0)
        for k in range(s.size):
            r = res[k]
            from_s = w[s[k]] - r[s[k]]
            to_t = w[:, t[k]] - r[:, t[k]]
            assert abs(from_s.sum() - total[k]) <= 1e-12 * w[s[k]].sum()
            assert abs(to_t.sum() - total[k]) <= 1e-12 * w[:, t[k]].sum()
            inner = np.ones(g.n, dtype=bool)
            inner[[s[k], t[k]]] = False
            net_out = (r.T - w.T)[:, inner].sum(axis=1) + to_t
            scale = w.sum(axis=0) + w[:, t[k]]
            assert np.all(np.abs(net_out - from_s)[inner] <= 1e-12 * scale[inner]), (s[k], t[k])

    def test_paths_after_the_sweep_are_longer(self, g):
        s, t, res, _, _ = swept(g)
        pairs = np.arange(s.size)
        # every residual s->t path has at least four edges: no s->t edge, and
        # no node both reached from s and reaching t
        assert np.all(res[pairs, s, t] == 0.0)
        assert not np.any((res[pairs, s] > 0.0) & (res[pairs, :, t] > 0.0))


def test_flows_sweep_every_pair_below_its_bound(monkeypatch):
    """``_flows`` hands the sweep every pair the warm start leaves below its cut bound."""
    g = make_tradelike(20, 1)
    s, t = np.nonzero(~np.eye(g.n, dtype=bool))
    handed = []
    sweep = measures._three_hop_sweep

    def spy(w, res, s, t, go, total):
        handed.append(go.copy())
        sweep(w, res, s, t, go, total)

    monkeypatch.setattr(measures, "_three_hop_sweep", spy)
    measures._flows(g.weights, s, t)
    _, total = measures._warm_start(g.weights, s, t)
    bound = np.minimum(g.weights.sum(axis=1)[s], np.ascontiguousarray(g.weights.T).sum(axis=1)[t])
    assert len(handed) == 1 and handed[0].size > 0
    assert np.array_equal(handed[0], np.flatnonzero(total < bound))


@st.composite
def digraphs(draw, integer):
    """A random digraph on 5-15 nodes, dense or sparse; sparse ones have zero-flow pairs."""
    n = draw(st.integers(5, 15))
    p = draw(st.sampled_from((0.2, 0.7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = rng.integers(1, 11, (n, n)).astype(float) if integer else rng.lognormal(0.0, 1.5, (n, n))
    return WeightedDigraph(tuple(f"n{k:02d}" for k in range(n)), np.where(mask, w, 0.0))


class TestPairFlowsProperty:
    @PROPERTY
    @given(digraphs(integer=False))
    def test_float_weights_match_networkx(self, g):
        nx = pytest.importorskip("networkx")
        ref = nx.DiGraph()
        ref.add_nodes_from(range(g.n))
        for i, j in zip(*np.nonzero(g.weights)):
            ref.add_edge(int(i), int(j), capacity=float(g.weights[i, j]))
        flows = measures._pair_flows(g)
        for s in range(g.n):
            for t in range(g.n):
                if s != t:
                    assert flows[s, t] == pytest.approx(
                        nx.maximum_flow_value(ref, s, t), rel=1e-12, abs=0.0)

    @PROPERTY
    @given(digraphs(integer=True))
    def test_integer_weights_equal_cut_oracle(self, g):
        flows = measures._pair_flows(g)
        for s in range(g.n):
            for t in range(g.n):
                if s != t:
                    assert flows[s, t] == min_cut_oracle(g.weights, s, t)
