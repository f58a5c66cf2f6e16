"""Radial node measures over weighted digraphs.

The standard set covers the eight direction/range/texture combinations:
incoming and outgoing farness (ASPL), max-flow, degree and strength.  Every
measure carries an ordering convention (``bigger_is_better``) consumed by the
standardisation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, GraphSummary, WeightedDigraph
from .graph import (
    _connected,
    algebraic_connectivity,
    assortativity,
    clustering,
    coverage,
    diameter,
    edge_density,
    graph_asymmetry,
    hop_distance_matrix,
)

STANDARD_MEASURE_NAMES = (
    "IN-LO-QL",   # incoming ASPL (farness)
    "IN-LO-QN",   # incoming max flow
    "IN-SH-QL",   # in-degree
    "IN-SH-QN",   # in-strength
    "OUT-LO-QL",  # outgoing ASPL
    "OUT-LO-QN",  # outgoing max flow
    "OUT-SH-QL",  # out-degree
    "OUT-SH-QN",  # out-strength
)


@dataclass(frozen=True)
class MeasureVector:
    """One named raw node measure, aligned to the graph's node order."""

    name: str
    values: np.ndarray
    bigger_is_better: bool = True

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("measure values must be a 1-D vector")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"measure {self.name!r} contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_direction(direction: str) -> None:
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")


def degree(g: WeightedDigraph, direction: str) -> MeasureVector:
    """In- or out-degree counted over the directed adjacency."""
    _check_direction(direction)
    if g.n < 2:
        raise GraphError("degree needs at least 2 nodes")
    a = g.adjacency()
    vals = a.sum(axis=0) if direction == "in" else a.sum(axis=1)
    return MeasureVector(f"degree_{direction}", vals.astype(float), bigger_is_better=True)


def strength(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Weighted in- or out-strength (column/row sums of the weight matrix)."""
    _check_direction(direction)
    if g.n < 2:
        raise GraphError("strength needs at least 2 nodes")
    vals = g.weights.sum(axis=0) if direction == "in" else g.weights.sum(axis=1)
    return MeasureVector(f"strength_{direction}", vals, bigger_is_better=True)


def aspl(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Average shortest hop distance per other node (farness); smaller is better.

    ``out``: mean distance from the node to every other node; ``in``: mean
    distance from every other node to it.  Requires strong connectivity.
    """
    _check_direction(direction)
    if g.n < 2:
        raise GraphError("ASPL needs at least 2 nodes")
    dist = hop_distance_matrix(g)
    off = ~np.eye(g.n, dtype=bool)
    if np.any(dist[off] < 0):
        raise GraphError("graph is not strongly connected")
    d = dist.astype(float)
    if direction == "out":
        vals = d.sum(axis=1) / (g.n - 1)
    else:
        vals = d.sum(axis=0) / (g.n - 1)
    return MeasureVector(f"aspl_{direction}", vals, bigger_is_better=False)


def max_flow(g: WeightedDigraph, s: int | str, t: int | str) -> float:
    """Maximum s->t flow with edge capacities equal to the weights.

    Shortest-augmenting-path (BFS) scheme; the value equals the minimum cut
    capacity.  Exact for integer-valued weights.
    """
    si = g.index(s)
    ti = g.index(t)
    if si == ti:
        raise GraphError("max flow needs distinct source and sink")
    return float(_flows(g.weights, np.array([si]), np.array([ti]))[0])


# residual entries per block of pairs solved together: 8 MB of float64
_BLOCK = 1 << 20


def _flows(w: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Edmonds-Karp max flow for every pair (s[k], t[k]) at once, in lock step.

    Each pair owns a residual copy of ``w``.  Warm start: the direct edge
    s->t and the two-hop paths s->v->t share no edges, so all of them are
    saturated at once.  Each round then runs one BFS for every pair still
    below its cut bound min(s_out(s), s_in(t)), one level for all pairs in
    one set of numpy calls, and augments along the shortest path found.  A level gathers
    each pair's frontier rows, in ascending node order and padded with an
    all-false row, so ``argmax`` picks the smallest-index parent: every pair
    takes the path a one-pair BFS would take.
    """
    n = w.shape[0]
    pairs = np.arange(s.size)
    res = np.broadcast_to(w, (s.size, n, n)).copy()
    # in-strengths summed per contiguous row, as w[:, t].sum() sums them;
    # w.sum(axis=0) adds in another order and moves the bound's last bits
    bound = np.minimum(w.sum(axis=1)[s], np.ascontiguousarray(w.T).sum(axis=1)[t])
    via = np.minimum(w[s], w.T[t])  # zero at s and t: the diagonal is zero
    total = w[s, t] + via.sum(axis=1)
    # residual edges into s and out of t lie on no s->t path: not recorded
    res[pairs, s] -= via
    res[pairs, :, t] -= via
    res[pairs, s, t] = 0.0
    live = np.zeros((s.size, n + 1, n), dtype=bool)  # row n: the padding row
    live[:, :n] = res > 0.0
    parent = np.empty((s.size, n), dtype=np.int64)
    nodes = np.arange(n)
    go = pairs[total < bound]
    while go.size:
        parent[go] = -1
        parent[go, s[go]] = s[go]
        q, frontier = go, nodes == s[go, None]
        while q.size:
            width = frontier.sum(axis=1).max()
            rows = np.sort(np.where(frontier, nodes, n), axis=1)[:, :width]
            reach = live[q[:, None], rows]
            new = reach.any(axis=1) & (parent[q] < 0)
            i, v = np.nonzero(new)
            parent[q[i], v] = rows[i, reach[i, :, v].argmax(axis=1)]
            more = new.any(axis=1) & (parent[q, t[q]] < 0)
            q, frontier = q[more], new[more]
        go = go[parent[go, t[go]] >= 0]
        if not go.size:
            break
        # walk every found path back from t, one edge per pair per step
        bottleneck = np.full(s.size, np.inf)
        path_p, path_u, path_v = [], [], []
        p, v = go, t[go]
        while p.size:
            u = parent[p, v]
            bottleneck[p] = np.minimum(bottleneck[p], res[p, u, v])
            path_p.append(p)
            path_u.append(u)
            path_v.append(v)
            walking = u != s[p]
            p, v = p[walking], u[walking]
        # a shortest path holds no edge in both directions: updates never collide
        p, u, v = (np.concatenate(a) for a in (path_p, path_u, path_v))
        res[p, u, v] -= bottleneck[p]
        res[p, v, u] += bottleneck[p]
        live[p, u, v] = res[p, u, v] > 0.0
        live[p, v, u] = res[p, v, u] > 0.0
        total[go] += bottleneck[go]
        go = go[total[go] < bound[go]]
    return total


def _pair_flows(g: WeightedDigraph) -> np.ndarray:
    """N x N matrix of max_flow(i, j), zero on the diagonal.

    The ordered pairs are solved in blocks of at most ``_BLOCK`` residual
    entries; the flows do not depend on the block size.
    """
    n = g.n
    s, t = np.nonzero(~np.eye(n, dtype=bool))
    per = max(1, _BLOCK // (n * n))
    flows = np.zeros((n, n))
    for lo in range(0, s.size, per):
        block = slice(lo, lo + per)
        flows[s[block], t[block]] = _flows(g.weights, s[block], t[block])
    return flows


def maxflow_measure(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Mean pairwise max flow into (``in``) or out of (``out``) each node.

    f_in(i) averages max_flow(j, i) over the other nodes j, mirroring the
    per-other-node convention of farness.  The N(N-1) pair flows are
    computed once per graph into a read-only matrix, which both directions
    and ``summarize`` share.
    """
    _check_direction(direction)
    if g.n < 2:
        raise GraphError("max-flow measure needs at least 2 nodes")
    n = g.n
    flows = g.cached("maxflow", _pair_flows)
    if np.any(flows[~np.eye(n, dtype=bool)] <= 0.0):
        raise GraphError("graph is not strongly connected (zero pairwise flow)")
    if direction == "in":
        vals = flows.sum(axis=0) / (n - 1)
    else:
        vals = flows.sum(axis=1) / (n - 1)
    return MeasureVector(f"maxflow_{direction}", vals, bigger_is_better=True)


def eigenvector_centrality(g: WeightedDigraph) -> MeasureVector:
    """Principal eigenvector of the underlying simple graph's adjacency.

    Unit L2 norm, all entries positive on a connected graph (Perron vector).
    """
    if g.n < 2:
        raise GraphError("eigenvector centrality needs at least 2 nodes")
    a = g.simple_adjacency()
    if not _connected(a):
        raise GraphError("underlying simple graph is not connected")
    vals, vecs = np.linalg.eigh(a.astype(float))
    vec = vecs[:, -1]
    if vec.sum() < 0.0:
        vec = -vec
    return MeasureVector("EC", vec, bigger_is_better=True)


def standard_measure_set(g: WeightedDigraph) -> list[MeasureVector]:
    """The eight D-R-T measures in fixed order (IN-LO-QL ... OUT-SH-QN).

    Expects an LSCTG-style strongly connected graph.
    """
    l_in = aspl(g, "in")
    l_out = aspl(g, "out")
    f_in = maxflow_measure(g, "in")
    f_out = maxflow_measure(g, "out")
    d_in = degree(g, "in")
    d_out = degree(g, "out")
    s_in = strength(g, "in")
    s_out = strength(g, "out")
    table = {
        "IN-LO-QL": l_in, "IN-LO-QN": f_in, "IN-SH-QL": d_in, "IN-SH-QN": s_in,
        "OUT-LO-QL": l_out, "OUT-LO-QN": f_out, "OUT-SH-QL": d_out, "OUT-SH-QN": s_out,
    }
    return [MeasureVector(name, table[name].values, table[name].bigger_is_better)
            for name in STANDARD_MEASURE_NAMES]


def summarize(g: WeightedDigraph, full: WeightedDigraph | None = None) -> GraphSummary:
    """Descriptive statistics of a strongly connected analysis substrate.

    ``full`` is the pre-threshold graph used for the coverage fraction; when
    omitted, coverage is 1.  Mean degree and strength are per-node totals
    (in plus out).
    """
    dia = diameter(g)
    dist = hop_distance_matrix(g).astype(float)
    off = ~np.eye(g.n, dtype=bool)
    mean_aspl = float(dist[off].mean())
    f_in = maxflow_measure(g, "in")
    mean_maxflow = float(f_in.values.mean())
    a = g.adjacency()
    mean_degree = float((a.sum(axis=0) + a.sum(axis=1)).mean())
    mean_strength = float((g.weights.sum(axis=0) + g.weights.sum(axis=1)).mean())
    _, mean_cl = clustering(g)
    cov = coverage(full, g) if full is not None else 1.0
    return GraphSummary(
        n=g.n,
        n_edges=g.n_edges,
        diameter=dia,
        mean_aspl=mean_aspl,
        mean_maxflow=mean_maxflow,
        mean_degree=mean_degree,
        mean_strength=mean_strength,
        asymmetry=graph_asymmetry(g),
        edge_density=edge_density(g),
        mean_clustering=mean_cl,
        algebraic_connectivity=algebraic_connectivity(g),
        assortativity=assortativity(g),
        coverage=cov,
    )
