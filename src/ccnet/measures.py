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
    return _edmonds_karp(g.weights.copy(), si, ti)


def _edmonds_karp(cap: np.ndarray, s: int, t: int) -> float:
    """Max s->t flow; ``cap`` (a fresh weight copy) is used up as residual capacity.

    Warm start: the direct edge s->t and the two-hop paths s->v->t share no
    edges, so all of them are saturated at once.  Shortest augmenting paths
    (BFS) then run until none is left or the flow reaches the cut bound
    min(s_out(s), s_in(t)).
    """
    n = cap.shape[0]
    bound = min(cap[s].sum(), cap[:, t].sum())
    via = np.minimum(cap[s], cap[:, t])  # zero at s and t: the diagonal is zero
    total = cap[s, t] + via.sum()
    # residual edges into s and out of t lie on no s->t path: not recorded
    cap[s] -= via
    cap[:, t] -= via
    cap[s, t] = 0.0
    parent = np.empty(n, dtype=np.int64)
    while total < bound:
        parent.fill(-1)
        parent[s] = s
        frontier = np.zeros(n, dtype=bool)
        frontier[s] = True
        while frontier.any() and parent[t] < 0:
            f_idx = np.flatnonzero(frontier)
            residual = cap[f_idx] > 0.0
            new = residual.any(axis=0) & (parent < 0)
            new_idx = np.flatnonzero(new)
            if new_idx.size == 0:
                break
            first = np.argmax(residual[:, new_idx], axis=0)
            parent[new_idx] = f_idx[first]
            frontier = new
        if parent[t] < 0:
            break
        v = t
        bottleneck = np.inf
        while v != s:
            u = int(parent[v])
            bottleneck = min(bottleneck, cap[u, v])
            v = u
        v = t
        while v != s:
            u = int(parent[v])
            cap[u, v] -= bottleneck
            cap[v, u] += bottleneck
            v = u
        total += bottleneck
    return float(total)


def _pair_flows(g: WeightedDigraph) -> np.ndarray:
    """N x N matrix of max_flow(i, j), zero on the diagonal."""
    n = g.n
    flows = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                flows[i, j] = _edmonds_karp(g.weights.copy(), i, j)
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
