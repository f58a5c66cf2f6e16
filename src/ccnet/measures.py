"""Radial node measures over weighted digraphs.

The standard set covers the eight direction/range/texture combinations:
incoming and outgoing farness (ASPL), max-flow, degree and strength.  Every
measure carries an ordering convention (``bigger_is_better``) consumed by the
standardisation step.
"""

from __future__ import annotations

import itertools
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
    strong_hop_matrix,
)

# the three binary axes of a radial measure: direction (IN/OUT), range (LO:
# long, over paths; SH: short, over incident edges) and texture (QL:
# qualitative, counts hops or edges; QN: quantitative, sums weights)
AXES = {"d": ("IN", "OUT"), "r": ("LO", "SH"), "t": ("QL", "QN")}

STANDARD_MEASURE_NAMES = tuple("-".join(p) for p in itertools.product(*AXES.values()))


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


def _radial(g: WeightedDigraph, direction: str, range_texture: str, matrix) -> MeasureVector:
    """The D-R-T measure ``direction``-``range_texture`` read off the N x N ``matrix(g)``.

    IN sums the matrix's columns, OUT its rows; a long-range (LO) measure is
    a mean over the N - 1 other nodes.  Direction and size are checked before
    ``matrix(g)`` is computed.  Farness (LO-QL) is the one measure for which
    smaller is better.
    """
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    name = f"{direction.upper()}-{range_texture}"
    if g.n < 2:
        raise GraphError(f"{name} needs at least 2 nodes")
    m = matrix(g)
    vals = m.sum(axis=0) if direction == "in" else m.sum(axis=1)
    if range_texture.startswith("LO"):
        vals = vals / (g.n - 1)
    return MeasureVector(name, vals, bigger_is_better=range_texture != "LO-QL")


def degree(g: WeightedDigraph, direction: str) -> MeasureVector:
    """In- or out-degree counted over the directed adjacency (SH-QL)."""
    return _radial(g, direction, "SH-QL", WeightedDigraph.adjacency)


def strength(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Weighted in- or out-strength, column/row sums of the weights (SH-QN)."""
    return _radial(g, direction, "SH-QN", lambda g: g.weights)


def aspl(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Average shortest hop distance per other node (farness, LO-QL); smaller is better.

    ``out``: mean distance from the node to every other node; ``in``: mean
    distance from every other node to it.  Requires strong connectivity.
    """
    return _radial(g, direction, "LO-QL", strong_hop_matrix)


def max_flow(g: WeightedDigraph, s: int | str, t: int | str) -> float:
    """Maximum s->t flow with edge capacities equal to the weights.

    The block kernel ``_flows`` on one pair: the paths of one and two edges
    are saturated at once, the three-hop paths in one blocking sweep, and
    any longer ones by Edmonds-Karp augmentation.  The value equals the
    minimum cut capacity; exact for integer-valued weights.
    """
    si = g.index(s)
    ti = g.index(t)
    if si == ti:
        raise GraphError("max flow needs distinct source and sink")
    return float(_flows(g.weights, np.array([si]), np.array([ti]))[0])


# residual entries per block of pairs solved together: 8 MB of float64
_BLOCK = 1 << 20


def _flows(w: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Max flow for every pair (s[k], t[k]) at once, in lock step.

    Each pair owns a residual copy of ``w``.  Augmenting never shortens the
    shortest residual s->t path, so the paths are saturated by length:
    ``_warm_start`` takes the direct edge and every two-hop path,
    ``_three_hop_sweep`` every three-hop path, and Edmonds-Karp rounds the
    longer ones.  Each round runs one BFS for every pair still below its cut
    bound min(s_out(s), s_in(t)), one level for all pairs in one set of
    numpy calls, and augments along the shortest path found.  A level
    gathers each pair's frontier rows, in ascending node order and padded
    with an all-false row, so ``argmax`` picks the smallest-index parent, as
    a one-pair BFS would.  All arithmetic is per pair, so the flows do not
    depend on which pairs share a block.
    """
    n = w.shape[0]
    res, total = _warm_start(w, s, t)
    # in-strengths summed per contiguous row, as w[:, t].sum() sums them;
    # w.sum(axis=0) adds in another order and moves the bound's last bits
    bound = np.minimum(w.sum(axis=1)[s], np.ascontiguousarray(w.T).sum(axis=1)[t])
    go = np.flatnonzero(total < bound)
    _three_hop_sweep(w, res, s, t, go, total)
    live = np.zeros((s.size, n + 1, n), dtype=bool)  # row n: the padding row
    live[:, :n] = res > 0.0
    parent = np.empty((s.size, n), dtype=np.int64)
    nodes = np.arange(n)
    go = go[total[go] < bound[go]]
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


def _warm_start(w: np.ndarray, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (pairs, N, N) and flows after the paths of one and two edges.

    The direct edge s->t and the two-hop paths s->v->t share no edges, so
    all of them are saturated at once.  Afterwards, for every node v, s->v
    or v->t is saturated (or absent), and res[s, t] is zero.
    """
    n = w.shape[0]
    pairs = np.arange(s.size)
    res = np.broadcast_to(w, (s.size, n, n)).copy()
    via = np.minimum(w[s], w.T[t])  # zero at s and t: the diagonal is zero
    total = w[s, t] + via.sum(axis=1)
    # residual edges into s and out of t lie on no s->t path: not recorded
    res[pairs, s] -= via
    res[pairs, :, t] -= via
    res[pairs, s, t] = 0.0
    return res, total


def _three_hop_sweep(w: np.ndarray, res: np.ndarray, s: np.ndarray, t: np.ndarray,
                     go: np.ndarray, total: np.ndarray) -> None:
    """Saturate every residual path s->a->b->t of the pairs ``go``, in place.

    Runs on ``_warm_start``'s residuals, where no path is shorter than three
    edges; afterwards none is shorter than four, so no level graph is built.
    The nodes a are visited in ascending order, each step vectorised over
    the pairs with budget left on s->a, on contiguous copies of row s (the
    budgets) and column t (the sink capacities).  A step pushes into b only
    while b->t has room, so s->b was saturated by the warm start: nothing
    has entered a node with budget, and its row still equals w[a] but at t.
    The capacities c = min(w[a], res[:, t]) are zero at s, at t and at every
    saturated b->t, and a's budget fills them in node order:
    push = min(max(budget - (c summed over the earlier b), 0), c).  All
    arithmetic runs along each pair's own row.  Flows into s and out of t
    are not recorded, as in the warm start.
    """
    budgets = res[go, s[go]]
    sinks = res[go, :, t[go]]
    for a in range(w.shape[0]):
        k = np.flatnonzero(budgets[:, a] > 0.0)
        if not k.size:
            continue
        budget = budgets[k, a]
        room = sinks[k]
        c = np.minimum(w[a], room)
        filled = np.cumsum(c, axis=1)
        # the exclusive prefix is filled shifted by one, exact; filled - c
        # misses small c beside large ones and pushes past a spent budget
        push = np.empty_like(c)
        push[:, 0] = budget
        np.subtract(budget[:, None], filled[:, :-1], out=push[:, 1:])
        np.maximum(push, 0.0, out=push)
        np.minimum(push, c, out=push)
        # a spent budget is left at exactly zero, with no 1-ulp remainder
        sent = np.minimum(budget, filled[:, -1])
        budgets[k, a] = budget - sent
        sinks[k] = room - push
        p = go[k]
        total[p] += sent
        res[p, a] -= push
        res[p, :, a] += push
    res[go, s[go]] = budgets
    res[go, :, t[go]] = sinks


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


def _flow_matrix(g: WeightedDigraph) -> np.ndarray:
    strong_hop_matrix(g)  # a graph that is not strongly connected fails before any flow
    return g.cached("maxflow", _pair_flows)


def maxflow_measure(g: WeightedDigraph, direction: str) -> MeasureVector:
    """Mean pairwise max flow into (``in``) or out of (``out``) each node (LO-QN).

    f_in(i) averages max_flow(j, i) over the other nodes j, mirroring the
    per-other-node convention of farness.  The N(N-1) pair flows are
    computed once per graph into a read-only matrix, which both directions
    and ``summarize`` share.  Requires strong connectivity.
    """
    return _radial(g, direction, "LO-QN", _flow_matrix)


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

    A name's range-texture pair picks the measure (LO-QL farness, LO-QN max
    flow, SH-QL degree, SH-QN strength) and its direction is the argument.
    Expects an LSCTG-style strongly connected graph.
    """
    # built per call: a wrapper installed on a module attribute must be seen
    by_range_texture = {"LO-QL": aspl, "LO-QN": maxflow_measure,
                        "SH-QL": degree, "SH-QN": strength}
    return [by_range_texture[f"{r}-{t}"](g, d.lower())
            for d, r, t in itertools.product(*AXES.values())]


def summarize(g: WeightedDigraph, full: WeightedDigraph | None = None) -> GraphSummary:
    """Descriptive statistics of a strongly connected analysis substrate.

    ``full`` is the pre-threshold graph used for the coverage fraction; when
    omitted, coverage is 1.  Mean degree and strength are per-node totals
    (in plus out).
    """
    dia = diameter(g)  # rejects N < 2 and unreachable pairs before the means below
    # hop counts and degrees are integers: each mean is the quotient of an exact total
    mean_aspl = int(hop_distance_matrix(g).sum()) / (g.n * (g.n - 1))
    f_in = maxflow_measure(g, "in")
    mean_maxflow = float(f_in.values.mean())
    mean_degree = 2 * g.n_edges / g.n  # each edge adds one in- and one out-degree
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
