"""Weighted directed graphs: construction, LSCTG preprocessing and whole-graph statistics.

A graph is held as a dense non-negative weight matrix over labelled nodes
(``w[i, j] > 0`` iff the edge i->j exists, no self-loops).  Dense storage is
deliberate: the target networks have a few hundred nodes, where dense linear
algebra beats sparse bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Structurally invalid graph, or an operation applied outside its domain."""


@dataclass(frozen=True)
class WeightedDigraph:
    """Node-labelled directed graph with strictly positive edge weights.

    Invariants enforced on construction: unique non-empty labels, square
    weight matrix, finite non-negative weights, zero diagonal (no self-loops).
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        n = len(self.labels)
        if w.shape != (n, n):
            raise GraphError(f"weight matrix shape {w.shape} does not match {n} labels")
        if len(set(self.labels)) != n:
            raise GraphError("node labels must be unique")
        if any(not lbl for lbl in self.labels):
            raise GraphError("node labels must be non-empty strings")
        if not np.all(np.isfinite(w)):
            raise GraphError("weights must be finite")
        if np.any(w < 0.0):
            raise GraphError("weights must be non-negative")
        if n and np.any(np.diagonal(w) != 0.0):
            raise GraphError("self-loops are not allowed")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights))

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def adjacency(self) -> np.ndarray:
        """Directed boolean adjacency (a[i, j] iff edge i->j)."""
        return self.weights > 0.0

    def simple_adjacency(self) -> np.ndarray:
        """Underlying simple graph: symmetric, unweighted, no self-loops."""
        a = self.adjacency()
        return a | a.T

    def cached(self, key: str, compute: Callable[["WeightedDigraph"], np.ndarray]) -> np.ndarray:
        """``compute(self)``, evaluated on first use and kept read-only on this graph.

        The graph is immutable, so a derived all-pairs matrix (hop distances,
        pairwise max flows) is computed once and shared by every reader.
        """
        memo = self.__dict__.setdefault("_cache", {})
        if key not in memo:
            value = compute(self)
            value.setflags(write=False)
            memo[key] = value
        return memo[key]

    def index(self, node: int | str) -> int:
        if isinstance(node, str):
            try:
                return self.labels.index(node)
            except ValueError:
                raise GraphError(f"unknown node label {node!r}") from None
        if not 0 <= node < self.n:
            raise GraphError(f"node index {node} out of range")
        return int(node)

    def edge_list(self) -> list[tuple[str, str, float]]:
        src, dst = np.nonzero(self.weights)
        return [(self.labels[i], self.labels[j], float(self.weights[i, j]))
                for i, j in zip(src.tolist(), dst.tolist())]

    def transpose(self) -> "WeightedDigraph":
        """Graph with every edge direction reversed."""
        return WeightedDigraph(self.labels, self.weights.T)

    def subgraph(self, indices: Sequence[int]) -> "WeightedDigraph":
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx)
        return WeightedDigraph(labels, self.weights[np.ix_(idx, idx)])


@dataclass(frozen=True)
class GraphSummary:
    """Whole-graph descriptive statistics of an analysis substrate."""

    n: int
    n_edges: int
    diameter: int
    mean_aspl: float
    mean_maxflow: float
    mean_degree: float
    mean_strength: float
    asymmetry: float
    edge_density: float
    mean_clustering: float
    algebraic_connectivity: float
    assortativity: float | None
    coverage: float


def build_graph(labeled_edges: Iterable[tuple[str, str, float]]) -> WeightedDigraph:
    """Build a graph from (source label, target label, weight) triples.

    Nodes are collected in first-appearance order.  Self-loops, non-positive
    weights and duplicate (source, target) pairs are errors.
    """
    order: dict[str, int] = {}
    seen: set[tuple[str, str]] = set()
    cells: list[tuple[int, int, float]] = []
    for src, dst, w in labeled_edges:
        w = _check_edge(src, dst, w, seen)
        cells.append((order.setdefault(src, len(order)), order.setdefault(dst, len(order)), w))
    weights = np.zeros((len(order), len(order)))
    if cells:  # ``seen`` rules out a repeated (i, j), so no cell is written twice
        rows, cols, values = zip(*cells)
        weights[rows, cols] = values
    return WeightedDigraph(tuple(order), weights)


def _check_edge(src: str, dst: str, w: float | str, seen: set[tuple[str, str]]) -> float:
    """The edge's weight as a float, once the edge is known valid; adds it to ``seen``.

    The one per-edge contract, shared by ``build_graph`` and the edge-list
    parser: non-empty labels, no self-loop, a finite positive weight and no
    repeated (source, target) pair.
    """
    if not src or not dst:
        raise GraphError("edge labels must be non-empty")
    if src == dst:
        raise GraphError(f"self-loop edge on {src!r}")
    w = float(w)
    if not math.isfinite(w) or w <= 0.0:
        raise GraphError(f"non-positive weight {w!r} on edge {src!r}->{dst!r}")
    if (src, dst) in seen:
        raise GraphError(f"duplicate edge {src!r}->{dst!r}")
    seen.add((src, dst))
    return w


def threshold_graph(g: WeightedDigraph, e_th: float) -> WeightedDigraph:
    """Drop every edge with weight below ``e_th`` (boundary inclusive: >= kept).

    Nodes are retained even if isolated; a later LSCC extraction removes them.
    """
    if not 0.0 < e_th < np.inf:
        raise GraphError(f"threshold must be positive and finite, got {e_th!r}")
    w = np.where(g.weights >= e_th, g.weights, 0.0)
    return WeightedDigraph(g.labels, w)


def strongly_connected_components(g: WeightedDigraph) -> list[list[int]]:
    """All strongly connected components as sorted lists of node indices.

    Nodes i and j share a component iff each reaches the other, read off the
    graph's hop-distance matrix.  Components are named and ordered by their
    smallest member; a node on no cycle is a component of its own.
    """
    reach = hop_distance_matrix(g) >= 0
    # a node reaches itself, so row i's first mutual entry is its component's smallest member
    roots = np.argmax(reach & reach.T, axis=1) if g.n else np.zeros(0, dtype=np.int64)
    # the names are the nodes that are their own root; np.unique would import numpy.ma
    return [np.flatnonzero(roots == r).tolist() for r in np.flatnonzero(roots == np.arange(g.n))]


def largest_scc(g: WeightedDigraph) -> WeightedDigraph:
    """Induced subgraph on the largest strongly connected component.

    Size ties are broken towards the component containing the smallest node
    index.  A largest component with fewer than 2 nodes is an error: no path
    measure is definable on it.  The component inherits its hop-distance
    matrix from ``g``: a shortest path between two nodes of one strongly
    connected component never leaves it.
    """
    if g.n < 1:
        raise GraphError("empty graph has no components")
    components = strongly_connected_components(g)
    chosen = max(components, key=len)
    if len(chosen) < 2:
        raise GraphError("largest strongly connected component has < 2 nodes")
    sub = g.subgraph(chosen)
    dist = hop_distance_matrix(g)
    sub.cached("hops", lambda _: dist[np.ix_(chosen, chosen)])
    return sub


def graph_asymmetry(g: WeightedDigraph) -> float:
    """Frobenius-norm weight imbalance ||W - W^T||_F / (2 ||W||_F), in [0, 1]."""
    if g.n_edges < 1:
        raise GraphError("asymmetry undefined on an empty edge set")
    w = g.weights
    return float(np.linalg.norm(w - w.T) / (2.0 * np.linalg.norm(w)))


def edge_density(g: WeightedDigraph) -> float:
    """Fraction of realised directed edges, N_e / (N^2 - N)."""
    if g.n < 2:
        raise GraphError("edge density needs at least 2 nodes")
    return g.n_edges / (g.n * g.n - g.n)


def hop_distance_matrix(g: WeightedDigraph) -> np.ndarray:
    """All-pairs unweighted hop distances via per-source BFS; -1 marks unreachable.

    Computed once per graph and returned read-only: the SCCs, ``aspl``,
    ``diameter``, ``maxflow_measure`` and ``summarize`` all read the same matrix.
    """
    return g.cached("hops", _hop_distances)


def strong_hop_matrix(g: WeightedDigraph) -> np.ndarray:
    """``hop_distance_matrix(g)`` of a strongly connected graph.

    The one strong-connectivity check: a graph in which some node does not
    reach another raises ``GraphError`` naming the first such ordered pair.
    """
    dist = hop_distance_matrix(g)
    unreachable = np.argwhere(dist < 0)
    if unreachable.size:
        i, j = unreachable[0]
        raise GraphError(f"graph is not strongly connected: "
                         f"{g.labels[i]!r} does not reach {g.labels[j]!r}")
    return dist


def _hop_distances(g: WeightedDigraph) -> np.ndarray:
    adj = g.adjacency()
    return np.array([_bfs(adj, s) for s in range(g.n)], dtype=np.int64).reshape(g.n, g.n)


def _bfs(adj: np.ndarray, s: int) -> np.ndarray:
    """Hop distances from node ``s`` over the boolean adjacency ``adj``; -1 marks unreachable."""
    d = np.full(adj.shape[0], -1, dtype=np.int64)
    d[s] = 0
    frontier = d == 0
    level = 0
    while frontier.any():
        level += 1
        frontier = adj[frontier].any(axis=0) & (d < 0)
        d[frontier] = level
    return d


def diameter(g: WeightedDigraph) -> int:
    """Maximum hop distance over ordered node pairs; requires strong connectivity."""
    if g.n < 2:
        raise GraphError("diameter needs at least 2 nodes")
    return int(strong_hop_matrix(g).max())


def clustering(g: WeightedDigraph) -> tuple[np.ndarray, float]:
    """Per-node clustering coefficients of the underlying simple graph, plus the mean.

    Nodes with fewer than 2 neighbours get coefficient 0 by convention, so the
    graph mean is always defined.
    """
    a = g.simple_adjacency().astype(float)
    k = a.sum(axis=1)
    # links among each node's neighbours: the symmetric A has no self-loops, so
    # row i of (A @ A) * A counts each link twice; the counts are exact integers
    links = ((a @ a) * a).sum(axis=1) / 2
    # a node with fewer than 2 neighbours has no links: 0 / 1 gives it 0
    coeffs = links / np.maximum(k * (k - 1) / 2, 1.0)
    return coeffs, float(coeffs.mean()) if g.n else 0.0


def algebraic_connectivity(g: WeightedDigraph) -> float:
    """Smallest non-zero eigenvalue of the normalized Laplacian of the symmetrized weights.

    Directed weights are symmetrized as (W + W^T)/2 before building
    L = I - D^{-1/2} W' D^{-1/2}; the result is scale-free in the weights.
    """
    if g.n < 2:
        raise GraphError("algebraic connectivity needs at least 2 nodes")
    sym = (g.weights + g.weights.T) / 2.0
    if not _connected(sym > 0.0):
        raise GraphError("graph is not connected")
    strength = sym.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(strength)
    lap = np.eye(g.n) - inv_sqrt[:, None] * sym * inv_sqrt[None, :]
    vals = np.linalg.eigvalsh(lap)
    return float(vals[1])


def assortativity(g: WeightedDigraph) -> float | None:
    """Pearson correlation of total strengths across directed edges (source vs target).

    Returns None when either endpoint series has zero variance: the
    correlation is then undefined (degenerate), not a number.
    """
    if g.n_edges < 2:
        raise GraphError("assortativity needs at least 2 edges")
    src, dst = np.nonzero(g.weights)
    s_total = g.weights.sum(axis=1) + g.weights.sum(axis=0)
    x = s_total[src]
    y = s_total[dst]
    if x.std() == 0.0 or y.std() == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def coverage(full: WeightedDigraph, reduced: WeightedDigraph) -> float:
    """Fraction of total edge weight of ``full`` retained in ``reduced``.

    ``reduced`` must be an edge-subset of ``full`` under node labels, with
    identical weights (as produced by thresholding and LSCC extraction).
    """
    pos = {lbl: i for i, lbl in enumerate(full.labels)}
    total_reduced = 0.0
    for src, dst, w in reduced.edge_list():
        if src not in pos or dst not in pos:
            raise GraphError(f"node {src!r} or {dst!r} not present in the full graph")
        if full.weights[pos[src], pos[dst]] != w:
            raise GraphError(f"edge {src!r}->{dst!r} is not an edge of the full graph")
        total_reduced += w
    total_full = full.total_weight
    if total_full <= 0.0:
        raise GraphError("full graph has no edge weight")
    return total_reduced / total_full


def _connected(sym_adj: np.ndarray) -> bool:
    return sym_adj.shape[0] > 0 and bool(np.all(_bfs(sym_adj, 0) >= 0))
