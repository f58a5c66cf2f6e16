"""Shared fixtures and independent oracles for the test suite.

The graph generators mimic trade-style networks (latent node sizes drive both
edge presence and weight), which keeps the eight standard measures strongly
correlated, as in the real networks this machinery targets.  The oracles are
deliberately naive: boolean-closure reachability for components, one BFS per
source for hop distances, exhaustive cut enumeration for max flow, one scalar
likelihood call per exponent for the Box-Cox fit, one measure at a time for
standardisation, every scheme pair for scheme invariance, float matrix
averages for the summary's mean hop distance and mean degree.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ccnet import (
    DegenerateSampleError,
    MeasureVector,
    StandardizedMeasure,
    TransformParams,
    WeightedDigraph,
    build_graph,
    hop_distance_matrix,
)
from ccnet.gof import _log_phi, _phi
from ccnet.graph import _check_edge

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_golden(name: str, produced: str) -> None:
    """Compare output bytes with ``golden/<name>``; CCNET_REGEN_GOLDEN=1 rewrites it."""
    path = GOLDEN_DIR / name
    if os.environ.get("CCNET_REGEN_GOLDEN"):
        path.write_text(produced, encoding="utf-8")
    assert path.exists(), f"golden file {name} missing; run with CCNET_REGEN_GOLDEN=1"
    assert produced == path.read_text(encoding="utf-8")


# the built-in scheme trees as typed out before they were generated from the
# D-R-T axis table, in ``scheme_to_dict`` form
BUILTIN_TREES = {
    "drt": {"name": "COMPOSITE", "children": [
        {"name": "IN", "children": [
            {"name": "IN-LO", "children": [{"name": "IN-LO-QL"}, {"name": "IN-LO-QN"}]},
            {"name": "IN-SH", "children": [{"name": "IN-SH-QL"}, {"name": "IN-SH-QN"}]}]},
        {"name": "OUT", "children": [
            {"name": "OUT-LO", "children": [{"name": "OUT-LO-QL"}, {"name": "OUT-LO-QN"}]},
            {"name": "OUT-SH", "children": [{"name": "OUT-SH-QL"}, {"name": "OUT-SH-QN"}]}]}]},
    "rtd": {"name": "COMPOSITE", "children": [
        {"name": "LO", "children": [
            {"name": "LO-QL", "children": [{"name": "IN-LO-QL"}, {"name": "OUT-LO-QL"}]},
            {"name": "LO-QN", "children": [{"name": "IN-LO-QN"}, {"name": "OUT-LO-QN"}]}]},
        {"name": "SH", "children": [
            {"name": "SH-QL", "children": [{"name": "IN-SH-QL"}, {"name": "OUT-SH-QL"}]},
            {"name": "SH-QN", "children": [{"name": "IN-SH-QN"}, {"name": "OUT-SH-QN"}]}]}]},
    "tdr": {"name": "COMPOSITE", "children": [
        {"name": "QL", "children": [
            {"name": "QL-IN", "children": [{"name": "IN-LO-QL"}, {"name": "IN-SH-QL"}]},
            {"name": "QL-OUT", "children": [{"name": "OUT-LO-QL"}, {"name": "OUT-SH-QL"}]}]},
        {"name": "QN", "children": [
            {"name": "QN-IN", "children": [{"name": "IN-LO-QN"}, {"name": "IN-SH-QN"}]},
            {"name": "QN-OUT", "children": [{"name": "OUT-LO-QN"}, {"name": "OUT-SH-QN"}]}]}]},
}


def write_edges(path: Path, g: WeightedDigraph) -> str:
    """Write ``g`` as a ``source,target,weight`` edge list; returns the path as a string."""
    lines = ["source,target,weight"]
    lines += [f"{s},{t},{w!r}" for s, t, w in g.edge_list()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cycle_graph(labels, weight: float = 1.0) -> WeightedDigraph:
    """Directed cycle through ``labels`` in order, every edge of weight ``weight``."""
    return build_graph([(labels[i], labels[(i + 1) % len(labels)], weight)
                        for i in range(len(labels))])


def complete_digraph(n: int) -> WeightedDigraph:
    """Every ordered pair of ``n`` nodes joined by an edge of weight 1."""
    return build_graph([(f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(n) if i != j])


def make_tradelike(n: int, seed: int, density: float = 0.35, recip: float = 0.7,
                   noise: float = 0.4) -> WeightedDigraph:
    """Strongly connected weighted digraph with correlated node measures."""
    rng = np.random.default_rng(seed)
    size = rng.lognormal(0.0, 1.0, n)
    w = np.zeros((n, n))
    p = size[:, None] * size[None, :]
    p = p / p.mean() * density
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < min(1.0, p[i, j]):
                w[i, j] = size[i] * size[j] * np.exp(noise * rng.standard_normal())
                if rng.random() < recip and w[j, i] == 0.0:
                    w[j, i] = size[i] * size[j] * np.exp(noise * rng.standard_normal())
    order = rng.permutation(n)
    for k in range(n):
        i, j = order[k], order[(k + 1) % n]
        if w[i, j] == 0.0:
            w[i, j] = size[i] * size[j] * np.exp(noise * rng.standard_normal())
    return WeightedDigraph(tuple(f"n{k:03d}" for k in range(n)), w)


def random_digraph(n: int, seed: int, p: float = 0.25,
                   max_weight: int = 10) -> WeightedDigraph:
    """Random integer-weighted digraph; possibly disconnected."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = np.where(mask, rng.integers(1, max_weight + 1, (n, n)), 0).astype(float)
    return WeightedDigraph(tuple(f"n{k:03d}" for k in range(n)), w)


def random_strongly_connected(n: int, seed: int, p: float = 0.2,
                              max_weight: int = 10) -> WeightedDigraph:
    """Random integer-weighted digraph made strongly connected by a random cycle."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    w = np.where(mask, rng.integers(1, max_weight + 1, (n, n)), 0).astype(float)
    order = rng.permutation(n)
    for k in range(n):
        i, j = order[k], order[(k + 1) % n]
        if w[i, j] == 0.0:
            w[i, j] = float(rng.integers(1, max_weight + 1))
    return WeightedDigraph(tuple(f"n{k:03d}" for k in range(n)), w)


def correlated_measures(n: int, seed: int, rho: float = 0.95,
                        names=None) -> list[MeasureVector]:
    """Eight positive raw measures sharing one latent factor (pairwise corr ~rho)."""
    from ccnet import STANDARD_MEASURE_NAMES

    names = list(names) if names is not None else list(STANDARD_MEASURE_NAMES)
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal(n)
    a, b = np.sqrt(rho), np.sqrt(1.0 - rho)
    out = []
    for name in names:
        z = a * factor + b * rng.standard_normal(n)
        out.append(MeasureVector(name, np.exp(0.5 * z), bigger_is_better=True))
    return out


def orthonormal_leaves(n: int, seed: int, k: int = 8, names=None) -> list[StandardizedMeasure]:
    """Standardized leaves whose sample correlations are exactly zero.

    Gram-Schmidt over centered draws makes every sibling combination's sample
    standard deviation exact, so balanced trees and the flat composite agree
    to floating-point rounding.
    """
    from ccnet import STANDARD_MEASURE_NAMES

    names = list(names) if names is not None else list(STANDARD_MEASURE_NAMES)[:k]
    rng = np.random.default_rng(seed)
    basis: list[np.ndarray] = []
    for _ in range(k):
        v = rng.standard_normal(n)
        v = v - v.mean()
        for u in basis:
            v = v - (v @ u) / (u @ u) * u
        v = v - v.mean()
        basis.append(v)
    return [StandardizedMeasure(name, v / v.std(ddof=1))
            for name, v in zip(names, basis)]


def reachability_closure(adj: np.ndarray) -> np.ndarray:
    """Transitive closure by repeated boolean squaring."""
    reach = adj.copy()
    np.fill_diagonal(reach, True)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def hop_distances_per_source(g: WeightedDigraph) -> np.ndarray:
    """All-pairs hop distances, one boolean BFS per source node: the loop
    reference for the lock-step BFS in ``graph._hop_distances``."""
    adj = g.adjacency()
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    for s in range(g.n):
        d = dist[s]
        d[s] = 0
        frontier = d == 0
        level = 0
        while frontier.any():
            level += 1
            frontier = adj[frontier].any(axis=0) & (d < 0)
            d[frontier] = level
    return dist


def scc_oracle(g: WeightedDigraph) -> list[list[int]]:
    """Mutually-reachable node sets from the boolean closure, by smallest index."""
    reach = reachability_closure(g.adjacency())
    mutual = reach & reach.T
    seen: set[int] = set()
    components: list[list[int]] = []
    for i in range(g.n):
        if i in seen:
            continue
        comp = sorted(np.flatnonzero(mutual[i]).tolist())
        seen.update(comp)
        components.append(comp)
    return components


def scc_node_loop(g: WeightedDigraph) -> list[list[int]]:
    """Components from the hop matrix one unvisited node at a time, each taking
    its row of mutual reachability: the loop reference for the one-argmax split
    in ``strongly_connected_components``."""
    reach = hop_distance_matrix(g) >= 0
    mutual = reach & reach.T
    seen = np.zeros(g.n, dtype=bool)
    components: list[list[int]] = []
    for i in range(g.n):
        if not seen[i]:
            comp = np.flatnonzero(mutual[i])
            seen[comp] = True
            components.append(comp.tolist())
    return components


def build_graph_two_pass(labeled_edges) -> WeightedDigraph:
    """``build_graph`` as two passes: validate and number the nodes, then write
    each edge's weight by label lookup."""
    order: dict[str, int] = {}
    edges: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for src, dst, w in labeled_edges:
        w = _check_edge(src, dst, w, seen)
        for lbl in (src, dst):
            if lbl not in order:
                order[lbl] = len(order)
        edges.append((src, dst, w))
    n = len(order)
    weights = np.zeros((n, n))
    for src, dst, w in edges:
        weights[order[src], order[dst]] = w
    return WeightedDigraph(tuple(order), weights)


def largest_scc_oracle(g: WeightedDigraph) -> tuple[str, ...]:
    """Largest mutually-reachable node set (smallest-index tie-break), by labels."""
    components = scc_oracle(g)
    best = max(len(c) for c in components)
    chosen = min((c for c in components if len(c) == best), key=lambda c: c[0])
    return tuple(g.labels[i] for i in chosen)


def clustering_oracle(g: WeightedDigraph) -> np.ndarray:
    """Per-node clustering coefficients, one node at a time: the links among
    a node's neighbours counted on the simple adjacency, 0 below 2 neighbours."""
    a = g.simple_adjacency()
    coeffs = np.zeros(g.n)
    for i in range(g.n):
        nb = np.flatnonzero(a[i])
        k = nb.size
        if k < 2:
            continue
        links = int(np.count_nonzero(a[np.ix_(nb, nb)])) // 2
        coeffs[i] = links / (k * (k - 1) / 2)
    return coeffs


def min_cut_oracle(weights: np.ndarray, s: int, t: int) -> float:
    """Minimum s-t cut capacity by enumerating every source-side subset."""
    n = weights.shape[0]
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    valid = bits[:, s] & ~bits[:, t]
    side = bits[valid].astype(float)
    # capacity of cut S: sum over i in S, j not in S of w[i, j]
    caps = np.einsum("ki,ij,kj->k", side, weights, 1.0 - side)
    return float(caps.min())


def box_cox_loglik_oracle(xs: np.ndarray, lam: float) -> float:
    """Box-Cox profile log-likelihood at one exponent, one scalar pass over
    the mean-one sample, less n ln(mean)."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    c = float(xs.mean())
    logx = np.log(xs / c)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = logx if lam == 0.0 else np.expm1(lam * logx) / lam
        var = np.sum((t - t.mean()) ** 2) / n
        ll = (lam - 1.0) * np.sum(logx) - 0.5 * n * np.log(var) - n * np.log(c)
    return float(ll) if np.isfinite(ll) else -np.inf


def box_cox_slopes_oracle(logx: np.ndarray, lam: float) -> tuple[float, float]:
    """First and second lam-derivatives of the Box-Cox profile
    log-likelihood of one sample, given as ln x, one scalar pass: the
    transform's derivatives from one expm1, or from its series below
    |lam| = 1e-5.  Off the series, S(y y'') comes from S(y L^2 x^lam)."""
    n = logx.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if abs(lam) < 1e-5:
            y2 = logx * logx * logx / 3.0
            y1 = logx * logx * 0.5 + y2 * lam
            y = (y2 * (-0.5 * lam) + y1) * lam + logx
        else:
            u = np.expm1(lam * logx)
            y = u / lam
            y1 = (u + 1.0) * logx
            y2 = y1 * logx
            y1 = (y1 - y) / lam
        y = y - y.mean()
        y1 = y1 - y1.mean()
        s_y2 = np.sum(y2 * y)
        if abs(lam) >= 1e-5:  # y2 is L^2 x^lam: S(y y'') = (S(y y2) - 2 S(y y'))/lam
            s_y2 = (s_y2 - 2.0 * np.sum(y * y1)) / lam
        r = np.sum(y * y1) / np.sum(y * y)
        d2 = -n * ((np.sum(y1 * y1) + s_y2) / np.sum(y * y) - 2.0 * r * r)
        return np.sum(logx) - n * r, d2


def fit_lambda_oracle(xs: np.ndarray) -> float:
    """Box-Cox exponent of a sample as given (no rescaling), one row at a
    time: Newton steps from 0 inside the bracket between 0 and the edge of
    [-5, 5] that l'(0) points to.  A step that would leave the bracket, or
    one from a point where l'' is not negative, goes to the edge, which the
    fit takes if l' there still points outwards, and bisects once the edge
    has been evaluated; the fit stops once a step is below 1e-6 (at most 46
    steps)."""
    logx = np.log(np.asarray(xs, dtype=float))
    d1, d2 = box_cox_slopes_oracle(logx, 0.0)
    edge = 5.0 if d1 > 0.0 else -5.0
    lo, hi = min(edge, 0.0), max(edge, 0.0)
    lam, probed = 0.0, False
    for _ in range(46):
        with np.errstate(divide="ignore", invalid="ignore"):
            new = float(lam - d1 / d2)
        if not (d2 < 0.0 and lo <= new <= hi):
            new = 0.5 * (lo + hi) if probed else edge
        step, lam = abs(new - lam), new
        if step < 1e-6:
            break
        d1, d2 = box_cox_slopes_oracle(logx, lam)
        if lam == edge:
            probed = True
            if (d1 >= 0.0) if edge > 0.0 else (d1 <= 0.0):
                break
        if (d1 > 0.0) if np.isfinite(d1) else (lam < 0.0):
            lo = lam
        else:
            hi = lam
    return lam


def skewness_oracle(xs: np.ndarray) -> float:
    """Adjusted Fisher-Pearson sample skewness of one sample, scalar moments."""
    n = xs.size
    dev = xs - xs.mean()
    m2 = np.mean(dev**2)
    m3 = np.mean(dev**3)
    return float(m3 / m2**1.5 * np.sqrt(n * (n - 1.0)) / (n - 2.0))


def standardize_oracle(measure: MeasureVector) -> StandardizedMeasure:
    """The standardisation recipe on one measure, as it ran before measure
    sets were fitted together: pre-shift, mean scale, ``fit_lambda_oracle``,
    keep the transform only if it lowers |skewness|, then the moments."""
    x = np.asarray(measure.values, dtype=float)
    if x.size < 3:
        raise DegenerateSampleError(f"measure {measure.name!r}: need at least 3 values, got {x.size}")
    if np.all(x == x[0]):
        raise DegenerateSampleError(f"measure {measure.name!r}: sample is constant")
    pre_shift = 0.0
    lo = x.min()
    if lo <= 0.0:
        pre_shift = float(-lo + 1e-6 * (x.max() - lo))
        x = x + pre_shift
    mean_scale = float(x.mean())
    y = x / mean_scale
    lam = fit_lambda_oracle(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.log(y) if lam == 0.0 else np.expm1(lam * np.log(y)) / lam
    used = None
    z = y
    if abs(skewness_oracle(t)) < abs(skewness_oracle(y)):
        z, used = t, lam
    post_mean = float(z.mean())
    z = z - post_mean
    post_std = float(z.std(ddof=1))
    if post_std == 0.0:
        raise DegenerateSampleError(f"measure {measure.name!r} is constant")
    z = z / post_std
    flipped = not measure.bigger_is_better
    params = TransformParams(pre_shift, mean_scale, used, post_mean, post_std, flipped)
    return StandardizedMeasure(measure.name, -z if flipped else z, params)


def anderson_darling_two_pass(x: np.ndarray) -> float:
    """A^2 of a sample as computed before one erfc pass served both logs:
    log Phi of the sorted sample and of its reversed negation, each from its
    own Phi(-|x|)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    i = np.arange(1, n + 1)
    log_cdf = _log_phi(x, _phi(-np.abs(x)))
    log_sf = _log_phi(-x[::-1], _phi(-np.abs(-x[::-1])))
    return float(-n - np.sum((2 * i - 1) * (log_cdf + log_sf)) / n)


def scheme_invariance_pairs(roots: list[np.ndarray]) -> float:
    """Largest root-score discrepancy as ``scheme_invariance`` computed it
    before it took one spread per node: every scheme pair, every node."""
    worst = 0.0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            worst = max(worst, float(np.max(np.abs(roots[i] - roots[j]))))
    return worst


def ks_rows_oracle(cdf_rows: np.ndarray) -> np.ndarray:
    """KS statistics of rows of sorted CDF values, with both absolute values
    taken, as the kernel computed them before it dropped the abs passes."""
    n = cdf_rows.shape[1]
    i = np.arange(1, n + 1)
    upper = np.abs(i / n - cdf_rows)
    lower = np.abs(cdf_rows - (i - 1) / n)
    return np.max(np.maximum(upper, lower), axis=1)


def summary_means_oracle(g: WeightedDigraph) -> tuple[float, float]:
    """``summarize``'s mean hop distance and mean degree as it computed them
    before it read them off exact integer totals: float matrix averages."""
    dist = hop_distance_matrix(g).astype(float)
    off = ~np.eye(g.n, dtype=bool)
    a = g.adjacency()
    return float(dist[off].mean()), float((a.sum(axis=0) + a.sum(axis=1)).mean())
