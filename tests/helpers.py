"""Shared fixtures and independent oracles for the test suite.

The graph generators mimic trade-style networks (latent node sizes drive both
edge presence and weight), which keeps the eight standard measures strongly
correlated, as in the real networks this machinery targets.  The oracles are
deliberately naive: boolean-closure reachability for components, exhaustive
cut enumeration for max flow.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ccnet import MeasureVector, StandardizedMeasure, WeightedDigraph

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_golden(name: str, produced: str) -> None:
    """Compare output bytes with ``golden/<name>``; CCNET_REGEN_GOLDEN=1 rewrites it."""
    path = GOLDEN_DIR / name
    if os.environ.get("CCNET_REGEN_GOLDEN"):
        path.write_text(produced, encoding="utf-8")
    assert path.exists(), f"golden file {name} missing; run with CCNET_REGEN_GOLDEN=1"
    assert produced == path.read_text(encoding="utf-8")


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


def largest_scc_oracle(g: WeightedDigraph) -> tuple[str, ...]:
    """Largest mutually-reachable node set (smallest-index tie-break), by labels."""
    components = scc_oracle(g)
    best = max(len(c) for c in components)
    chosen = min((c for c in components if len(c) == best), key=lambda c: c[0])
    return tuple(g.labels[i] for i in chosen)


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
