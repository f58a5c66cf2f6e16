"""Seeded input generators for the benchmark workloads.

Everything here uses numpy only, so generating inputs never imports ccnet.
Each generator returns plain matrices; ``write_edges`` turns one into the
``source,target,weight`` CSV that ccnet reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# trade-series: yearly slices of one hub-driven web (the paper's 1970-2000 decades)
TRADE_YEARS = (1970, 1980, 1990, 2000)
TRADE_CORE = 20          # nodes in every slice's LSCC
TRADE_FRINGE = 3         # extra nodes the threshold and LSCC remove
TRADE_DENSITY = 0.42     # directed edges among core nodes, as a share of N(N-1)
TRADE_GROWTH = 1.08      # yearly trade growth; the factor file tracks it
TRADE_BASE_THRESHOLD = 1e7

# migration-alt: regional blocks joined by thin corridors
MIGRATION_YEARS = (2000, 2010)
MIGRATION_REGIONS = 3
MIGRATION_REGION_SIZE = 7
MIGRATION_THRESHOLD = 2.0   # migrant counts below 2 are dropped

# the quoted-label slice: fixed labels, fixed weights, independent of --seed
QUOTED_YEAR = 2001
# one comma per quoted label; the first row, United States -> Korea, Rep.,
# splits into 4 columns under a plain comma split
QUOTED_LABELS = ("United States", "Korea, Rep.", "Iran, Islamic Rep.", "Egypt, Arab Rep.",
                 "Congo, Dem. Rep.", "Hong Kong SAR, China", "Germany", "Japan")


@dataclass(frozen=True)
class Slice:
    """One network slice: labels, a dense weight matrix and its threshold."""

    year: int
    labels: tuple[str, ...]
    weights: np.ndarray
    threshold: float
    core: tuple[str, ...]   # labels the LSCC must hold, in label order


def _ring(rng: np.random.Generator, nodes: np.ndarray) -> list[tuple[int, int]]:
    order = rng.permutation(nodes)
    return [(int(order[k]), int(order[(k + 1) % order.size])) for k in range(order.size)]


def _lognormal_sizes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Log-normal(0, 1) quantiles in a seeded order: the same spread of hub
    sizes at every seed, so the max-flow work changes little between seeds."""
    from statistics import NormalDist

    z = np.array([NormalDist().inv_cdf((k + 0.5) / n) for k in range(n)])
    return np.exp(rng.permutation(z))


def trade_series(seed: int, core: int = TRADE_CORE) -> tuple[list[Slice], dict[int, float]]:
    """Yearly trade-like slices plus the year -> threshold-factor table.

    Node sizes are log-normal and shared by every year; each year draws its
    own edges, whose presence and weight both grow with the product of the
    end-point sizes (dense, reciprocal, float weights, as in
    ``tests/helpers.make_tradelike``).  Weights and thresholds grow by the
    year's factor.  A ring of strong edges keeps the core strongly connected
    at every year's threshold, and a fringe of small nodes joined only by
    sub-threshold or one-way edges is cut by the LSCC.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    size = _lognormal_sizes(rng, core)
    labels = tuple(f"c{k:03d}" for k in range(core + TRADE_FRINGE))
    factors = {year: TRADE_GROWTH ** (year - TRADE_YEARS[0]) for year in TRADE_YEARS}
    factors[QUOTED_YEAR] = 1.0
    slices = [Slice(year, labels, _trade_year(rng, size) * factors[year],
                    TRADE_BASE_THRESHOLD * factors[year], labels[:core])
              for year in TRADE_YEARS]
    return slices, factors


def _trade_year(rng: np.random.Generator, size: np.ndarray) -> np.ndarray:
    """One year's weights in base-year units: core, ring and fringe."""
    m = size.size
    n = m + TRADE_FRINGE
    # a fixed edge count, drawn with probability growing with both sizes
    p = size[:, None] * size[None, :]
    np.fill_diagonal(p, 0.0)
    picked = rng.choice(p.size, size=round(TRADE_DENSITY * m * (m - 1)),
                        replace=False, p=p.ravel() / p.sum())
    present = np.zeros(p.size, dtype=bool)
    present[picked] = True
    w = np.zeros((n, n))
    w[:m, :m] = np.where(present.reshape(p.shape),
                         2e7 * p * np.exp(0.6 * rng.standard_normal((m, m))), 0.0)
    for i, j in _ring(rng, np.arange(m)):
        w[i, j] = max(w[i, j], 2.0 * TRADE_BASE_THRESHOLD * (1.0 + rng.random()))
    for f in range(m, n):
        for k, c in enumerate(rng.choice(m, size=4, replace=False)):
            low = TRADE_BASE_THRESHOLD * (0.2 + 0.6 * rng.random())
            w[f, c] = low
            # one strong edge into the core: kept by the threshold, cut by the LSCC
            w[c, f] = 3.0 * TRADE_BASE_THRESHOLD if k == 0 else low
    return w


def quoted_slice() -> Slice:
    """Small trade slice whose labels hold commas, so its CSV needs quoting."""
    rng = np.random.default_rng(20011)
    n = len(QUOTED_LABELS)
    size = rng.lognormal(0.0, 1.0, n)
    present = rng.random((n, n)) < 0.45
    np.fill_diagonal(present, False)
    present[0, 1:] = True
    w = np.where(present, 2e7 * size[:, None] * size[None, :], 0.0)
    for i, j in _ring(rng, np.arange(n)):
        w[i, j] = max(w[i, j], 2.0 * TRADE_BASE_THRESHOLD)
    return Slice(QUOTED_YEAR, QUOTED_LABELS, w, TRADE_BASE_THRESHOLD, QUOTED_LABELS)


def migration_slices(seed: int) -> list[Slice]:
    """Regional migration-like slices with integer migrant counts.

    Inside a region a fixed share of node pairs is linked, mostly one way;
    regions are joined in a cycle by two thin corridors each way, so many
    pair flows fall below their cut bound min(s_out, s_in).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    m = MIGRATION_REGION_SIZE
    n = MIGRATION_REGIONS * m
    labels = tuple(f"r{r}-{k:02d}" for r in range(MIGRATION_REGIONS) for k in range(m))
    slices = []
    for year in MIGRATION_YEARS:
        w = np.zeros((n, n))
        for r in range(MIGRATION_REGIONS):
            block = np.arange(r * m, (r + 1) * m)
            w[np.ix_(block, block)] = _region(rng, m)
            for i, j in _ring(rng, block):
                w[i, j] = max(w[i, j], float(rng.integers(3, 30)))
        for r in range(MIGRATION_REGIONS):
            a = np.arange(r * m, (r + 1) * m)
            b = (a + m) % n
            for src, dst in ((a, b), (b, a)):
                for _ in range(2):
                    w[rng.choice(src), rng.choice(dst)] = float(rng.integers(5, 20))
        slices.append(Slice(year, labels, w, MIGRATION_THRESHOLD, labels))
    return slices


def _region(rng: np.random.Generator, m: int) -> np.ndarray:
    """Counts inside one region: 40% of node pairs linked, a fifth of them both ways."""
    iu, ju = np.triu_indices(m, 1)
    pick = rng.choice(iu.size, size=round(0.4 * iu.size), replace=False)
    flip = rng.random(pick.size) < 0.5
    src = np.where(flip, ju[pick], iu[pick])
    dst = np.where(flip, iu[pick], ju[pick])
    both = rng.choice(pick.size, size=round(0.2 * pick.size), replace=False)
    present = np.zeros((m, m), dtype=bool)
    present[src, dst] = True
    present[dst[both], src[both]] = True
    pull = _lognormal_sizes(rng, m) ** 0.8
    return np.where(present, 1.0 + np.floor(rng.lognormal(1.5, 1.2, (m, m)) * pull[None, :]), 0.0)


def write_edges(path: str, s: Slice, integer: bool = False) -> None:
    """Write a slice as a ``source,target,weight`` CSV (exact float reprs)."""
    src, dst = np.nonzero(s.weights)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("source", "target", "weight"))
        for i, j in zip(src.tolist(), dst.tolist()):
            w = s.weights[i, j]
            out.writerow((s.labels[i], s.labels[j], str(int(w)) if integer else repr(float(w))))


def write_factors(path: str, factors: dict[int, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("year,factor\n")
        for year in sorted(factors):
            fh.write(f"{year},{factors[year]!r}\n")
