"""Checks of ccnet's outputs against computations made apart from ccnet.

The oracles are networkx and scipy, plus the method's own properties
(moments, rank order, sibling heights).  Nothing is compared against a stored
copy of an earlier output.  Every check is counted; a failed one records its
name and what differed.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET

import networkx as nx
import numpy as np
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow, shortest_path

import ccnet

FARNESS = ("IN-LO-QL", "OUT-LO-QL")
AD_CRITICAL_10PCT = 1.933
P_THRESHOLD = 0.1
MC_SIGMAS = 6.0   # a Monte-Carlo p may sit this many binomial sds from the exact p
FLOW_NODES = 2    # nodes per float-weight slice whose flow means networkx recomputes

# the paper's builtin inheritance schemes, parent -> (left, right)
SCHEMES = {
    "drt": {
        "COMPOSITE": ("IN", "OUT"),
        "IN": ("IN-LO", "IN-SH"), "OUT": ("OUT-LO", "OUT-SH"),
        "IN-LO": ("IN-LO-QL", "IN-LO-QN"), "IN-SH": ("IN-SH-QL", "IN-SH-QN"),
        "OUT-LO": ("OUT-LO-QL", "OUT-LO-QN"), "OUT-SH": ("OUT-SH-QL", "OUT-SH-QN"),
    },
    "rtd": {
        "COMPOSITE": ("LO", "SH"),
        "LO": ("LO-QL", "LO-QN"), "SH": ("SH-QL", "SH-QN"),
        "LO-QL": ("IN-LO-QL", "OUT-LO-QL"), "LO-QN": ("IN-LO-QN", "OUT-LO-QN"),
        "SH-QL": ("IN-SH-QL", "OUT-SH-QL"), "SH-QN": ("IN-SH-QN", "OUT-SH-QN"),
    },
}


class Checks:
    """Tally of checks run and the ones that failed."""

    def __init__(self) -> None:
        self.ran = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)

    def failed(self, name: str) -> bool:
        return any(f.startswith(name + ":") for f in self.failures)


def read_edges(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels in first-appearance order and the dense weight matrix of a CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    order: dict[str, int] = {}
    for src, dst, _ in rows:
        order.setdefault(src, len(order))
        order.setdefault(dst, len(order))
    w = np.zeros((len(order), len(order)))
    for src, dst, weight in rows:
        w[order[src], order[dst]] = float(weight)
    return tuple(order), w


def largest_scc(w: np.ndarray) -> list[int]:
    """networkx's largest SCC, ties broken towards the smallest node index."""
    g = nx.DiGraph()
    g.add_nodes_from(range(w.shape[0]))
    g.add_edges_from(zip(*np.nonzero(w)))
    best = min(nx.strongly_connected_components(g), key=lambda c: (-len(c), min(c)))
    return sorted(best)


def mc_tolerance(q: float, replicates: int) -> float:
    """Allowed |p - q| for a Monte-Carlo p with ``replicates`` draws and exact p q."""
    return MC_SIGMAS * math.sqrt(max(q * (1.0 - q), 1.0 / replicates) / replicates) \
        + 1.0 / replicates


def check_report(c: Checks, text: str, edges_path: str, threshold: float,
                 flows: str, rng: np.random.Generator | None = None) -> None:
    """Check one analysis report against its own edge list.

    ``flows="all"`` compares every pair's max flow with scipy (integer
    weights); ``flows="sample"`` compares ``FLOW_NODES`` nodes' in and out
    means, drawn from ``rng``, with networkx (float weights).
    """
    c.expect("round-trip", ccnet.report_to_json(ccnet.report_from_json(text)) == text,
             f"{edges_path}: report_from_json -> report_to_json changed the bytes")
    doc = json.loads(text)
    labels, full = read_edges(edges_path)
    c.expect("threshold", doc["meta"]["threshold"] == threshold,
             f"{edges_path}: {doc['meta']['threshold']!r} != {threshold!r}")
    w = np.where(full >= threshold, full, 0.0)
    idx = largest_scc(w)
    if not c.expect("lscc", tuple(labels[i] for i in idx) == tuple(doc["nodes"]),
                    f"{edges_path}: report nodes differ from networkx's largest SCC"):
        return
    s = w[np.ix_(idx, idx)]
    n = len(idx)
    a = s > 0.0
    dist = shortest_path(csr_matrix(s), directed=True, unweighted=True)
    expected = {
        "IN-SH-QL": a.sum(axis=0).astype(float), "OUT-SH-QL": a.sum(axis=1).astype(float),
        "IN-SH-QN": s.sum(axis=0), "OUT-SH-QN": s.sum(axis=1),
        "IN-LO-QL": dist.sum(axis=0) / (n - 1), "OUT-LO-QL": dist.sum(axis=1) / (n - 1),
    }
    raw = {m["name"]: m for m in doc["raw_measures"]}
    for name, want in expected.items():
        if name in raw:
            check = {"SH-QL": "degree", "SH-QN": "strength", "LO-QL": "farness"}[name[-5:]]
            got = np.asarray(raw[name]["values"])
            c.expect(check, np.allclose(got, want, rtol=1e-12, atol=0.0),
                     f"{edges_path}: {name} max rel err "
                     f"{np.max(np.abs(got - want) / np.abs(want)):.3g}")

    summ = doc["summary"]
    off = ~np.eye(n, dtype=bool)
    c.expect("summary", summ["n"] == n and summ["n_edges"] == int(a.sum())
             and summ["diameter"] == int(dist.max())
             and math.isclose(summ["mean_aspl"], dist[off].mean(), rel_tol=1e-12)
             and math.isclose(summ["coverage"], s.sum() / full.sum(), rel_tol=1e-12),
             f"{edges_path}: summary differs from the rebuilt substrate")

    if flows == "all":
        cap = csr_matrix(s.astype(np.int32))
        f = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i != j:
                    f[i, j] = maximum_flow(cap, i, j).flow_value
        for name, want in (("IN-LO-QN", f.sum(axis=0) / (n - 1)),
                           ("OUT-LO-QN", f.sum(axis=1) / (n - 1))):
            if name in raw:
                c.expect("maxflow", np.array_equal(np.asarray(raw[name]["values"]), want),
                         f"{edges_path}: {name} differs from scipy maximum_flow")
        c.expect("maxflow", math.isclose(summ["mean_maxflow"], (f.sum(axis=0) / (n - 1)).mean(),
                                         rel_tol=1e-12),
                 f"{edges_path}: summary mean_maxflow differs from scipy maximum_flow")
    else:
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i, j in zip(*np.nonzero(s)):
            g.add_edge(int(i), int(j), capacity=float(s[i, j]))
        for v in rng.choice(n, size=FLOW_NODES, replace=False).tolist():
            others = [u for u in range(n) if u != v]
            f_in = sum(nx.maximum_flow_value(g, u, v) for u in others) / (n - 1)
            f_out = sum(nx.maximum_flow_value(g, v, u) for u in others) / (n - 1)
            for name, want in (("IN-LO-QN", f_in), ("OUT-LO-QN", f_out)):
                if name in raw:
                    got = raw[name]["values"][v]
                    c.expect("maxflow", math.isclose(got, want, rel_tol=1e-9),
                             f"{edges_path}: {name}[{labels[idx[v]]}] {got!r} vs networkx {want!r}")

    if "EC" in raw:
        ec = nx.eigenvector_centrality_numpy(nx.from_numpy_array((a | a.T).astype(float)))
        want = np.array([ec[i] for i in range(n)])
        c.expect("eigvec", np.allclose(raw["EC"]["values"], want, rtol=1e-8, atol=1e-12),
                 f"{edges_path}: EC differs from networkx eigenvector centrality")

    _check_generations(c, doc, raw, edges_path)
    _check_gof(c, doc, edges_path)


def _check_generations(c: Checks, doc: dict, raw: dict, where: str) -> None:
    tree = dict(SCHEMES[doc["meta"]["scheme"]])
    replaced = doc["replaced_measure"]
    if replaced is not None:
        tree = {p: tuple("EC" if k == replaced else k for k in kids) for p, kids in tree.items()}
    gens = {g["name"]: g for g in doc["generations"]}
    names = set(tree) | {k for kids in tree.values() for k in kids}
    if not c.expect("scheme", set(gens) == names, f"{where}: scheme nodes {sorted(gens)}"):
        return
    for name, g in gens.items():
        v = np.asarray(g["values"])
        c.expect("scheme", abs(v.mean()) <= 1e-12 and abs(v.std(ddof=1) - 1.0) <= 1e-12,
                 f"{where}: {name} mean {v.mean():.3g}, sd {v.std(ddof=1):.15g}")
        if name not in tree:
            m = raw[name]
            sign = -1.0 if name in FARNESS else 1.0
            c.expect("rank", m["bigger_is_better"] == (name not in FARNESS) and np.array_equal(
                stats.rankdata(m["values"], "dense"), stats.rankdata(sign * v, "dense")),
                f"{where}: {name} does not keep the raw rank order")
    root = gens["COMPOSITE"]
    c.expect("heights", root["display_heights"] == root["values"],
             f"{where}: root heights differ from root values")
    for parent, (left, right) in tree.items():
        summed = np.add(gens[left]["display_heights"], gens[right]["display_heights"])
        c.expect("heights", np.allclose(summed, gens[parent]["display_heights"],
                                        rtol=1e-12, atol=1e-12),
                 f"{where}: heights of {left} + {right} differ from {parent}")


def _check_gof(c: Checks, doc: dict, where: str) -> None:
    gens = {g["name"]: np.asarray(g["values"]) for g in doc["generations"]}
    ks = {r["test"].split(":", 1)[1]: r for r in doc["gof"] if r["test"].startswith("ks-")}
    c.expect("ks-stat", set(ks) == set(gens), f"{where}: KS tests {sorted(ks)}")
    for name, r in ks.items():
        v = gens.get(name)
        if v is None:
            continue
        d = stats.kstest(v, "norm").statistic
        c.expect("ks-stat", abs(r["statistic"] - d) <= 1e-12,
                 f"{where}: {name} KS {r['statistic']!r} vs scipy {d!r}")
        q = float(stats.kstwo.sf(d, v.size))
        c.expect("ks-p", abs(r["p_value"] - q) <= mc_tolerance(q, r["replicates"]),
                 f"{where}: {name} p {r['p_value']} vs kstwo.sf {q:.4f} (B={r['replicates']})")
        c.expect("ks-decision", r["decision"] == ("accept" if r["p_value"] > P_THRESHOLD
                                                  else "reject"),
                 f"{where}: {name} decision {r['decision']} at p {r['p_value']}")
    ad = [r for r in doc["gof"] if r["test"] == "anderson-darling:COMPOSITE"]
    if c.expect("ad", len(ad) == 1, f"{where}: {len(ad)} Anderson-Darling entries for the root"):
        x = np.sort(gens["COMPOSITE"])
        n = x.size
        i = np.arange(1, n + 1)
        a2 = -n - np.sum((2 * i - 1) * (stats.norm.logcdf(x) + stats.norm.logsf(x[::-1]))) / n
        c.expect("ad", math.isclose(ad[0]["statistic"], a2, rel_tol=1e-9, abs_tol=1e-12)
                 and ad[0]["decision"] == ("accept" if a2 < AD_CRITICAL_10PCT else "reject"),
                 f"{where}: A2 {ad[0]['statistic']!r} vs {a2!r}, decision {ad[0]['decision']}")


def check_svg(c: Checks, text: str, where: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        c.expect("svg", False, f"{where}: {exc}")
        return
    c.expect("svg", root.tag.endswith("svg"), f"{where}: root element {root.tag}")


def check_quoted(c: Checks, edges_path: str, outcome: str | None) -> bool:
    """The quoted-label slice fails with the known EdgeListError, or parses.

    Returns True when ccnet parsed it, so the report checks apply.
    """
    try:
        ccnet.parse_edge_list(edges_path)
    except ccnet.EdgeListError as exc:
        c.expect("edge-list-error", "expected 3 columns, got 4" in str(exc)
                 and outcome is not None and "expected 3 columns, got 4" in outcome,
                 f"{edges_path}: {exc} / analyze said {outcome!r}")
        return False
    return c.expect("edge-list-error", outcome is None,
                    f"{edges_path}: parses, but analyze failed with {outcome!r}")


def _arb_draws(n: int, seed: int, r: int) -> list[np.ndarray]:
    """The five-distribution draws documented for realisation (n, r, 0)."""
    root = np.random.SeedSequence(entropy=seed, spawn_key=(n, r, 0))
    rngs = [np.random.default_rng(child) for child in root.spawn(5)]
    return [rngs[0].uniform(0.0, 1.0, n), rngs[1].normal(1e5, 1e3, n),
            rngs[2].lognormal(2.0, 2.0, n), rngs[3].exponential(1e-3, n),
            (rngs[4].pareto(3.0, n) + 1.0) * 100.0]


def kstwo_moments(n: int) -> tuple[float, float]:
    """Mean and sd of the exact KS distribution, by 48-point Gauss-Legendre.

    Below 0.2/sqrt(n) the survival function is 1 and above 3/sqrt(n) it is
    under 1e-7, so integrating sf over that range is enough; scipy's own
    ``kstwo(n).mean()`` takes seconds at n = 10^4.
    """
    a, b = 0.2 / math.sqrt(n), 3.0 / math.sqrt(n)
    u, w = np.polynomial.legendre.leggauss(48)
    x = a + (b - a) * (u + 1.0) / 2.0
    w = w * (b - a) / 2.0
    sf = stats.kstwo.sf(x, n)
    mean = a + w @ sf
    return float(mean), float(math.sqrt(a * a + w @ (2.0 * x * sf) - mean * mean))


def check_study(c: Checks, text: str) -> None:
    """Check a validity study against the exact Kolmogorov distribution."""
    c.expect("round-trip", ccnet.study_to_json(ccnet.study_from_json(text)) == text,
             "study_from_json -> study_to_json changed the bytes")
    doc = json.loads(text)
    s_real, p_real, b = doc["stat_realizations"], doc["p_realizations"], doc["replicates"]
    for row in doc["rows"]:
        n = row["size"]
        mean, sd = kstwo_moments(n)
        se = sd / math.sqrt(s_real)
        c.expect("null-ks", abs(row["null_ks_mean"] - mean) <= 4.0 * se,
                 f"n={n}: null_ks_mean {row['null_ks_mean']:.5f} vs kstwo mean "
                 f"{mean:.5f} (se {se:.5f})")
        q = []
        var = 0.0
        for r in range(p_real):
            draws = _arb_draws(n, doc["seed"], r)
            measures = ccnet.sample_arb(ccnet.ArbMeasureSpec(), n,
                                        np.random.SeedSequence(entropy=doc["seed"],
                                                               spawn_key=(n, r, 0)))
            c.expect("p-draws", all(np.array_equal(m.values, d) for m, d in zip(measures, draws)),
                     f"n={n} r={r}: sample_arb differs from the documented spawn keys")
            z = ccnet.composite_scores(measures)
            c.expect("p-moments", abs(z.mean()) <= 1e-12 and abs(z.std(ddof=1) - 1.0) <= 1e-12,
                     f"n={n} r={r}: composite mean {z.mean():.3g}, sd {z.std(ddof=1):.15g}")
            qr = float(stats.kstwo.sf(stats.kstest(z, "norm").statistic, n))
            q.append(qr)
            var += max(qr * (1.0 - qr), 1.0 / b) / b
        want = float(np.mean(q))
        tol = MC_SIGMAS * math.sqrt(var) / p_real + 1.0 / b
        c.expect("p-mean", abs(row["p_mean"] - want) <= tol,
                 f"n={n}: p_mean {row['p_mean']:.4f} vs kstwo.sf mean {want:.4f} (tol {tol:.4f})")
