"""Statistical acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criterion 6 is split into its three sub-clauses.  The offset check (6b) reads
the composite's KS statistic at n = 10^4 against the exact-null control run:
five i.i.d. standard-normal measures pushed through the same
standardise-and-combine pipeline.  Both carry exactly zero sample mean and
unit sample variance, so the control is the composite's noise floor; the
raw-normal curve (``null_ks``) is not, since exact moments always pull a
composite below it.
"""

import time

import numpy as np
import pytest

from ccnet import (
    MeasureVector,
    STANDARD_MEASURE_NAMES,
    analyze,
    box_cox,
    builtin_scheme,
    combine_set,
    fit_lambda,
    gof_vs_n_study,
    invert,
    ks_p_value,
    largest_scc,
    max_error_estimate,
    max_flow,
    run_scheme,
    sample_standard_normal_set,
    scheme_invariance,
    skewness,
    standardize,
    standard_measure_set,
)
from ccnet.graph import GraphError
from helpers import (
    correlated_measures,
    largest_scc_oracle,
    make_tradelike,
    min_cut_oracle,
    random_digraph,
    random_strongly_connected,
    write_edges,
)

ALL_SCHEMES = [builtin_scheme(s) for s in ("drt", "rtd", "tdr")]


def _families(rng, n):
    return [
        rng.uniform(0.0, 1.0, n),
        rng.normal(1e5, 1e3, n),
        rng.lognormal(2.0, 2.0, n),
        rng.exponential(1e-3, n),
        (rng.pareto(3.0, n) + 1.0) * 100.0,
    ]


@pytest.fixture(scope="module")
def randomized_measures():
    """200 raw measures cycling through the five distribution families."""
    out = []
    rng = np.random.default_rng(2024)
    for k in range(40):
        n = int(rng.integers(50, 501))
        for fam, raw in enumerate(_families(rng, n)):
            out.append(MeasureVector(f"m{k}-{fam}", raw,
                                     bigger_is_better=bool((k + fam) % 2)))
    return out


@pytest.fixture(scope="module")
def default_study():
    """Criterion 6 study at spec defaults (shared across the sub-clauses)."""
    t0 = time.monotonic()
    study = gof_vs_n_study(sizes=(100, 1_000, 10_000))
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"study took {elapsed:.0f}s, limit 900s"
    return study


@pytest.fixture(scope="module")
def control_study():
    """Exact-null control at n = 10^4 with the composite's seed and stat realizations."""
    return gof_vs_n_study(sizes=(10_000,), sampler=sample_standard_normal_set,
                          stat_realizations=100, seed=0, p_realizations=2,
                          replicates=2500)


def test_criterion_1_moment_contract_and_inversion(randomized_measures):
    t0 = time.monotonic()
    worst_mean = worst_std = worst_rt = 0.0
    for m in randomized_measures:
        sm = standardize(m)
        worst_mean = max(worst_mean, abs(float(sm.values.mean())))
        worst_std = max(worst_std, abs(float(sm.values.std(ddof=1)) - 1.0))
        back = invert(sm)
        rel = np.max(np.abs(back.values - m.values) / np.maximum(np.abs(m.values), 1e-300))
        worst_rt = max(worst_rt, float(rel))
    elapsed = time.monotonic() - t0
    ok = worst_mean < 1e-9 and worst_std < 1e-9 and worst_rt < 1e-9 and elapsed < 10.0
    print(f"\nACCEPTANCE 1 moment contract: {'PASS' if ok else 'FAIL'} "
          f"(|mean|<={worst_mean:.1e}, |std-1|<={worst_std:.1e}, "
          f"round-trip<={worst_rt:.1e}, {elapsed:.1f}s)")
    assert worst_mean < 1e-9
    assert worst_std < 1e-9
    assert worst_rt < 1e-9
    assert elapsed < 10.0


def test_criterion_2_skewness_reduction_and_lambda(randomized_measures):
    accepted = 0
    for m in randomized_measures:
        sm = standardize(m)
        if sm.params.box_cox_lambda is None:
            continue
        accepted += 1
        x = m.values + sm.params.pre_shift
        y = x / sm.params.mean_scale
        t = box_cox(y, sm.params.box_cox_lambda)
        assert abs(skewness(t)) < abs(skewness(y))
    hits = 0
    for seed in range(100):
        xs = np.random.default_rng(seed).lognormal(0.0, 1.0, 10_000)
        if -0.1 <= fit_lambda(xs / xs.mean()) <= 0.1:
            hits += 1
    ok = hits >= 95 and accepted > 0
    print(f"ACCEPTANCE 2 skewness reduction: {'PASS' if ok else 'FAIL'} "
          f"({accepted} accepted branches all reduced skew, lambda hits {hits}/100)")
    assert accepted > 0
    assert hits >= 95


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    scc_checked = 0
    for seed in range(500):
        n = int(5 + (seed * 17) % 46)
        g = random_digraph(n, seed, p=0.07)
        expected = largest_scc_oracle(g)
        if len(expected) < 2:
            with pytest.raises(GraphError):
                largest_scc(g)
        else:
            assert largest_scc(g).labels == expected
            scc_checked += 1
    flow_checked = 0
    for seed in range(200):
        n = int(4 + seed % 5)
        g = random_digraph(n, 10_000 + seed, p=0.45)
        for s in range(n):
            for t in range(n):
                if s != t:
                    assert max_flow(g, s, t) == min_cut_oracle(g.weights, s, t)
                    flow_checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    print(f"ACCEPTANCE 3 oracle equivalence: {'PASS' if ok else 'FAIL'} "
          f"({scc_checked} non-trivial SCC graphs, {flow_checked} flow pairs, {elapsed:.1f}s)")
    assert scc_checked > 200
    assert elapsed < 60.0


def test_criterion_4_scheme_invariance():
    worst_inv = 0.0
    for seed in range(20):
        sm = [standardize(m) for m in correlated_measures(200, seed)]
        worst_inv = max(worst_inv, scheme_invariance(sm, ALL_SCHEMES))
        gens = run_scheme(builtin_scheme("drt"), sm)

        def walk(node):
            if not node.children:
                return
            parent_h = gens[node.name].display_heights
            child_sum = sum(gens[c.name].display_heights for c in node.children)
            assert np.max(np.abs(child_sum - parent_h)) <= 1e-9
            for c in node.children:
                walk(c)

        walk(builtin_scheme("drt").root)
    ok = worst_inv <= 1e-2
    print(f"ACCEPTANCE 4 scheme invariance: {'PASS' if ok else 'FAIL'} "
          f"(max root discrepancy {worst_inv:.2e} over 20 seeds, 3 trees)")
    assert worst_inv <= 1e-2


def test_criterion_5_snh_acceptance_behaviour():
    accepted = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sm = [standardize(MeasureVector(name, rng.lognormal(0.0, 1.0, 200)))
              for name in STANDARD_MEASURE_NAMES]
        comp = combine_set(sm)
        if ks_p_value(comp.values, 2500, seed=seed + 50_000).p_value > 0.1:
            accepted += 1

    rejections = 0
    for trial in range(1000):
        x = np.random.default_rng(trial).standard_normal(100)
        if ks_p_value(x, 2500, seed=1_000_000 + trial).p_value <= 0.1:
            rejections += 1
    rate = rejections / 1000
    ok = accepted >= 80 and 0.07 <= rate <= 0.13
    print(f"ACCEPTANCE 5 SNH decision rule: {'PASS' if ok else 'FAIL'} "
          f"(composite accepted {accepted}/100, null rejection rate {rate:.3f})")
    assert accepted >= 80
    assert 0.07 <= rate <= 0.13


def test_criterion_6a_p_trend(default_study):
    p_small = default_study.row(100).p_mean
    p_large = default_study.row(10_000).p_mean
    ok = p_small > p_large
    print(f"ACCEPTANCE 6a p-value trend: {'PASS' if ok else 'FAIL'} "
          f"(mean p {p_small:.3f} at N=1e2 -> {p_large:.3f} at N=1e4)")
    assert p_small > p_large


def test_criterion_6b_composite_offset_above_null(default_study, control_study):
    row = default_study.row(10_000)
    ctrl = control_study.row(10_000)
    ok = row.comp_ks_lo > ctrl.comp_ks_hi
    print(f"ACCEPTANCE 6b composite offset above exact null: {'PASS' if ok else 'FAIL'} "
          f"(composite KS band [{row.comp_ks_lo:.5f}, {row.comp_ks_hi:.5f}] vs "
          f"control band [{ctrl.comp_ks_lo:.5f}, {ctrl.comp_ks_hi:.5f}] at N=1e4; "
          f"raw-normal mean {row.null_ks_mean:.5f})")
    assert row.comp_ks_lo > ctrl.comp_ks_hi


def test_criterion_6c_max_error(default_study):
    est = max_error_estimate(default_study, 10_000)
    ok = est < 0.05
    print(f"ACCEPTANCE 6c max error estimate: {'PASS' if ok else 'FAIL'} "
          f"({est:.5f} at N=1e4, limit 0.05)")
    assert est < 0.05


def test_criterion_7_transpose_duality():
    pairs = [("IN-LO-QL", "OUT-LO-QL"), ("IN-LO-QN", "OUT-LO-QN"),
             ("IN-SH-QL", "OUT-SH-QL"), ("IN-SH-QN", "OUT-SH-QN")]
    t0 = time.monotonic()
    for seed in range(100):
        n = int(5 + (seed * 13) % 26)
        g = random_strongly_connected(n, seed)
        fwd = {m.name: m.values for m in standard_measure_set(g)}
        rev = {m.name: m.values for m in standard_measure_set(g.transpose())}
        for in_name, out_name in pairs:
            assert np.array_equal(fwd[in_name], rev[out_name])
            assert np.array_equal(fwd[out_name], rev[in_name])
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 7 transpose duality: PASS (100 graphs, N<=30, {elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    g = make_tradelike(16, 77)
    edges = write_edges(tmp_path / "edges.csv", g)
    e_th = float(min(w for _, _, w in g.edge_list()))

    from ccnet.cli import main

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert main(["analyze", "--edges", str(edges), "--threshold", str(e_th),
                     "--seed", "5", "--replicates", "2500", "--out", str(out)]) == 0
    json_same = r1.read_bytes() == r2.read_bytes()

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    for out in (s1, s2):
        assert main(["simulate", "--sizes", "100,200", "--p-realizations", "2",
                     "--stat-realizations", "4", "--replicates", "2500",
                     "--seed", "3", "--out", str(out)]) == 0
    csv_same = (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    study_json_same = (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    doc_node = __import__("json").loads(r1.read_text())["nodes"][0]
    f1, f2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
    for out in (f1, f2):
        assert main(["ngfp", "--reports", str(r1), "--node", doc_node,
                     "--out", str(out)]) == 0
    svg_same = f1.read_bytes() == f2.read_bytes()

    c1, c2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
    for out in (c1, c2):
        assert main(["cdf", "--reports", str(r1), "--out", str(out)]) == 0
    cdf_same = c1.read_bytes() == c2.read_bytes()

    ok = json_same and csv_same and study_json_same and svg_same and cdf_same
    print(f"ACCEPTANCE 8 determinism: {'PASS' if ok else 'FAIL'} "
          f"(report JSON {json_same}, study CSV {csv_same}, study JSON {study_json_same}, "
          f"NGFP SVG {svg_same}, CDF SVG {cdf_same})")
    assert ok
