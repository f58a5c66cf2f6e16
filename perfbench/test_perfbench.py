"""Tests of the benchmark itself: generators, checks and the tracer.

    python3 -m pytest perfbench/test_perfbench.py

Every check must fail on a report corrupted where that check looks, so no
check passes trivially.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ccnet  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402

SEEDS = (0, 1, 7)


def _lscc_labels(s: inputs.Slice) -> tuple[str, ...]:
    idx = checks.largest_scc(np.where(s.weights >= s.threshold, s.weights, 0.0))
    return tuple(s.labels[i] for i in idx)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_strongly_connected(seed):
    slices, factors = inputs.trade_series(seed)
    assert [s.year for s in slices] == list(inputs.TRADE_YEARS)
    for s in slices:
        assert s.threshold == inputs.TRADE_BASE_THRESHOLD * factors[s.year]
        assert _lscc_labels(s) == s.core
        assert len(s.core) == inputs.TRADE_CORE < len(s.labels)
    for s in inputs.migration_slices(seed):
        assert np.array_equal(s.weights, np.round(s.weights))
        assert _lscc_labels(s) == s.core == s.labels
    q = inputs.quoted_slice()
    assert _lscc_labels(q) == q.labels


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_deterministic(seed):
    (a, fa), (b, fb) = inputs.trade_series(seed), inputs.trade_series(seed)
    assert fa == fb
    assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a, b))
    assert all(np.array_equal(x.weights, y.weights) for x, y in
               zip(inputs.migration_slices(seed), inputs.migration_slices(seed)))
    other = inputs.trade_series(seed + 100)[0]
    assert not np.array_equal(a[0].weights, other[0].weights)
    assert not np.array_equal(inputs.migration_slices(seed)[0].weights,
                              inputs.migration_slices(seed + 100)[0].weights)


@pytest.fixture(scope="module")
def trade_case(tmp_path_factory):
    s = inputs.trade_series(0)[0][0]
    path = str(tmp_path_factory.mktemp("trade") / "edges.csv")
    inputs.write_edges(path, s)
    report = ccnet.analyze(path, s.threshold, replicates=2_500, seed=0)
    return path, s.threshold, ccnet.report_to_json(report)


@pytest.fixture(scope="module")
def migration_case(tmp_path_factory):
    s = inputs.migration_slices(0)[0]
    path = str(tmp_path_factory.mktemp("migration") / "edges.csv")
    inputs.write_edges(path, s, integer=True)
    report = ccnet.analyze(path, s.threshold, scheme="rtd", measure_set="alt",
                           replicates=2_500, seed=0)
    return path, s.threshold, ccnet.report_to_json(report)


def _run(case, text=None, flows="sample"):
    path, threshold, good = case
    c = checks.Checks()
    checks.check_report(c, good if text is None else text, path, threshold, flows,
                        np.random.default_rng(0))
    return c


def _raw(doc, name):
    return next(m for m in doc["raw_measures"] if m["name"] == name)


def _gen(doc, name):
    return next(g for g in doc["generations"] if g["name"] == name)


def _scale(values, factor):
    return [v * factor for v in values]


def _swap_nodes(doc):
    doc["nodes"][0], doc["nodes"][1] = doc["nodes"][1], doc["nodes"][0]


def _swap_leaf_values(doc):
    v = _gen(doc, "IN-SH-QN")["values"]
    lo, hi = int(np.argmin(v)), int(np.argmax(v))
    v[lo], v[hi] = v[hi], v[lo]


def _shift_p(doc):
    r = doc["gof"][0]
    r["p_value"] = r["p_value"] - 0.2 if r["p_value"] > 0.5 else r["p_value"] + 0.2


def _flip_decision(doc):
    r = doc["gof"][0]
    r["decision"] = "reject" if r["decision"] == "accept" else "accept"


CORRUPTIONS = {
    "maxflow": lambda d: _raw(d, "IN-LO-QN").update(
        values=_scale(_raw(d, "IN-LO-QN")["values"], 1.0 + 1e-6)),
    "lscc": _swap_nodes,
    "threshold": lambda d: d["meta"].update(threshold=d["meta"]["threshold"] * 2.0),
    "degree": lambda d: _raw(d, "OUT-SH-QL")["values"].__setitem__(
        0, _raw(d, "OUT-SH-QL")["values"][0] + 1.0),
    "strength": lambda d: _raw(d, "IN-SH-QN").update(
        values=_scale(_raw(d, "IN-SH-QN")["values"], 1.0 + 1e-9)),
    "farness": lambda d: _raw(d, "OUT-LO-QL")["values"].__setitem__(
        3, _raw(d, "OUT-LO-QL")["values"][3] + 0.01),
    "summary": lambda d: d["summary"].update(diameter=d["summary"]["diameter"] + 1),
    "rank": _swap_leaf_values,
    "scheme": lambda d: _gen(d, "IN").update(values=_scale(_gen(d, "IN")["values"], 1.01)),
    "heights": lambda d: _gen(d, "OUT-SH-QN").update(
        display_heights=_scale(_gen(d, "OUT-SH-QN")["display_heights"], 1.01)),
    "ks-stat": lambda d: d["gof"][2].update(statistic=d["gof"][2]["statistic"] + 1e-6),
    "ks-p": _shift_p,
    "ks-decision": _flip_decision,
    "ad": lambda d: d["gof"][-1].update(statistic=d["gof"][-1]["statistic"] * 1.01),
}


def _corrupt(text, fn):
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc, indent=2) + "\n"


def test_checks_pass_on_true_reports(trade_case, migration_case):
    for c in (_run(trade_case), _run(migration_case, flows="all")):
        assert c.failures == [] and c.ran > 50


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_each_report_check_fails_on_a_corrupted_report(name, trade_case):
    c = _run(trade_case, _corrupt(trade_case[2], CORRUPTIONS[name]))
    assert c.failed(name), c.failures


def test_exact_flow_and_eigvec_checks_fail_on_corrupted_reports(migration_case):
    doc = json.loads(migration_case[2])
    flow = "OUT-LO-QN" if doc["replaced_measure"] == "IN-LO-QN" else "IN-LO-QN"
    c = _run(migration_case, _corrupt(migration_case[2], lambda d: _raw(d, flow).update(
        values=_scale(_raw(d, flow)["values"], 1.0 + 1e-12))), flows="all")
    assert c.failed("maxflow"), c.failures
    c = _run(migration_case, _corrupt(migration_case[2], lambda d: _raw(d, "EC").update(
        values=_scale(_raw(d, "EC")["values"], 1.0 + 1e-6))), flows="all")
    assert c.failed("eigvec"), c.failures


def test_round_trip_check_fails_on_reformatted_report(trade_case):
    c = _run(trade_case, json.dumps(json.loads(trade_case[2]), indent=1) + "\n")
    assert c.failed("round-trip")


def test_svg_check():
    c = checks.Checks()
    svg = ccnet.render_cdf_overlay(np.linspace(-2.0, 2.0, 50))
    checks.check_svg(c, svg, "cdf")
    assert c.failures == []
    checks.check_svg(c, svg[: len(svg) // 2], "cdf")
    assert c.failed("svg")


@pytest.fixture(scope="module")
def quoted_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("quoted") / "edges.csv")
    inputs.write_edges(path, inputs.quoted_slice())
    return path


def test_quoted_slice_check(quoted_path):
    said = f"ccnet: error: {quoted_path}: line 2: expected 3 columns, got 4"
    c = checks.Checks()
    assert checks.check_quoted(c, quoted_path, said) is False
    assert c.failures == []
    for outcome in (None, "ccnet: error: no factor recorded for year 2001"):
        c = checks.Checks()
        checks.check_quoted(c, quoted_path, outcome)
        assert c.failed("edge-list-error")


def _csv_edges(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [(s, t, float(w)) for s, t, w in list(csv.reader(fh))[1:]]


def test_quoted_slice_passes_the_report_checks_once_it_parses(quoted_path, monkeypatch):
    monkeypatch.setattr(ccnet.io, "parse_edge_list", _csv_edges)
    q = inputs.quoted_slice()
    text = ccnet.report_to_json(ccnet.analyze(quoted_path, q.threshold, replicates=2_500))
    c = checks.Checks()
    checks.check_report(c, text, quoted_path, q.threshold, "sample",
                        np.random.default_rng(0))
    assert c.failures == [] and json.loads(text)["nodes"] == list(q.labels)


@pytest.fixture(scope="module")
def study_text():
    study = ccnet.gof_vs_n_study((100,), p_realizations=2, stat_realizations=8,
                                 replicates=2_500, seed=3)
    return ccnet.study_to_json(study)


def _study_checks(text):
    c = checks.Checks()
    checks.check_study(c, text)
    return c


def test_study_checks(study_text, monkeypatch):
    assert _study_checks(study_text).failures == []
    for name, key, shift in (("null-ks", "null_ks_mean", 0.1), ("p-mean", "p_mean", 0.3)):
        doc = json.loads(study_text)
        row = doc["rows"][0]
        row[key] += shift
        row[key.replace("mean", "hi")] += shift
        c = _study_checks(json.dumps(doc, indent=2) + "\n")
        assert c.failed(name), c.failures
    real = ccnet.composite_scores
    monkeypatch.setattr(ccnet, "composite_scores", lambda ms: real(ms) * 1.001)
    assert _study_checks(study_text).failed("p-moments")
    monkeypatch.undo()
    spec = ccnet.ArbMeasureSpec(pareto_alpha=2.5)
    real_sample = ccnet.sample_arb
    monkeypatch.setattr(ccnet, "sample_arb", lambda _spec, n, ss: real_sample(spec, n, ss))
    assert _study_checks(study_text).failed("p-draws")


def test_kstwo_moments_match_scipy():
    from scipy import stats

    for n in (100, 1_000):
        mean, sd = checks.kstwo_moments(n)
        assert mean == pytest.approx(stats.kstwo(n).mean(), rel=1e-6)
        assert sd == pytest.approx(stats.kstwo(n).std(), rel=1e-5)


def test_tracing_keeps_reports_and_accounts_for_wall_time(trade_case):
    path, threshold, good = trade_case
    before = (ccnet.measures.maxflow_measure, ccnet.graph.hop_distance_matrix, ccnet.analyze)
    tracer = Tracer()
    tracer.install()
    try:
        assert ccnet.measures.maxflow_measure is not before[0]
        text = tracer.round(lambda: ccnet.report_to_json(
            ccnet.analyze(path, threshold, replicates=2_500, seed=0)))
    finally:
        tracer.uninstall()
    assert (ccnet.measures.maxflow_measure, ccnet.graph.hop_distance_matrix,
            ccnet.analyze) == before
    assert text == good
    m = tracer.metrics()
    assert (m["measures.maxflow_calls"], m["graph.hop_calls"], m["gof.ks_p_calls"]) == (3, 4, 15)
    n = len(json.loads(good)["nodes"])
    assert m["measures.maxflow_pair_us"] == pytest.approx(
        m["measures.maxflow_s"] / (3 * n * (n - 1)) * 1e6)
    units = metric_units()
    layers = sum(v for k, v in m.items() if units[k] == "s" and k != "trace.round_s")
    assert layers == pytest.approx(m["trace.round_s"], rel=1e-9)
