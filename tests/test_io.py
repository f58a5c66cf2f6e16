import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import ccnet.io
from ccnet import (
    EdgeListError,
    GraphError,
    MeasureVector,
    SchemeError,
    adjust_threshold,
    analyze,
    builtin_scheme,
    factor_for_year,
    load_factors,
    parse_edge_list,
    report_from_json,
    report_to_json,
    scheme_to_dict,
)
from ccnet.gof import ks_null_table
from helpers import check_golden, make_tradelike, write_edges

# the drt scheme with one standard leaf renamed away
BAD_LEAF = builtin_scheme("drt").rename_leaf("IN-LO-QL", "X")


@pytest.fixture(scope="module")
def edges_csv(tmp_path_factory):
    g = make_tradelike(20, 3)
    return write_edges(tmp_path_factory.mktemp("data") / "edges.csv", g), g


class TestParseEdgeList:
    def test_single_edge(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,1.5\n")
        assert parse_edge_list(str(p)) == [("a", "b", 1.5)]

    def test_missing_header(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("src,dst,w\na,b,1.5\n")
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list(str(p))

    @pytest.mark.parametrize("row, reason", [
        ("a,a,1.0", "self-loop"),
        ("b,c,0", "non-positive weight"),
        ("b,c,inf", "weight inf"),
        (",c,1", "non-empty"),
        ("a,b,2", "duplicate"),
        ("a," + "x" * 131_073 + ",1", "field larger than field limit"),
    ], ids=["self-loop", "zero-weight", "inf-weight", "empty-label", "duplicate",
            "over-field-limit"])
    def test_self_loop_line_number(self, tmp_path, row, reason):
        p = tmp_path / "e.csv"
        p.write_text(f"source,target,weight\na,b,1\n\n{row}\n")
        with pytest.raises(EdgeListError, match=f"line 4: .*{reason}"):
            parse_edge_list(str(p))

    def test_zero_weight(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,0\n")
        with pytest.raises(EdgeListError, match="non-positive"):
            parse_edge_list(str(p))

    def test_non_numeric_weight(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,heavy\n")
        with pytest.raises(EdgeListError, match="non-numeric"):
            parse_edge_list(str(p))

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,1\na,b,2\n")
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list(str(p))

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b\n")
        with pytest.raises(EdgeListError, match="3 columns"):
            parse_edge_list(str(p))

    def test_quoted_labels(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text('source,target,weight\n"Korea, Rep.","Hong Kong SAR, China",2.5\n'
                     '"Hong Kong SAR, China", "Korea, Rep.",1\n', encoding="utf-8")
        assert parse_edge_list(str(p)) == [("Korea, Rep.", "Hong Kong SAR, China", 2.5),
                                           ("Hong Kong SAR, China", "Korea, Rep.", 1.0)]

    def test_quoted_labels_keep_line_numbers(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text('source,target,weight\n"a, b",c,1\n\n"c","a, b",1,2\n')
        with pytest.raises(EdgeListError, match="line 4: expected 3 columns, got 4"):
            parse_edge_list(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,1\n\nb,c,2\n")
        assert len(parse_edge_list(str(p))) == 2


class TestThresholdFactors:
    def test_adjust(self):
        assert adjust_threshold(1e7, 1.0) == 1e7
        assert adjust_threshold(2000.0, 0.5) == 1000.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            adjust_threshold(-1.0, 1.0)
        with pytest.raises(ValueError):
            adjust_threshold(1.0, 0.0)

    @pytest.mark.parametrize("base, factor, message", [
        (-1.0, 1.0, "threshold must be positive and finite, got -1.0"),
        (1.0, 0.0, "factor must be positive and finite, got 0.0"),
    ])
    def test_message_names_the_bad_input(self, base, factor, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            adjust_threshold(base, factor)

    @pytest.mark.parametrize("base, factor", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf")),
    ])
    def test_finite_required(self, base, factor):
        with pytest.raises(ValueError, match="finite"):
            adjust_threshold(base, factor)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_factor_file_non_finite_located(self, tmp_path, raw):
        p = tmp_path / "f.csv"
        p.write_text(f"year,factor\n1970,0.2\n1980,{raw}\n")
        with pytest.raises(EdgeListError, match=r"f\.csv: line 3: factor must be positive and"):
            load_factors(str(p))

    def test_factor_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("year,factor\n1970,0.20\n2010,1.0\n")
        factors = load_factors(str(p))
        assert factor_for_year(factors, 1970) == 0.20
        with pytest.raises(EdgeListError, match="1985"):
            factor_for_year(factors, 1985)

    def test_factor_file_header(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("y,f\n1970,0.2\n")
        with pytest.raises(EdgeListError):
            load_factors(str(p))

    def test_factor_file_duplicate_year(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("year,factor\n1990,1.0\n1990,2.0\n")
        with pytest.raises(EdgeListError, match=r"f\.csv: line 3: duplicate year 1990$"):
            load_factors(str(p))

    @pytest.mark.parametrize("row, message", [
        ("1991,2.0,3", "expected 2 columns"),
        ("1991.5,2.0", "bad year/factor pair"),
    ], ids=["three-columns", "non-integer-year"])
    def test_factor_file_bad_row_located(self, tmp_path, row, message):
        p = tmp_path / "f.csv"
        p.write_text(f"year,factor\n1990,1.0\n{row}\n")
        with pytest.raises(EdgeListError, match=rf"f\.csv: line 3: {message}$"):
            load_factors(str(p))


class TestAnalyze:
    def test_report_block_structure(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, seed=0, replicates=2500, year=1990)
        gens = report.generations
        assert [len(gens.by_generation(k)) for k in (1, 2, 3, 4)] == [8, 4, 2, 1]
        assert gens.root().name == "COMPOSITE"
        assert len(report.gof) == 16  # 15 KS reports + AD on the composite
        assert report.gof[0].test_name == "ks-monte-carlo:COMPOSITE"
        assert report.gof[-1].test_name == "anderson-darling:COMPOSITE"
        assert report.year == 1990
        assert report.summary.coverage == pytest.approx(1.0)

    def test_determinism_byte_identical(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        a = analyze(path, e_th, seed=5, replicates=2500)
        b = analyze(path, e_th, seed=5, replicates=2500)
        assert report_to_json(a) == report_to_json(b)

    def test_each_all_pairs_matrix_computed_once(self, edges_csv, monkeypatch):
        import ccnet.graph
        import ccnet.measures

        _flows = ccnet.measures._flows
        _hop_distances = ccnet.graph._hop_distances
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        # the default block holds every pair at this size; 2800 entries cut
        # the pairs into blocks of 7 with an uneven last block
        for block in (ccnet.measures._BLOCK, 2800):
            counts = {"hops": 0}
            pairs = []

            def hops(*args):
                counts["hops"] += 1
                return _hop_distances(*args)

            def flows(w, s, t):
                pairs.extend(zip(s.tolist(), t.tolist()))
                return _flows(w, s, t)

            monkeypatch.setattr(ccnet.measures, "_flows", flows)
            monkeypatch.setattr(ccnet.graph, "_hop_distances", hops)
            monkeypatch.setattr(ccnet.measures, "_BLOCK", block)
            n = len(analyze(path, e_th, seed=0, replicates=2500).labels)
            # every ordered pair solved exactly once, across all blocks
            assert sorted(pairs) == [(s, t) for s in range(n) for t in range(n) if s != t]
            assert counts == {"hops": 1}

    @pytest.mark.parametrize("measure_set, rows", [("sf", [8]), ("alt", [8, 1])])
    def test_one_set_fit_per_analysis(self, edges_csv, monkeypatch, measure_set, rows):
        # the package's ``standardize`` attribute is the function, not the module
        std = importlib.import_module("ccnet.standardize")
        _fit_lambdas = std._fit_lambdas
        fits = []

        def fit(logx):
            fits.append(logx.shape[0])
            return _fit_lambdas(logx)

        monkeypatch.setattr(std, "_fit_lambdas", fit)
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        analyze(path, e_th, measure_set=measure_set, seed=0, replicates=2500)
        # the G1 set in one lock-step fit, then eigenvector centrality alone
        assert fits == rows

    @pytest.mark.parametrize("scheme, measure_set", [("drt", "sf"), ("rtd", "alt")])
    def test_one_null_table_ranks_every_ks_test(self, edges_csv, monkeypatch,
                                                 scheme, measure_set):
        tables = []

        def counted(n, replicates, seed):
            tables.append((n, replicates))
            return ks_null_table(n, replicates, seed)

        monkeypatch.setattr(ccnet.io, "ks_null_table", counted)
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, scheme=scheme, measure_set=measure_set,
                         seed=4, replicates=2500)
        n = len(report.labels)
        assert tables == [(n, 2500)]
        # each p counts the statistics >= the node's own, in the table
        # rebuilt from the analysis seed
        null = ks_null_table(n, 2500, np.random.SeedSequence(entropy=4, spawn_key=(0,)))
        nodes = {node.name: node.values for node in report.generations.nodes}
        ks = [r for r in report.gof if r.test_name.startswith("ks-monte-carlo:")]
        assert len(ks) == len(nodes)
        for r in ks:
            observed = ccnet.ks_statistic(nodes[r.test_name.split(":", 1)[1]])
            assert r.statistic == observed
            assert r.p_value == np.count_nonzero(null >= observed) / 2500
            assert (r.replicates, r.seed) == (2500, 4)

    def test_alt_ranks_candidates_against_the_table(self, edges_csv):
        # the replaced measure is the one whose standardised values rank
        # lowest against the analysis table
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, measure_set="alt", seed=6, replicates=2500)
        n = len(report.labels)
        null = ks_null_table(n, 2500, np.random.SeedSequence(entropy=6, spawn_key=(0,)))
        raw = ccnet.standard_measure_set(ccnet.largest_scc(ccnet.threshold_graph(
            ccnet.build_graph(parse_edge_list(path)), e_th)))
        p = [np.count_nonzero(null >= ccnet.ks_statistic(ccnet.standardize(m).values))
             for m in raw]
        assert report.replaced_measure == raw[int(np.argmin(p))].name

    def test_alt_standardises_each_measure_once(self, edges_csv, monkeypatch):
        names = []

        def counted(measure):
            names.append(measure.name)
            return ccnet.standardize(measure)

        def counted_set(measures):
            names.extend(m.name for m in measures)
            return ccnet.standardize_set(measures)

        monkeypatch.setattr(ccnet.io, "standardize", counted)
        monkeypatch.setattr(ccnet.io, "standardize_set", counted_set)
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        analyze(path, e_th, scheme="rtd", measure_set="alt", seed=0, replicates=2500)
        assert names == [*ccnet.STANDARD_MEASURE_NAMES, "EC"]

    def test_round_trip_byte_identical(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        text = report_to_json(analyze(path, e_th, seed=1, replicates=2500))
        assert report_to_json(report_from_json(text)) == text

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "TypeError: list indices must be integers or slices, not str"),
        ('{"meta": {}}', "KeyError: 'source'"),
        ("null", "TypeError: 'NoneType' object is not subscriptable"),
    ], ids=["list", "empty-meta", "null"])
    def test_wrong_shape_is_not_a_report(self, text, message):
        with pytest.raises(ValueError, match=f"^not a ccnet report: {message}$"):
            report_from_json(text)

    def test_scheme_json_path_runs_as_the_builtin(self, edges_csv, tmp_path):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        scheme = tmp_path / "rtd.json"
        scheme.write_text(json.dumps(scheme_to_dict(builtin_scheme("rtd"))))
        custom = analyze(path, e_th, scheme=str(scheme), seed=1, replicates=2500)
        assert custom.scheme_id == str(scheme)
        builtin = analyze(path, e_th, scheme="rtd", seed=1, replicates=2500)
        assert report_to_json(replace(custom, scheme_id="rtd")) == report_to_json(builtin)

    def test_header_only_edge_list_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\n")
        with pytest.raises(GraphError, match="^empty graph has no components$"):
            analyze(str(p), 1.0, replicates=2500)

    def test_round_trip_keeps_the_generation_order(self, edges_csv):
        # one order in memory: a fresh report and its reloaded copy list the
        # generation scores alike, root generation first
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, seed=1, replicates=2500)
        names = [node.name for node in report.generations.nodes]
        loaded = report_from_json(report_to_json(report))
        assert [node.name for node in loaded.generations.nodes] == names
        assert names[:3] == ["COMPOSITE", "IN", "OUT"]

    def test_alt_set_replaces_lowest_p(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, measure_set="alt", seed=0, replicates=2500)
        assert report.replaced_measure is not None
        names = [m.name for m in report.raw_measures]
        assert "EC" in names
        assert report.replaced_measure not in names
        assert "EC" in [n.name for n in report.generations.by_generation(1)]

    def test_threshold_changes_substrate(self, edges_csv):
        path, g = edges_csv
        weights = sorted(w for _, _, w in g.edge_list())
        low = analyze(path, weights[0], seed=0, replicates=2500)
        higher = analyze(path, weights[len(weights) // 3], seed=0, replicates=2500)
        assert higher.summary.n_edges < low.summary.n_edges
        assert higher.summary.coverage < 1.0

    def test_lsctg_too_small_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("source,target,weight\na,b,1\nb,c,1\n")
        with pytest.raises(GraphError):
            analyze(str(p), 0.5, replicates=2500)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"replicates": 100}, ValueError, "need at least 2500 replicates, got 100"),
        ({"seed": -1}, ValueError, "non-negative"),
        ({"scheme": BAD_LEAF}, SchemeError, r"mismatch: missing \['X'\], unused \['IN-LO-QL'\]"),
        ({"scheme": BAD_LEAF, "measure_set": "alt"}, SchemeError, "mismatch: missing"),
        ({"e_th": 0.0}, GraphError, "threshold must be positive and finite, got 0.0"),
        ({"e_th": -1.0}, GraphError, "threshold must be positive and finite, got -1.0"),
        ({"e_th": math.nan}, GraphError, "threshold must be positive and finite, got nan"),
        ({"e_th": math.inf}, GraphError, "threshold must be positive and finite, got inf"),
    ], ids=["too-few-replicates", "negative-seed", "scheme-leaves-sf", "scheme-leaves-alt",
            "zero-threshold", "negative-threshold", "nan-threshold", "inf-threshold"])
    def test_bad_arguments_rejected_before_parsing(self, monkeypatch, kwargs, error, message):
        def no_parse(path):
            raise AssertionError("read the edge list before checking the arguments")

        monkeypatch.setattr(ccnet.io, "parse_edge_list", no_parse)
        with pytest.raises(error, match=message):
            analyze("edges.csv", **{"e_th": 1.0, "replicates": 2500, **kwargs})

    def test_substrate_below_test_minimum_fails_first(self, tmp_path, monkeypatch):
        # a 6-node LSCC cannot take the 8-value Anderson-Darling test; the
        # error comes before any measure or Monte-Carlo work and names the size
        def never(*args, **kwargs):
            raise AssertionError("work done on a substrate too small to test")

        monkeypatch.setattr(ccnet.io, "summarize", never)
        monkeypatch.setattr(ccnet.io, "standard_measure_set", never)
        monkeypatch.setattr(ccnet.io, "ks_null_table", never)
        g = make_tradelike(6, 0)
        path = write_edges(tmp_path / "e.csv", g)
        e_th = float(min(w for _, _, w in g.edge_list()))
        with pytest.raises(GraphError, match="has 6 nodes; .* at least 8"):
            analyze(path, e_th, replicates=2500)

    def test_unknown_measure_set_rejected(self, edges_csv):
        path, _ = edges_csv
        with pytest.raises(ValueError):
            analyze(path, 1.0, measure_set="other", replicates=2500)

    def test_injected_lognormal_measures_accept(self, edges_csv, monkeypatch):
        # seeded log-normal G1 vectors through the full pipeline: the
        # composite should pass the standard-normal test in >= 80% of seeds
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        from ccnet import STANDARD_MEASURE_NAMES

        accepted = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            monkeypatch.setattr(ccnet.io, "standard_measure_set", lambda lsctg: [
                MeasureVector(name, rng.lognormal(0.0, 1.0, lsctg.n))
                for name in STANDARD_MEASURE_NAMES])
            report = analyze(path, e_th, seed=seed, replicates=2500)
            composite_gof = report.gof[0]
            assert composite_gof.test_name == "ks-monte-carlo:COMPOSITE"
            accepted += composite_gof.decision == "accept"
        assert accepted >= 24

    def test_constant_measures_all_named_before_any_draw(self, tmp_path, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew the KS null table before checking the measures")

        monkeypatch.setattr(ccnet.io, "ks_null_table", no_draw)
        complete = [(f"v{i}", f"v{j}", 1.0) for i in range(8) for j in range(8) if i != j]
        ring = [(f"v{i}", f"v{(i + 1) % 8}", float(i + 1)) for i in range(8)]
        for edges, names in ((complete, ccnet.STANDARD_MEASURE_NAMES),
                             (ring, ("IN-LO-QL", "IN-SH-QL", "OUT-LO-QL", "OUT-SH-QL"))):
            path = tmp_path / "edges.csv"
            path.write_text("source,target,weight\n"
                            + "".join(f"{s},{t},{w!r}\n" for s, t, w in edges))
            with pytest.raises(GraphError, match="8-node") as err:
                analyze(str(path), 0.5, replicates=2500)
            assert str(err.value).split(": ")[1].split("; ")[0] == ", ".join(names)

    def test_non_degenerate_report_bytes_unchanged(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = replace(analyze(path, e_th, seed=0, replicates=2500), source="edges.csv")
        check_golden("report.json", report_to_json(report))
