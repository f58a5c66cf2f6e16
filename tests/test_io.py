from dataclasses import replace

import numpy as np
import pytest

import ccnet.io
from ccnet import (
    EdgeListError,
    GraphError,
    MeasureVector,
    adjust_threshold,
    analyze,
    factor_for_year,
    load_factors,
    parse_edge_list,
    report_from_json,
    report_to_json,
)
from ccnet.gof import _ks_null
from helpers import check_golden, make_tradelike


def _write_edges(path, g):
    lines = ["source,target,weight"]
    lines += [f"{s},{t},{w!r}" for s, t, w in g.edge_list()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def edges_csv(tmp_path_factory):
    g = make_tradelike(20, 3)
    return _write_edges(tmp_path_factory.mktemp("data") / "edges.csv", g), g


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
    ], ids=["self-loop", "zero-weight", "inf-weight", "empty-label", "duplicate"])
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
        from ccnet import DEFAULT_TRADE_THRESHOLD

        assert adjust_threshold(DEFAULT_TRADE_THRESHOLD, 1.0) == 1e7
        assert adjust_threshold(2000.0, 0.5) == 1000.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            adjust_threshold(-1.0, 1.0)
        with pytest.raises(ValueError):
            adjust_threshold(1.0, 0.0)

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

    @pytest.mark.parametrize("scheme, measure_set", [("drt", "sf"), ("rtd", "alt")])
    def test_one_null_table_ranks_every_ks_test(self, edges_csv, monkeypatch,
                                                 scheme, measure_set):
        tables = []

        def counted(n, replicates, seed):
            tables.append((n, replicates))
            return _ks_null(n, replicates, seed)

        monkeypatch.setattr(ccnet.io, "_ks_null", counted)
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        report = analyze(path, e_th, scheme=scheme, measure_set=measure_set,
                         seed=4, replicates=2500)
        n = len(report.labels)
        assert tables == [(n, 2500)]
        # each p counts the statistics >= the node's own, in the table
        # rebuilt from the analysis seed
        null = _ks_null(n, 2500, np.random.SeedSequence(entropy=4, spawn_key=(0,)))
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
        null = _ks_null(n, 2500, np.random.SeedSequence(entropy=6, spawn_key=(0,)))
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

        monkeypatch.setattr(ccnet.io, "standardize", counted)
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        analyze(path, e_th, scheme="rtd", measure_set="alt", seed=0, replicates=2500)
        assert names == [*ccnet.STANDARD_MEASURE_NAMES, "EC"]

    def test_round_trip_byte_identical(self, edges_csv):
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        text = report_to_json(analyze(path, e_th, seed=1, replicates=2500))
        assert report_to_json(report_from_json(text)) == text

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

    def test_substrate_below_test_minimum_fails_first(self, tmp_path, monkeypatch):
        # a 6-node LSCC cannot take the 8-value Anderson-Darling test; the
        # error comes before any measure or Monte-Carlo work and names the size
        def never(*args, **kwargs):
            raise AssertionError("work done on a substrate too small to test")

        monkeypatch.setattr(ccnet.io, "summarize", never)
        monkeypatch.setattr(ccnet.io, "standard_measure_set", never)
        monkeypatch.setattr(ccnet.io, "_ks_null", never)
        g = make_tradelike(6, 0)
        path = _write_edges(tmp_path / "e.csv", g)
        e_th = float(min(w for _, _, w in g.edge_list()))
        with pytest.raises(GraphError, match="has 6 nodes; .* at least 8"):
            analyze(path, e_th, replicates=2500)

    def test_unknown_measure_set_rejected(self, edges_csv):
        path, _ = edges_csv
        with pytest.raises(ValueError):
            analyze(path, 1.0, measure_set="other", replicates=2500)

    def test_injected_lognormal_measures_accept(self, edges_csv):
        # seeded log-normal G1 vectors through the full pipeline: the
        # composite should pass the standard-normal test in >= 80% of seeds
        path, g = edges_csv
        e_th = float(min(w for _, _, w in g.edge_list()))
        from ccnet import STANDARD_MEASURE_NAMES

        accepted = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            override = [MeasureVector(name, rng.lognormal(0.0, 1.0, 20))
                        for name in STANDARD_MEASURE_NAMES]
            report = analyze(path, e_th, seed=seed, replicates=2500,
                             g1_override=override)
            composite_gof = report.gof[0]
            assert composite_gof.test_name == "ks-monte-carlo:COMPOSITE"
            accepted += composite_gof.decision == "accept"
        assert accepted >= 24

    def test_constant_measures_all_named_before_any_draw(self, tmp_path, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew the KS null table before checking the measures")

        monkeypatch.setattr(ccnet.io, "_ks_null", no_draw)
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

    def test_override_length_checked(self, edges_csv):
        path, _ = edges_csv
        bad = [MeasureVector(n, np.arange(7, dtype=float))
               for n in ("IN-LO-QL",)]
        with pytest.raises(ValueError):
            analyze(path, 1.0, replicates=2500, g1_override=bad)
