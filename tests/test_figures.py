import re

import numpy as np
import pytest

from ccnet import analyze, ks_statistic, render_cdf_overlay, render_ngfp
from helpers import check_golden, make_tradelike, write_edges


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = []
    base = tmp_path_factory.mktemp("figdata")
    for k, year in enumerate((1980, 1990)):
        g = make_tradelike(16, 40 + k)
        path = write_edges(base / f"edges{year}.csv", g)
        e_th = float(min(w for _, _, w in g.edge_list()))
        out.append(analyze(path, e_th, seed=13, replicates=2500, year=year))
    return out


class TestNgfp:
    def test_deterministic(self, reports):
        node = reports[0].labels[0]
        assert render_ngfp(reports, node) == render_ngfp(reports, node)

    def test_golden(self, reports):
        check_golden("ngfp.svg", render_ngfp(reports, reports[0].labels[0]))

    def test_column_nets_agree_across_generations(self, reports):
        # net (positive minus negative) stack of each generation column equals
        # the root value: the sibling-sum identity in figure space
        report = reports[0]
        node_idx = 0
        for gen in report.generations.generations():
            net = sum(float(s.display_heights[node_idx])
                      for s in report.generations.by_generation(gen))
            assert net == pytest.approx(float(report.generations.root().values[node_idx]),
                                        abs=1e-9)

    def test_mixed_signs_render_both_stacks(self, reports):
        report = reports[0]
        # find a node whose G1 display heights have both signs
        g1 = report.generations.by_generation(1)
        heights = np.array([s.display_heights for s in g1])
        mixed = [i for i in range(heights.shape[1])
                 if (heights[:, i] > 0).any() and (heights[:, i] < 0).any()]
        assert mixed, "fixture should produce mixed-sign nodes"
        svg = render_ngfp([report], report.labels[mixed[0]])
        assert svg.count("<rect") > 8  # background + segments above and below

    def test_missing_node_rejected(self, reports):
        with pytest.raises(ValueError, match="missing"):
            render_ngfp(reports, "no-such-node")

    def test_no_report_rejected(self):
        with pytest.raises(ValueError, match="^need at least one report$"):
            render_ngfp([], "a")

    def test_scheme_mismatch_rejected(self, reports):
        import dataclasses

        other = dataclasses.replace(reports[1], scheme_id="tdr")
        with pytest.raises(ValueError, match="schemes"):
            render_ngfp([reports[0], other], reports[0].labels[0])

    def test_labels_and_sources_are_escaped(self, reports):
        import dataclasses

        node, source = 'A&B <"x">', 'data & "co" <1990>'
        report = dataclasses.replace(reports[0], source=source, year=None,
                                     labels=(node,) + reports[0].labels[1:])
        svg = render_ngfp([report], node)
        esc_node = "A&amp;B &lt;&quot;x&quot;&gt;"
        esc_source = "data &amp; &quot;co&quot; &lt;1990&gt;"
        assert f">generation fingerprint: {esc_node}</text>" in svg
        assert f'text-anchor="middle">{esc_source}</text>' in svg
        # one tooltip per bar segment; the background is the one rect without
        assert svg.count(f"<title>{esc_source} ") == svg.count("<rect") - 1
        assert node not in svg and source not in svg
        assert "<x" not in svg and "<1990" not in svg


class TestCdfOverlay:
    def test_annotation_matches_ks_statistic(self):
        scores = np.random.default_rng(0).standard_normal(300)
        svg = render_cdf_overlay(scores)
        assert f"D = {ks_statistic(scores):.4f}" in svg

    def test_shifted_scores_show_large_gap(self):
        scores = np.random.default_rng(1).standard_normal(200) + 1.0
        d = ks_statistic(scores)
        assert d > 0.3
        assert f"D = {d:.4f}" in render_cdf_overlay(scores)

    def test_golden(self, reports):
        pooled = np.concatenate([r.generations.root().values for r in reports])
        check_golden("cdf.svg", render_cdf_overlay(pooled))

    def test_deterministic(self):
        scores = np.random.default_rng(2).standard_normal(50)
        assert render_cdf_overlay(scores) == render_cdf_overlay(scores)

    def test_x_ticks_bounded_for_a_wide_span(self):
        # one tick per integer would write 100,000 ticks here
        scores = np.append(np.random.default_rng(3).standard_normal(50), 1e5)
        svg = render_cdf_overlay(scores)
        labels = re.findall(r'<text x="[-\d.]+" y="354\.00" [^>]*>(-?\d+)</text>', svg)
        assert 2 <= len(labels) <= 13
        assert int(labels[-1]) <= 1e5
        assert len(svg.encode("utf-8")) < 10_000

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_cdf_overlay(np.array([]))

    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (-1e308, 1e308)])
    def test_span_beyond_the_float_range_rejected(self, lo, hi):
        scores = np.append(np.random.default_rng(4).standard_normal(10), [lo, hi])
        with pytest.raises(ValueError, match="span more than the float range"):
            render_cdf_overlay(scores)
        # half the span is finite, so the axis scales
        assert render_cdf_overlay(np.append(scores[:10], hi)).startswith("<svg")
