import numpy as np
import pytest

from ccnet import analyze, ks_statistic, render_cdf_overlay, render_ngfp
from helpers import check_golden, make_tradelike


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = []
    base = tmp_path_factory.mktemp("figdata")
    for k, year in enumerate((1980, 1990)):
        g = make_tradelike(16, 40 + k)
        path = base / f"edges{year}.csv"
        lines = ["source,target,weight"]
        lines += [f"{s},{t},{w!r}" for s, t, w in g.edge_list()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        e_th = float(min(w for _, _, w in g.edge_list()))
        out.append(analyze(str(path), e_th, seed=13, replicates=2500, year=year))
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

    def test_scheme_mismatch_rejected(self, reports):
        import dataclasses

        other = dataclasses.replace(reports[1], scheme_id="tdr")
        with pytest.raises(ValueError, match="schemes"):
            render_ngfp([reports[0], other], reports[0].labels[0])


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_cdf_overlay(np.array([]))
