import numpy as np
import pytest

import ccnet.simulate
from ccnet import (
    ArbMeasureSpec,
    composite_scores,
    gof_vs_n_study,
    ks_statistic,
    max_error_estimate,
    sample_arb,
    sample_standard_normal_set,
    study_from_json,
    study_to_csv,
    study_to_json,
)
from ccnet.gof import _ks_null


class TestSampleArb:
    def test_five_named_measures(self):
        ms = sample_arb(ArbMeasureSpec(), 50, seed=0)
        assert [m.name for m in ms] == ["uniform", "normal", "log-normal",
                                        "exponential", "pareto"]
        assert all(m.values.shape == (50,) for m in ms)
        assert all(m.bigger_is_better for m in ms)

    def test_uniform_component_bounds(self):
        ms = sample_arb(ArbMeasureSpec(), 5000, seed=1)
        u = ms[0].values
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_pareto_support_and_mean(self):
        ms = sample_arb(ArbMeasureSpec(), 10_000, seed=2)
        p = ms[4].values
        assert p.min() >= 100.0
        # mean alpha*xmin/(alpha-1) = 150
        assert p.mean() == pytest.approx(150.0, rel=0.05)

    def test_exponential_mean_reading(self):
        ms = sample_arb(ArbMeasureSpec(), 10_000, seed=3)
        assert ms[3].values.mean() == pytest.approx(1e-3, rel=0.05)

    def test_normal_component_location(self):
        ms = sample_arb(ArbMeasureSpec(), 10_000, seed=4)
        assert ms[1].values.mean() == pytest.approx(1e5, rel=0.01)

    def test_deterministic_per_seed(self):
        a = sample_arb(ArbMeasureSpec(), 100, seed=7)
        b = sample_arb(ArbMeasureSpec(), 100, seed=7)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.values, mb.values)

    def test_size_minimum(self):
        with pytest.raises(ValueError):
            sample_arb(ArbMeasureSpec(), 5, seed=0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArbMeasureSpec(uniform_low=1.0, uniform_high=0.0)
        with pytest.raises(ValueError):
            ArbMeasureSpec(pareto_alpha=-1.0)


class TestCompositeScores:
    def test_moment_contract_for_any_size(self):
        for n in (20, 100, 400):
            scores = composite_scores(sample_arb(ArbMeasureSpec(), n, seed=5))
            assert abs(float(scores.mean())) < 1e-9
            assert float(scores.std(ddof=1)) == pytest.approx(1.0, abs=1e-9)


class TestStudy:
    def test_determinism_bit_identical(self):
        kwargs = dict(sizes=(100, 200), p_realizations=3, stat_realizations=6,
                      replicates=2500, seed=11)
        a = gof_vs_n_study(**kwargs)
        b = gof_vs_n_study(**kwargs)
        assert study_to_json(a) == study_to_json(b)
        assert study_to_csv(a) == study_to_csv(b)

    def test_one_null_table_per_size(self, monkeypatch):
        tables = []

        def counted(n, replicates, seed):
            tables.append(n)
            return _ks_null(n, replicates, seed)

        monkeypatch.setattr(ccnet.simulate, "_ks_null", counted)
        study = gof_vs_n_study(sizes=(50, 100), p_realizations=3, stat_realizations=4,
                               replicates=2500, seed=12)
        assert tables == [50, 100]
        # each size's p-values rank the composites against the table rebuilt
        # from the key (size,)
        for row in study.rows:
            n = row.size
            null = _ks_null(n, 2500, np.random.SeedSequence(entropy=12, spawn_key=(n,)))
            ps = []
            for r in range(3):
                scores = composite_scores(sample_arb(
                    ArbMeasureSpec(), n, np.random.SeedSequence(entropy=12, spawn_key=(n, r, 0))))
                ps.append(np.count_nonzero(null >= ks_statistic(scores)) / 2500)
            assert row.p_mean == float(np.mean(ps))

    def test_control_study_flat_in_n(self):
        # composites carry exact sample moments (mean 0, std 1), so their KS
        # statistic sits below raw-normal draws and the Monte-Carlo p runs
        # high; what the control run must show is a curve flat in N
        study = gof_vs_n_study(sizes=(100, 400), p_realizations=10,
                               stat_realizations=20, replicates=2500, seed=0,
                               sampler=sample_standard_normal_set)
        lo, hi = study.rows
        assert lo.p_lo <= hi.p_mean and hi.p_lo <= lo.p_mean  # bands overlap
        for row in study.rows:
            assert row.p_mean > 0.5  # moment-matching shrinkage direction
            assert row.comp_ks_mean < row.null_ks_mean

    def test_control_error_estimate_shrinks(self):
        study = gof_vs_n_study(sizes=(100, 1000), p_realizations=2,
                               stat_realizations=20, replicates=2500, seed=1,
                               sampler=sample_standard_normal_set)
        assert max_error_estimate(study, 1000) < max_error_estimate(study, 100)

    def test_band_contains_mean_and_estimate_definition(self):
        study = gof_vs_n_study(sizes=(100,), p_realizations=3, stat_realizations=8,
                               replicates=2500, seed=2)
        row = study.row(100)
        assert row.comp_ks_lo <= row.comp_ks_mean <= row.comp_ks_hi
        assert max_error_estimate(study, 100) == row.comp_ks_hi
        assert max_error_estimate(study, 100) >= row.comp_ks_mean

    def test_missing_size_rejected(self):
        study = gof_vs_n_study(sizes=(100,), p_realizations=2, stat_realizations=4,
                               replicates=2500, seed=3)
        with pytest.raises(KeyError):
            max_error_estimate(study, 999)

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            gof_vs_n_study(sizes=(200, 100), p_realizations=2, stat_realizations=4,
                           replicates=2500, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kwargs, name", [
        ({"sizes": ()}, "sizes"),
        ({"p_realizations": 1}, "p_realizations"),
        ({"stat_realizations": 1}, "stat_realizations"),
        ({"p_realizations": 0, "stat_realizations": 0}, "p_realizations"),
    ], ids=["no-sizes", "one-p", "one-stat", "zero-both"])
    def test_degenerate_arguments_rejected_before_any_draw(self, monkeypatch, kwargs, name):
        def no_draw(*args):
            raise AssertionError("drew a null table before checking the arguments")

        monkeypatch.setattr(ccnet.simulate, "_ks_null", no_draw)
        args = {"sizes": (100,), "p_realizations": 2, "stat_realizations": 4,
                "replicates": 2500, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must"):
            gof_vs_n_study(**args)

    def test_serialization_round_trip(self):
        study = gof_vs_n_study(sizes=(50, 100), p_realizations=2, stat_realizations=4,
                               replicates=2500, seed=4)
        text = study_to_json(study)
        again = study_from_json(text)
        assert study_to_json(again) == text
        csv = study_to_csv(study)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("size,p_mean")
        assert len(lines) == 3
        # every cell must parse back as a plain number
        for line in lines[1:]:
            cells = line.split(",")
            assert int(cells[0]) in (50, 100)
            parsed = [float(c) for c in cells[1:]]
            assert all(np.isfinite(v) for v in parsed)
