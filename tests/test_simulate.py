import importlib
import json
import threading

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
from ccnet.gof import ks_null_table


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"normal_sigma": 0.0}, "sigma parameters must be positive"),
        ({"lognormal_sigma": -1.0}, "sigma parameters must be positive"),
        ({"exponential_mu": 0.0}, "exponential parameter must be positive"),
    ])
    def test_each_bad_parameter_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ArbMeasureSpec(**kwargs)


def _seeds(kind):
    """Two equal, unspawned seeds of one kind: one for the call, one for the oracle."""
    if kind == "int":
        return 11, np.random.SeedSequence(11)
    return (np.random.SeedSequence(entropy=11, spawn_key=(300, 2, 0)),
            np.random.SeedSequence(entropy=11, spawn_key=(300, 2, 0)))


@pytest.mark.parametrize("kind", ["int", "seed-sequence"])
class TestSeededStreams:
    """Both samplers read the streams of an explicit ``SeedSequence.spawn``;
    ``test_table_matches_per_row_reference`` checks the KS tables' streams."""

    def test_samplers_draw_spawned_streams(self, kind):
        spec, n = ArbMeasureSpec(), 40
        seed, oracle = _seeds(kind)
        rngs = [np.random.default_rng(child) for child in oracle.spawn(5)]
        expected = [rngs[0].uniform(spec.uniform_low, spec.uniform_high, n),
                    rngs[1].normal(spec.normal_mean, spec.normal_sigma, n),
                    rngs[2].lognormal(spec.lognormal_mu, spec.lognormal_sigma, n),
                    rngs[3].exponential(spec.exponential_mu, n),
                    (rngs[4].pareto(spec.pareto_alpha, n) + 1.0) * spec.pareto_xmin]
        for m, values in zip(sample_arb(spec, n, seed), expected, strict=True):
            assert np.array_equal(m.values, values)
        seed, oracle = _seeds(kind)
        expected = [np.random.default_rng(child).standard_normal(n) for child in oracle.spawn(5)]
        for m, values in zip(sample_standard_normal_set(n, seed), expected, strict=True):
            assert np.array_equal(m.values, values)


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
            return ks_null_table(n, replicates, seed)

        monkeypatch.setattr(ccnet.simulate, "ks_null_table", counted)
        study = gof_vs_n_study(sizes=(50, 100), p_realizations=3, stat_realizations=4,
                               replicates=2500, seed=12)
        assert tables == [50, 100]
        # each size's p-values rank the composites against the table rebuilt
        # from the key (size,)
        for row in study.rows:
            n = row.size
            null = ks_null_table(n, 2500, np.random.SeedSequence(entropy=12, spawn_key=(n,)))
            ps = []
            for r in range(3):
                scores = composite_scores(sample_arb(
                    ArbMeasureSpec(), n, np.random.SeedSequence(entropy=12, spawn_key=(n, r, 0))))
                ps.append(np.count_nonzero(null >= ks_statistic(scores)) / 2500)
            assert row.p_mean == float(np.mean(ps))

    def test_table_error_is_raised_and_no_thread_outlives_the_call(self, monkeypatch):
        boom = RuntimeError("table failed")

        def failing(n, replicates, seed):
            raise boom

        monkeypatch.setattr(ccnet.simulate, "ks_null_table", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            gof_vs_n_study(sizes=(50, 100), p_realizations=2, stat_realizations=3,
                           replicates=2500, seed=5)
        assert caught.value is boom
        assert threading.active_count() == before

    def test_rejected_size_fails_before_its_table_is_requested(self, monkeypatch):
        tables = []

        def counted(n, replicates, seed):
            tables.append(n)
            return ks_null_table(n, replicates, seed)

        def sampler(n, ss):
            if n == 100:
                raise ValueError("size rejected")
            return sample_arb(ArbMeasureSpec(), n, ss)

        monkeypatch.setattr(ccnet.simulate, "ks_null_table", counted)
        with pytest.raises(ValueError, match="size rejected"):
            gof_vs_n_study(sizes=(50, 100), p_realizations=2, stat_realizations=3,
                           replicates=2500, seed=6, sampler=sampler)
        assert tables == [50]

    def test_tables_are_drawn_on_the_calling_thread_in_size_order(self, monkeypatch):
        calls = []

        def recorded(n, replicates, seed):
            calls.append((n, threading.get_ident()))
            return ks_null_table(n, replicates, seed)

        monkeypatch.setattr(ccnet.simulate, "ks_null_table", recorded)
        gof_vs_n_study(sizes=(20, 30, 40), p_realizations=2, stat_realizations=2,
                       replicates=2500, seed=3)
        assert calls == [(n, threading.get_ident()) for n in (20, 30, 40)]

    def test_equals_sequential_recipe(self):
        sizes, p_real, stat_real, reps, seed = (60, 700), 3, 5, 2500, 9
        rows = []
        for n in sizes:
            null = ks_null_table(n, reps, np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
            comp, ref, ps = [], [], []
            for r in range(stat_real):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, r, 0))
                comp.append(ks_statistic(composite_scores(sample_arb(ArbMeasureSpec(), n, ss))))
                ref.append(ks_statistic(np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(n, r, 2))).standard_normal(n)))
                if r < p_real:
                    ps.append(np.count_nonzero(null >= comp[-1]) / reps)
            row = {"size": n}
            for prefix, values in (("p", ps), ("comp_ks", comp), ("null_ks", ref)):
                v = np.array(values)
                mean, half = float(v.mean()), float(1.96 * v.std(ddof=1) / np.sqrt(v.size))
                row.update({f"{prefix}_mean": mean, f"{prefix}_lo": mean - half,
                            f"{prefix}_hi": mean + half})
            rows.append(row)
        expected = json.dumps({"p_realizations": p_real, "stat_realizations": stat_real,
                               "replicates": reps, "seed": seed, "rows": rows}, indent=2) + "\n"
        study = gof_vs_n_study(sizes=sizes, p_realizations=p_real,
                               stat_realizations=stat_real, replicates=reps, seed=seed)
        assert study_to_json(study) == expected

    def test_one_set_fit_per_composite(self, monkeypatch):
        # the package's ``standardize`` attribute is the function, not the module
        std = importlib.import_module("ccnet.standardize")
        _fit_lambdas = std._fit_lambdas
        fits = []

        def fit(logx):
            fits.append(logx.shape)
            return _fit_lambdas(logx)

        monkeypatch.setattr(std, "_fit_lambdas", fit)
        gof_vs_n_study(sizes=(20, 30), p_realizations=2, stat_realizations=3,
                       replicates=2500, seed=4)
        # three composites per size, each fitting its five measures in one pass
        assert fits == [(5, 20)] * 3 + [(5, 30)] * 3

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
    @pytest.mark.parametrize("kwargs, message", [
        ({"sizes": ()}, "sizes must"),
        ({"p_realizations": 1}, "p_realizations must"),
        ({"stat_realizations": 1}, "stat_realizations must"),
        ({"p_realizations": 0, "stat_realizations": 0}, "p_realizations must"),
        ({"sizes": (200, 100)}, "sizes must be strictly increasing"),
        ({"sizes": (5,)}, "need at least 10 samples"),
        ({"replicates": 100}, "need at least 2500 replicates, got 100"),
    ], ids=["no-sizes", "one-p", "one-stat", "zero-both", "decreasing-sizes",
            "size-below-sampler-floor", "too-few-replicates"])
    def test_degenerate_arguments_rejected_before_any_draw(self, monkeypatch, kwargs, message):
        def no_draw(*args):
            raise AssertionError("drew a null table before checking the arguments")

        monkeypatch.setattr(ccnet.simulate, "ks_null_table", no_draw)
        args = {"sizes": (100,), "p_realizations": 2, "stat_realizations": 4,
                "replicates": 2500, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}"):
            gof_vs_n_study(**args)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows.reverse(), "sizes must be strictly increasing"),
        (lambda rows: rows[0].update(p_lo=rows[0]["p_mean"] + 0.5),
         "confidence bands must contain their means"),
    ], ids=["decreasing-sizes", "band-misses-mean"])
    def test_bad_study_document_rejected(self, edit, message):
        study = gof_vs_n_study(sizes=(50, 100), p_realizations=2, stat_realizations=4,
                               replicates=2500, seed=4)
        doc = json.loads(study_to_json(study))
        edit(doc["rows"])
        with pytest.raises(ValueError, match=f"^{message}$"):
            study_from_json(json.dumps(doc))

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
