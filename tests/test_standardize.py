import importlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccnet import (
    ArbMeasureSpec,
    DegenerateSampleError,
    InversionError,
    MeasureVector,
    StandardizedMeasure,
    TransformParams,
    WeightedDigraph,
    box_cox,
    box_cox_inverse,
    box_cox_loglik,
    fit_lambda,
    invert,
    sample_arb,
    skewness,
    standard_measure_set,
    standardize,
    standardize_set,
)
from helpers import (
    box_cox_loglik_oracle,
    box_cox_slopes_oracle,
    fit_lambda_oracle,
    make_tradelike,
    skewness_oracle,
    standardize_oracle,
)

# the package's ``standardize`` attribute is the function, not the module
std = importlib.import_module("ccnet.standardize")


def _raw_families(rng, n):
    return [
        rng.uniform(0.0, 1.0, n),
        rng.normal(1e5, 1e3, n),
        rng.lognormal(2.0, 2.0, n),
        rng.exponential(1e-3, n),
        (rng.pareto(3.0, n) + 1.0) * 100.0,
    ]


class TestBoxCox:
    def test_one_maps_to_zero_for_any_lambda(self):
        for lam in (-5.0, -1.0, 0.0, 0.5, 2.0, 5.0):
            assert box_cox(1.0, lam) == pytest.approx(0.0, abs=1e-15)

    def test_log_branch(self):
        assert box_cox(np.e, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_power_branch(self):
        assert box_cox(3.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_continuous_at_zero(self):
        x = np.array([0.5, 1.7, 9.0])
        for lam in (1e-8, -1e-8):
            assert np.allclose(box_cox(x, lam), np.log(x), atol=1e-6)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            box_cox(0.0, 1.0)
        with pytest.raises(ValueError):
            box_cox(np.array([1.0, -2.0]), 1.0)

    def test_inverse_round_trip(self):
        x = np.array([0.2, 1.0, 3.5, 80.0])
        for lam in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert np.allclose(box_cox_inverse(box_cox(x, lam), lam), x, rtol=1e-12)

    def test_inverse_domain_error(self):
        with pytest.raises(InversionError):
            box_cox_inverse(np.array([-3.0]), 0.5)  # 0.5*(-3)+1 <= 0


class TestLogLikelihood:
    def test_lognormal_prefers_log(self):
        rng = np.random.default_rng(1)
        xs = rng.lognormal(0.0, 1.0, 2000)
        xs = xs / xs.mean()
        assert box_cox_loglik(xs, 0.0) > box_cox_loglik(xs, 2.0)

    def test_direct_summation_regression(self):
        xs = np.array([0.5, 1.0, 1.5, 2.0, 1.0])
        lam = 0.7
        t = (xs**lam - 1.0) / lam
        expected = (lam - 1.0) * np.sum(np.log(xs)) \
            - 0.5 * xs.size * np.log(np.sum((t - t.mean()) ** 2) / xs.size)
        assert box_cox_loglik(xs, lam) == pytest.approx(expected, rel=1e-12)
        # duplicating an existing point changes N and the sums consistently
        xs2 = np.append(xs, 1.0)
        t2 = (xs2**lam - 1.0) / lam
        expected2 = (lam - 1.0) * np.sum(np.log(xs2)) \
            - 0.5 * xs2.size * np.log(np.sum((t2 - t2.mean()) ** 2) / xs2.size)
        assert box_cox_loglik(xs2, lam) == pytest.approx(expected2, rel=1e-12)

    def test_matches_scipy_boxcox_llf(self):
        # mean-one samples, the scale standardize fits the exponent on
        rng = np.random.default_rng(5)
        for xs in _raw_families(rng, 400):
            xs = xs / xs.mean()
            for lam in np.linspace(-5.0, 5.0, 41):
                ll = box_cox_loglik(xs, float(lam))
                if np.isfinite(ll):
                    assert ll == pytest.approx(scipy.stats.boxcox_llf(float(lam), xs), rel=1e-10)

    def test_raw_sample_matches_scipy_boxcox_llf(self):
        # far from one, expm1(lam ln x)/lam keeps almost none of the spread:
        # evaluated on the raw values this sample read -inf at -5 and -3.75
        # and -10519.5 at -4.5
        xs = np.random.default_rng(11).normal(1e5, 1e3, 400)
        for lam in (-5.0, -4.5, -3.75, 0.0, 1.8, 5.0):
            assert box_cox_loglik(xs, lam) == pytest.approx(scipy.stats.boxcox_llf(lam, xs),
                                                            rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 1e-12, -1e-12, 0.7, -2.0])
    def test_slopes_match_central_differences(self, lam):
        # l' and l'' of the fit, from the series at and near 0 and from
        # expm1 elsewhere, against differences of the likelihood itself
        rng = np.random.default_rng(4)
        h = 1e-3
        for xs in _raw_families(rng, 200):
            logx = np.log(xs / xs.mean())
            d1, d2 = std._slopes(logx[None], np.sum(logx)[None], np.array([lam]),
                                 np.empty((3, 1, xs.size)))
            ll = [box_cox_loglik(xs, lam + k * h) for k in (-1, 0, 1)]
            assert d1[0] == pytest.approx((ll[2] - ll[0]) / (2 * h), rel=1e-5, abs=1e-6)
            assert d2[0] == pytest.approx((ll[2] - 2 * ll[1] + ll[0]) / h**2, rel=1e-4)
            assert (d1[0], d2[0]) == box_cox_slopes_oracle(logx, lam)

    def test_optimizer_beats_coarse_grid(self):
        rng = np.random.default_rng(7)
        for xs in _raw_families(rng, 400):
            xs = xs / xs.mean()
            best = box_cox_loglik(xs, fit_lambda(xs))
            for lam in np.linspace(-5.0, 5.0, 41):
                assert best >= box_cox_loglik(xs, float(lam)) - 1e-9

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            box_cox_loglik(np.ones(10), 1.0)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(["lognormal", "normal", "pareto", "levels"]), st.integers(8, 2000),
           st.floats(-12.0, 0.5), st.integers(0, 2**32 - 1))
    def test_concave_on_mean_one_samples(self, family, n, log_sd, seed):
        # the fit's bracket rests on concavity in lam; the computed values
        # keep it up to rounding.  Each value is within about
        # 4u(|A| + |B| + n) of the exact one, A = (lam - 1) sum(ln x) and
        # B = the variance term: a few ulp in each term, and n/2 times a
        # variance correct to a few ulp.  A second difference weighs three
        # values by 1, 2 and 1.
        x = _draw_family(np.random.default_rng(seed), family, 10.0**log_sd, 0.0, n)
        assume(np.ptp(x) > 0.0)
        x = x / x.mean()
        lams = np.linspace(-5.0, 5.0, 201)
        ll = np.array([box_cox_loglik(x, float(lam)) for lam in lams])
        assert np.all(np.isfinite(ll))
        a = (lams - 1.0) * np.sum(np.log(x))
        err = 4.0 * (np.finfo(float).eps / 2) * (np.abs(a) + np.abs(ll - a) + n)
        allowance = 4.0 * np.maximum(np.maximum(err[:-2], err[1:-1]), err[2:])
        assert np.all(ll[2:] - 2.0 * ll[1:-1] + ll[:-2] <= allowance)


class TestFitLambda:
    def test_lognormal_recovers_log(self):
        rng = np.random.default_rng(0)
        xs = rng.lognormal(0.0, 1.0, 10_000)
        assert -0.1 <= fit_lambda(xs / xs.mean()) <= 0.1

    def test_shifted_normal_flat_likelihood(self):
        # near-symmetric tiny-CV sample: flat likelihood, wide legal bracket
        rng = np.random.default_rng(0)
        xs = rng.normal(1e5, 1e3, 10_000)
        xs = xs / xs.mean()
        lam = fit_lambda(xs)
        assert 0.2 <= lam <= 5.0
        assert lam == fit_lambda_oracle(xs / xs.mean())
        assert abs(skewness(xs)) < 0.1

    def test_exponential_cube_rootish(self):
        rng = np.random.default_rng(3)
        xs = rng.exponential(1.0, 5000)
        assert 0.2 <= fit_lambda(xs / xs.mean()) <= 0.45

    def test_unscaled_sample_matches_boxcox_normmax(self):
        # far from one the computed likelihood is noisy and not concave
        # (-2748.82 at -2.865, the peak a fit on the raw values found); the
        # fit on mean-one values finds scipy's maximiser
        xs = np.random.default_rng(11).normal(1e5, 1e3, 400)
        ref = scipy.stats.boxcox_normmax(xs, method="mle")
        assert fit_lambda(xs) == pytest.approx(ref, abs=1e-3)
        assert scipy.stats.boxcox_llf(fit_lambda(xs), xs) > -2748.2

    def test_matches_boxcox_normmax_where_not_flat(self):
        # mean-one samples whose likelihood curves at the fit (it drops by at
        # least 1e-6 at lam +- 0.01) and peaks inside (-5, 5): both searches
        # resolve the same maximiser to 1e-4
        compared = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            family = ["lognormal", "normal", "pareto", "levels"][seed % 4]
            xs = _draw_family(rng, family, 10.0 ** rng.uniform(-3.0, 0.5), 0.0,
                              int(rng.integers(8, 2001)))
            xs = xs / xs.mean()
            lam = fit_lambda(xs)
            with np.errstate(all="ignore"):
                ref = scipy.stats.boxcox_normmax(xs, method="mle")
            drop = 2.0 * box_cox_loglik(xs, lam) - (box_cox_loglik(xs, lam - 0.01)
                                                    + box_cox_loglik(xs, lam + 0.01))
            if abs(ref) < 5.0 and drop >= 2e-6:
                compared += 1
                assert lam == pytest.approx(ref, abs=1e-4), seed
        assert compared >= 30


def _oracle_cases():
    rng = np.random.default_rng(11)
    cases = {"n3-minimum": np.array([0.4, 1.1, 1.5])}
    for n in (648, 649, 662):
        cases[f"n{n}-lognormal"] = rng.lognormal(0.0, 0.8, n)
    cases["n10000-pareto"] = (rng.pareto(3.0, 10_000) + 1.0) * 100.0
    # unscaled: the transform at lam = -5 rounds to a constant
    cases["n400-unscaled-normal"] = rng.normal(1e5, 1e3, 400)
    # a coefficient of variation of 1e-14 flattens the likelihood: its
    # slopes are rounding noise
    cases["n50-tied-maximum"] = 1.0 + 1e-14 * np.random.default_rng(0).standard_normal(50)
    for n in (5957, 5958, 7282):
        cases[f"n{n}-lognormal"] = rng.lognormal(0.0, 0.8, n)
    # unscaled at e^+-230: x^lam overflows for |lam| above about 3, so the
    # Newton search meets a non-finite l' below 0 and above it
    rng = np.random.default_rng(5)
    cases["n200-huge-normal"] = rng.normal(1e100, 1e98, 200)
    cases["n200-tiny-normal"] = rng.normal(1e-100, 1e-102, 200)
    return cases


_ORACLE_CASES = _oracle_cases()

# tie and overflow cases fitted as one row of a set of _WIDE rows
_MULTI_BLOCK_CASES = {
    # a constant transform at lam = -5 and expm1 cancellation elsewhere
    "n1000-unscaled-normal": np.random.default_rng(12).normal(1e5, 1e3, 1000),
    "n1000-tied-maximum": 1.0 + 1e-14 * np.random.default_rng(0).standard_normal(1000),
}
_WIDE = 6


def _recorded_slopes(monkeypatch):
    """Record (lam, l', l'') of every ``_slopes`` pass, one tuple per pass."""
    _slopes = std._slopes
    passes = []

    def recorded(logx, slog, lam, work):
        d1, d2 = _slopes(logx, slog, lam, work)
        passes.append((lam.copy(), d1, d2))
        return d1, d2

    monkeypatch.setattr(std, "_slopes", recorded)
    return passes


class TestGridOracle:
    """Bit-equality against the scalar oracles in ``helpers``: the
    likelihood on a 0.1-step exponent grid, and the one-row Newton search."""

    @pytest.mark.parametrize("xs", list(_ORACLE_CASES.values()), ids=list(_ORACLE_CASES))
    def test_matches_scalar_loop(self, xs):
        lams = np.arange(-5.0, 5.05, 0.1)
        expected = [box_cox_loglik_oracle(xs, float(lam)) for lam in lams]
        assert [box_cox_loglik(xs, float(lam)) for lam in lams] == expected
        assert fit_lambda(xs) == fit_lambda_oracle(xs / xs.mean())

    def test_cases_cover_overflow_and_ties(self, monkeypatch):
        # between them the cases take every branch of the search: a
        # non-finite l' on either side of 0, bisection, Newton steps and an
        # edge
        passes = _recorded_slopes(monkeypatch)
        for name in ("n200-huge-normal", "n200-tiny-normal", "n400-unscaled-normal"):
            std._fit_lambdas(np.log(_ORACLE_CASES[name])[None])
        lam, d1, _ = (np.concatenate(v) for v in zip(*passes))
        assert np.any(~np.isfinite(d1) & (lam < 0.0)) and np.any(~np.isfinite(d1) & (lam > 0.0))
        assert -2.5 in lam and 2.5 in lam
        assert np.any(np.isfinite(d1) & (lam % 0.0625 != 0.0))
        assert fit_lambda_oracle(_ORACLE_CASES["n50-tied-maximum"]) == 5.0

    def test_non_positive_rejected_once(self):
        with pytest.raises(ValueError, match="strictly positive"):
            fit_lambda(np.array([1.0, 2.0, 0.0, 3.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            box_cox_loglik(np.array([1.0, -2.0, 3.0]), 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("xs, what", [([1e308, 1.5e308, 1.7e308, 1.1e308], "overflow"),
                                          ([5e-324, 1.0, 2.0, 3.0, 1e300], "underflows")],
                             ids=["mean-overflow", "value-underflow"])
    def test_positive_input_beyond_the_float_range_at_mean_one_is_named(self, xs, what):
        with pytest.raises(ValueError, match=what):
            fit_lambda(np.array(xs))
        with pytest.raises(ValueError, match=what):
            box_cox_loglik(np.array(xs), 0.5)


class TestSkewness:
    def test_symmetric_is_zero(self):
        assert skewness(np.array([-1.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_right_tail_positive(self):
        assert skewness(np.array([0.0, 0.0, 1.0])) > 0.0

    def test_matches_single_pass_formula(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        n = xs.size
        m = xs.mean()
        m2 = np.sum((xs - m) ** 2) / n
        m3 = np.sum((xs - m) ** 3) / n
        expected = (m3 / m2**1.5) * np.sqrt(n * (n - 1)) / (n - 2)
        assert skewness(xs) == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_skew(self):
        rng = np.random.default_rng(6)
        for xs in _raw_families(rng, 400):
            assert skewness(xs) == pytest.approx(scipy.stats.skew(xs, bias=False), rel=1e-10)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSampleError):
            skewness(np.full(5, 3.0))


    def test_rows_match_pow_oracle(self):
        # the rows cube by multiplying; the oracle keeps numpy's pow
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for n in (5, 40, 400):
                fams = _raw_families(rng, n)
                got = std._skewness_rows(np.vstack(fams))
                want = [skewness_oracle(xs) for xs in fams]
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_keep_decisions_match_oracle(self):
        for seed in range(20):
            measures = _mixed_set(np.random.default_rng(seed), 7, 60 + 37 * seed)
            got = standardize_set(measures)
            for sm, m in zip(got, measures):
                ref = standardize_oracle(m)
                assert ((sm.params.box_cox_lambda is None)
                        == (ref.params.box_cox_lambda is None)), m.name


class TestStandardize:
    def test_moment_contract(self):
        rng = np.random.default_rng(11)
        for k, raw in enumerate(_raw_families(rng, 300)):
            sm = standardize(MeasureVector(f"m{k}", raw))
            assert abs(float(sm.values.mean())) < 1e-9
            assert abs(float(sm.values.std(ddof=1)) - 1.0) < 1e-9

    def test_lognormal_becomes_normal(self):
        from ccnet import ks_p_value

        passes = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            sm = standardize(MeasureVector("ln", rng.lognormal(0.0, 1.0, 400)))
            if ks_p_value(sm.values, 2500, seed=seed + 99).p_value > 0.1:
                passes += 1
        assert passes >= 20

    def test_smaller_is_better_negated(self):
        # directed 4-cycle with one chord: the chord start has smallest farness
        from ccnet import aspl, build_graph

        g = build_graph([
            ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0),
            ("a", "c", 1.0),
        ])
        m = aspl(g, "out")
        sm = standardize(m)
        assert np.argmin(m.values) == np.argmax(sm.values)

    def test_skewness_never_increases_when_accepted(self):
        rng = np.random.default_rng(5)
        for raw in _raw_families(rng, 500):
            sm = standardize(MeasureVector("m", raw))
            x = raw + sm.params.pre_shift
            y = x / sm.params.mean_scale
            if sm.params.box_cox_lambda is not None:
                t = box_cox(y, sm.params.box_cox_lambda)
                assert abs(skewness(t)) < abs(skewness(y))

    @pytest.mark.parametrize("raw", [[1.0, 2.0, 2.0], [2.0, 1.0, 1.0], [0.442, 0.442, 0.157, 0.157],
                                     [0.0, -0.001, 0.0]])
    def test_two_valued_sample_keeps_the_identity(self, raw):
        # an increasing transform leaves a two-valued sample's standardised
        # values, and so its |skewness|, as they are: it cannot reduce them
        raw = np.array(raw)
        ln = MeasureVector("ln", np.random.default_rng(0).lognormal(0.0, 1.0, raw.size))
        sm = standardize_set([ln, MeasureVector("two", raw)])[1]
        assert sm.params.box_cox_lambda is None
        assert np.allclose(sm.values, (raw - raw.mean()) / raw.std(ddof=1), rtol=0.0, atol=1e-12)
        _assert_matches_oracle([ln, MeasureVector("two", raw)])

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        raw = rng.lognormal(1.0, 0.8, 250)
        base = standardize(MeasureVector("m", raw)).values
        for c in (1e-6, 0.5, 3.0, 1e7):
            scaled = standardize(MeasureVector("m", c * raw)).values
            assert np.allclose(scaled, base, atol=1e-6)

    def test_monotone_rank_preserving(self):
        rng = np.random.default_rng(8)
        for raw in _raw_families(rng, 120):
            sm = standardize(MeasureVector("m", raw))
            assert np.array_equal(np.argsort(raw), np.argsort(sm.values))

    def test_negative_values_are_preshifted(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal(200)
        sm = standardize(MeasureVector("m", raw))
        assert sm.params.pre_shift > 0.0
        assert abs(float(sm.values.mean())) < 1e-9

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateSampleError):
            standardize(MeasureVector("m", np.full(10, 2.0)))
        with pytest.raises(DegenerateSampleError):
            standardize(MeasureVector("m", np.array([1.0, 2.0])))

    @pytest.mark.parametrize("weights", [np.ones((6, 6)) - np.eye(6), np.roll(np.eye(3), 1, axis=1)],
                             ids=["complete-K6", "directed-3-cycle"])
    def test_constant_graph_measures_name_the_measure(self, weights):
        g = WeightedDigraph(tuple("abcdef"[:len(weights)]), weights)
        for m in standard_measure_set(g):
            with pytest.raises(DegenerateSampleError,
                               match=re.escape(f"measure {m.name!r}: sample is constant")):
                standardize(m)


def _mixed_set(rng, m, n):
    """m measures of length n: the raw families, a measure with non-positive
    values (pre-shifted) and a smaller-is-better one, in rotating order."""
    pool = [MeasureVector(f"fam{k}", raw) for k, raw in enumerate(_raw_families(rng, n))]
    pool.insert(1, MeasureVector("signed", rng.standard_normal(n)))
    pool.insert(3, MeasureVector("smaller", rng.lognormal(0.0, 1.0, n), bigger_is_better=False))
    return [pool[k % len(pool)] for k in range(m)]


def _assert_matches_oracle(measures):
    got = standardize_set(measures)
    assert [sm.name for sm in got] == [m.name for m in measures]
    for sm, m in zip(got, measures):
        ref = standardize_oracle(m)
        assert sm.values.tobytes() == ref.values.tobytes(), m.name
        assert sm.params == ref.params, m.name


def _draw_family(rng, family, sd, mu, n):
    """n positive values of one shape, spread sd (relative) around e^mu."""
    z = rng.standard_normal(n)
    if family == "lognormal":
        return np.exp(mu + sd * z)
    if family == "normal":
        return np.exp(mu) * (1.0 + min(sd, 0.5) * np.tanh(z))
    if family == "pareto":
        return np.exp(mu) * (1.0 + sd * rng.pareto(3.0, n))
    return np.exp(mu) * (1.0 + sd * rng.integers(0, 3, n))  # three tied levels


class TestStandardizeSet:
    """Byte-equality with the one-measure-at-a-time recipe in ``helpers``."""

    @pytest.mark.parametrize("n", [3, 8, 20, 1000, 10_000])
    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_matches_per_measure_oracle(self, m, n):
        measures = _mixed_set(np.random.default_rng(100 * m + n), m, n)
        if m > 1:
            assert any(np.min(mv.values) <= 0.0 for mv in measures)
            assert any(not mv.bigger_is_better for mv in measures)
        _assert_matches_oracle(measures)

    @pytest.mark.parametrize("case", ["n50-tied-maximum", "n400-unscaled-normal",
                                      *_MULTI_BLOCK_CASES])
    def test_tie_and_overflow_samples(self, case):
        xs = {**_ORACLE_CASES, **_MULTI_BLOCK_CASES}[case]
        rng = np.random.default_rng(9)
        _assert_matches_oracle([MeasureVector("first", rng.lognormal(0.0, 1.0, xs.size)),
                                MeasureVector(case, xs),
                                MeasureVector("last", rng.exponential(1.0, xs.size))])
        # the raw samples themselves have flat or non-finite slopes; fit them
        # as a row of one lock-step pass of _WIDE rows, next to samples that
        # have neither
        rows = np.stack([rng.lognormal(0.0, 0.8, xs.size) for _ in range(_WIDE - 2)]
                        + [xs, rng.lognormal(0.0, 0.8, xs.size)])
        lams = std._fit_lambdas(np.log(rows))
        assert lams.tolist() == [fit_lambda_oracle(row) for row in rows]

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_grid_scan_property_matches_oracle(self, m, seed):
        # long rows, spreads from 1e-12 to 3, about the mean-one scale that
        # standardize_set fits at or far from it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2000, 8000))
        x = np.array([_draw_family(rng, rng.choice(["lognormal", "normal", "pareto", "levels"]),
                                   10.0 ** rng.uniform(-12.0, 0.5),
                                   0.0 if rng.random() < 0.5 else rng.uniform(-40.0, 40.0), n)
                      for _ in range(m)])
        assume(np.all(x > 0.0) and np.all(np.isfinite(x)) and np.all(np.ptp(x, axis=1) > 0.0))
        lams = std._fit_lambdas(np.log(x))
        assert lams.tolist() == [fit_lambda_oracle(row) for row in x]

    @pytest.mark.parametrize("tied", [False, True])
    def test_fit_memory(self, monkeypatch, tied):
        # the fit's own peak is its three (m, n) work buffers plus O(m); a
        # row whose likelihood is flat takes the same path
        m, n = 5, 10_000
        measures = sample_arb(ArbMeasureSpec(), n, 0)
        if tied:
            measures[1] = MeasureVector("tied", _MULTI_BLOCK_CASES["n1000-tied-maximum"]
                                        .repeat(n // 1000))
        fit, rises = std._fit_lambdas, []

        def traced(logx):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lams = fit(logx)
            rises.append(tracemalloc.get_traced_memory()[1] - start)
            return lams

        monkeypatch.setattr(std, "_fit_lambdas", traced)
        tracemalloc.start()
        try:
            standardize_set(measures)
        finally:
            tracemalloc.stop()
        assert rises[0] <= 8 * 3 * m * n + 8192 * m

    def test_fit_passes_on_study_and_analyze_sets(self, monkeypatch):
        # the study's five-measure sets at its three sizes, and analyze's
        # eight measures of 20-node graphs: at most 10 passes per fit
        passes = _recorded_slopes(monkeypatch)
        counts = []
        sets = [sample_arb(ArbMeasureSpec(), n, np.random.SeedSequence(entropy=0,
                                                                       spawn_key=(n, r, 0)))
                for n in (100, 1_000, 10_000) for r in range(4)]
        sets += [standard_measure_set(make_tradelike(20, seed)) for seed in range(12)]
        for measures in sets:
            passes.clear()
            standardize_set(measures)
            counts.append(len(passes))
        assert max(counts) <= 10

    def test_row_near_zero_takes_the_series_in_a_mixed_pass(self, monkeypatch):
        # a log-symmetric sample tilted so that its maximiser lies within
        # _SERIES of 0, fitted next to rows whose iterates do not
        passes = _recorded_slopes(monkeypatch)
        rng = np.random.default_rng(1)
        logx = rng.standard_normal(500)
        logx = np.concatenate([logx, -logx])
        rows = np.stack([np.exp(logx + 3e-6 * logx**2), rng.lognormal(0.0, 1.0, 1000) + 1.0,
                         rng.exponential(1.0, 1000)])
        lams = std._fit_lambdas(np.log(rows))
        assert 0.0 < abs(lams[0]) < std._SERIES
        near = [np.abs(lam) < std._SERIES for lam, _, _ in passes]
        assert any(row.any() and not row.all() for row in near)
        assert lams.tolist() == [fit_lambda_oracle(row) for row in rows]

    def test_edge_peaks_land_on_the_edge(self):
        # a row whose l' still points outwards at the edge on its side of 0
        # takes the edge itself, as the oracle does
        rng = np.random.default_rng(3)
        n = 20
        measures = [MeasureVector("right", 1.0 / (30.0 - rng.exponential(1.0, n))),
                    MeasureVector("log", rng.lognormal(0.0, 1.0, n)),
                    MeasureVector("left", 30.0 - rng.exponential(1.0, n)),
                    MeasureVector("exp", rng.exponential(1.0, n), bigger_is_better=False)]
        lams = [sm.params.box_cox_lambda for sm in standardize_set(measures)]
        assert lams[0] == -5.0 and lams[2] == 5.0
        assert abs(lams[1]) < 4.0 and abs(lams[3]) < 4.0
        _assert_matches_oracle(measures)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(3, 30)),
                  elements=st.one_of(st.integers(-10**6, 10**6).map(lambda k: k / 1000.0),
                                     st.floats(1e-3, 1e3))),
           st.integers(0, 31))
    # two distinct values, where the transform must be rejected whatever the rounding
    @example(np.array([[0.0, -0.001, 0.0]]), 0)
    # two constant rows, named in one message
    @example(np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.0, 5.0, 2.0], [0.0, 0.0, 0.0]]), 0)
    def test_property_matches_oracle(self, x, smaller):
        measures = [MeasureVector(f"m{i}", row, bigger_is_better=not (smaller >> i) & 1)
                    for i, row in enumerate(x)]
        constant = [repr(m.name) for m in measures if np.all(m.values == m.values[0])]
        try:
            expected = [standardize_oracle(m) for m in measures]
        except DegenerateSampleError as exc:
            # the oracle names the first constant measure; the set names them all
            message = (f"measures {', '.join(constant)}: samples are constant"
                       if len(constant) > 1 else str(exc))
            with pytest.raises(DegenerateSampleError, match=re.escape(message)):
                standardize_set(measures)
            return
        for sm, ref in zip(standardize_set(measures), expected):
            assert sm.values.tobytes() == ref.values.tobytes()
            assert sm.params == ref.params


class TestStandardizeSetRejects:
    """Degenerate sets fail before any likelihood is evaluated."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def boom(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(std, "_slopes", boom)

    def test_empty_set(self):
        with pytest.raises(ValueError, match="at least one measure"):
            standardize_set([])

    def test_unequal_lengths_name_both(self):
        a = MeasureVector("a", np.arange(1.0, 21.0))
        b = MeasureVector("b", np.arange(1.0, 20.0))
        with pytest.raises(ValueError, match=r"'a' has 20 values, 'b' has 19"):
            standardize_set([a, a, b])

    def test_every_constant_measure_named(self):
        good = MeasureVector("good", np.arange(1.0, 11.0))
        flat = MeasureVector("flat", np.full(10, 2.0))
        with pytest.raises(DegenerateSampleError,
                           match=r"^measure 'flat': sample is constant$"):
            standardize_set([good, flat, good])
        with pytest.raises(DegenerateSampleError,
                           match=r"^measures 'flat', 'flat-too': samples are constant$"):
            standardize_set([good, flat, good, MeasureVector("flat-too", np.zeros(10))])

    def test_too_short_measure_named(self):
        with pytest.raises(DegenerateSampleError,
                           match=re.escape("measure 'short': need at least 3 values, got 2")):
            standardize_set([MeasureVector("short", np.array([1.0, 2.0])),
                             MeasureVector("other", np.array([3.0, 5.0]))])


class TestInvert:
    def test_round_trip_all_families(self):
        rng = np.random.default_rng(31)
        count = 0
        for rep in range(20):
            for raw in _raw_families(rng, 150):
                raw_m = MeasureVector("m", raw, bigger_is_better=bool(rep % 2))
                back = invert(standardize(raw_m))
                assert np.allclose(back.values, raw, rtol=1e-9)
                assert back.bigger_is_better == raw_m.bigger_is_better
                count += 1
        assert count == 100

    def test_identity_branch_is_affine(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(10.0, 0.01, 100)  # nearly symmetric: transform rejected often
        sm = standardize(MeasureVector("m", raw))
        if sm.params.box_cox_lambda is None:
            # inverse is affine: values map linearly back onto the raw measure
            slope = sm.params.post_std * sm.params.mean_scale
            recon = sm.values * slope + sm.params.post_mean * sm.params.mean_scale \
                - sm.params.pre_shift
            assert np.allclose(recon, raw, rtol=1e-9)
        assert np.allclose(invert(sm).values, raw, rtol=1e-9)

    def test_hand_fixture_chain(self):
        raw = np.array([1.0, 2.0, 4.0])
        sm = standardize(MeasureVector("m", raw))
        p = sm.params
        # recompute the inverse chain by hand from the recorded parameters
        v = sm.values.copy()
        v = v * p.post_std + p.post_mean
        if p.box_cox_lambda is not None:
            if p.box_cox_lambda == 0.0:
                v = np.exp(v)
            else:
                # (lam v + 1)^(1/lam), with ln(1 + lam v) taken by log1p: the
                # fitted exponent of this log-symmetric sample is 0 to
                # rounding, where 1 + lam v rounds to 1
                v = np.exp(np.log1p(p.box_cox_lambda * v) / p.box_cox_lambda)
        v = v * p.mean_scale - p.pre_shift
        assert np.allclose(v, raw, rtol=1e-9)
        assert np.allclose(invert(sm).values, raw, rtol=1e-9)

    def test_foreign_data_domain_error(self):
        params = TransformParams(pre_shift=0.0, mean_scale=1.0, box_cox_lambda=2.0,
                                 post_mean=0.0, post_std=10.0, flipped=False)
        sm = StandardizedMeasure("m", np.array([-1.0, 0.0, 1.0]), params)
        with pytest.raises(InversionError):
            invert(sm)  # 2*(-10)+1 <= 0

    def test_derived_measure_has_no_inverse(self):
        sm = StandardizedMeasure("combined", np.array([-1.0, 0.0, 1.0]), None)
        with pytest.raises(InversionError):
            invert(sm)
