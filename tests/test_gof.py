import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import log_ndtr, ndtr

import ccnet.gof
from ccnet import AD_CRITICAL_10PCT, anderson_darling, ks_p_value, ks_statistic
from ccnet.gof import _CHUNK_DRAWS, _ks_rows, _log_phi, _phi, ks_null_table
from helpers import anderson_darling_two_pass, ks_rows_oracle

# seeded and without an example database, so every run tries the same cases
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class TestPhi:
    """The libm-based Phi and log Phi against scipy's ndtr and log_ndtr."""

    PHI_ABS = 1e-15
    PHI_REL = 1e-12
    LOG_PHI_REL = 1e-12

    def test_phi_matches_ndtr(self):
        x = np.linspace(-40.0, 40.0, 400_001)
        got, ref = _phi(x), ndtr(x)
        assert np.max(np.abs(got - ref)) <= self.PHI_ABS
        pos = ref > 0
        assert np.max(np.abs(got[pos] - ref[pos]) / ref[pos]) <= self.PHI_REL

    def test_log_phi_matches_log_ndtr(self):
        x = np.linspace(-60.0, 60.0, 600_001)
        got, ref = _log_phi(x, _phi(-np.abs(x))), log_ndtr(x)
        assert np.all(np.isfinite(got))
        nz = ref != 0
        assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])) <= self.LOG_PHI_REL

    def test_phi_is_half_at_zero_and_non_decreasing(self):
        assert _phi(np.zeros(1))[0] == 0.5
        assert np.all(np.diff(_phi(np.linspace(-40.0, 40.0, 400_001))) >= 0)


class TestKsStatistic:
    def test_point_mass_at_zero(self):
        # five points clustered at 0: empirical CDF jumps 0 -> 1 where Phi = 0.5
        sample = np.array([-2e-12, -1e-12, 0.0, 1e-12, 2e-12])
        assert ks_statistic(sample) == pytest.approx(0.5, abs=1e-9)

    def test_large_null_sample_is_small(self):
        for seed in (0, 1, 2):
            x = np.random.default_rng(seed).standard_normal(10_000)
            assert ks_statistic(x) < 0.02

    def test_uniform_sample_is_large(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, 200)
        assert ks_statistic(x) > 0.25

    def test_matches_direct_two_sided_formula(self):
        x = np.sort(np.random.default_rng(5).standard_normal(40))
        n = x.size
        z = ndtr(x)
        expected = 0.0
        for i in range(1, n + 1):
            expected = max(expected,
                           abs(i / n - z[i - 1]),
                           abs(z[i - 1] - (i - 1) / n))
        assert ks_statistic(x) == pytest.approx(expected, abs=1e-15)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(50)
        d = ks_statistic(x)
        assert 0.0 <= d <= 1.0
        assert ks_statistic(rng.permutation(x)) == d

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([0.0, 1.0, 2.0, 3.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([0.0, 1.0, np.nan, 2.0, 3.0]))

    @PROPERTY
    @given(arrays(np.float64, st.integers(5, 60),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_scipy_kstest_bit_for_bit(self, x):
        # scipy's KS distance, read against the same Phi
        assert ks_statistic(x) == stats.kstest(x, _phi).statistic


class TestKsRows:
    @PROPERTY
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 40)),
                  elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                     st.floats(0.0, 1.0))))
    def test_equals_abs_reference(self, cdf_rows):
        # sorted rows in [0, 1] with ties and exact 0 and 1: dropping the
        # abs passes must not move a bit
        cdf_rows.sort(axis=1)
        expected = ks_rows_oracle(cdf_rows)
        assert np.array_equal(_ks_rows(cdf_rows.copy()), expected)


class TestKsPValue:
    def test_deterministic_given_seed(self):
        x = np.random.default_rng(1).standard_normal(80)
        r1 = ks_p_value(x, 2500, seed=42)
        r2 = ks_p_value(x, 2500, seed=42)
        assert r1 == r2

    def test_quantized_to_replicates(self):
        x = np.random.default_rng(2).standard_normal(80)
        rep = ks_p_value(x, 2500, seed=0)
        assert rep.p_value == pytest.approx(round(rep.p_value * 2500) / 2500, abs=1e-12)

    def test_decision_rule(self):
        x = np.random.default_rng(3).standard_normal(300)
        rep = ks_p_value(x, 2500, seed=0)
        assert rep.decision == ("accept" if rep.p_value > 0.1 else "reject")
        assert rep.accepted == (rep.p_value > 0.1)

    def test_monotone_in_observed_statistic(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(150)
        reports = [ks_p_value(base + shift, 2500, seed=7)
                   for shift in (0.0, 0.2, 0.5, 1.0)]
        stats = [r.statistic for r in reports]
        ps = [r.p_value for r in reports]
        assert stats == sorted(stats)
        assert ps == sorted(ps, reverse=True)

    def test_location_shift_detected(self):
        x = np.random.default_rng(6).standard_normal(200) + 1.0
        assert ks_p_value(x, 2500, seed=0).p_value < 0.01

    def test_null_p_values_uniform(self):
        # chi-square bin check over 1000 seeded null trials
        ps = []
        for t in range(1000):
            x = np.random.default_rng(t).standard_normal(100)
            ps.append(ks_p_value(x, 2500, seed=1_000_000 + t).p_value)
        counts, _ = np.histogram(ps, bins=10, range=(0.0, 1.0))
        chi2 = float(np.sum((counts - 100.0) ** 2 / 100.0))
        assert chi2 < 21.67  # chi-square(9), 99th percentile

    def test_mean_null_statistic_decreases_with_n(self):
        means = []
        for n in (100, 1000, 10_000):
            stats = [ks_statistic(np.random.default_rng(100 + k).standard_normal(n))
                     for k in range(20)]
            means.append(np.mean(stats))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.02

    def test_replicate_minimum_enforced(self):
        x = np.random.default_rng(0).standard_normal(50)
        with pytest.raises(ValueError):
            ks_p_value(x, 2000, seed=0)

    @pytest.mark.parametrize("n", [5, 20, 100, 1000])
    def test_matches_exact_kolmogorov_distribution(self, n):
        # scipy.stats.kstwo is the exact null distribution of the statistic
        # (Simard & L'Ecuyer 2011); the Monte-Carlo p must sit within 6
        # binomial sds plus one quantum of it, from p near 1 down to small p
        b = 10_000
        base = np.random.default_rng(n).standard_normal(n)
        for shift in (0.0, 2.0 / math.sqrt(n), 4.0 / math.sqrt(n)):
            rep = ks_p_value(base + shift, b, seed=n + 1)
            q = float(stats.kstwo.sf(rep.statistic, n))
            sd = math.sqrt(max(q * (1.0 - q), 1.0 / b) / b)
            assert abs(rep.p_value - q) <= 6.0 * sd + 1.0 / b, (shift, rep.p_value, q)
        assert rep.p_value < 0.05  # the largest shift reaches the small-p tail

    def test_is_one_table_ranked(self):
        # build-then-rank: p counts the table's statistics >= the observed one
        x = np.random.default_rng(8).standard_normal(60)
        null = ks_null_table(60, 2500, 5)
        rep = ks_p_value(x, 2500, seed=5)
        assert rep.p_value == np.count_nonzero(null >= rep.statistic) / 2500
        assert rep.replicates == 2500 and rep.seed == 5


class TestKsNull:
    @pytest.mark.parametrize("n", [5, 50])
    def test_table_follows_kstwo(self, n):
        # Dvoretzky-Kiefer-Wolfowitz bound at level 1e-6 on the table's
        # empirical CDF against the exact distribution, read at 199 quantiles
        b = 10_000
        null = ks_null_table(n, b, seed=3)
        probs = np.linspace(0.005, 0.995, 199)
        ecdf = np.searchsorted(null, stats.kstwo.ppf(probs, n), "right") / b
        assert np.max(np.abs(ecdf - probs)) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * b))

    def test_sorted_read_only_and_seeded(self):
        null = ks_null_table(30, 2500, seed=9)
        assert null.shape == (2500,)
        assert np.all(np.diff(null) >= 0.0)
        assert not null.flags.writeable
        assert np.array_equal(null, ks_null_table(30, 2500, np.random.SeedSequence(9)))
        assert not np.array_equal(null, ks_null_table(30, 2500, seed=10))

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"sample size n of at least 1, got {n}$"):
            ks_null_table(n, 2500, seed=0)

    def test_partial_last_chunk_is_filled(self):
        # at n = 5000 a chunk holds 838 rows, so 2500 replicates take two full
        # chunks and a partial one; every entry must be a KS statistic, and
        # any sample of size n has D >= 1/(2n)
        n = 5000
        null = ks_null_table(n, 2500, seed=0)
        assert null.size == 2500
        assert 1.0 / (2 * n) <= null[0] and null[-1] <= 1.0


    def test_table_matches_per_row_reference(self):
        # same chunk seeding, one row at a time without the in-place kernel;
        # n = 5000 takes two full chunks and a partial one, n = 10^4 takes
        # five chunks of 419 rows and a last one of 405.  The chunks' streams
        # are those of an explicit SeedSequence.spawn, for an int seed and for
        # a spawned SeedSequence seed (as analyze and the study pass)
        b = 2500
        for n, spawn_key in ((5000, None), (10_000, None), (5000, (7,))):
            seed = 4 if spawn_key is None else np.random.SeedSequence(4, spawn_key=spawn_key)
            oracle = np.random.SeedSequence(4, spawn_key=spawn_key or ())
            per_chunk = _CHUNK_DRAWS // n
            i = np.arange(1, n + 1)
            expected = []
            for k, child in enumerate(oracle.spawn(math.ceil(b / per_chunk))):
                for row in np.random.default_rng(child).random((min(per_chunk, b - k * per_chunk), n)):
                    u = np.sort(row)
                    expected.append(max(np.max(np.abs(i / n - u)), np.max(np.abs(u - (i - 1) / n))))
            assert np.array_equal(ks_null_table(n, b, seed), np.sort(expected))

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_table_independent_of_worker_count(self, monkeypatch, cores):
        # six chunks at n = 10^4; every worker count draws the same table and
        # builds no more workers than chunks or cores
        n, b = 10_000, 2500
        reference = ks_null_table(n, b, seed=5)
        built = []

        class Recording(ccnet.gof.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(ccnet.gof, "_usable_cores", lambda: cores)
        monkeypatch.setattr(ccnet.gof, "ThreadPoolExecutor", Recording)
        assert np.array_equal(ks_null_table(n, b, seed=5), reference)
        assert built == ([] if cores == 1 else [cores])

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["one-row", "seven-rows", "whole-chunk"])
    def test_table_independent_of_slab_size(self, monkeypatch, rows):
        # n = 3000 takes two chunks of 1398 rows; a slab of 7 rows leaves a
        # partial slab at the end of each chunk
        n, b = 3000, 2500
        reference = ks_null_table(n, b, seed=6)
        monkeypatch.setattr(ccnet.gof, "_BLOCK", _CHUNK_DRAWS if rows is None else rows * n)
        assert np.array_equal(ks_null_table(n, b, seed=6), reference)

    def test_cores_counted_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(ccnet.gof.os, "sched_getaffinity")
        monkeypatch.setattr(ccnet.gof.os, "cpu_count", lambda: 3)
        assert ccnet.gof._usable_cores() == 3
        monkeypatch.setattr(ccnet.gof.os, "cpu_count", lambda: None)
        assert ccnet.gof._usable_cores() == 1

    def test_one_chunk_table_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("built an executor for a one-chunk table")

        monkeypatch.setattr(ccnet.gof, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(ccnet.gof, "_usable_cores", lambda: 4)
        # 1677 * 2500 draws is the largest one-chunk table at B = 2500
        assert ks_null_table(1677, 2500, seed=7).size == 2500
        assert ks_null_table(20, 10_000, seed=7).size == 10_000


class TestAndersonDarling:
    def test_null_acceptance_rate_near_90pct(self):
        accepts = sum(
            anderson_darling(np.random.default_rng(s).standard_normal(500)).accepted
            for s in range(200)
        )
        assert 0.84 <= accepts / 200 <= 0.96

    def test_bimodal_extremes_rejected(self):
        x = np.array([-3.0] * 6 + [3.0] * 6)
        rep = anderson_darling(x)
        assert rep.decision == "reject"
        assert rep.statistic > AD_CRITICAL_10PCT

    def test_uniform_rejected(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, 200)
        assert anderson_darling(x).decision == "reject"

    def test_finite_with_far_tail_values(self):
        # Phi(-60) underflows to zero: log Phi must come from the tail series
        x = np.concatenate([[-60.0, 60.0], np.random.default_rng(2).standard_normal(30)])
        rep = anderson_darling(x)
        assert math.isfinite(rep.statistic)
        assert rep.decision == "reject"

    def test_one_erfc_pass_equals_two_pass_form(self, monkeypatch):
        calls, logs = [], []

        def counted(x):
            calls.append(x.size)
            return _phi(x)

        def recorded(x, lower):
            out = _log_phi(x, lower)
            logs.append((x, out))
            return out

        monkeypatch.setattr(ccnet.gof, "_phi", counted)
        monkeypatch.setattr(ccnet.gof, "_log_phi", recorded)
        rng = np.random.default_rng(3)
        extremes = np.array([50.0, -50.0, 0.0, -0.0])
        for k in range(300):
            x = rng.standard_normal(int(rng.integers(8, 2000))) * rng.uniform(0.2, 3.0)
            if k % 3 == 0:
                x = np.concatenate([x, extremes[: k % 4 + 1]])
            calls.clear()
            logs.clear()
            a2 = anderson_darling(x).statistic
            assert calls == [x.size]
            # each log term, not only their sum, is the one-pass log's: numpy's
            # log of a reversed view rounds some values differently
            assert len(logs) == 2
            for arg, out in logs:
                assert out.tobytes() == _log_phi(arg, _phi(-np.abs(arg))).tobytes()
            assert a2 == anderson_darling_two_pass(x)

    def test_report_shape(self):
        rep = anderson_darling(np.random.default_rng(1).standard_normal(100))
        assert rep.p_value is None
        assert rep.replicates == 0
        assert rep.test_name == "anderson-darling"

    def test_small_or_bad_samples_rejected(self):
        with pytest.raises(ValueError):
            anderson_darling(np.zeros(7))
        with pytest.raises(ValueError):
            anderson_darling(np.array([0.0, 1.0, np.inf] + [0.5] * 6))
