"""Goodness-of-fit tests against the standard normal (both parameters fixed).

The KS p-value is Monte-Carlo: the observed statistic is ranked against a
sorted table of KS statistics of synthetic samples of the same size.  Under a
fully specified continuous null, Phi(X) is uniform, so the table is drawn
from sorted uniform rows directly (no normal draws, no CDF); it depends only
on the sample size n, so one table serves every test at that n.  With B
replicates the p-value is quantized to multiples of 1/B and its half-width
precision is 1/(2 sqrt(B)); the default B = 10^4 gives 0.005.

The decision rule accepts the standard-normal hypothesis iff p > 0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

P_THRESHOLD = 0.1
DEFAULT_REPLICATES = 10_000
MIN_REPLICATES = 2_500
# Anderson-Darling case-0 (fully specified null) critical value, 10% level
AD_CRITICAL_10PCT = 1.933
AD_MIN_SAMPLE = 8
# replicate chunk: ~4M draws per block, split-seeded for scheduling independence
_CHUNK_DRAWS = 1 << 22


@dataclass(frozen=True)
class GoFReport:
    """Outcome of one goodness-of-fit test.

    ``p_value`` is None for tests decided by a critical value instead of a
    Monte-Carlo p (Anderson-Darling); the accept/reject decision is p > 0.1
    where a p-value exists.
    """

    test_name: str
    statistic: float
    p_value: float | None
    replicates: int
    seed: int | None
    decision: str

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def ks_statistic(sample) -> float:
    """Two-sided KS distance between the empirical CDF and the standard normal CDF."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size < 5:
        raise ValueError("KS statistic needs a 1-D sample of at least 5 values")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return float(_ks_rows(ndtr(np.sort(x))[None, :])[0])


def _ks_rows(cdf_rows: np.ndarray) -> np.ndarray:
    """KS statistics of rows of sorted CDF values (uniform under the null).

    Consumes its argument: ``cdf_rows`` is overwritten, so that a chunk needs
    one buffer of its size besides itself.
    """
    n = cdf_rows.shape[1]
    i = np.arange(1, n + 1)
    upper = i / n - cdf_rows
    np.abs(upper, out=upper)
    lower = np.subtract(cdf_rows, (i - 1) / n, out=cdf_rows)
    np.abs(lower, out=lower)
    return np.max(np.maximum(upper, lower, out=upper), axis=1)


def _ks_null(n: int, replicates: int,
             seed: int | np.random.SeedSequence) -> np.ndarray:
    """Sorted KS statistics of ``replicates`` null samples of size ``n``, read-only.

    Replicate chunks of about 4M draws use split seeds, so the table does not
    depend on how the chunks are scheduled.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {replicates}")
    rows_per_chunk = max(1, _CHUNK_DRAWS // n)
    n_chunks = math.ceil(replicates / rows_per_chunk)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    null = np.empty(replicates)
    done = 0
    for child in root.spawn(n_chunks):
        rows = min(rows_per_chunk, replicates - done)
        draws = np.random.default_rng(child).random((rows, n))
        draws.sort(axis=1)
        null[done:done + rows] = _ks_rows(draws)
        del draws  # free the chunk before the next one is drawn
        done += rows
    null.sort()
    null.flags.writeable = False
    return null


def _ks_rank(observed: float, null: np.ndarray, seed: int | None) -> GoFReport:
    """Rank an observed KS statistic against a ``_ks_null`` table of its size.

    p is the fraction of null statistics >= the observed one (the >= makes
    the estimate conservative).
    """
    p = (null.size - int(np.searchsorted(null, observed, "left"))) / null.size
    return GoFReport(
        test_name="ks-monte-carlo",
        statistic=observed,
        p_value=p,
        replicates=null.size,
        seed=seed,
        decision="accept" if p > P_THRESHOLD else "reject",
    )


def ks_p_value(sample, replicates: int = DEFAULT_REPLICATES,
               seed: int | np.random.SeedSequence = 0) -> GoFReport:
    """Monte-Carlo KS test of the standard-normal hypothesis.

    Draws a table of ``replicates`` null KS statistics at the observed size
    (from sorted uniform rows, which is what Phi makes of standard-normal
    samples) and ranks the observed statistic against it.  Deterministic for
    a given seed.  Callers that test many samples of one size (``analyze``,
    ``gof_vs_n_study``) draw the table once and rank every sample against it.
    """
    observed = ks_statistic(sample)
    null = _ks_null(len(sample), replicates, seed)
    return _ks_rank(observed, null,
                    None if isinstance(seed, np.random.SeedSequence) else int(seed))


def anderson_darling(sample) -> GoFReport:
    """Anderson-Darling A^2 against the fully specified standard normal.

    No parameters are estimated (case 0), so the 10%-level critical value is
    1.933; the hypothesis is accepted iff A^2 stays below it.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size < AD_MIN_SAMPLE:
        raise ValueError(
            f"Anderson-Darling needs a 1-D sample of at least {AD_MIN_SAMPLE} values")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    x = np.sort(x)
    n = x.size
    i = np.arange(1, n + 1)
    # log Phi and log(1 - Phi) computed directly to avoid tail underflow
    log_cdf = log_ndtr(x)
    log_sf = log_ndtr(-x[::-1])
    a2 = -n - np.sum((2 * i - 1) * (log_cdf + log_sf)) / n
    return GoFReport(
        test_name="anderson-darling",
        statistic=float(a2),
        p_value=None,
        replicates=0,
        seed=None,
        decision="accept" if a2 < AD_CRITICAL_10PCT else "reject",
    )
