"""Goodness-of-fit tests against the standard normal (both parameters fixed).

The KS p-value is Monte-Carlo: the observed statistic is ranked against a
sorted table of KS statistics of synthetic samples of the same size.  Under a
fully specified continuous null, Phi(X) is uniform, so the table is drawn
from sorted uniform rows directly (no normal draws, no CDF); it depends only
on the sample size n, so one table serves every test at that n.  With B
replicates the p-value is quantized to multiples of 1/B and its half-width
precision is 1/(2 sqrt(B)); the default B = 10^4 gives 0.005.

The decision rule accepts the standard-normal hypothesis iff p > 0.1.

Phi and log Phi come from libm's erfc through ``math.erfc``, one value at a
time; below x = -37.5, where Phi leaves the normal float range, log Phi
takes the asymptotic tail series.  numpy is the only runtime dependency.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

P_THRESHOLD = 0.1
DEFAULT_REPLICATES = 10_000
MIN_REPLICATES = 2_500
# Anderson-Darling case-0 (fully specified null) critical value, 10% level
AD_CRITICAL_10PCT = 1.933
AD_MIN_SAMPLE = 8
# replicate chunk: ~4M draws from one split seed.  It sets only the seeding
# (which rows each seed draws, and so the table's bytes); _BLOCK sets the memory.
_CHUNK_DRAWS = 1 << 22
# row slab: ~64K draws (512 KB) drawn, sorted and reduced together in cache
_BLOCK = 1 << 16
_SQRT_HALF = math.sqrt(0.5)
# below this 0.5 * erfc(-x / sqrt 2) is subnormal, and zero from about -38.5
_LOG_PHI_TAIL = -37.5
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D float array, 0.5 * erfc(-x / sqrt 2)."""
    return 0.5 * np.fromiter(map(math.erfc, (-_SQRT_HALF * x).tolist()), float, x.size)


def _log_phi(x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """log Phi(x) from ``lower`` = Phi(-|x|), finite for every finite x.

    Phi(-|x|) never rounds to 1, so x <= 0 takes its log and x > 0 the log1p
    of its complement.  Below -37.5 Phi is subnormal, so the log comes from
    the asymptotic series Phi(x) ~ phi(x)/|x| (1 - r + 3r^2 - 15r^3 + 105r^4),
    r = 1/x^2, whose next term is below 2e-13 of the sum there.  ``lower``
    must be contiguous: numpy's log of a strided view may round differently
    in the last bit.
    """
    with np.errstate(divide="ignore"):
        out = np.where(x > 0, np.log1p(-lower), np.log(lower))
    tail = x < _LOG_PHI_TAIL
    if tail.any():
        t = x[tail]
        r = 1 / (t * t)
        out[tail] = (-0.5 * t * t - np.log(-t) - _HALF_LOG_2PI
                     + np.log1p(-r * (1 - 3 * r * (1 - 5 * r * (1 - 7 * r)))))
    return out


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


def _sorted_sample(sample, test: str = "KS statistic", min_size: int = 5) -> np.ndarray:
    """``sample`` sorted as floats, once it is 1-D, finite and ``min_size`` long."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size < min_size:
        raise ValueError(f"{test} needs a 1-D sample of at least {min_size} values")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return np.sort(x)


def ks_statistic(sample) -> float:
    """Two-sided KS distance between the empirical CDF and the standard normal CDF."""
    return float(_ks_rows(_phi(_sorted_sample(sample))[None, :])[0])


def _ks_rows(cdf_rows: np.ndarray, steps: tuple[np.ndarray, np.ndarray] | None = None,
             work: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """KS statistics of rows of sorted CDF values (uniform under the null).

    Consumes its argument: ``cdf_rows`` is overwritten.  ``steps`` holds
    i/n and (i - 1)/n, ``work`` is a buffer of the rows' shape and ``out``
    receives one statistic per row; each is built here when not given, so a
    caller that passes all three reduces a slab without allocating.
    """
    up, down = steps if steps is not None else _ks_steps(cdf_rows.shape[1])
    if work is None:
        work = np.empty_like(cdf_rows)
    # i/n - u and u - (i-1)/n sum to 1/n > 0 and rounding is monotone, so the
    # larger of the two is the larger absolute value: no abs pass is needed.
    # max is exact, so the larger one per value, then the row max, equals the
    # larger of the two row maxima
    np.subtract(up, cdf_rows, out=work)
    np.subtract(cdf_rows, down, out=cdf_rows)
    np.maximum(work, cdf_rows, out=cdf_rows)
    return np.max(cdf_rows, axis=1, out=out)


def _ks_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The empirical CDF's steps at a sample of size n: i/n and (i - 1)/n, i = 1..n."""
    i = np.arange(1, n + 1)
    return i / n, (i - 1) / n


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def check_replicates(replicates: int) -> None:
    """Reject a Monte-Carlo replicate count below ``MIN_REPLICATES``."""
    if replicates < MIN_REPLICATES:
        raise ValueError(f"need at least {MIN_REPLICATES} replicates, got {replicates}")


def ks_null_table(n: int, replicates: int,
                  seed: int | np.random.SeedSequence) -> np.ndarray:
    """Sorted KS statistics of ``replicates`` null samples of size ``n``, read-only.

    Replicate chunks of about 4M draws use split seeds, so the table does not
    depend on how the chunks are scheduled: a table of several chunks runs
    them on one thread per usable core.  Each chunk draws, sorts and reduces
    its rows in slabs of about 64K draws, each drawn into the chunk's one
    slab buffer and reduced in place next to one work buffer, straight into
    the table; the CDF steps i/n and (i - 1)/n are built once per table.
    """
    if n < 1:
        raise ValueError(f"KS null table needs a sample size n of at least 1, got {n}")
    check_replicates(replicates)
    rows_per_chunk = max(1, _CHUNK_DRAWS // n)
    rows_per_slab = max(1, _BLOCK // n)
    n_chunks = math.ceil(replicates / rows_per_chunk)
    null = np.empty(replicates)
    steps = _ks_steps(n)

    def fill(k: int, rng: np.random.Generator) -> None:
        # successive draws continue the chunk's stream, so the slabs hold
        # exactly the rows of one whole-chunk draw
        start, stop = k * rows_per_chunk, min((k + 1) * rows_per_chunk, replicates)
        buf = np.empty((min(rows_per_slab, stop - start), n))
        work = np.empty_like(buf)
        for lo in range(start, stop, rows_per_slab):
            hi = min(lo + rows_per_slab, stop)
            slab = rng.random(out=buf[:hi - lo])
            slab.sort(axis=1)
            _ks_rows(slab, steps, work[:hi - lo], null[lo:hi])

    rngs = np.random.default_rng(seed).spawn(n_chunks)
    workers = min(n_chunks, _usable_cores())
    if workers == 1:
        # on the calling thread: on a 2-core host a one-worker pool for the
        # one-chunk tables analyze draws raised peak RSS by about 1.5 MB and
        # the median analyze round's time by 9-16%
        for k, rng in enumerate(rngs):
            fill(k, rng)
    else:
        # the draw, the sort and the ufuncs release the GIL; each chunk
        # writes only its own slice of the table.  Reading every result
        # raises a worker's error here.
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, range(n_chunks), rngs))
    null.sort()
    null.flags.writeable = False
    return null


def ks_rank(observed: float, null: np.ndarray, seed: int | None) -> GoFReport:
    """Rank an observed KS statistic against a ``ks_null_table`` of its size.

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


def ks_p_value(sample, replicates: int = DEFAULT_REPLICATES, seed: int = 0) -> GoFReport:
    """Monte-Carlo KS test of the standard-normal hypothesis.

    Draws a table of ``replicates`` null KS statistics at the observed size
    (from sorted uniform rows, which is what Phi makes of standard-normal
    samples) and ranks the observed statistic against it.  Deterministic for
    a given seed.  Callers that test many samples of one size (``analyze``,
    ``gof_vs_n_study``) draw the table once and rank every sample against it.
    """
    observed = ks_statistic(sample)
    null = ks_null_table(len(sample), replicates, seed)
    return ks_rank(observed, null, int(seed))


def anderson_darling(sample) -> GoFReport:
    """Anderson-Darling A^2 against the fully specified standard normal.

    No parameters are estimated (case 0), so the 10%-level critical value is
    1.933; the hypothesis is accepted iff A^2 stays below it.
    """
    x = _sorted_sample(sample, "Anderson-Darling", AD_MIN_SAMPLE)
    n = x.size
    i = np.arange(1, n + 1)
    # log Phi and log(1 - Phi) computed directly to avoid tail underflow;
    # Phi(-|x|) is the same for x and -x, so one erfc pass serves both; the
    # log of -x is reversed after it is taken, as _log_phi needs contiguous input
    lower = _phi(-np.abs(x))
    log_cdf = _log_phi(x, lower)
    log_sf = _log_phi(-x, lower)[::-1]
    a2 = -n - np.sum((2 * i - 1) * (log_cdf + log_sf)) / n
    return GoFReport(
        test_name="anderson-darling",
        statistic=float(a2),
        p_value=None,
        replicates=0,
        seed=None,
        decision="accept" if a2 < AD_CRITICAL_10PCT else "reject",
    )
