"""Measure standardisation: Box-Cox skewness correction plus statistical normalisation.

The recipe, applied to a positive-valued raw measure:

0. if any value is non-positive, pre-shift the whole sample slightly above zero;
1. rescale to mean one, fit the Box-Cox exponent by maximum likelihood and
   transform -- the transform is kept only if it strictly reduced the absolute
   sample skewness;
2. subtract the sample mean;
3. divide by the sample standard deviation (Bessel, n-1);
4. negate when the measure's convention is smaller-is-better.

Every parameter is recorded so the chain inverts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MeasureVector

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
LAMBDA_TOL = 1e-4
_GRID_STEP = 0.1
_INVPHI = (5.0**0.5 - 1.0) / 2.0
# element budget of one block of the lambda-grid array (512 KB of float64)
_GRID_BUDGET = 1 << 16
# pre-shift target: minimum lands this fraction of the range above zero
_SHIFT_MARGIN = 1e-6


class DegenerateSampleError(ValueError):
    """Sample is constant or too small for the requested statistic."""


class InversionError(ValueError):
    """Inverse transform undefined for the supplied values."""


@dataclass(frozen=True)
class TransformParams:
    """Full parameter record of one standardisation, sufficient for inversion."""

    pre_shift: float
    mean_scale: float
    box_cox_lambda: float | None   # None: transform rejected, identity kept
    post_mean: float
    post_std: float
    flipped: bool


@dataclass(frozen=True)
class StandardizedMeasure:
    """Measure with zero mean and unit variance; ``params`` is None for derived scores."""

    name: str
    values: np.ndarray
    params: TransformParams | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def box_cox(x, lam: float):
    """Box-Cox power transform, (x^lam - 1)/lam, with the log limit at lam = 0.

    Continuous in lam at 0 (computed via expm1 for small-exponent accuracy);
    requires strictly positive input.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("Box-Cox input must be strictly positive")
    if lam == 0.0:
        out = np.log(x)
    else:
        out = np.expm1(lam * np.log(x)) / lam
    return float(out) if out.ndim == 0 else out


def box_cox_inverse(y, lam: float | None):
    """Invert box_cox; lam None means the identity transform was kept."""
    y = np.asarray(y, dtype=float)
    if lam is None:
        out = y
    elif lam == 0.0:
        out = np.exp(y)
    else:
        base = lam * y + 1.0
        if np.any(base <= 0.0):
            raise InversionError("value outside the invertible Box-Cox domain")
        out = np.exp(np.log(base) / lam)
    return float(out) if out.ndim == 0 else out


def box_cox_loglik(xs, lam: float) -> float:
    """Profile log-likelihood of the Box-Cox exponent (Box & Cox 1964).

    (lam - 1) * sum(ln x_i) - (n/2) * ln( sum((x~_i - mean(x~))^2) / n ), where
    x~ = box_cox(x, lam).  Overflowing exponents yield -inf.
    """
    logx = _log_sample(xs)
    return float(_loglik(logx, np.sum(logx), np.array([lam], dtype=float))[0])


def fit_lambda(xs) -> float:
    """Maximum-likelihood Box-Cox exponent over [-5, 5], to 1e-4 absolute.

    A 0.1-step grid scan locates the peak (ties resolved towards the smallest
    exponent), then golden-section refinement narrows the bracket.  Robust
    against the flat likelihoods of near-symmetric samples.  The grid is
    evaluated in row blocks of about ``_GRID_BUDGET`` elements.
    """
    logx = _log_sample(xs)
    slog = np.sum(logx)
    grid = np.arange(LAMBDA_MIN, LAMBDA_MAX + _GRID_STEP / 2, _GRID_STEP)
    rows = max(1, _GRID_BUDGET // logx.size)
    vals = np.concatenate([_loglik(logx, slog, grid[i:i + rows])
                           for i in range(0, grid.size, rows)])
    k = int(np.argmax(vals))  # argmax takes the first (smallest) maximiser

    def f(lam: float) -> float:
        return float(_loglik(logx, slog, np.array([lam]))[0])

    a = max(LAMBDA_MIN, float(grid[k]) - _GRID_STEP)
    b = min(LAMBDA_MAX, float(grid[k]) + _GRID_STEP)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > LAMBDA_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return float((a + b) / 2.0)


def _log_sample(xs) -> np.ndarray:
    """ln x of a valid sample; ``box_cox`` at lam = 0 checks it is strictly positive."""
    xs = np.asarray(xs, dtype=float)
    _check_sample(xs)
    return box_cox(xs, 0.0)


def _loglik(logx: np.ndarray, slog: float, lams: np.ndarray) -> np.ndarray:
    """Profile log-likelihoods at each exponent in ``lams`` from one (lams, n) array.

    ``logx`` is ln x and ``slog`` its sum.  Row by row the arithmetic is that
    of ``box_cox`` (the lam = 0 row is ln x itself), so every value matches a
    scalar evaluation bit for bit; non-finite values become -inf.
    """
    n = logx.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.multiply.outer(lams, logx)
        np.expm1(t, out=t)
        t /= lams[:, None]
        t[lams == 0.0] = logx
        t -= t.mean(axis=1, keepdims=True)
        np.square(t, out=t)
        var = np.sum(t, axis=1) / n
        ll = (lams - 1.0) * slog - 0.5 * n * np.log(var)
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def skewness(xs) -> float:
    """Adjusted Fisher-Pearson sample skewness, g1 * sqrt(n(n-1)) / (n-2)."""
    xs = np.asarray(xs, dtype=float)
    _check_sample(xs)
    n = xs.size
    dev = xs - xs.mean()
    m2 = np.mean(dev**2)
    m3 = np.mean(dev**3)
    g1 = m3 / m2**1.5
    return float(g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0))


def standardize(measure: MeasureVector) -> StandardizedMeasure:
    """Run the full standardisation recipe on one raw measure.

    Output has sample mean 0 and standard deviation 1; smaller-is-better
    measures come out negated so that bigger is always better.  Approximate
    uni-modality of the raw values is a caller obligation, not enforced.
    """
    x = np.asarray(measure.values, dtype=float)
    try:
        _check_sample(x)
    except DegenerateSampleError as exc:
        raise DegenerateSampleError(f"measure {measure.name!r}: {exc}") from None

    pre_shift = 0.0
    lo = x.min()
    if lo <= 0.0:
        pre_shift = float(-lo + _SHIFT_MARGIN * (x.max() - lo))
        x = x + pre_shift

    mean_scale = float(x.mean())
    y = x / mean_scale

    lam = fit_lambda(y)
    transformed = box_cox(y, lam)
    used_lambda: float | None = None
    z = y
    if abs(skewness(transformed)) < abs(skewness(y)):
        z = transformed
        used_lambda = lam

    post_mean = float(z.mean())
    z = z - post_mean
    post_std = float(z.std(ddof=1))
    if post_std == 0.0:
        raise DegenerateSampleError(f"measure {measure.name!r} is constant")
    z = z / post_std

    flipped = not measure.bigger_is_better
    if flipped:
        z = -z

    params = TransformParams(
        pre_shift=pre_shift,
        mean_scale=mean_scale,
        box_cox_lambda=used_lambda,
        post_mean=post_mean,
        post_std=post_std,
        flipped=flipped,
    )
    return StandardizedMeasure(measure.name, z, params)


def invert(sm: StandardizedMeasure) -> MeasureVector:
    """Reverse a standardisation back to the raw measure (1e-9 relative)."""
    if sm.params is None:
        raise InversionError(f"{sm.name!r} is a derived score with no inverse transform")
    p = sm.params
    v = np.asarray(sm.values, dtype=float)
    if p.flipped:
        v = -v
    v = v * p.post_std + p.post_mean
    v = box_cox_inverse(v, p.box_cox_lambda)
    v = v * p.mean_scale
    v = v - p.pre_shift
    return MeasureVector(sm.name, v, bigger_is_better=not p.flipped)


def _check_sample(xs: np.ndarray) -> None:
    if xs.size < 3:
        raise DegenerateSampleError(f"need at least 3 values, got {xs.size}")
    if np.all(xs == xs.flat[0]):
        raise DegenerateSampleError("sample is constant")
