"""Measure standardisation: Box-Cox skewness correction plus statistical normalisation.

The recipe, applied to a positive-valued raw measure:

0. if any value is non-positive, pre-shift the whole sample slightly above zero;
1. rescale to mean one, fit the Box-Cox exponent by maximum likelihood and
   transform -- the transform is kept only if it strictly reduced the absolute
   sample skewness;
2. subtract the sample mean;
3. divide by the sample standard deviation (Bessel, n-1);
4. negate when the measure's convention is smaller-is-better.

Every parameter is recorded so the chain inverts exactly.  ``standardize_set``
runs the recipe on a set of equal-length measures at once, fitting all their
exponents in one lock-step pass; ``standardize`` is its one-measure call.
The Box-Cox profile log-likelihood is concave in the exponent, so the fit
evaluates a unit-step grid on [-5, 5] and narrows the width-2 bracket around
its peak by a fixed number of golden-section steps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .measures import MeasureVector

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
LAMBDA_TOL = 1e-4
_GRID_STEP = 1.0
_INVPHI = (5.0**0.5 - 1.0) / 2.0
# golden-section steps that narrow a bracket of width 2 * _GRID_STEP below LAMBDA_TOL
_GOLDEN_STEPS = math.ceil(math.log(LAMBDA_TOL / (2 * _GRID_STEP)) / math.log(_INVPHI))
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
        # log1p keeps ln(1 + lam y) exact to rounding for an exponent near 0,
        # where 1 + lam y would round to 1
        t = lam * y
        if np.any(t <= -1.0):
            raise InversionError("value outside the invertible Box-Cox domain")
        out = np.exp(np.log1p(t) / lam)
    return float(out) if out.ndim == 0 else out


def box_cox_loglik(xs, lam: float) -> float:
    """Profile log-likelihood of the Box-Cox exponent (Box & Cox 1964).

    (lam - 1) * sum(ln x_i) - (n/2) * ln( sum((x~_i - mean(x~))^2) / n ), where
    x~ = box_cox(x, lam).  -inf where the value is not finite: an exponent
    that overflows, or a variance that rounds to zero, as when every x~ rounds
    to the same float near -1/lam.
    """
    logx = _log_sample(xs)[None]
    return float(_loglik(logx, np.sum(logx, axis=1), np.array([lam], dtype=float))[0, 0])


def fit_lambda(xs) -> float:
    """Maximum-likelihood Box-Cox exponent over [-5, 5], to 1e-4 absolute.

    The sample is rescaled to mean one first, as ``standardize`` fits it:
    the maximiser does not depend on scale, since the log-likelihood of c x
    is that of x minus n ln c, but far from one the computed likelihood
    loses precision and can peak in the wrong place.  A one-row
    ``_fit_lambdas`` call.
    """
    xs = np.asarray(xs, dtype=float)
    _log_sample(xs)  # rejects a short, constant or non-positive sample before rescaling
    return float(_fit_lambdas(_log_sample(xs / xs.mean())[None])[0])


def _fit_lambdas(logx: np.ndarray) -> np.ndarray:
    """``fit_lambda`` of every row of x, given as ln x (m, n), in one lock-step pass.

    The profile log-likelihood is concave in lam (Kouider & Chen 1995).  In
    exact arithmetic the variance of the transformed sample is
    sigma^2(lam) = 1/(2 n^2) sum_ik (I_ik(lam))^2, with
    I_ik(lam) = (x_i^lam - x_k^lam)/lam = integral of e^(lam u) du from
    ln x_k to ln x_i.  Each I_ik is a Laplace transform of a positive
    measure, so it is log-convex (Cauchy-Schwarz), as are its square and the
    sum of the squares; -(n/2) ln sigma^2 is then concave, and adding the
    linear (lam - 1) sum(ln x) keeps it so.  On a concave function every
    point valued above the first maximiser k of a step-h grid lies within
    [k - h, k + h]: such a point beyond k + h would lift the value at k + h
    above the value at k, and one below k - h would lift the value at
    k - h to at least it.

    So an 11-point grid at step 1 is evaluated first, all rows at once in
    blocks of about ``_GRID_BUDGET`` elements, and its first maximiser
    taken per row; the width-2 bracket around it, shifted inside [-5, 5],
    then narrows by the same ``_GOLDEN_STEPS`` golden-section steps in
    every row, each row's bracket updated in float64 exactly as a scalar
    search would, until it is narrower than ``LAMBDA_TOL``.  Each step is
    one (m, 1, n) likelihood evaluation.
    """
    m, n = logx.shape
    slog = np.sum(logx, axis=1)
    grid = np.arange(LAMBDA_MIN, LAMBDA_MAX + _GRID_STEP / 2, _GRID_STEP)[None]
    rows = max(1, _GRID_BUDGET // (m * n))
    vals = np.concatenate([_loglik(logx, slog, grid[:, i:i + rows])
                           for i in range(0, grid.size, rows)], axis=1)
    a = np.clip(grid[0, np.argmax(vals, axis=1)] - _GRID_STEP,
                LAMBDA_MIN, LAMBDA_MAX - 2 * _GRID_STEP)
    b = a + 2 * _GRID_STEP
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _loglik(logx, slog, c[:, None])[:, 0]
    fd = _loglik(logx, slog, d[:, None])[:, 0]
    for _ in range(_GOLDEN_STEPS):
        left = fc >= fd  # the peak lies in [a, d]: c becomes the new d
        right = ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        f = _loglik(logx, slog, probe[:, None])[:, 0]
        c[left], fc[left] = probe[left], f[left]
        d[right], fd[right] = probe[right], f[right]
    return (a + b) / 2.0


def _log_sample(xs) -> np.ndarray:
    """ln x of a valid sample; ``box_cox`` at lam = 0 checks it is strictly positive."""
    xs = np.asarray(xs, dtype=float)
    _check_sample(xs)
    return box_cox(xs, 0.0)


def _box_cox_rows(logx: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """box_cox of each row of x, given as ln x (m, n), at each of its exponents.

    ``lams`` is broadcastable to (m, r); the result is one (m, r, n) array.
    Element by element the arithmetic is that of ``box_cox`` (the lam = 0
    rows are ln x itself), so every value matches a scalar call bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = lams[..., None] * logx[:, None, :]
        np.expm1(t, out=t)
        t /= lams[..., None]
    zero = lams == 0.0
    if zero.any():
        np.copyto(t, logx[:, None, :], where=zero[..., None])
    return t


def _loglik(logx: np.ndarray, slog: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Profile log-likelihoods of each row of x at each of its exponents, (m, r).

    ``logx`` is ln x (m, n), ``slog`` its row sums and ``lams`` the exponents,
    broadcastable to (m, r).  Means and sums run along the contiguous last
    axis, so every value matches a one-exponent evaluation bit for bit;
    non-finite values become -inf.
    """
    n = logx.shape[1]
    t = _box_cox_rows(logx, lams)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t -= t.mean(axis=2, keepdims=True)
        np.square(t, out=t)
        var = np.sum(t, axis=2) / n
        ll = (lams - 1.0) * slog[:, None] - 0.5 * n * np.log(var)
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def skewness(xs) -> float:
    """Adjusted Fisher-Pearson sample skewness, g1 * sqrt(n(n-1)) / (n-2)."""
    xs = np.asarray(xs, dtype=float)
    _check_sample(xs)
    return float(_skewness_rows(xs.reshape(1, -1))[0])


def _skewness_rows(x: np.ndarray) -> np.ndarray:
    """``skewness`` of each row of an (m, n) array."""
    n = x.shape[1]
    dev = x - x.mean(axis=1, keepdims=True)
    # dev**2 is numpy's square, but dev**3 calls libm pow on each value; the
    # cube reuses the square in place
    sq = dev * dev
    m2 = np.mean(sq, axis=1)
    sq *= dev
    m3 = np.mean(sq, axis=1)
    # scalar powers: numpy's vector pow may round differently in the last bit
    g1 = m3 / np.array([v**1.5 for v in m2])
    return g1 * np.sqrt(n * (n - 1.0)) / (n - 2.0)


def standardize(measure: MeasureVector) -> StandardizedMeasure:
    """Run the full standardisation recipe on one raw measure.

    Output has sample mean 0 and standard deviation 1; smaller-is-better
    measures come out negated so that bigger is always better.  Approximate
    uni-modality of the raw values is a caller obligation, not enforced.
    A one-measure ``standardize_set`` call.
    """
    return standardize_set([measure])[0]


def standardize_set(measures: Sequence[MeasureVector]) -> list[StandardizedMeasure]:
    """Run the standardisation recipe on a set of equal-length raw measures.

    The set is one (m, n) array: pre-shift, mean scale, Box-Cox fit,
    skewness test and final moments each run on all rows at once, and the
    exponents are fitted in one lock-step pass (``_fit_lambdas``: one
    unit-step grid, then golden-section steps that every row takes
    together).  Row by row the arithmetic
    is the one-measure recipe's, so each result equals ``standardize`` of
    that measure bit for bit.  An empty set, unequal lengths, and a constant
    or too-short measure (the first in order) are rejected before any fit,
    as is a measure whose spread is too small for the pre-shift to lift its
    minimum above zero.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("standardize_set needs at least one measure")
    n = measures[0].values.size
    for m in measures[1:]:
        if m.values.size != n:
            raise ValueError(f"measures must have equal lengths: {measures[0].name!r} has "
                             f"{n} values, {m.name!r} has {m.values.size}")
    # work in place where the arithmetic allows: y holds the raw, then the
    # shifted, then the mean-one rows, and z the transformed, then the output
    # rows; at n = 10^4 each extra (m, n) array adds to peak memory
    y = np.array([m.values for m in measures], dtype=float)
    _check_sample(y, [m.name for m in measures])

    lo = y.min(axis=1)
    pre_shift = np.where(lo <= 0.0, -lo + _SHIFT_MARGIN * (y.max(axis=1) - lo), 0.0)
    y += pre_shift[:, None]  # adding 0.0 leaves an unshifted, positive row as it is
    # a spread below the float resolution of the row's magnitude rounds the
    # shifted minimum back to zero, where Box-Cox is undefined
    nonpositive = y.min(axis=1) <= 0.0
    if nonpositive.any():
        name = measures[int(np.argmax(nonpositive))].name
        raise DegenerateSampleError(f"measure {name!r}: the pre-shift leaves a non-positive "
                                    "value; its spread is below the float resolution of its "
                                    "magnitude")
    mean_scale = y.mean(axis=1)
    y /= mean_scale[:, None]

    logy = box_cox(y, 0.0)
    lams = _fit_lambdas(logy)
    z = _box_cox_rows(logy, lams[:, None])[:, 0]
    del logy
    keep = np.abs(_skewness_rows(z)) < np.abs(_skewness_rows(y))
    z[~keep] = y[~keep]

    post_mean = z.mean(axis=1)
    z -= post_mean[:, None]
    post_std = z.std(axis=1, ddof=1)
    if np.any(post_std == 0.0):
        name = measures[int(np.argmax(post_std == 0.0))].name
        raise DegenerateSampleError(f"measure {name!r} is constant")
    z /= post_std[:, None]

    out = []
    for i, m in enumerate(measures):
        flipped = not m.bigger_is_better
        params = TransformParams(
            pre_shift=float(pre_shift[i]),
            mean_scale=float(mean_scale[i]),
            box_cox_lambda=float(lams[i]) if keep[i] else None,
            post_mean=float(post_mean[i]),
            post_std=float(post_std[i]),
            flipped=flipped,
        )
        out.append(StandardizedMeasure(m.name, -z[i] if flipped else z[i], params))
    return out


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


def _check_sample(xs: np.ndarray, names: Sequence[str] | None = None) -> None:
    """Reject a sample that is too short or constant.

    With ``names`` each row of ``xs`` is one sample, and the message names
    the measure of the first row at fault.
    """
    rows = xs if names is not None else xs.reshape(1, -1)
    n = rows.shape[1]
    if n < 3:
        bad, reason = 0, f"need at least 3 values, got {n}"
    else:
        constant = np.all(rows == rows[:, :1], axis=1)
        if not constant.any():
            return
        bad, reason = int(np.argmax(constant)), "sample is constant"
    raise DegenerateSampleError(reason if names is None else f"measure {names[bad]!r}: {reason}")
