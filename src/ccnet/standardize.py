"""Measure standardisation: Box-Cox skewness correction plus statistical normalisation.

The recipe, applied to a positive-valued raw measure:

0. if any value is non-positive, pre-shift the whole sample slightly above zero;
1. rescale to mean one, fit the Box-Cox exponent by maximum likelihood and
   transform -- the transform is kept only if it strictly reduced the absolute
   sample skewness, so a sample with two distinct values keeps the identity;
2. subtract the sample mean;
3. divide by the sample standard deviation (Bessel, n-1);
4. negate when the measure's convention is smaller-is-better.

Every parameter is recorded so the chain inverts exactly.  ``standardize_set``
runs the recipe on a set of equal-length measures at once, fitting all their
exponents in lock step by safeguarded Newton steps on the concave likelihood;
``standardize`` is its one-measure call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .measures import MeasureVector

LAMBDA_MIN = -5.0
LAMBDA_MAX = 5.0
# a row of the fit stops once its step is below this
_STEP_TOL = 1e-6
# halving the width-5 bracket takes 23 steps to pass _STEP_TOL; the cap
# leaves as many again for Newton steps that narrow it less
_MAX_STEPS = 46
# below this |lam| the derivatives of the transform come from its series
_SERIES = 1e-5
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
    x~ = box_cox(x, lam), evaluated as that of x / mean(x) less n ln mean(x):
    far from one, x^lam keeps almost none of the sample's spread.  -inf
    where the value is not finite: an exponent that overflows, or a variance
    that rounds to zero.
    """
    logx, c = _mean_one_log(xs)
    n = logx.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = logx if lam == 0.0 else np.expm1(lam * logx) / lam
        var = np.sum(np.square(t - t.mean())) / n
        ll = (lam - 1.0) * np.sum(logx) - 0.5 * n * np.log(var) - n * np.log(c)
    return float(ll) if np.isfinite(ll) else -np.inf


def fit_lambda(xs) -> float:
    """Maximum-likelihood Box-Cox exponent over [-5, 5]: ``_fit_lambdas`` of the
    sample rescaled to mean one, as ``standardize`` fits it (the maximiser does
    not depend on scale, but far from one the likelihood loses precision)."""
    return float(_fit_lambdas(_mean_one_log(xs)[0][None])[0])


def _mean_one_log(xs) -> tuple[np.ndarray, float]:
    """ln(x / c) of a valid sample, and c = mean(x)."""
    xs = np.asarray(xs, dtype=float)
    _check_sample(xs)
    with np.errstate(all="ignore"):  # an overflowing mean or an underflow leaves x / c <= 0
        c = float(xs.mean())
        y = xs / c
    if not (np.all(xs > 0.0) and np.all(y > 0.0)):
        raise ValueError("Box-Cox input must be strictly positive, with a mean that does "
                         "not overflow and no value that underflows at mean one")
    return np.log(y), c


def _fit_lambdas(logx: np.ndarray) -> np.ndarray:
    """``fit_lambda`` of every row of a mean-one x, given as ln x (m, n), in lock step.

    The profile log-likelihood l is concave in lam (Kouider & Chen 1995).  In
    exact arithmetic the variance of the transformed sample is
    sigma^2(lam) = 1/(2 n^2) sum_ik (I_ik(lam))^2, with
    I_ik(lam) = (x_i^lam - x_k^lam)/lam = integral of e^(lam u) du from
    ln x_k to ln x_i.  Each I_ik is a Laplace transform of a positive
    measure, so it is log-convex (Cauchy-Schwarz), as are its square and the
    sum of the squares; -(n/2) ln sigma^2 is then concave, and adding the
    linear (lam - 1) sum(ln x) keeps it so.  So l' falls, and its sign at a
    point says on which side the maximiser lies.

    A row takes Newton steps lam - l'/l'' from 0 inside the bracket between
    0 and the edge of [-5, 5] that l'(0) points to; the sign of l' at each
    point narrows the bracket.  A step that would leave it, or one from a
    point where l'' is not negative, goes to that edge instead, where a row
    whose l' still points outwards stops; once the edge is evaluated such
    steps bisect.  A row stops once its step is below ``_STEP_TOL``.  Each
    pass runs all m rows in three reused (m, n) buffers.  Far from mean one,
    centred y and y' keep no digits (ln x near 230 gives -0.098, not -5.0).
    """
    slog, work, lam = np.sum(logx, axis=1), np.empty((3, *logx.shape)), np.zeros(len(logx))
    d1, d2 = _slopes(logx, slog, lam, work)
    edge = np.where(d1 > 0.0, LAMBDA_MAX, LAMBDA_MIN)
    lo, hi = np.minimum(edge, 0.0), np.maximum(edge, 0.0)
    live, probed = np.ones(lam.size, bool), np.zeros(lam.size, bool)
    for _ in range(_MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            new = lam - d1 / d2
        new = np.where((d2 < 0.0) & (new >= lo) & (new <= hi), new,
                       np.where(probed, 0.5 * (lo + hi), edge))
        lam, live = np.where(live, new, lam), live & (np.abs(new - lam) >= _STEP_TOL)
        if not live.any():
            break
        d1, d2 = _slopes(logx, slog, lam, work)
        probed |= lam == edge
        live &= ~((lam == edge) & np.where(edge > 0.0, d1 >= 0.0, d1 <= 0.0))
        # a non-finite l' (an overflow, or a variance rounded to 0) lies far from 0
        up = np.where(np.isfinite(d1), d1 > 0.0, lam < 0.0)
        lo = np.where(live & up, lam, lo)
        hi = np.where(live & ~up, lam, hi)
    return lam


def _slopes(logx: np.ndarray, slog: np.ndarray, lam: np.ndarray,
            work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l' and l'' of each row of x, given as ln x (m, n), at its exponent lam.

    With L = ln x, y = expm1(lam L)/lam and x^lam = 1 + lam y:
    y' = (L x^lam - y)/lam and y'' = (L^2 x^lam - 2 y')/lam, or, where
    |lam| < ``_SERIES`` and those cancel, y'' = L^3/3, y' = L^2/2 + lam y''
    and y = L + lam (y' - lam y''/2).  With y, y' centred and S(a b) = sum
    of a b, l' = sum(L) - n S(y y')/S(y y) and l'' = -n ((S(y' y') +
    S(y y''))/S(y y) - 2 (S(y y')/S(y y))^2).  ``work`` holds three (m, n)
    buffers: y, y' and y'' (or L^2 x^lam, whose S(y .) gives S(y y'')).
    """
    n = logx.shape[1]
    y, y1, y2 = work
    col = lam[:, None]
    series = np.abs(lam) < _SERIES
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not series.all():
            np.expm1(np.multiply(logx, col, out=y), out=y)
            np.add(y, 1.0, out=y1)  # x^lam
            y /= col
            y1 *= logx
            np.multiply(y1, logx, out=y2)  # L^2 x^lam
            y1 -= y
            y1 /= col
        for i in [slice(None)] if series.all() else np.flatnonzero(series):
            L, t, a, b, c = logx[i], col[i], y[i], y1[i], y2[i]
            np.multiply(np.multiply(L, L, out=b), L, out=c)
            c /= 3.0
            b *= 0.5
            b += np.multiply(c, t, out=a)
            np.multiply(c, -0.5 * t, out=a)
            a += b
            a *= t
            a += L
        y -= y.mean(axis=1, keepdims=True)
        y1 -= y1.mean(axis=1, keepdims=True)
        s_y2, s_y1, s_11, s_yy = (np.multiply(a, b, out=y2).sum(axis=1)
                                  for a, b in ((y2, y), (y, y1), (y1, y1), (y, y)))
        # S(y y'') from S(y L^2 x^lam) off the series, as y sums to zero
        s_y2 = np.where(series, s_y2, (s_y2 - 2.0 * s_y1) / lam)
        r = s_y1 / s_yy
        return slog - n * r, -n * ((s_11 + s_y2) / s_yy - 2.0 * r * r)


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
    exponents are fitted in lock step (``_fit_lambdas``).  Row by row the
    arithmetic is the one-measure recipe's, so each result equals
    ``standardize`` of that measure bit for bit.  An empty set, unequal
    lengths, too-short measures and constant ones (every one named, in one
    message) are rejected before any fit, as is a measure whose spread is
    too small for the pre-shift to lift its minimum above zero.
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
    # shifted, then the mean-one rows, and z their logs, then the transformed,
    # then the output rows; at n = 10^4 each extra (m, n) array adds to peak memory
    y = np.array([m.values for m in measures], dtype=float)
    _check_sample(y, [m.name for m in measures])

    lo = y.min(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # the test below names the row
        pre_shift = np.where(lo <= 0.0, -lo + _SHIFT_MARGIN * (y.max(axis=1) - lo), 0.0)
        y += pre_shift[:, None]  # adding 0.0 leaves an unshifted, positive row as it is
        mean_scale = y.mean(axis=1)
        y /= mean_scale[:, None]
    # a spread below the row's float resolution, a mean that overflows and a value that
    # underflows at mean one each leave a value at or below 0 (or nan), outside Box-Cox
    y_lo, y_hi = y.min(axis=1, keepdims=True), y.max(axis=1, keepdims=True)
    if not np.all(y_lo > 0.0):
        name = measures[int(np.argmin(y_lo > 0.0))].name
        raise DegenerateSampleError(f"measure {name!r}: the pre-shift and mean scaling leave a "
                                    "non-positive value; its spread is below its float "
                                    "resolution, or its magnitudes overflow or underflow")
    # an increasing transform cannot change a two-valued row's standardised |skewness|
    two_valued = np.all((y == y_lo) | (y == y_hi), axis=1)
    z = np.log(y)
    lams = _fit_lambdas(z)
    col, power = lams[:, None], lams[:, None] != 0.0  # lam = 0 keeps ln y, as box_cox does
    with np.errstate(over="ignore"):
        np.multiply(z, col, out=z, where=power)
        np.expm1(z, out=z, where=power)
        np.divide(z, col, out=z, where=power)
    keep = ~two_valued & (np.abs(_skewness_rows(z)) < np.abs(_skewness_rows(y)))
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
    every constant measure, in row order (or the first, when rows are too short).
    """
    rows = xs if names is not None else xs.reshape(1, -1)
    n = rows.shape[1]
    bad = [0] if n < 3 else np.flatnonzero(np.all(rows == rows[:, :1], axis=1)).tolist()
    if bad:
        reason = (f"need at least 3 values, got {n}" if n < 3
                  else "sample is constant" if len(bad) == 1 else "samples are constant")
        if names is not None:
            named = ", ".join(repr(names[i]) for i in bad)
            reason = f"measure{'s' if len(bad) > 1 else ''} {named}: {reason}"
        raise DegenerateSampleError(reason)
