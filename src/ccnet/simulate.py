"""Validity study: composite scores from arbitrary measure sets vs sample size.

Five synthetic "measures" drawn from wildly different distributions are pushed
through the full standardise-and-combine pipeline at increasing sample sizes.
Tracked per size: the Monte-Carlo KS p-value of the composite, the composite's
KS statistic, and the KS statistic of raw standard-normal draws with no
in-sample standardisation (``null_ks``, the fully specified reference).
Composites carry exact zero sample mean and unit sample variance, which pulls
their KS statistic below ``null_ks``, so ``null_ks`` is not a composite's noise
floor; that floor is the composite curve of the exact-null control run
(``sampler=sample_standard_normal_set``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .composite import combine_set
from .gof import DEFAULT_REPLICATES, check_replicates, ks_null_table, ks_rank, ks_statistic
from .measures import MeasureVector
from .standardize import standardize_set

_Z95 = 1.96


@dataclass(frozen=True)
class ArbMeasureSpec:
    """Parameters of the five-distribution synthetic measure set.

    ``exponential_mu`` is the distribution mean.  The log-normal parameters
    are those of the underlying normal.
    """

    uniform_low: float = 0.0
    uniform_high: float = 1.0
    normal_mean: float = 1e5
    normal_sigma: float = 1e3
    lognormal_mu: float = 2.0
    lognormal_sigma: float = 2.0
    exponential_mu: float = 1e-3
    pareto_xmin: float = 100.0
    pareto_alpha: float = 3.0

    def __post_init__(self) -> None:
        if not self.uniform_high > self.uniform_low:
            raise ValueError("uniform upper bound must exceed the lower bound")
        if self.normal_sigma <= 0 or self.lognormal_sigma <= 0:
            raise ValueError("sigma parameters must be positive")
        if self.exponential_mu <= 0:
            raise ValueError("exponential parameter must be positive")
        if self.pareto_xmin <= 0 or self.pareto_alpha <= 0:
            raise ValueError("Pareto parameters must be positive")


@dataclass(frozen=True)
class SizeResult:
    """Aggregates for one sample size (means with 95% confidence bands)."""

    size: int
    p_mean: float
    p_lo: float
    p_hi: float
    comp_ks_mean: float
    comp_ks_lo: float
    comp_ks_hi: float
    null_ks_mean: float
    null_ks_lo: float
    null_ks_hi: float


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[SizeResult, ...]
    p_realizations: int
    stat_realizations: int
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        sizes = [r.size for r in self.rows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        for r in self.rows:
            if not (r.p_lo <= r.p_mean <= r.p_hi
                    and r.comp_ks_lo <= r.comp_ks_mean <= r.comp_ks_hi
                    and r.null_ks_lo <= r.null_ks_mean <= r.null_ks_hi):
                raise ValueError("confidence bands must contain their means")

    def row(self, size: int) -> SizeResult:
        for r in self.rows:
            if r.size == size:
                return r
        raise KeyError(f"size {size} not present in the study")


def _streams(n: int, seed: int | np.random.SeedSequence) -> list[np.random.Generator]:
    """The five measures' independent streams, once ``n`` is large enough."""
    if n < 10:
        raise ValueError("need at least 10 samples per measure")
    return np.random.default_rng(seed).spawn(5)


def sample_arb(spec: ArbMeasureSpec, n: int,
               seed: int | np.random.SeedSequence) -> list[MeasureVector]:
    """Draw the five synthetic measures, one independent stream each."""
    rngs = _streams(n, seed)
    values = [
        rngs[0].uniform(spec.uniform_low, spec.uniform_high, n),
        rngs[1].normal(spec.normal_mean, spec.normal_sigma, n),
        rngs[2].lognormal(spec.lognormal_mu, spec.lognormal_sigma, n),
        rngs[3].exponential(spec.exponential_mu, n),
        (rngs[4].pareto(spec.pareto_alpha, n) + 1.0) * spec.pareto_xmin,
    ]
    names = ("uniform", "normal", "log-normal", "exponential", "pareto")
    return [MeasureVector(name, v, bigger_is_better=True)
            for name, v in zip(names, values)]


def sample_standard_normal_set(n: int,
                               seed: int | np.random.SeedSequence) -> list[MeasureVector]:
    """Control sampler: five i.i.d. standard-normal 'measures' (exact-null run)."""
    return [MeasureVector(f"normal-{k}", rng.standard_normal(n), bigger_is_better=True)
            for k, rng in enumerate(_streams(n, seed))]


def composite_scores(measures: Sequence[MeasureVector]) -> np.ndarray:
    """Standardise the measures as one set and combine them flat."""
    return combine_set(standardize_set(measures)).values


def gof_vs_n_study(sizes: Sequence[int] = (100, 1_000, 10_000),
                   p_realizations: int = 10,
                   stat_realizations: int = 100,
                   replicates: int = DEFAULT_REPLICATES,
                   seed: int = 0,
                   sampler: Callable[[int, np.random.SeedSequence],
                                     list[MeasureVector]] | None = None) -> StudyResult:
    """Run the composite-score goodness-of-fit study over sample sizes.

    Per size: ``stat_realizations`` independent composite samples feed the
    KS-statistic curve, and as many raw standard-normal draws, not
    standardised in sample, feed the ``null_ks`` curve.  That curve is
    therefore not the composite's noise floor; run with
    ``sampler=sample_standard_normal_set`` for that.  The Monte-Carlo
    p-value is evaluated on the first ``p_realizations`` composites, each
    ranked against one KS null table per size (the fully specified null
    depends only on n).  The p-band therefore carries no Monte-Carlo noise
    between realisations: every p at a size reads the same table, whose own
    error has standard deviation at most 1/(2 sqrt(replicates)).  Samples
    are seeded through spawn keys of (size, realization, stream) and each
    size's null table through the key (size,), so results are bit-identical
    for a given seed and independent of evaluation order.  The sizes run one
    after another: a size's composites and null draws come first, then its
    table, so a size the sampler rejects fails before its table is drawn.
    The default sampler is ``sample_arb`` with the default ``ArbMeasureSpec``.
    """
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ValueError("sizes must name at least one sample size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    # a band needs two realisations for its standard deviation
    for name, count in (("p_realizations", p_realizations),
                        ("stat_realizations", stat_realizations)):
        if count < 2:
            raise ValueError(f"{name} must be at least 2, got {count}")
    check_replicates(replicates)
    if sampler is None:
        spec = ArbMeasureSpec()
        sampler = lambda n, ss: sample_arb(spec, n, ss)  # noqa: E731

    rows = []
    for n in sizes:
        comp_stats = [ks_statistic(composite_scores(sampler(
            n, np.random.SeedSequence(entropy=seed, spawn_key=(n, r, 0)))))
            for r in range(max(stat_realizations, p_realizations))]
        null_stats = [ks_statistic(np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(n, r, 2))).standard_normal(n))
            for r in range(stat_realizations)]
        null = ks_null_table(n, replicates, np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
        p_values = [ks_rank(stat, null, seed).p_value for stat in comp_stats[:p_realizations]]
        rows.append(SizeResult(
            size=n,
            **_band("p", p_values),
            **_band("comp_ks", comp_stats[:stat_realizations]),
            **_band("null_ks", null_stats),
        ))
    return StudyResult(tuple(rows), p_realizations, stat_realizations, replicates, seed)


def max_error_estimate(study: StudyResult, n: int) -> float:
    """Upper 95% band of the composite KS statistic at size n.

    Interpreted as the maximal error when reading a tail probability for a
    composite score off the standard-normal CDF.
    """
    return study.row(n).comp_ks_hi


def _band(prefix: str, values: Sequence[float]) -> dict[str, float]:
    mean = float(np.mean(values))
    half = float(_Z95 * np.std(values, ddof=1) / np.sqrt(len(values)))
    return {f"{prefix}_mean": mean, f"{prefix}_lo": mean - half,
            f"{prefix}_hi": mean + half}


def study_to_csv(study: StudyResult) -> str:
    """One header line of ``SizeResult`` field names, then one line per size."""
    lines = [",".join(f.name for f in fields(SizeResult))]
    for row in study.rows:
        lines.append(",".join(str(v) if k == "size" else repr(v)
                              for k, v in asdict(row).items()))
    return "\n".join(lines) + "\n"


def study_to_json(study: StudyResult) -> str:
    doc = {
        "p_realizations": study.p_realizations,
        "stat_realizations": study.stat_realizations,
        "replicates": study.replicates,
        "seed": study.seed,
        "rows": [asdict(row) for row in study.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def study_from_json(text: str) -> StudyResult:
    doc = json.loads(text)
    rows = tuple(SizeResult(**row) for row in doc["rows"])
    return StudyResult(rows, doc["p_realizations"], doc["stat_realizations"],
                       doc["replicates"], doc["seed"])
