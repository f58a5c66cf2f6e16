"""The three benchmark workloads: inputs, one timed round, and output checks.

A round is a fixed list of operations through ccnet's public entry points,
so every round of a run attempts the same operations.  ``prepare`` writes the
inputs (set-up), ``run_round`` is what gets timed, and ``check`` runs once
after the timed phase on the last round's outputs.  The check modules load
networkx and scipy.stats, so they are imported only inside ``check``.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

TRADE_REPLICATES = 10_000
QUOTED_REPLICATES = 2_500   # keeps the quoted slice cheap once it parses
STUDY_SIZES = (100, 1_000, 10_000)
STUDY_P_REALIZATIONS = 2
STUDY_STAT_REALIZATIONS = 8
STUDY_REPLICATES = 2_500


@dataclass(frozen=True)
class Op:
    """One attempted operation; ``error`` is None when it succeeded."""

    name: str
    error: str | None = None


class Failed(Exception):
    """An operation that reported failure without raising (a non-zero exit)."""


def attempt(name: str, fn) -> Op:
    """Run one operation; an exception makes it a failed operation."""
    try:
        fn()
    except Failed as exc:
        return Op(name, str(exc))
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc()
        return Op(name, f"{type(exc).__name__}: {exc}")
    return Op(name)


def cli(name: str, argv: list[str]) -> Op:
    """``ccnet.cli.main(argv)``; a non-zero exit fails with ccnet's stderr message."""
    import ccnet.cli

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = ccnet.cli.main(argv)
        if status != 0:
            raise Failed(err.getvalue().strip() or f"exit status {status}")
    return attempt(name, call)


class TradeSeries:
    """Yearly trade-like slices through ``ccnet analyze``, then ``ngfp`` and ``cdf``."""

    name = "trade-series"

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.years = inputs.TRADE_YEARS

    def edges(self, year) -> Path:
        return self.work / f"edges-{year}.csv"

    def report(self, year) -> Path:
        return self.work / f"report-{year}.json"

    def prepare(self) -> None:
        slices, factors = inputs.trade_series(self.seed)
        for s in slices:
            inputs.write_edges(str(self.edges(s.year)), s)
        inputs.write_edges(str(self.edges("quoted")), inputs.quoted_slice())
        inputs.write_factors(str(self.work / "factors.csv"), factors)
        self.factors = factors

    def _analyze(self, year, factor_year: int, replicates: int) -> Op:
        return cli(f"analyze {year}", [
            "analyze", "--edges", str(self.edges(year)),
            "--threshold", repr(inputs.TRADE_BASE_THRESHOLD),
            "--factor-file", str(self.work / "factors.csv"), "--year", str(factor_year),
            "--scheme", "drt", "--measures", "sf", "--seed", str(self.seed),
            "--replicates", str(replicates), "--out", str(self.report(year))])

    def run_round(self) -> list[Op]:
        ops = [self._analyze(year, year, TRADE_REPLICATES) for year in self.years]
        ops.append(self._analyze("quoted", inputs.QUOTED_YEAR, QUOTED_REPLICATES))
        reports = [str(self.report(year)) for year in self.years]
        ops.append(cli("ngfp", ["ngfp", "--reports", *reports, "--node", "c000",
                                "--out", str(self.work / "ngfp.svg")]))
        ops.append(cli("cdf", ["cdf", "--reports", *reports, "--out", str(self.work / "cdf.svg")]))
        return ops

    def outputs(self) -> list[Path]:
        return ([self.report(y) for y in (*self.years, "quoted")]
                + [self.work / "ngfp.svg", self.work / "cdf.svg"])

    def check(self, c, ops: list[Op]) -> None:
        from checks import check_quoted, check_report, check_svg

        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(3,)))
        done = {op.name: op for op in ops}
        for year in self.years:
            if done[f"analyze {year}"].error is None:
                check_report(c, self.report(year).read_text(encoding="utf-8"),
                             str(self.edges(year)),
                             inputs.TRADE_BASE_THRESHOLD * self.factors[year], "sample", rng)
        quoted = done["analyze quoted"].error
        if check_quoted(c, str(self.edges("quoted")), quoted) and quoted is None:
            check_report(c, self.report("quoted").read_text(encoding="utf-8"),
                         str(self.edges("quoted")),
                         inputs.TRADE_BASE_THRESHOLD * self.factors[inputs.QUOTED_YEAR],
                         "sample", rng)
        for name in ("ngfp", "cdf"):
            if done[name].error is None:
                check_svg(c, (self.work / f"{name}.svg").read_text(encoding="utf-8"), name)


class MigrationAlt:
    """Regional migration-like slices through ``ccnet.analyze(scheme="rtd", measure_set="alt")``."""

    name = "migration-alt"

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.years = inputs.MIGRATION_YEARS

    def prepare(self) -> None:
        for s in inputs.migration_slices(self.seed):
            inputs.write_edges(str(self.work / f"edges-{s.year}.csv"), s, integer=True)

    def _analyze(self, year: int) -> None:
        import ccnet

        report = ccnet.analyze(str(self.work / f"edges-{year}.csv"), inputs.MIGRATION_THRESHOLD,
                               scheme="rtd", measure_set="alt", seed=self.seed, year=year)
        (self.work / f"report-{year}.json").write_text(ccnet.report_to_json(report),
                                                       encoding="utf-8")

    def run_round(self) -> list[Op]:
        return [attempt(f"analyze {year}", lambda y=year: self._analyze(y)) for year in self.years]

    def outputs(self) -> list[Path]:
        return [self.work / f"report-{year}.json" for year in self.years]

    def check(self, c, ops: list[Op]) -> None:
        from checks import check_report

        for op, year in zip(ops, self.years):
            if op.error is None:
                check_report(c, (self.work / f"report-{year}.json").read_text(encoding="utf-8"),
                             str(self.work / f"edges-{year}.csv"), inputs.MIGRATION_THRESHOLD,
                             "all")


class ValidityStudy:
    """``gof_vs_n_study`` over n = 10^2, 10^3, 10^4 with the five-distribution sampler."""

    name = "validity-study"

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def prepare(self) -> None:
        """The study draws its own samples from the seed; there is nothing to write."""

    def _study(self) -> None:
        import ccnet

        study = ccnet.gof_vs_n_study(STUDY_SIZES, p_realizations=STUDY_P_REALIZATIONS,
                                     stat_realizations=STUDY_STAT_REALIZATIONS,
                                     replicates=STUDY_REPLICATES, seed=self.seed)
        (self.work / "study.json").write_text(ccnet.study_to_json(study), encoding="utf-8")

    def run_round(self) -> list[Op]:
        return [attempt("study", self._study)]

    def outputs(self) -> list[Path]:
        return [self.work / "study.json"]

    def check(self, c, ops: list[Op]) -> None:
        from checks import check_study

        if ops[0].error is None:
            check_study(c, (self.work / "study.json").read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (TradeSeries, MigrationAlt, ValidityStudy)}
