"""Command-line front end: analyze, simulate, ngfp, cdf, standardize."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .figures import render_cdf_overlay, render_ngfp
from .io import (
    adjust_threshold,
    analyze,
    factor_for_year,
    load_factors,
    report_from_json,
    report_to_json,
)
from .measures import MeasureVector
from .simulate import gof_vs_n_study, sample_standard_normal_set, study_to_csv, study_to_json
from .standardize import standardize


def _read_values(path: str) -> np.ndarray:
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for text in line.split():
                try:
                    values.append(float(text))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric value {text!r}") from None
    return np.array(values)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_reports(paths: list[str]):
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(report_from_json(fh.read()))
    return reports


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccnet",
        description="Composite centrality scores for weighted directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on an edge list")
    p.add_argument("--edges", required=True, help="CSV with header source,target,weight")
    p.add_argument("--threshold", type=float, required=True, help="base edge threshold")
    p.add_argument("--factor-file", help="year,factor CSV of threshold multipliers")
    p.add_argument("--year", type=int, help="year tag; selects the factor when given")
    p.add_argument("--scheme", default="drt", help="builtin id (drt|rtd|tdr) or scheme JSON path")
    p.add_argument("--measures", default="sf", choices=("sf", "alt"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--out", help="report JSON path (stdout when omitted)")

    p = sub.add_parser("simulate", help="composite GoF study over sample sizes")
    p.add_argument("--sizes", default="100,1000,10000", help="comma-separated sample sizes")
    p.add_argument("--p-realizations", type=int, default=10)
    p.add_argument("--stat-realizations", type=int, default=100)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--control", action="store_true",
                   help="replace the five distributions by i.i.d. standard normals")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.csv and <out>.json")

    p = sub.add_parser("ngfp", help="generation-fingerprint SVG for one node")
    p.add_argument("--reports", nargs="+", required=True, help="report JSON files")
    p.add_argument("--node", required=True, help="node label")
    p.add_argument("--out", help="SVG path (stdout when omitted)")

    p = sub.add_parser("cdf", help="composite-score CDF overlay SVG")
    p.add_argument("--reports", nargs="+", help="pool composite scores from report JSONs")
    p.add_argument("--values", help="file of raw score values, one per line")
    p.add_argument("--out", help="SVG path (stdout when omitted)")

    p = sub.add_parser("standardize", help="standardise a raw value vector")
    p.add_argument("--values", required=True, help="file of raw values, one per line")
    p.add_argument("--name", default="measure")
    p.add_argument("--smaller-is-better", action="store_true")
    p.add_argument("--out", help="JSON path (stdout when omitted)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"ccnet: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "analyze":
        e_th = args.threshold
        if args.factor_file is not None:
            if args.year is None:
                raise ValueError("--factor-file needs --year")
            e_th = adjust_threshold(e_th, factor_for_year(load_factors(args.factor_file),
                                                          args.year))
        report = analyze(args.edges, e_th, scheme=args.scheme, measure_set=args.measures,
                         seed=args.seed, replicates=args.replicates, year=args.year)
        _write(report_to_json(report), args.out)
        return 0

    if args.command == "simulate":
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        sampler = sample_standard_normal_set if args.control else None
        study = gof_vs_n_study(sizes, p_realizations=args.p_realizations,
                               stat_realizations=args.stat_realizations,
                               replicates=args.replicates, seed=args.seed,
                               sampler=sampler)
        _write(study_to_csv(study), f"{args.out}.csv")
        _write(study_to_json(study), f"{args.out}.json")
        return 0

    if args.command == "ngfp":
        svg = render_ngfp(_load_reports(args.reports), args.node)
        _write(svg, args.out)
        return 0

    if args.command == "cdf":
        if bool(args.reports) == bool(args.values):
            raise ValueError("give exactly one of --reports or --values")
        if args.reports:
            scores = np.concatenate(
                [r.generations.root().values for r in _load_reports(args.reports)])
        else:
            scores = _read_values(args.values)
        _write(render_cdf_overlay(scores), args.out)
        return 0

    if args.command == "standardize":
        values = _read_values(args.values)
        sm = standardize(MeasureVector(args.name, values,
                                       bigger_is_better=not args.smaller_is_better))
        doc = {"name": sm.name, "values": sm.values.tolist(), "params": asdict(sm.params)}
        _write(json.dumps(doc, indent=2) + "\n", args.out)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
