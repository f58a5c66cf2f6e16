"""Edge-list ingestion, the end-to-end analysis pipeline and report persistence.

Input format: UTF-8 CSV with header ``source,target,weight``, one directed
edge per line; fields may be quoted (``"Korea, Rep."``).  Threshold factors
come from a ``year,factor`` CSV.  Reports serialize to JSON deterministically
(a fixed key order and plain float reprs), so identical seeds give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import __version__
from .composite import (
    BUILTIN_SCHEME_IDS,
    GenerationScore,
    GenerationScores,
    InheritanceScheme,
    builtin_scheme,
    load_scheme,
    run_scheme,
)
from .gof import (
    AD_MIN_SAMPLE,
    DEFAULT_REPLICATES,
    GoFReport,
    anderson_darling,
    check_replicates,
    ks_null_table,
    ks_rank,
    ks_statistic,
)
from .graph import (GraphError, GraphSummary, _check_edge, _check_positive, build_graph,
                    largest_scc, threshold_graph)
from .measures import (
    STANDARD_MEASURE_NAMES,
    MeasureVector,
    eigenvector_centrality,
    standard_measure_set,
    summarize,
)
from .standardize import standardize, standardize_set

MEASURE_SETS = ("sf", "alt")


class EdgeListError(ValueError):
    """Malformed edge-list or factor file; messages carry the line number."""


def _csv_rows(path: str, header: list[str]) -> list[tuple[int, list[str]]]:
    """(line number, stripped fields) of each non-blank row after ``header``.

    Fields may be quoted, so a label such as ``"Korea, Rep."`` is one field.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, skipinitialspace=True)
        try:
            rows = [(reader.line_num, [c.strip() for c in row]) for row in reader]
        except csv.Error as exc:
            raise EdgeListError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or rows[0][1] != header:
        raise EdgeListError(f"{path}: line 1: expected header {','.join(header)!r}")
    return [(lineno, fields) for lineno, fields in rows[1:] if fields not in ([], [""])]


def parse_edge_list(path: str) -> list[tuple[str, str, float]]:
    """Read labelled edges from a ``source,target,weight`` CSV."""
    edges: list[tuple[str, str, float]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, parts in _csv_rows(path, ["source", "target", "weight"]):
        if len(parts) != 3:
            raise EdgeListError(f"{path}: line {lineno}: expected 3 columns, got {len(parts)}")
        src, dst, raw_w = parts
        try:
            edges.append((src, dst, _check_edge(src, dst, raw_w, seen)))
        except GraphError as exc:
            raise EdgeListError(f"{path}: line {lineno}: {exc}") from None
        except ValueError:  # float() of the weight field; GraphError is caught above
            raise EdgeListError(f"{path}: line {lineno}: non-numeric weight {raw_w!r}") from None
    return edges


def load_factors(path: str) -> dict[int, float]:
    """Read per-year threshold multipliers from a ``year,factor`` CSV."""
    factors: dict[int, float] = {}
    for lineno, parts in _csv_rows(path, ["year", "factor"]):
        if len(parts) != 2:
            raise EdgeListError(f"{path}: line {lineno}: expected 2 columns")
        try:
            year = int(parts[0])
            factor = float(parts[1])
            _check_positive(factor, "factor")
        except GraphError as exc:
            raise EdgeListError(f"{path}: line {lineno}: {exc}") from None
        except ValueError:  # int() or float() of a field; GraphError is caught above
            raise EdgeListError(f"{path}: line {lineno}: bad year/factor pair") from None
        if year in factors:
            raise EdgeListError(f"{path}: line {lineno}: duplicate year {year}")
        factors[year] = factor
    return factors


def adjust_threshold(base: float, factor: float) -> float:
    """Scale a base edge threshold by a per-year growth factor."""
    _check_positive(base, "threshold")
    _check_positive(factor, "factor")
    return base * factor


def factor_for_year(factors: dict[int, float], year: int) -> float:
    if year not in factors:
        raise EdgeListError(f"no factor recorded for year {year}")
    return factors[year]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one pipeline run produced, in node-label order."""

    source: str
    year: int | None
    threshold: float
    measure_set: str
    scheme_id: str
    seed: int
    replicates: int
    version: str
    labels: tuple[str, ...]
    summary: GraphSummary
    raw_measures: tuple[MeasureVector, ...]
    replaced_measure: str | None
    generations: GenerationScores
    gof: tuple[GoFReport, ...]


def resolve_scheme(scheme: str | InheritanceScheme) -> InheritanceScheme:
    if isinstance(scheme, InheritanceScheme):
        return scheme
    if scheme in BUILTIN_SCHEME_IDS:
        return builtin_scheme(scheme)
    return load_scheme(scheme)


def analyze(edges_path: str,
            e_th: float,
            scheme: str | InheritanceScheme = "drt",
            measure_set: str = "sf",
            seed: int = 0,
            replicates: int = DEFAULT_REPLICATES,
            year: int | None = None) -> AnalysisReport:
    """Full pipeline: threshold, LSCC, measures, standardise, scheme, GoF.

    ``measure_set="alt"`` replaces the G1 measure with the lowest Monte-Carlo
    KS p-value by eigenvector centrality (leaf renamed to "EC" in the scheme).
    A bad threshold, measure set, replicate count, seed or scheme (leaves
    other than the eight standard names) fails before the edge list is
    read.  ``standardize_set`` rejects a G1 set with constant measures before
    any Monte-Carlo work, naming every constant measure in one message.
    """
    _check_positive(e_th, "threshold")
    if measure_set not in MEASURE_SETS:
        raise ValueError(f"measure_set must be one of {MEASURE_SETS}")
    check_replicates(replicates)
    # the KS null table's seed; a negative seed fails here
    null_seed = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    scheme_obj = resolve_scheme(scheme)
    scheme_obj.check_leaves(STANDARD_MEASURE_NAMES)

    edges = parse_edge_list(edges_path)
    full = build_graph(edges)
    lsctg = largest_scc(threshold_graph(full, e_th))
    if lsctg.n < AD_MIN_SAMPLE:
        raise GraphError(f"largest strongly connected component has {lsctg.n} nodes; "
                         f"the goodness-of-fit tests need at least {AD_MIN_SAMPLE}")
    summary = summarize(lsctg, full=full)

    raw = standard_measure_set(lsctg)
    g1 = standardize_set(raw)  # policy: reject a constant measure, never drop it
    # one KS null table for every test below: all samples have lsctg.n values
    null = ks_null_table(lsctg.n, replicates, null_seed)
    replaced: str | None = None
    if measure_set == "alt":
        p_values = [ks_rank(ks_statistic(m.values), null, seed).p_value for m in g1]
        worst = int(np.argmin(p_values))
        replaced = raw[worst].name
        raw[worst] = eigenvector_centrality(lsctg)
        g1[worst] = standardize(raw[worst])
        scheme_obj = scheme_obj.rename_leaf(replaced, "EC")

    generations = run_scheme(scheme_obj, g1)

    gof = [_named(ks_rank(ks_statistic(node.values), null, seed), node.name)
           for node in generations.nodes]
    root = generations.root()
    gof.append(_named(anderson_darling(root.values), root.name))

    return AnalysisReport(
        source=edges_path,
        year=year,
        threshold=float(e_th),
        measure_set=measure_set,
        scheme_id=scheme_obj.scheme_id,
        seed=seed,
        replicates=replicates,
        version=__version__,
        labels=lsctg.labels,
        summary=summary,
        raw_measures=tuple(raw),
        replaced_measure=replaced,
        generations=generations,
        gof=tuple(gof),
    )


def _named(report: GoFReport, measure: str) -> GoFReport:
    return replace(report, test_name=f"{report.test_name}:{measure}")


# (JSON key, AnalysisReport field) of the "meta" block, in output order
_META = (("source", "source"), ("year", "year"), ("threshold", "threshold"),
         ("measure_set", "measure_set"), ("scheme", "scheme_id"), ("seed", "seed"),
         ("replicates", "replicates"), ("version", "version"))
# keys of a "gof" entry, in GoFReport field order ("test" holds test_name)
_GOF_KEYS = ("test", "statistic", "p_value", "replicates", "seed", "decision")


def report_to_json(report: AnalysisReport) -> str:
    doc = {
        "meta": {key: getattr(report, field) for key, field in _META},
        "summary": asdict(report.summary),
        "nodes": list(report.labels),
        "raw_measures": [
            {"name": m.name, "bigger_is_better": m.bigger_is_better,
             "values": m.values.tolist()}
            for m in report.raw_measures
        ],
        "replaced_measure": report.replaced_measure,
        "generations": [
            {"name": g.name, "generation": g.generation,
             "values": g.values.tolist(),
             "display_heights": g.display_heights.tolist()}
            for g in report.generations.nodes
        ],
        "gof": [dict(zip(_GOF_KEYS, astuple(r))) for r in report.gof],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    """Rebuild a report from its JSON form (round-trips byte-identically); ``ValueError``
    for a document of another shape, with no generation or an array not as long as ``nodes``."""
    doc = json.loads(text)
    try:
        meta = {field: doc["meta"][key] for key, field in _META}
        summary = GraphSummary(**doc["summary"])
        raw = tuple(MeasureVector(m["name"], np.asarray(m["values"]), m["bigger_is_better"])
                    for m in doc["raw_measures"])
        nodes = tuple(
            GenerationScore(g["name"], g["generation"],
                            np.asarray(g["values"]), np.asarray(g["display_heights"]))
            for g in doc["generations"]
        )
        if not nodes:
            raise ValueError("not a ccnet report: no generation")
        n = len(doc["nodes"])
        for name, v in [(m.name, m.values) for m in raw] + [
                (g.name, v) for g in nodes for v in (g.values, g.display_heights)]:
            if np.shape(v) != (n,):
                raise ValueError(f"not a ccnet report: {name!r} has {np.size(v)} values "
                                 f"for {n} nodes")
        generations = GenerationScores(meta["scheme_id"], nodes)
        gof = tuple(GoFReport(*(r[key] for key in _GOF_KEYS)) for r in doc["gof"])
        return AnalysisReport(
            **meta,
            labels=tuple(doc["nodes"]),
            summary=summary,
            raw_measures=raw,
            replaced_measure=doc["replaced_measure"],
            generations=generations,
            gof=gof,
        )
    except (KeyError, TypeError) as exc:  # a missing key, or a list where an object belongs
        raise ValueError(f"not a ccnet report: {type(exc).__name__}: {exc}") from None
