"""Composite centrality for weighted directed networks.

Build graphs from edge lists, reduce them to the largest strongly connected
component of a threshold graph, compute radial node measures, standardise them
onto a common zero-mean/unit-variance scale, combine them through inheritance
schemes into composite scores, and test the scores against the standard
normal distribution.
"""

__version__ = "0.1.0"

from .graph import (
    GraphError,
    GraphSummary,
    WeightedDigraph,
    algebraic_connectivity,
    assortativity,
    build_graph,
    clustering,
    coverage,
    diameter,
    edge_density,
    graph_asymmetry,
    hop_distance_matrix,
    largest_scc,
    strongly_connected_components,
    threshold_graph,
)
from .measures import (
    AXES,
    STANDARD_MEASURE_NAMES,
    MeasureVector,
    aspl,
    degree,
    eigenvector_centrality,
    max_flow,
    maxflow_measure,
    standard_measure_set,
    strength,
    summarize,
)
from .standardize import (
    DegenerateSampleError,
    InversionError,
    StandardizedMeasure,
    TransformParams,
    box_cox,
    box_cox_inverse,
    box_cox_loglik,
    fit_lambda,
    invert,
    skewness,
    standardize,
    standardize_set,
)
from .composite import (
    BUILTIN_SCHEME_IDS,
    DegenerateCombinationError,
    GenerationScore,
    GenerationScores,
    InheritanceScheme,
    SchemeError,
    SchemeNode,
    builtin_scheme,
    combine,
    combine_set,
    load_scheme,
    parse_scheme,
    run_scheme,
    scheme_invariance,
    scheme_to_dict,
)
from .gof import (
    AD_CRITICAL_10PCT,
    GoFReport,
    anderson_darling,
    ks_p_value,
    ks_statistic,
)
from .simulate import (
    ArbMeasureSpec,
    SizeResult,
    StudyResult,
    composite_scores,
    gof_vs_n_study,
    max_error_estimate,
    sample_arb,
    sample_standard_normal_set,
    study_from_json,
    study_to_csv,
    study_to_json,
)
from .io import (
    AnalysisReport,
    EdgeListError,
    adjust_threshold,
    analyze,
    factor_for_year,
    load_factors,
    parse_edge_list,
    report_from_json,
    report_to_json,
)
from .figures import render_cdf_overlay, render_ngfp

__all__ = [name for name in dir() if not name.startswith("_")]
