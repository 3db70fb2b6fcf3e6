"""Rank-based research-assessment metrics.

Synthetic lognormal citation ensembles, dual-rank extraction against an
aggregated world list, the Rk-index and top-percentile indicators, the
validation experiments behind them, and an ingest path for real
citation-record files.
"""

__version__ = "0.1.0"

from .errors import DataError
from .indicators import (
    PercentileResult,
    RkResult,
    analytic_ptop,
    count_uncited,
    empirical_ptop,
    fractional_rk,
    lognormal_survival,
    percentile_cutoff,
    rk_from_rank1s,
    rk_index,
    rk_rows,
)
from .rankcore import (
    COMPETITION,
    ORDINAL,
    InsufficientPapersError,
    RankPair,
    RankQuery,
    TopKRanks,
    build_world,
    dual_ranks,
    geometric_mean,
    ratio_index,
    top_k,
)
from .synthdist import (
    CitationSeries,
    Ensemble,
    EnsembleConfig,
    LognormalSpec,
    build_grid,
    combine_series,
    generate_ensemble,
    load_config,
    sample_series,
)

__all__ = [
    "__version__",
    "DataError",
    "CitationSeries",
    "Ensemble",
    "EnsembleConfig",
    "LognormalSpec",
    "build_grid",
    "combine_series",
    "generate_ensemble",
    "load_config",
    "sample_series",
    "COMPETITION",
    "ORDINAL",
    "InsufficientPapersError",
    "RankPair",
    "RankQuery",
    "TopKRanks",
    "build_world",
    "dual_ranks",
    "geometric_mean",
    "ratio_index",
    "top_k",
    "PercentileResult",
    "RkResult",
    "analytic_ptop",
    "count_uncited",
    "empirical_ptop",
    "fractional_rk",
    "lognormal_survival",
    "percentile_cutoff",
    "rk_from_rank1s",
    "rk_index",
    "rk_rows",
]
