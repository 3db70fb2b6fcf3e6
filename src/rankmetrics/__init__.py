"""Rank-based research-assessment metrics.

Synthetic lognormal citation ensembles, dual-rank extraction against an
aggregated world list, the Rk-index and top-percentile indicators, the
validation experiments behind them, and an ingest path for real
citation-record files.

The names below load their module on first access (PEP 562), so
importing the package, or the command line, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each package-level name and the module that defines it
_HOMES = {
    "DataError": "errors",
    "CitationSeries": "synthdist",
    "Ensemble": "synthdist",
    "EnsembleConfig": "synthdist",
    "LognormalSpec": "synthdist",
    "build_grid": "synthdist",
    "generate_ensemble": "synthdist",
    "load_config": "synthdist",
    "sample_series": "synthdist",
    "COMPETITION": "base",
    "ORDINAL": "base",
    "RankPair": "rankcore",
    "RankQuery": "rankcore",
    "TopKRanks": "rankcore",
    "build_world": "rankcore",
    "dual_ranks": "rankcore",
    "geometric_mean": "rankcore",
    "ratio_index": "rankcore",
    "top_k": "rankcore",
    "PercentileResult": "indicators",
    "RkResult": "indicators",
    "analytic_ptop": "indicators",
    "count_uncited": "indicators",
    "empirical_ptop": "indicators",
    "lognormal_survival": "indicators",
    "percentile_cutoff": "indicators",
    "rk_from_rank1s": "indicators",
    "rk_index": "indicators",
    "rk_rows": "indicators",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
