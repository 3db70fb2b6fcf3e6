"""Rank-index and top-percentile indicators.

The Rk-index of a unit is ``scale * geomean(1 / (offset + rank1_i))``
over its k most cited papers' world ranks, defaulting to k=10,
offset=20, scale=1000.  The offset flattens the large proportional jumps
between the very first ranks so the index tracks narrow top percentiles
linearly; the scale just keeps typical values in a readable range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE
from .errors import DataError
from .rankcore import RankQuery, TopKRanks
from .synthdist import REAL, CitationSeries, LognormalSpec

EMPIRICAL = "empirical"
ANALYTIC = "analytic"


@dataclass(frozen=True)
class RkResult:
    """Rk-index of one unit plus the inputs it was computed from."""

    label: str | None
    rk: float
    k: int = DEFAULT_K
    offset: float = DEFAULT_OFFSET
    scale: float = DEFAULT_SCALE
    rank1s: tuple[int, ...] = ()


@dataclass(frozen=True)
class PercentileResult:
    """Papers of one unit among the world's top x% most cited.

    Empirical results count actual papers (integer); analytic results
    multiply the unit's lognormal tail probability above the world
    threshold by its size, so they are real-valued and can be below 1.
    """

    label: str | None
    x: float
    mode: str
    value: float
    threshold: float
    cutoff_rank: int = 0


def rk_rows(rank1s, offset: float = DEFAULT_OFFSET, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """The Rk of each row of a (units, k) rank1 matrix: scale * geometric
    mean of 1/(offset + rank1) in log space, one float64 per row."""
    ranks = np.asarray(rank1s, dtype=np.float64)
    if ranks.shape[-1] == 0:
        raise ValueError("need at least one rank")
    if np.any(ranks < 1):
        raise ValueError("ranks must be >= 1")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return scale * np.exp(-np.mean(np.log(offset + ranks), axis=-1))


def rk_from_rank1s(rank1s, offset: float = DEFAULT_OFFSET, scale: float = DEFAULT_SCALE) -> float:
    """scale * geometric mean of 1/(offset + rank1) in log space: the
    one-row case of `rk_rows`."""
    return float(rk_rows(np.reshape(rank1s, (1, -1)), offset=offset, scale=scale)[0])


def rk_index(
    top: TopKRanks, offset: float = DEFAULT_OFFSET, scale: float = DEFAULT_SCALE
) -> RkResult:
    """Rk-index from a unit's top-k global ranks."""
    rank1s = top.rank1s
    return RkResult(
        label=top.label,
        rk=rk_from_rank1s(rank1s, offset=offset, scale=scale),
        k=top.k,
        offset=offset,
        scale=scale,
        rank1s=rank1s,
    )


def percentile_cutoff(x: float, world_size: int) -> int:
    """1-based rank delimiting the top x% of `world_size` papers.

    floor(x/100 * W), with a few-ulp guard so exact boundaries such as
    0.1% of 280,000 resolve to 280 rather than 279.
    """
    if not 0 < x <= 100:
        raise ValueError(f"percentile must satisfy 0 < x <= 100, got {x}")
    if world_size < 1:
        raise ValueError("world must be non-empty")
    t = x * world_size / 100.0
    return int(math.floor(t * (1.0 + 4.0 * sys.float_info.epsilon)))


def empirical_ptop(world: RankQuery, label: str, x: float) -> PercentileResult:
    """Count a unit's papers holding world rank <= floor(x/100 * W)."""
    cutoff = percentile_cutoff(x, world.size)
    count = world.count(label, cutoff)
    threshold = world.value_at_rank(cutoff) if cutoff else math.inf
    return PercentileResult(
        label=label, x=x, mode=EMPIRICAL, value=count, threshold=threshold, cutoff_rank=cutoff
    )


def lognormal_survival(mu: float, sigma: float, c: float) -> float:
    """P(X > c) for ln X ~ Normal(mu, sigma^2)."""
    if c <= 0:
        raise ValueError(f"citation value must be > 0, got {c}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    z = (math.log(c) - mu) / sigma
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def analytic_ptop(spec: LognormalSpec, world: RankQuery, x: float) -> PercentileResult:
    """Expected top-x% paper count of a series against an observed world.

    The threshold is the world's citation value at the cutoff rank; the
    value is N times the series' tail probability above it, so it is
    generally non-integer and may be below 1.
    """
    cutoff = percentile_cutoff(x, world.size)
    if cutoff < 1:
        raise DataError(f"top {x}% of a world of {world.size} papers holds no entries")
    threshold = world.value_at_rank(cutoff)
    value = spec.n * lognormal_survival(spec.mu, spec.sigma, threshold)
    return PercentileResult(
        label=spec.label, x=x, mode=ANALYTIC, value=value, threshold=threshold, cutoff_rank=cutoff
    )


def count_uncited(series: CitationSeries) -> int:
    """Number of zero-citation papers (defined for real integer counts only)."""
    if series.origin != REAL:
        raise DataError("uncited counting is undefined for synthetic series")
    return int(np.count_nonzero(series.values == 0))
