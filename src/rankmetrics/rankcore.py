"""World list construction and dual-rank extraction.

Every paper gets two ranks: its position in the aggregated, citation-
descending world list (rank1) and its position within its own unit's
list (rank2).  `build_world` holds a world as one sorted value array, a
`RankQuery`, which answers the global ranks of a unit's best papers and
the value at any world rank; the full dual-rank table of a unit is its
top-n query.  A world is built once and then shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

# COMPETITION is unused here but stays importable beside the other tie names
from .base import COMPETITION, ORDINAL, TIE_POLICIES  # noqa: F401
from .errors import DataError

if TYPE_CHECKING:
    from .synthdist import CitationSeries


@dataclass(frozen=True)
class RankPair:
    """Global and local rank of one paper.  rank1 >= rank2 always: a paper
    can never place better in the world list than in its own unit's list."""

    rank1: int
    rank2: int
    value: float

    def __post_init__(self):
        if self.rank2 < 1 or self.rank1 < self.rank2:
            raise ValueError(f"need rank1 >= rank2 >= 1, got ({self.rank1}, {self.rank2})")


@dataclass(frozen=True)
class TopKRanks:
    """The k locally best papers of one unit, ordered by local rank."""

    label: str | None
    k: int
    pairs: tuple[RankPair, ...]

    def __post_init__(self):
        if len(self.pairs) != self.k:
            raise ValueError(f"expected {self.k} pairs, got {len(self.pairs)}")
        rank2s = [p.rank2 for p in self.pairs]
        if any(b < a for a, b in zip(rank2s, rank2s[1:])):
            raise ValueError("pairs must be sorted by rank2 ascending")

    @property
    def rank1s(self) -> tuple[int, ...]:
        return tuple(p.rank1 for p in self.pairs)


def _competition_ranks(sorted_desc: np.ndarray) -> np.ndarray:
    """Min-rank over blocks of equal values in a descending array."""
    n = sorted_desc.size
    starts = np.flatnonzero(np.r_[True, sorted_desc[1:] != sorted_desc[:-1]])
    lengths = np.diff(np.r_[starts, n])
    return np.repeat(starts + 1, lengths)


class RankQuery:
    """Rank queries against a world held as one sorted value array.

    Answers the two questions the indicators ask of a world: the global
    ranks of a unit's k locally best papers, and the value at a world
    rank.  The world order is a total order independent of the input
    series order: value descending, then label, then position within
    the series.  Under the ordinal policy ranks are 1..W in that order;
    under the competition policy tied values share their block's
    smallest rank.  A query selects each unit's top k into one matrix,
    then counts the world entries above each of them in the sorted values.
    Under the ordinal policy a unit whose top values tie another world
    entry reads its ranks from that order itself: one stable sort of the
    label-ordered values, descending.
    """

    def __init__(self, series: list[CitationSeries], tie_policy: str = ORDINAL):
        if tie_policy not in TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
        self._series = {s.label: s for s in series}
        if len(self._series) != len(series):
            seen, dups = set(), set()
            for s in series:
                (dups if s.label in seen else seen).add(s.label)
            raise DataError(f"duplicate series labels: {sorted(dups)}")
        if not any(s.n for s in series):
            raise ValueError("cannot build a world from all-empty series")
        self.tie_policy = tie_policy
        self.labels = tuple(sorted(self._series))
        self._asc = np.concatenate([self._series[label].values for label in self.labels])
        self._asc.sort()

    @property
    def size(self) -> int:
        return int(self._asc.size)

    def value_at_rank(self, rank: int) -> float:
        """Citation value of the entry holding 1-based world position `rank`."""
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank {rank} outside 1..{self.size}")
        return float(self._asc[self.size - rank])

    def unit_values(self, label: str) -> np.ndarray:
        """The unit's values as given, read-only."""
        try:
            return self._series[label].values
        except KeyError:
            raise DataError(f"unknown series label {label!r}") from None

    def top_rank1s(self, label: str, k: int) -> np.ndarray:
        """Global ranks of the unit's k locally best papers, local order:
        the one-row case of `top_rank1s_many`."""
        return self.top_rank1s_many([label], k)[0]

    def top_rank1s_many(self, labels, k: int) -> np.ndarray:
        """Global ranks of each unit's k locally best papers: a (units, k)
        int64 matrix, one row per label in local order.  The first label
        naming no unit or a unit of fewer than k papers is refused."""
        _check_k(k)
        labels = list(labels)
        units = []
        for label in labels:
            unit = self.unit_values(label)
            if unit.size < k:
                raise DataError(f"unit {label} has {unit.size} papers, {k} required")
            units.append(unit)
        # Each unit's k largest values, descending.  A unit's equal values
        # hold consecutive world ranks, whichever member comes first.
        values = np.empty((len(units), k))
        for row, unit in zip(values, units):
            row[:] = np.partition(unit, unit.size - k)[unit.size - k:]
        values.sort(axis=1)
        values = values[:, ::-1]
        right = np.searchsorted(self._asc, values, side="right")
        rank1 = self.size - right + 1  # competition: 1 + entries strictly above
        if self.tie_policy == ORDINAL:
            left = np.searchsorted(self._asc, values, side="left")
            for row in np.flatnonzero(np.any(right - left > 1, axis=1)).tolist():
                rank1[row] = self._ordinal_ranks[labels[row]][:k]
        return rank1

    @cached_property
    def _ordinal_ranks(self) -> dict[str, np.ndarray]:
        """Each unit's ordinal world ranks, ascending.  Built on the first
        ordinal query that meets a tie: a stable sort of the label-ordered
        values, descending, is the (value descending, label, position)
        world order."""
        values = np.concatenate([self._series[label].values for label in self.labels])
        ranks = np.empty(values.size, dtype=np.int64)
        ranks[np.argsort(-values, kind="stable")] = np.arange(1, values.size + 1)
        ends = np.cumsum([self._series[label].n for label in self.labels])
        return {label: np.sort(unit) for label, unit in zip(self.labels, np.split(ranks, ends[:-1]))}


def build_world(series: list[CitationSeries], tie_policy: str = ORDINAL) -> RankQuery:
    """Aggregate series into one citation-descending world."""
    return RankQuery(series, tie_policy=tie_policy)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _unit_values(world: RankQuery, label: str) -> np.ndarray:
    """The unit's values; a unit without papers is as unknown as a missing one."""
    values = world.unit_values(label)
    if values.size == 0:
        raise DataError(f"unknown series label {label!r}")
    return values


def _unit_ranks(world: RankQuery, label: str):
    """A unit's values in local order (descending), with their rank1s and
    rank2s.  rank2 is the paper's position among the unit's own papers
    (competition policy: the min rank of its local value block)."""
    values = np.sort(_unit_values(world, label))[::-1]
    if world.tie_policy == ORDINAL:
        rank2s = np.arange(1, values.size + 1, dtype=np.int64)
    else:
        rank2s = _competition_ranks(values)
    return values, world.top_rank1s(label, values.size), rank2s


def dual_ranks(world: RankQuery, label: str) -> list[RankPair]:
    """All rank pairs of one unit, ordered by (rank2, rank1)."""
    values, rank1s, rank2s = _unit_ranks(world, label)
    return [
        RankPair(rank1=r1, rank2=r2, value=v)
        for r1, r2, v in zip(rank1s.tolist(), rank2s.tolist(), values.tolist())
    ]


def top_k(pairs: list[RankPair], k: int = 10, label: str | None = None) -> TopKRanks:
    """The k pairs with the smallest local ranks; refuses short units."""
    _check_k(k)
    if len(pairs) < k:
        raise DataError(f"unit has {len(pairs)} papers, {k} required")
    chosen = sorted(pairs, key=lambda p: (p.rank2, p.rank1))[:k]
    return TopKRanks(label=label, k=k, pairs=tuple(chosen))


def geometric_means(rows) -> np.ndarray:
    """exp(mean(ln x)) of each row; log-space form is safe for long
    products of small terms."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[-1] == 0:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return np.exp(np.mean(np.log(arr), axis=-1))


def geometric_mean(xs) -> float:
    """exp(mean(ln x)): the one-row case of `geometric_means`."""
    return float(geometric_means(np.reshape(xs, (1, -1)))[0])


def ratio_index(top: TopKRanks) -> float:
    """Geometric mean of the rank2/rank1 ratios of a unit's top-k papers.

    Because the local ranks are 1..k, this equals (k!)^(1/k) times the
    geometric mean of 1/rank1.
    """
    return geometric_mean([p.rank2 / p.rank1 for p in top.pairs])


RANK_TABLE_COLUMNS = ("label", "rank2", "rank1", "value")


def rank_table_chunks(world: RankQuery, labels=None, top: int | None = None):
    """Column chunks of the rank-table export (`RANK_TABLE_COLUMNS`), one
    per unit, each in (rank2, rank1) order.

    `top` keeps each unit's first n rows.  `top` and every label are
    checked here, before the first chunk is made, so a writer fed by the
    returned generator never fails partway on a bad selection.
    """
    if top is not None:
        _check_k(top)
    chosen = list(labels) if labels is not None else list(world.labels)
    for label in chosen:
        _unit_values(world, label)
    return (_rank_chunk(world, label, top) for label in chosen)


def _rank_chunk(world: RankQuery, label: str, top: int | None):
    values, rank1s, rank2s = (a[:top] for a in _unit_ranks(world, label))
    return np.full(values.size, label), rank2s, rank1s, values
