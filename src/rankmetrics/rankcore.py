"""World list construction and dual-rank extraction.

Every paper gets two ranks: its position in the aggregated, citation-
descending world list (rank1) and its position within its own unit's
list (rank2).  One kernel, `RankQuery`, holds a world as its values
sorted once and its units as lists of entries.  It answers the global
ranks of a unit's best papers, how many of a unit's papers rank at or
above a cutoff, and the value at any world rank.  `build_world` makes a
series world (ties rank by label, then position); `build_paper_world` a
world of papers in overlapping units (ties rank by id), as a corpus
assessment needs.  The full dual-rank table of a unit is its top-n
query.  A world is built once and then shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .base import COMPETITION, ORDINAL, TIE_POLICIES
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
    """Rank queries against one world, its values sorted once.

    Each entry of a world holds a value, and each unit is a list of
    entries: a series world's units are its series, one run of entries
    each in label order; a corpus world's units are lists of papers, which
    may overlap.  The world order is value descending, then a tie key: the
    entry order (label, then position) or each entry's id.  Ordinal ranks
    are 1..W in that order.  Competition ranks give tied values their
    block's smallest rank, 1 plus the count of larger values, which
    `searchsorted` reads and which is also the ordinal rank of an entry
    alone in its block.  Ordinal ranks inside tie blocks are worked out
    only for the blocks a query reads, each block ordered once and kept.
    """

    def __init__(self, labels, units, tie_policy: str = ORDINAL, *, values=None, entries=None,
                 ids=None):
        """`units` holds each label's values: without `values`, the world
        itself, one run each; else unit i is `entries[indptr[i]:indptr[i + 1]]`
        of `values`, indptr over the unit sizes, tie-broken by `ids[entry]`."""
        if tie_policy not in TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
        self.tie_policy = tie_policy
        self.labels = tuple(labels)
        self._rows = {label: row for row, label in enumerate(self.labels)}
        if len(self._rows) != len(self.labels):
            dups = sorted({label for label in self.labels if self.labels.count(label) > 1})
            raise DataError(f"duplicate series labels: {dups}")
        self._units = list(units)
        self._indptr = np.cumsum([0, *(unit.size for unit in self._units)])
        self._entries, self._ids, self._ordinal = entries, ids, None
        if values is None:
            if not self._indptr[-1]:
                raise ValueError("cannot build a world from all-empty series")
            self._asc = np.concatenate(self._units)
            self._asc.sort()
        else:
            self._values = values
            self._asc = np.sort(values)

    @cached_property
    def _values(self) -> np.ndarray:
        """Every entry's value; a series world joins its units on first use."""
        return np.concatenate(self._units)

    @property
    def size(self) -> int:
        return int(self._asc.size)

    def value_at_rank(self, rank: int) -> float:
        """Citation value of the entry holding 1-based world position `rank`."""
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank {rank} outside 1..{self.size}")
        return float(self._asc[self.size - rank])

    def _row(self, label) -> int:
        try:
            return self._rows[label]
        except KeyError:
            raise DataError(f"unknown series label {label!r}") from None

    def unit_values(self, label) -> np.ndarray:
        """The unit's values as given, read-only."""
        return self._units[self._row(label)]

    def top_rank1s(self, label, k: int) -> np.ndarray:
        """Global ranks of the unit's k locally best papers, local order:
        the one-row case of `top_rank1s_many`."""
        return self.top_rank1s_many([label], k)[0]

    def top_rank1s_many(self, labels, k: int) -> np.ndarray:
        """Global ranks of each unit's k locally best papers: a (units, k)
        int64 matrix, one row per label in local order.  The first label
        naming no unit or a unit of fewer than k papers is refused."""
        _check_k(k)
        rows = []
        for label in labels:
            row = self._row(label)
            size = self._units[row].size
            if size < k:
                raise DataError(f"unit {label} has {size} papers, {k} required")
            rows.append(row)
        # each unit's k largest values, descending
        values = np.empty((len(rows), k), dtype=self._asc.dtype)
        for out, row in zip(values, rows):
            unit = self._units[row]
            out[:] = np.partition(unit, unit.size - k)[unit.size - k:]
        values.sort(axis=1)
        values = values[:, ::-1]
        right = np.searchsorted(self._asc, values, side="right")
        rank1 = self.size - right + 1  # competition: 1 + entries strictly above
        if self.tie_policy == ORDINAL:
            left = np.searchsorted(self._asc, values, side="left")
            tied = np.flatnonzero(np.any(right - left > 1, axis=1))
            if tied.size:
                rank1[tied] = self._best_ranks([rows[i] for i in tied], values[tied, -1], k)
        return rank1

    def count(self, label, cutoff: int) -> int:
        """How many of the unit's entries hold a world rank <= `cutoff`:
        those valued at least the value at that rank, less, where an
        ordinal cutoff splits that value's tie block, the block members
        ranked after it."""
        row = self._row(label)
        unit = self._units[row]
        if cutoff < 1:
            return 0
        value = self._asc[max(self.size - cutoff, 0)]
        ends_block = np.searchsorted(self._asc, value) == self.size - cutoff
        if self.tie_policy == COMPETITION or ends_block:
            return int(np.count_nonzero(unit >= value))
        ranks = self._tied_ranks(self._unit_entries(row)[unit == value])
        return int(np.count_nonzero(unit > value)) + int(np.count_nonzero(ranks <= cutoff))

    def _unit_entries(self, row: int) -> np.ndarray:
        lo, hi = self._indptr[row], self._indptr[row + 1]
        return np.arange(lo, hi) if self._entries is None else self._entries[lo:hi]

    def _best_ranks(self, rows: list[int], floors: np.ndarray, k: int) -> np.ndarray:
        """The k best ordinal ranks of each unit in `rows`, read from its
        entries valued at least its floor, the k-th best value."""
        heads = [self._unit_entries(row)[self._units[row] >= floor]
                 for row, floor in zip(rows, floors)]
        entries = np.concatenate(heads)
        values = self._values[entries]
        right = np.searchsorted(self._asc, values, side="right")
        ranks = self.size + 1 - right
        tied = right - np.searchsorted(self._asc, values, side="left") > 1
        ranks[tied] = self._tied_ranks(entries[tied])
        # one sorted key per entry read, (row, rank): each row's k best first
        sizes = np.array([head.size for head in heads])
        stride = self.size + 1
        keys = np.repeat(np.arange(len(heads)) * stride, sizes) + ranks
        keys.sort()
        return keys[(np.cumsum(sizes) - sizes)[:, None] + np.arange(k)] % stride

    def _tied_ranks(self, entries: np.ndarray) -> np.ndarray:
        """The ordinal world ranks of `entries`, each in a tie block.  The
        blocks not ordered yet are found in one pass over the values, each
        is put in tie-key order, and their ranks are kept."""
        if self._ordinal is None:
            self._ordinal = np.zeros(self.size, dtype=np.int64)
        ranks = self._ordinal[entries]
        unordered = ranks == 0
        if not unordered.any():
            return ranks
        members = np.flatnonzero(np.isin(self._values, self._values[entries[unordered]]))
        if self._ids is not None:
            members = np.array(sorted(members.tolist(), key=self._ids.__getitem__), dtype=np.int64)
        values = self._values[members]
        order = np.argsort(-values, kind="stable")  # blocks descending, each in tie-key order
        members, values = members[order], values[order]
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        place = np.arange(members.size) - np.repeat(starts, np.diff(np.r_[starts, members.size]))
        first = self.size + 1 - np.searchsorted(self._asc, values, side="right")
        self._ordinal[members] = first + place
        return self._ordinal[entries]


def build_world(series: list[CitationSeries], tie_policy: str = ORDINAL) -> RankQuery:
    """Aggregate series into one value-descending world; tied values rank
    by label, then position in the series."""
    series = sorted(series, key=lambda s: s.label)
    return RankQuery([s.label for s in series], [s.values for s in series], tie_policy)


def build_paper_world(values, ids, labels, indptr, entries, tie_policy: str = ORDINAL) -> RankQuery:
    """A world of papers, `values[i]` the citations of paper i, whose units
    are lists of papers: unit i is `entries[indptr[i]:indptr[i + 1]]`, and
    a paper may sit in several.  Tied values rank by `ids[i]`."""
    gathered = values[entries]
    gathered.flags.writeable = False
    units = np.split(gathered, indptr[1:-1])
    return RankQuery(labels, units, tie_policy, values=values, entries=entries, ids=ids)


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
