"""World list construction and dual-rank extraction.

Every paper gets two ranks: its position in the aggregated, citation-
descending world list (rank1) and its position within its own unit's
list (rank2).  `build_world` orders every paper into a `WorldIndex`, from
which the full dual-rank table is read; `RankQuery` answers only the
top-k rank1 queries the studies need, from one sorted value array.
Both are built once and then shared read-only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .synthdist import CitationSeries

ORDINAL = "ordinal"
COMPETITION = "competition"
TIE_POLICIES = (ORDINAL, COMPETITION)


class DuplicateLabelError(ValueError):
    pass


class UnknownLabelError(KeyError):
    pass


class InsufficientPapersError(ValueError):
    """A unit holds fewer papers than the requested top-k."""


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


@dataclass(frozen=True, eq=False)
class WorldIndex:
    """Immutable citation-descending index over all papers of all units.

    `values`, `owners` (label codes), `keys` and `rank1` are aligned
    arrays in world order.  Under the ordinal policy ranks are 1..W with
    ties broken by (value desc, label, key); under the competition
    policy tied values share their block's smallest rank.
    """

    values: np.ndarray
    owners: np.ndarray
    keys: tuple
    labels: tuple[str, ...]
    rank1: np.ndarray
    tie_policy: str
    _positions: dict

    @property
    def size(self) -> int:
        return int(self.values.size)

    def positions(self, label: str) -> np.ndarray:
        """World positions (0-based, ascending) of the papers a unit owns."""
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def top_rank1s(self, label: str, k: int) -> np.ndarray:
        """Global ranks of the unit's k locally best papers, local order."""
        _check_k(k)
        pos = self.positions(label)
        if pos.size < k:
            raise InsufficientPapersError(f"unit {label} has {pos.size} papers, {k} required")
        return self.rank1[pos][:k]

    def entries(self):
        """Iterate (value, owner label, member key) in world order."""
        for i in range(self.size):
            yield float(self.values[i]), self.labels[self.owners[i]], self.keys[i]

    def value_at_rank(self, rank: int) -> float:
        """Citation value of the entry holding 1-based world position `rank`."""
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank {rank} outside 1..{self.size}")
        return float(self.values[rank - 1])


def _competition_ranks(sorted_desc: np.ndarray) -> np.ndarray:
    """Min-rank over blocks of equal values in a descending array."""
    n = sorted_desc.size
    starts = np.flatnonzero(np.r_[True, sorted_desc[1:] != sorted_desc[:-1]])
    lengths = np.diff(np.r_[starts, n])
    return np.repeat(starts + 1, lengths)


def _check_world(series: list[CitationSeries], tie_policy: str) -> int:
    """Reject a world no index can be built from; returns its paper count."""
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
    labels = [s.label for s in series]
    if len(set(labels)) != len(labels):
        seen, dups = set(), set()
        for lab in labels:
            (dups if lab in seen else seen).add(lab)
        raise DuplicateLabelError(f"duplicate series labels: {sorted(dups)}")
    total = sum(s.n for s in series)
    if total == 0:
        raise ValueError("cannot build a world from all-empty series")
    return total


def build_world(series: list[CitationSeries], tie_policy: str = ORDINAL) -> WorldIndex:
    """Aggregate series into one citation-descending world index.

    The ordering is a total order independent of the input series order:
    value descending, then label, then per-series member key.
    """
    labels = [s.label for s in series]
    total = _check_world(series, tie_policy)

    order_of_label = {lab: code for code, lab in enumerate(sorted(labels))}
    values = np.concatenate([s.values for s in series if s.n])
    owners = np.concatenate(
        [np.full(s.n, order_of_label[s.label], dtype=np.int64) for s in series if s.n]
    )
    key_order_parts, key_parts = [], []
    for s in series:
        if not s.n:
            continue
        if s.keys is None:
            key_order_parts.append(np.arange(s.n, dtype=np.int64))
            key_parts.append(list(range(s.n)))
        else:
            # rank of each key within the series, so ties sort by key ascending
            ranks = np.empty(s.n, dtype=np.int64)
            ranks[np.argsort(np.asarray(s.keys, dtype=object), kind="stable")] = np.arange(s.n)
            key_order_parts.append(ranks)
            key_parts.append(list(s.keys))
    key_order = np.concatenate(key_order_parts)

    world_order = np.lexsort((key_order, owners, -values))
    values = values[world_order]
    owners = owners[world_order]
    keys = tuple(np.concatenate([np.asarray(p, dtype=object) for p in key_parts])[world_order])

    if tie_policy == ORDINAL:
        rank1 = np.arange(1, total + 1, dtype=np.int64)
    else:
        rank1 = _competition_ranks(values)

    by_owner = np.argsort(owners, kind="stable")
    sorted_owners = owners[by_owner]
    positions = {}
    for lab in labels:
        code = order_of_label[lab]
        lo = np.searchsorted(sorted_owners, code, side="left")
        hi = np.searchsorted(sorted_owners, code, side="right")
        pos = by_owner[lo:hi]
        pos.flags.writeable = False
        positions[lab] = pos

    values.flags.writeable = False
    owners.flags.writeable = False
    rank1.flags.writeable = False
    label_list = tuple(sorted(labels))
    return WorldIndex(
        values=values,
        owners=owners,
        keys=keys,
        labels=label_list,
        rank1=rank1,
        tie_policy=tie_policy,
        _positions=positions,
    )


class RankQuery:
    """Top-k rank queries against a world held as one sorted value array.

    Answers the two questions a study asks of a world: the global ranks
    of a unit's k locally best papers, and the value at a world rank.
    Both equal what `build_world` gives under either tie policy, without
    its full ordering: a query selects the unit's top k, then counts the
    world entries above each of them in the sorted values.
    """

    def __init__(self, series: list[CitationSeries], tie_policy: str = ORDINAL):
        _check_world(series, tie_policy)
        self.tie_policy = tie_policy
        self._series = {s.label: s for s in series}
        ordered = sorted(series, key=lambda s: s.label)
        self._codes = {s.label: code for code, s in enumerate(ordered)}
        self._sizes = [s.n for s in ordered]
        self._values = np.concatenate([s.values for s in ordered])
        self._asc = np.sort(self._values)

    @property
    def size(self) -> int:
        return int(self._asc.size)

    def value_at_rank(self, rank: int) -> float:
        """Citation value of the entry holding 1-based world position `rank`."""
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank {rank} outside 1..{self.size}")
        return float(self._asc[self.size - rank])

    def top_rank1s(self, label: str, k: int) -> np.ndarray:
        """Global ranks of the unit's k locally best papers, local order."""
        _check_k(k)
        try:
            unit = self._series[label]
        except KeyError:
            raise UnknownLabelError(label) from None
        if unit.n < k:
            raise InsufficientPapersError(f"unit {label} has {unit.n} papers, {k} required")
        # The unit's k largest values, descending.  Keys need not be read:
        # a unit's equal values hold consecutive world ranks, whichever
        # member comes first.
        values = np.sort(np.partition(unit.values, unit.n - k)[unit.n - k:])[::-1]
        left = np.searchsorted(self._asc, values, side="left")
        right = np.searchsorted(self._asc, values, side="right")
        rank1 = self.size - right + 1  # competition: 1 + entries strictly above
        if self.tie_policy == ORDINAL and np.any(right - left > 1):
            # Equal values order by (label, key): count the equal entries of
            # units whose label sorts first, then this unit's equal entries
            # that precede in local order (values run descending).
            labels = len(self._sizes)
            tie_keys = self._tie_keys
            first = tie_keys[left] // labels * labels + self._codes[label]
            rank1 += np.searchsorted(tie_keys, first, side="left") - left
            rank1 += np.arange(k) - np.searchsorted(-values, -values, side="left")
        return rank1

    @cached_property
    def _tie_keys(self) -> np.ndarray:
        """(run of equal values, label code) of each entry in ascending value
        order, packed into one nondecreasing integer.  Built on the first
        query that meets a tie: a stable sort of the label-ordered values
        keeps each run in label order."""
        codes = np.repeat(np.arange(len(self._sizes)), self._sizes)
        codes = codes[np.argsort(self._values, kind="stable")]
        runs = np.r_[0, np.cumsum(self._asc[1:] != self._asc[:-1])]
        return runs * len(self._sizes) + codes


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def dual_ranks(world: WorldIndex, label: str) -> list[RankPair]:
    """All rank pairs of one unit, ordered by local rank.

    rank2 is the paper's position among the unit's own papers in world
    order (competition policy: the min rank of its local value block).
    """
    pos = world.positions(label)
    if pos.size == 0:
        raise UnknownLabelError(label)
    rank1s = world.rank1[pos]
    values = world.values[pos]
    if world.tie_policy == ORDINAL:
        rank2s = np.arange(1, pos.size + 1, dtype=np.int64)
    else:
        rank2s = _competition_ranks(values)
    return [
        RankPair(rank1=int(r1), rank2=int(r2), value=float(v))
        for r1, r2, v in zip(rank1s, rank2s, values)
    ]


def top_k(pairs: list[RankPair], k: int = 10, label: str | None = None) -> TopKRanks:
    """The k pairs with the smallest local ranks; refuses short units."""
    _check_k(k)
    if len(pairs) < k:
        raise InsufficientPapersError(f"unit has {len(pairs)} papers, {k} required")
    chosen = sorted(pairs, key=lambda p: (p.rank2, p.rank1))[:k]
    return TopKRanks(label=label, k=k, pairs=tuple(chosen))


def geometric_mean(xs) -> float:
    """exp(mean(ln x)); log-space form is safe for long products of small terms."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def ratio_index(top: TopKRanks) -> float:
    """Geometric mean of the rank2/rank1 ratios of a unit's top-k papers.

    Because the local ranks are 1..k, this equals (k!)^(1/k) times the
    geometric mean of 1/rank1.
    """
    return geometric_mean([p.rank2 / p.rank1 for p in top.pairs])


def rank_table_rows(world: WorldIndex, labels=None, top: int | None = None):
    """Rows for the rank-table export: label,rank2,rank1,value.

    `top` keeps each unit's first n pairs; `dual_ranks` already orders
    them by (rank2, rank1).
    """
    if top is not None:
        _check_k(top)
    chosen = list(labels) if labels is not None else list(world.labels)
    for label in chosen:
        pairs = dual_ranks(world, label)
        for pair in pairs[:top]:
            yield {"label": label, "rank2": pair.rank2, "rank1": pair.rank1, "value": pair.value}


def write_rank_table(world: WorldIndex, fileobj, labels=None, top: int | None = None) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["label", "rank2", "rank1", "value"])
    for row in rank_table_rows(world, labels=labels, top=top):
        writer.writerow([row["label"], row["rank2"], row["rank1"], repr(row["value"])])
