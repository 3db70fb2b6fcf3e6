import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.errors import DataError
from rankmetrics.indicators import empirical_ptop, percentile_cutoff
from rankmetrics.rankcore import (
    COMPETITION,
    ORDINAL,
    RANK_TABLE_COLUMNS,
    RankPair,
    RankQuery,
    TopKRanks,
    _competition_ranks,
    build_world,
    dual_ranks,
    geometric_mean,
    rank_table_chunks,
    ratio_index,
    top_k,
)
from rankmetrics.synthdist import (
    REAL,
    SYNTHETIC,
    CitationSeries,
    EnsembleConfig,
    generate_ensemble,
    load_config,
)
from rankmetrics.table import write_table

GM_FACTORIAL_10 = math.factorial(10) ** 0.1
SMALL_GRID = Path(__file__).resolve().parents[1] / "configs" / "small_grid.cfg"


def series(label, values, origin=REAL):
    return CitationSeries(label, values, origin=origin)


def triples(world, label):
    return [(p.rank1, p.rank2, p.value) for p in dual_ranks(world, label)]


def test_single_series_order():
    world = build_world([series("a", [3, 5, 1])])
    assert world.size == 3
    assert [world.value_at_rank(r) for r in (1, 2, 3)] == [5.0, 3.0, 1.0]
    assert triples(world, "a") == [(1, 1, 5.0), (2, 2, 3.0), (3, 3, 1.0)]


def test_ordinal_tie_contract():
    # equal values order by label: both of a's papers precede b's
    world = build_world([series("b", [2]), series("a", [2, 2])])
    assert triples(world, "a") == [(1, 1, 2.0), (2, 2, 2.0)]
    assert triples(world, "b") == [(3, 1, 2.0)]


def test_competition_tie_policy():
    world = build_world([series("a", [2, 2]), series("b", [2, 1])], tie_policy=COMPETITION)
    assert [world.top_rank1s(label, 2).tolist() for label in ("a", "b")] == [[1, 1], [1, 4]]
    pairs_a = dual_ranks(world, "a")
    assert [(p.rank1, p.rank2) for p in pairs_a] == [(1, 1), (1, 1)]
    pairs_b = dual_ranks(world, "b")
    assert [(p.rank1, p.rank2) for p in pairs_b] == [(1, 1), (4, 2)]


def test_duplicate_labels_rejected():
    with pytest.raises(DataError, match=r"^duplicate series labels: \['a'\]$"):
        build_world([series("a", [1]), series("a", [2])])


def test_all_empty_rejected():
    with pytest.raises(ValueError):
        build_world([series("a", [], origin=REAL)])


def test_unknown_label():
    world = build_world([series("a", [1])])
    with pytest.raises(DataError, match=r"^unknown series label 'zz'$"):
        dual_ranks(world, "zz")


@given(
    data=st.lists(
        st.lists(st.integers(0, 30), min_size=1, max_size=12),
        min_size=1,
        max_size=5,
    ),
    shuffle_seed=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_world_is_input_order_invariant(data, shuffle_seed):
    parts = [series(f"s{i}", values) for i, values in enumerate(data)]
    shuffled = list(parts)
    np.random.default_rng(shuffle_seed).shuffle(shuffled)
    one, two = build_world(parts), build_world(shuffled)
    assert one.labels == two.labels
    assert [triples(one, p.label) for p in parts] == [triples(two, p.label) for p in parts]
    ranks = sorted(r for p in parts for r, _, _ in triples(one, p.label))
    assert ranks == list(range(1, sum(len(v) for v in data) + 1))


def test_scale_leaves_ranks_unchanged():
    parts = [series("a", [10, 7, 7, 1]), series("b", [9, 7])]
    scaled = [
        CitationSeries(p.label, p.values * 7.5, origin="synthetic") for p in parts
    ]
    one, two = build_world(parts), build_world(scaled)
    for label in ("a", "b"):
        assert [(p.rank1, p.rank2) for p in dual_ranks(one, label)] == [
            (p.rank1, p.rank2) for p in dual_ranks(two, label)
        ]


def test_top_k_basic():
    world = build_world([series("a", list(range(800, 0, -1)))])
    top = top_k(dual_ranks(world, "a"), 10, label="a")
    assert [p.rank2 for p in top.pairs] == list(range(1, 11))
    assert top.rank1s == tuple(range(1, 11))


def test_top_k_insufficient():
    world = build_world([series("a", list(range(9, 0, -1)))])
    with pytest.raises(DataError, match=r"^unit has 9 papers, 10 required$"):
        top_k(dual_ranks(world, "a"), 10)


def test_top_k_single():
    world = build_world([series("a", [5, 4]), series("b", [6])])
    top = top_k(dual_ranks(world, "a"), 1, label="a")
    assert top.pairs[0].rank1 == 2 and top.pairs[0].rank2 == 1


def test_rank_pair_validation():
    with pytest.raises(ValueError):
        RankPair(rank1=1, rank2=2, value=3.0)
    with pytest.raises(ValueError):
        RankPair(rank1=0, rank2=0, value=3.0)


def test_geometric_mean_values():
    assert geometric_mean([2, 8]) == pytest.approx(4.0, rel=1e-12)
    assert geometric_mean(range(1, 11)) == pytest.approx(4.528728688116765, rel=1e-12)
    assert geometric_mean([3.7, 3.7, 3.7]) == pytest.approx(3.7, rel=1e-12)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -2.0])


def _pairs(rank1s, rank2s=None):
    rank2s = rank2s or list(range(1, len(rank1s) + 1))
    return tuple(
        RankPair(rank1=r1, rank2=r2, value=0.0) for r1, r2 in zip(rank1s, rank2s)
    )


def test_ratio_index_whole_world_is_one():
    world = build_world([series("a", list(range(100, 0, -1)))])
    top = top_k(dual_ranks(world, "a"), 10, label="a")
    assert ratio_index(top) == pytest.approx(1.0, rel=1e-12)


def test_ratio_index_identity_ranks():
    top = TopKRanks(label=None, k=10, pairs=_pairs(list(range(1, 11))))
    assert ratio_index(top) == pytest.approx(1.0, rel=1e-12)


def test_ratio_index_constant_ratio():
    # term-by-term oracle: every ratio i/(10 i) is 0.1, so the mean is 0.1
    rank1s = [10 * i for i in range(1, 11)]
    expected = math.exp(sum(math.log(i / r) for i, r in zip(range(1, 11), rank1s)) / 10)
    top = TopKRanks(label=None, k=10, pairs=_pairs(rank1s))
    assert expected == pytest.approx(0.1, rel=1e-12)
    assert ratio_index(top) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.integers(1, 500), min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_factorial_identity(gaps):
    # rank1 strictly increasing and >= rank2, built from positive gaps
    rank1s = list(np.cumsum(gaps))
    top = TopKRanks(label=None, k=10, pairs=_pairs(rank1s))
    expected = GM_FACTORIAL_10 * geometric_mean([1.0 / r for r in rank1s])
    assert ratio_index(top) == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def world600_rank_stats():
    aa_top4, un_top10 = [], []
    for seed in range(10):
        ensemble = generate_ensemble(
            EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=seed)
        )
        world = build_world(list(ensemble.series))
        aa_top4.append(int(np.count_nonzero(world.top_rank1s("aa", 4) < 280)))
        un_top10.append(int(np.count_nonzero(world.top_rank1s("un", 10) < 28000)))
    return aa_top4, un_top10


def test_strongest_series_tops_the_permille(world600_rank_stats):
    # the best series' four top papers sit at the top 0.1% most of the time
    aa_top4, _ = world600_rank_stats
    assert np.median(aa_top4) >= 3
    assert min(aa_top4) >= 1


def test_weakest_series_barely_reaches_top_decile(world600_rank_stats):
    # the grid's weakest series places only a few of its top ten inside
    # the top 10%
    _, un_top10 = world600_rank_stats
    assert 1 <= np.median(un_top10) <= 6
    assert max(un_top10) <= 10


def test_rank_table_export():
    world = build_world([series("b", [4]), series("a", [3, 5])])
    out = io.StringIO()
    assert write_table(out, RANK_TABLE_COLUMNS, rank_table_chunks(world)) == 3
    assert out.getvalue().splitlines() == ["label,rank2,rank1,value", "a,1,1,5.0", "a,2,3,3.0", "b,1,2,4.0"]
    # before the first chunk is asked for
    with pytest.raises(DataError, match=r"^unknown series label 'zz'$"):
        rank_table_chunks(world, labels=["a", "zz"])


@pytest.mark.parametrize("top", [0, -1])
def test_rank_table_rejects_top_below_one(top):
    world = build_world([series("a", [5, 3]), series("b", [4])])
    with pytest.raises(ValueError, match="must be >= 1"):
        rank_table_chunks(world, top=top)


@st.composite
def worlds(draw):
    """1-4 series under distinct labels, holding either integer counts
    0..5 (heavy ties) or lognormal-like floats."""
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
    parts = []
    for label in labels:
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(0, 5), max_size=12))
            origin = REAL
        else:
            logs = draw(st.lists(st.floats(-3.0, 3.0), max_size=12))
            values, origin = np.exp(np.asarray(logs, dtype=np.float64)), SYNTHETIC
        parts.append(CitationSeries(label, values, origin=origin))
    return parts


def brute_force_ranks(parts, tie_policy):
    """label -> [(rank1, rank2, value)] in local order.  The world is sorted
    by (-value, label, member position) in Python; under the competition
    policy a rank is 1 + the count of strictly greater values instead."""
    world = sorted((-float(v), p.label, i) for p in parts for i, v in enumerate(p.values))
    values = [-neg for neg, _, _ in world]
    units = {p.label: [] for p in parts}
    for pos, (value, (_, label, _)) in enumerate(zip(values, world), start=1):
        rank1 = pos if tie_policy == ORDINAL else 1 + sum(v > value for v in values)
        units[label].append((rank1, value))
    ranks = {}
    for label, entries in units.items():
        local = [v for _, v in entries]
        ranks[label] = [
            (rank1, i if tie_policy == ORDINAL else 1 + sum(v > value for v in local), value)
            for i, (rank1, value) in enumerate(entries, start=1)
        ]
    return ranks


@given(parts=worlds(), tie_policy=st.sampled_from([ORDINAL, COMPETITION]))
@settings(max_examples=400, deadline=None)
def test_rank_query_matches_world_index(parts, tie_policy):
    if sum(p.n for p in parts) == 0:
        with pytest.raises(ValueError):
            build_world(parts, tie_policy=tie_policy)
        return
    world = build_world(parts, tie_policy=tie_policy)
    expected = brute_force_ranks(parts, tie_policy)
    values = sorted((float(v) for p in parts for v in p.values), reverse=True)
    assert world.size == len(values)
    for part in parts:
        want = expected[part.label]
        for k in range(1, part.n + 1):
            assert world.top_rank1s(part.label, k).tolist() == [r1 for r1, _, _ in want[:k]]
        short = f"unit {part.label} has {part.n} papers, {part.n + 1} required"
        with pytest.raises(DataError, match=f"^{short}$"):
            world.top_rank1s(part.label, part.n + 1)
        if part.n:
            assert triples(world, part.label) == want
        else:
            with pytest.raises(DataError, match=f"^unknown series label '{part.label}'$"):
                dual_ranks(world, part.label)
    filled = sorted(p.label for p in parts if p.n)
    for top in (None, 1, 3):
        chunks = rank_table_chunks(world, labels=filled, top=top)
        rows = [row for chunk in chunks for row in zip(*(list(column) for column in chunk))]
        assert [(label, r1, r2, value) for label, r2, r1, value in rows] == [
            (label, *triple) for label in filled for triple in expected[label][:top]
        ]
    # every rank, so every percentile_cutoff rank in particular
    for rank in range(1, world.size + 1):
        assert world.value_at_rank(rank) == values[rank - 1]
        x = 100 * rank / world.size
        assert percentile_cutoff(x, world.size) == rank
        for part in parts:
            result = empirical_ptop(world, part.label, x)
            assert result.value == sum(r1 <= rank for r1, _, _ in expected[part.label])
            assert result.threshold == values[rank - 1]
    for rank in (0, world.size + 1):
        with pytest.raises(ValueError):
            world.value_at_rank(rank)


def test_rank_query_rejects_what_build_world_rejects():
    # a DataError is the user's input; a plain ValueError is a caller's misuse
    cases = [
        (DataError, r"^duplicate series labels: \['a'\]$",
         [series("a", [1]), series("a", [2])], ORDINAL),
        (ValueError, r"^cannot build a world from all-empty series$", [series("a", [])], ORDINAL),
        (ValueError, r"^tie_policy must be one of", [series("a", [1])], "dense"),
    ]
    for error, message, parts, policy in cases:
        with pytest.raises(error, match=message) as exc:
            build_world(parts, tie_policy=policy)
        assert isinstance(exc.value, DataError) == (error is DataError)
    world = build_world([series("a", [3, 1]), series("b", [])])
    assert isinstance(world, RankQuery)
    with pytest.raises(DataError, match=r"^unknown series label 'zz'$"):
        world.top_rank1s("zz", 1)
    with pytest.raises(DataError, match=r"^unit b has 0 papers, 1 required$"):
        world.top_rank1s("b", 1)
    for k in (0, -3):
        with pytest.raises(ValueError, match="k must be >= 1"):
            world.top_rank1s("a", k)


@st.composite
def filled_worlds(draw):
    """2-6 non-empty series of mixed sizes, each holding integer counts 0..3
    (ties within and across units) or lognormal-like floats; plus a query
    list of their labels in any order, repeats allowed."""
    labels = draw(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=6, unique=True))
    parts = []
    for label in labels:
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=15))
            parts.append(CitationSeries(label, values, origin=REAL))
        else:
            logs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=15))
            parts.append(CitationSeries(label, np.exp(np.asarray(logs)), origin=SYNTHETIC))
    query = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
    return parts, query


@given(world=filled_worlds(), tie_policy=st.sampled_from([ORDINAL, COMPETITION]))
@settings(max_examples=300, deadline=None)
def test_many_label_query_matches_one_label_queries_and_oracle(world, tie_policy):
    parts, query = world
    index = build_world(parts, tie_policy=tie_policy)
    expected = brute_force_ranks(parts, tie_policy)
    sizes = {p.label: p.n for p in parts}
    for k in range(1, min(sizes[label] for label in query) + 1):
        ranks = index.top_rank1s_many(query, k)
        assert ranks.dtype == np.int64 and ranks.shape == (len(query), k)
        for label, row in zip(query, ranks.tolist()):
            assert row == index.top_rank1s(label, k).tolist()
            assert row == [r1 for r1, _, _ in expected[label][:k]]
    # the first label naming no unit or a unit shorter than k is refused
    k = max(sizes.values())
    labels = query + ["zz"]
    short = next(label for label in labels if sizes.get(label, 0) < k)
    if short == "zz":
        message = "unknown series label 'zz'"
    else:
        message = f"unit {short} has {sizes[short]} papers, {k} required"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        index.top_rank1s_many(labels, k)
    assert index.top_rank1s_many([], 1).shape == (0, 1)


def stable_sort_ranks(parts, tie_policy):
    """label -> the unit's world ranks, ascending.  One stable sort of the
    label-ordered values, descending, is the (value descending, label,
    position) world order: the ordinal ranks are positions in it, and the
    competition ranks each value block's first position."""
    parts = sorted(parts, key=lambda p: p.label)
    values = np.concatenate([p.values for p in parts])
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    if tie_policy == ORDINAL:
        ranks[order] = np.arange(1, values.size + 1)
    else:
        ranks[order] = _competition_ranks(values[order])
    ends = np.cumsum([p.n for p in parts])[:-1]
    return {p.label: np.sort(unit) for p, unit in zip(parts, np.split(ranks, ends))}


@pytest.mark.parametrize("tie_policy", [ORDINAL, COMPETITION])
def test_heavy_ties_at_scale_match_one_stable_sort(tie_policy):
    # small_grid floored to integers: 46,200 values in a few hundred tie
    # blocks, so a query reads many blocks at once, and every cutoff splits one
    ensemble = generate_ensemble(load_config(SMALL_GRID))
    parts = [series(s.label, np.floor(s.values)) for s in ensemble.series]
    labels = [p.label for p in parts]
    expected = stable_sort_ranks(parts, tie_policy)
    assert np.unique(np.concatenate([p.values for p in parts])).size < 1000
    # each world meets its tie blocks first through a different query
    counted = build_world(parts, tie_policy=tie_policy)
    for label in labels:
        for x in (10.0, 1.0, 0.1):
            cutoff = percentile_cutoff(x, counted.size)
            want = int(np.count_nonzero(expected[label] <= cutoff))
            assert empirical_ptop(counted, label, x).value == want
    many = build_world(parts, tie_policy=tie_policy)
    assert many.top_rank1s_many(labels, 10).tolist() == [expected[label][:10].tolist() for label in labels]
    full = build_world(parts, tie_policy=tie_policy)
    for part in parts:
        assert full.top_rank1s(part.label, part.n).tolist() == expected[part.label].tolist()
