import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.rankcore import (
    COMPETITION,
    ORDINAL,
    DuplicateLabelError,
    InsufficientPapersError,
    RankPair,
    RankQuery,
    TopKRanks,
    UnknownLabelError,
    build_world,
    dual_ranks,
    geometric_mean,
    rank_table_rows,
    ratio_index,
    top_k,
    write_rank_table,
)
from rankmetrics.synthdist import (
    REAL,
    SYNTHETIC,
    CitationSeries,
    EnsembleConfig,
    generate_ensemble,
)

GM_FACTORIAL_10 = math.factorial(10) ** 0.1


def series(label, values, origin=REAL, keys=None):
    return CitationSeries(label, values, origin=origin, keys=keys)


def test_single_series_order():
    world = build_world([series("a", [5, 3, 1])])
    assert world.size == 3
    assert [e[0] for e in world.entries()] == [5.0, 3.0, 1.0]
    pairs = dual_ranks(world, "a")
    assert [(p.rank1, p.rank2) for p in pairs] == [(1, 1), (2, 2), (3, 3)]


def test_ordinal_tie_contract():
    world = build_world([series("a", [2, 2]), series("b", [2])])
    assert [(owner, key) for _, owner, key in world.entries()] == [("a", 0), ("a", 1), ("b", 0)]
    assert list(world.rank1) == [1, 2, 3]


def test_competition_tie_policy():
    world = build_world([series("a", [2, 2]), series("b", [2, 1])], tie_policy=COMPETITION)
    assert list(world.rank1) == [1, 1, 1, 4]
    pairs_a = dual_ranks(world, "a")
    assert [(p.rank1, p.rank2) for p in pairs_a] == [(1, 1), (1, 1)]
    pairs_b = dual_ranks(world, "b")
    assert [(p.rank1, p.rank2) for p in pairs_b] == [(1, 1), (4, 2)]


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        build_world([series("a", [1]), series("a", [2])])


def test_all_empty_rejected():
    with pytest.raises(ValueError):
        build_world([series("a", [], origin=REAL)])


def test_unknown_label():
    world = build_world([series("a", [1])])
    with pytest.raises(UnknownLabelError):
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
    assert list(one.entries()) == list(two.entries())
    total = sum(len(v) for v in data)
    assert sum(one.positions(f"s{i}").size for i in range(len(data))) == total


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
    with pytest.raises(InsufficientPapersError):
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
        aa_top4.append(int(np.count_nonzero(world.rank1[world.positions("aa")][:4] < 280)))
        un_top10.append(int(np.count_nonzero(world.rank1[world.positions("un")][:10] < 28000)))
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
    world = build_world([series("a", [5, 3]), series("b", [4])])
    buf = io.StringIO()
    write_rank_table(world, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "label,rank2,rank1,value"
    assert lines[1] == "a,1,1,5.0"
    assert lines[2] == "a,2,3,3.0"
    assert lines[3] == "b,1,2,4.0"


@pytest.mark.parametrize("top", [0, -1])
def test_rank_table_rejects_top_below_one(top):
    world = build_world([series("a", [5, 3]), series("b", [4])])
    with pytest.raises(ValueError, match="must be >= 1"):
        list(rank_table_rows(world, top=top))


@st.composite
def worlds(draw):
    """1-4 series under distinct labels, keyed or not, holding either
    integer counts 0..5 (heavy ties) or lognormal-like floats."""
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
    parts = []
    for label in labels:
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(0, 5), max_size=12))
            origin = REAL
        else:
            logs = draw(st.lists(st.floats(-3.0, 3.0), max_size=12))
            values, origin = np.exp(np.asarray(logs, dtype=np.float64)), SYNTHETIC
        keys = None
        if draw(st.booleans()):
            keys = draw(st.permutations([f"m{i:02d}" for i in range(len(values))]))
        parts.append(CitationSeries(label, values, origin=origin, keys=keys))
    return parts


@given(parts=worlds(), tie_policy=st.sampled_from([ORDINAL, COMPETITION]))
@settings(max_examples=400, deadline=None)
def test_rank_query_matches_world_index(parts, tie_policy):
    if sum(p.n for p in parts) == 0:
        for build in (build_world, RankQuery):
            with pytest.raises(ValueError):
                build(parts, tie_policy=tie_policy)
        return
    world = build_world(parts, tie_policy=tie_policy)
    query = RankQuery(parts, tie_policy=tie_policy)
    assert query.size == world.size
    for part in parts:
        expected = world.rank1[world.positions(part.label)]
        for k in range(1, part.n + 1):
            got = query.top_rank1s(part.label, k)
            assert got.tolist() == expected[:k].tolist()
        for oracle in (world, query):
            with pytest.raises(InsufficientPapersError):
                oracle.top_rank1s(part.label, part.n + 1)
    # every rank, so every percentile_cutoff rank in particular
    for rank in range(1, world.size + 1):
        assert query.value_at_rank(rank) == world.value_at_rank(rank)
    for rank in (0, world.size + 1):
        with pytest.raises(ValueError):
            query.value_at_rank(rank)


def test_rank_query_rejects_what_build_world_rejects():
    cases = [
        (DuplicateLabelError, [series("a", [1]), series("a", [2])], ORDINAL),
        (ValueError, [series("a", [])], ORDINAL),
        (ValueError, [series("a", [1])], "dense"),
    ]
    for error, parts, policy in cases:
        for build in (build_world, RankQuery):
            with pytest.raises(error):
                build(parts, tie_policy=policy)
    parts = [series("a", [3, 1]), series("b", [])]
    for world in (build_world(parts), RankQuery(parts)):
        with pytest.raises(UnknownLabelError):
            world.top_rank1s("zz", 1)
        with pytest.raises(InsufficientPapersError):
            world.top_rank1s("b", 1)
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                world.top_rank1s("a", k)
