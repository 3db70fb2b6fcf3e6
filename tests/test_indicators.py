import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.errors import DataError
from rankmetrics.experiments import select_99
from rankmetrics.indicators import (
    ANALYTIC,
    EMPIRICAL,
    RkResult,
    analytic_ptop,
    count_uncited,
    empirical_ptop,
    lognormal_survival,
    percentile_cutoff,
    rk_from_rank1s,
    rk_index,
)
from rankmetrics.rankcore import build_world, dual_ranks, ratio_index, top_k
from rankmetrics.synthdist import REAL, CitationSeries, LognormalSpec, sample_series

RK_MAX_DEFAULT = 39.468121292436805  # 1000 / (30!/20!)^(1/10)


def test_rk_upper_bound_value():
    assert rk_from_rank1s(range(1, 11)) == pytest.approx(RK_MAX_DEFAULT, abs=1e-9)


def test_rk_constant_ranks():
    assert rk_from_rank1s([280] * 10) == pytest.approx(1000.0 / 300.0, rel=1e-12)


def test_rk_spread_ranks():
    # oracle: explicit product of the ten factors
    rank1s = [10 * i for i in range(1, 11)]
    expected = 1000.0 * math.prod(1.0 / (20.0 + r) for r in rank1s) ** 0.1
    assert expected == pytest.approx(14.5234, abs=5e-4)
    assert rk_from_rank1s(rank1s) == pytest.approx(expected, rel=1e-12)


def test_rk_index_carries_inputs():
    world = build_world([CitationSeries("a", list(range(50, 0, -1)), origin=REAL)])
    result = rk_index(top_k(dual_ranks(world, "a"), 10, label="a"))
    assert isinstance(result, RkResult)
    assert result.label == "a"
    assert result.rank1s == tuple(range(1, 11))
    assert result.rk == pytest.approx(RK_MAX_DEFAULT, abs=1e-9)


@given(st.lists(st.integers(1, 10**5), min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_rk_bounds_and_monotonicity(gaps):
    # strictly increasing rank1 with rank1_i >= i, as produced by top_k
    rank1s = [int(r) for r in np.cumsum(gaps)]
    rk = rk_from_rank1s(rank1s)
    assert 0 < rk <= RK_MAX_DEFAULT + 1e-9
    bumped = list(rank1s)
    bumped[3] += 1
    assert rk_from_rank1s(bumped) < rk
    if rank1s[3] - 1 > rank1s[2]:
        lowered = list(rank1s)
        lowered[3] -= 1
        assert rk_from_rank1s(lowered) > rk


@given(st.lists(st.integers(1, 500), min_size=10, max_size=10))
@settings(max_examples=100, deadline=None)
def test_offset_zero_matches_ratio_index(gaps):
    # with no offset, the rank index is  scale/(k!)^(1/k)  times the
    # geometric mean of the rank2/rank1 ratios
    from rankmetrics.rankcore import RankPair, TopKRanks

    rank1s = list(np.cumsum(gaps))
    top = TopKRanks(
        label=None,
        k=10,
        pairs=tuple(
            RankPair(rank1=int(r), rank2=i + 1, value=0.0) for i, r in enumerate(rank1s)
        ),
    )
    rk = rk_from_rank1s(rank1s, offset=0.0, scale=1000.0)
    assert 1000.0 * ratio_index(top) / rk == pytest.approx(
        math.factorial(10) ** 0.1, rel=1e-9
    )


def test_cutoff_values():
    assert percentile_cutoff(0.1, 280_000) == 280
    assert percentile_cutoff(10.0, 280_000) == 28_000
    assert percentile_cutoff(100.0, 777) == 777
    assert percentile_cutoff(29.0, 100) == 29  # floating-point boundary guard
    assert percentile_cutoff(0.01, 100) == 0
    with pytest.raises(ValueError):
        percentile_cutoff(0.0, 100)
    with pytest.raises(ValueError):
        percentile_cutoff(101.0, 100)


def two_unit_world():
    # unit "a" owns world ranks 1..50 of a 1000-paper world
    top_values = list(range(2000, 1950, -1))
    rest = list(range(1000, 50, -1))
    return build_world(
        [
            CitationSeries("a", top_values, origin=REAL),
            CitationSeries("b", rest, origin=REAL),
        ]
    )


def test_empirical_count_top_percent():
    world = two_unit_world()
    result = empirical_ptop(world, "a", 1.0)
    assert result.mode == EMPIRICAL
    assert result.value == 10
    assert result.cutoff_rank == 10
    assert result.threshold == world.value_at_rank(10)


def test_empirical_whole_world_is_unit_size():
    world = two_unit_world()
    assert empirical_ptop(world, "a", 100.0).value == 50
    assert empirical_ptop(world, "b", 100.0).value == 950


def test_empirical_empty_slice():
    world = build_world([CitationSeries("a", [3, 2, 1], origin=REAL)])
    result = empirical_ptop(world, "a", 1.0)
    assert result.value == 0
    assert result.cutoff_rank == 0
    assert math.isinf(result.threshold)


def test_survival_median():
    assert lognormal_survival(3.0, 1.1, math.exp(3.0)) == pytest.approx(0.5, abs=1e-12)


def test_survival_decile_quantile():
    c = math.exp(3.0 + 1.1 * 1.2815515655446004)
    assert lognormal_survival(3.0, 1.1, c) == pytest.approx(0.10, abs=1e-6)


def test_survival_against_monte_carlo():
    mu, sigma, c, n = 3.0, 1.1, 100.0, 10_000_000
    rng = np.random.default_rng(777)
    draws = mu + sigma * rng.standard_normal(n)
    mc = float(np.mean(draws > math.log(c)))
    se = math.sqrt(mc * (1 - mc) / n)
    assert lognormal_survival(mu, sigma, c) == pytest.approx(mc, abs=3 * se)


def test_survival_domain():
    with pytest.raises(ValueError):
        lognormal_survival(3.0, 1.1, 0.0)
    with pytest.raises(ValueError):
        lognormal_survival(3.0, 0.0, 1.0)


def test_analytic_self_world_consistency():
    spec = LognormalSpec("solo", 3.0, 1.1, 50_000)
    world = build_world([sample_series(spec, seed=4, stream_id=0)])
    for x in (10.0, 1.0, 0.5):
        emp = empirical_ptop(world, "solo", x)
        ana = analytic_ptop(spec, world, x)
        assert ana.mode == ANALYTIC
        p = ana.value / spec.n
        assert abs(emp.value - ana.value) <= 3 * math.sqrt(spec.n * p * (1 - p))


def test_analytic_matches_empirical_within_4se_across_seeds():
    # a 10,000-paper series inside its own ensemble: the analytic count
    # stays within 4 binomial standard errors of the empirical one
    from rankmetrics.synthdist import EnsembleConfig, generate_ensemble

    failures = 0
    for seed in range(20):
        ensemble = generate_ensemble(EnsembleConfig(3.5, 2.5, 3, (10_000,), seed=seed))
        world = build_world(list(ensemble.series))
        bad = False
        for spec in ensemble.specs:
            for x in (10.0, 1.0):
                emp = empirical_ptop(world, spec.label, x).value
                ana = analytic_ptop(spec, world, x).value
                p = ana / spec.n
                if abs(emp - ana) > 4 * math.sqrt(spec.n * p * (1 - p)):
                    bad = True
        failures += bad
    assert failures <= 1  # >= 95% of seeds


def test_analytic_degenerate_world_jumps():
    world = build_world([CitationSeries("flat", [10] * 1000, origin=REAL)])
    below = LognormalSpec("below", math.log(9.0), 1e-9, 500)
    above = LognormalSpec("above", math.log(11.0), 1e-9, 500)
    assert analytic_ptop(below, world, 10.0).value < 1e-6
    assert analytic_ptop(above, world, 10.0).value > 500 - 1e-6


def test_analytic_rejects_empty_slice():
    world = build_world([CitationSeries("a", [3, 2, 1], origin=REAL)])
    with pytest.raises(DataError, match=r"^top 1\.0% of a world of 3 papers holds no entries$"):
        analytic_ptop(LognormalSpec("s", 1.0, 1.0, 10), world, 1.0)


def test_analytic_table_for_triple_selection(world600):
    # expected-count table over the selected 99 series: real-valued
    # entries, many below one at the stringent end
    ensemble, world = world600
    labels = select_99(ensemble)
    xs = (15.0, 10.0, 5.0, 3.0, 1.0, 0.5, 0.1)
    table = {
        label: [analytic_ptop(ensemble.spec_by_label[label], world, x).value for x in xs]
        for label in labels
    }
    assert len(table) == 99
    values = np.array(list(table.values()))
    assert values.shape == (99, 7)
    assert np.all(values >= 0)
    assert np.any(values != np.round(values))
    assert np.any((0 < values) & (values < 1))
    # columns shrink as the percentile narrows
    assert np.all(np.diff(values, axis=1) <= 1e-12)


def test_count_uncited():
    assert count_uncited(CitationSeries("u", [0, 0, 3, 1], origin=REAL)) == 2
    assert count_uncited(CitationSeries("u", [5, 1, 2], origin=REAL)) == 0


def test_count_uncited_rejects_synthetic():
    with pytest.raises(DataError, match=r"^uncited counting is undefined for synthetic series$"):
        count_uncited(CitationSeries("u", [1.0, 2.0], origin="synthetic"))


def test_percentile_additivity_example():
    world = two_unit_world()
    for x in (1.0, 7.3, 10.0, 50.0, 100.0):
        total = empirical_ptop(world, "a", x).value + empirical_ptop(world, "b", x).value
        assert total == percentile_cutoff(x, world.size)
