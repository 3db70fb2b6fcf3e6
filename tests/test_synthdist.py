import io
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmetrics import synthdist
from rankmetrics.errors import DataError
from rankmetrics.synthdist import (
    REAL,
    SYNTHETIC,
    CitationSeries,
    EnsembleConfig,
    LognormalSpec,
    build_grid,
    generate_ensemble,
    load_config,
    sample_series,
    series_label,
    write_specs_csv,
    write_values_csv,
)


def test_default_world_grid_counts():
    config = EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=1)
    specs = build_grid(config)
    assert len(specs) == 600
    assert sum(s.n for s in specs) == 280_000
    assert config.total_papers == 280_000
    assert specs[0].label == "aa"
    assert specs[-1].label == "xb"
    assert len({s.label for s in specs}) == 600


def test_degenerate_grid():
    specs = build_grid(EnsembleConfig(3.0, 3.0, 1, (100,)))
    assert len(specs) == 1
    assert specs[0].mu == 3.0
    assert specs[0].n == 100


def test_three_point_spacing():
    specs = build_grid(EnsembleConfig(4.0, 2.0, 3, (10,)))
    assert [s.mu for s in specs] == [4.0, 3.0, 2.0]


def test_single_mu_with_distinct_endpoints_rejected():
    # refused when the config is built, so a config file's error names the file
    with pytest.raises(DataError, match=r"^mu_count=1 requires mu_start == mu_end$"):
        EnsembleConfig(4.0, 2.0, 1, (10,))
    assert build_grid(EnsembleConfig(3.5, 3.5, 1, (10, 5)))[1].mu == 3.5


def test_labels_continue_past_two_letters():
    assert series_label(0) == "aa"
    assert series_label(599) == "xb"
    assert series_label(675) == "zz"
    assert series_label(676) == "aaa"
    labels = [series_label(i) for i in range(1500)]
    assert len(set(labels)) == 1500


@given(
    mu_count=st.integers(1, 20),
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_grid_labels_unique_totals_match(mu_count, sizes):
    config = EnsembleConfig(3.0, 3.0 if mu_count == 1 else 2.0, mu_count, tuple(sizes))
    specs = build_grid(config)
    assert len(specs) == mu_count * len(sizes)
    assert len({s.label for s in specs}) == len(specs)
    assert sum(s.n for s in specs) == config.total_papers


@st.composite
def grid_configs(draw):
    """One mu, a few, or enough for 3-letter labels, over sizes that may repeat."""
    mu_count = draw(st.just(1) | st.integers(2, 9) | st.integers(170, 700))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    mu_start = draw(st.floats(-50, 50) | st.integers(-50, 50))
    mu_end = mu_start if mu_count == 1 else draw(st.floats(-50, 50))
    return EnsembleConfig(mu_start, mu_end, mu_count, tuple(sizes))


@given(config=grid_configs())
# one mu given as an int; 720 series, labels aa..zz then aaa..; repeated sizes
@example(config=EnsembleConfig(3, 3, 1, (30, 20)))
@example(config=EnsembleConfig(3.0, -3.0, 240, (1, 7, 3)))
@example(config=EnsembleConfig(4.0, 2.0, 3, (5, 5, 2, 5)))
@settings(max_examples=100, deadline=None)
def test_grid_specs_are_the_checked_specs(config):
    # build_grid skips LognormalSpec's checks; each spec is still the one they pass
    mu_n = [(mu, n) for mu in config.mu_values() for n in config.sizes]
    expected = [
        LognormalSpec(series_label(i), float(mu), synthdist.DEFAULT_SIGMA, n)
        for i, (mu, n) in enumerate(mu_n)
    ]
    specs = build_grid(config)
    assert specs == expected
    assert repr(specs) == repr(expected)  # field types too: a float mu, an int n
    assert all(type(spec) is LognormalSpec for spec in specs)


def test_sample_log_mean_near_mu():
    spec = LognormalSpec("s", 3.0, 1.1, 10_000)
    series = sample_series(spec, seed=11, stream_id=0)
    assert abs(np.mean(np.log(series.values)) - 3.0) < 3 * 1.1 / math.sqrt(10_000)


def test_sample_vanishing_variance():
    spec = LognormalSpec("s", 0.0, 1e-12, 5)
    series = sample_series(spec, seed=1, stream_id=0)
    assert np.all(np.abs(series.values - 1.0) < 1e-9)


def test_sample_determinism_bytes():
    spec = LognormalSpec("s", 2.5, 1.1, 1000)
    a = sample_series(spec, seed=99, stream_id=3)
    b = sample_series(spec, seed=99, stream_id=3)
    assert a.values.tobytes() == b.values.tobytes()


def test_streams_are_independent():
    spec = LognormalSpec("s", 2.5, 1.1, 100)
    a = sample_series(spec, seed=99, stream_id=0)
    b = sample_series(spec, seed=99, stream_id=1)
    assert not np.array_equal(a.values, b.values)


def test_log_values_pass_ks_in_most_seeds():
    # lognormality gate for the sampler: KS p-value above the 1% level
    # in at least 95% of seeds
    spec = LognormalSpec("s", 3.0, 1.1, 10_000)
    passed = 0
    seeds = range(40)
    for seed in seeds:
        series = sample_series(spec, seed=seed, stream_id=0)
        stat = scipy.stats.kstest(np.log(series.values), "norm", args=(3.0, 1.1))
        passed += stat.pvalue > 0.01
    assert passed >= 0.95 * len(seeds)


def test_ensemble_reproducible_and_order_free():
    config = EnsembleConfig(4.0, 2.0, 5, (30, 20), seed=123)
    one = generate_ensemble(config)
    two = generate_ensemble(config)
    specs = list(enumerate(one.specs))
    reverse = {spec.label: sample_series(spec, config.seed, i) for i, spec in reversed(specs)}
    for s1, s2 in zip(one.series, two.series):
        assert s1.values.tobytes() == s2.values.tobytes() == reverse[s1.label].values.tobytes()


def test_flat_ensemble_matches_per_spec_sampling():
    # 720 series: labels run to three letters, so sorted label order is no
    # longer grid order, and the first size column holds one paper
    config = EnsembleConfig(3.0, -3.0, 240, (1, 7, 3), seed=2**63 + 11)
    ensemble = generate_ensemble(config)
    assert len(ensemble.series) == 720
    assert ensemble.labels[676] == "aaa" and sorted(ensemble.labels) != ensemble.labels
    for i, (spec, series) in enumerate(zip(ensemble.specs, ensemble.series)):
        alone = sample_series(spec, config.seed, i)
        assert series.label == alone.label == spec.label
        assert series.origin == SYNTHETIC
        assert series.values.tobytes() == alone.values.tobytes()


def numpy_stream_values(spec, seed, stream_id):
    """The values of `spec` drawn from numpy's own stream (seed, stream_id)."""
    seed_seq = np.random.SeedSequence((seed, stream_id))
    values = np.random.Generator(np.random.PCG64(seed_seq)).standard_normal(spec.n)
    values *= spec.sigma
    values += spec.mu
    return np.exp(values)


SEED_CORNERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
# 2**64 + 5 is three entropy words: with a two-word seed, more than the 4-word
# pool; only `sample_series` takes an id that wide
STREAM_CORNERS = [0, 599, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5]


@given(
    seed=st.sampled_from(SEED_CORNERS) | st.integers(0, 2**64 - 1),
    stream_ids=st.lists(st.sampled_from(STREAM_CORNERS) | st.integers(0, 2**160),
                        min_size=1, max_size=6),
)
@example(seed=0, stream_ids=STREAM_CORNERS)
@example(seed=1, stream_ids=STREAM_CORNERS)
@example(seed=2**32 - 1, stream_ids=STREAM_CORNERS)
@example(seed=2**32, stream_ids=STREAM_CORNERS)
@example(seed=2**63, stream_ids=STREAM_CORNERS)
@example(seed=2**64 - 1, stream_ids=STREAM_CORNERS)
@settings(max_examples=60, deadline=None)
def test_streams_are_numpys_seed_sequence_streams(seed, stream_ids):
    # the streams below 2**64 are seeded in one pass, ids of one and two words together
    grid_ids = [stream_id for stream_id in stream_ids if stream_id < 2**64]
    states = synthdist._stream_states(seed, grid_ids)
    for stream_id, words in zip(grid_ids, states, strict=True):
        seed_seq = np.random.SeedSequence((seed, stream_id))
        assert words.tolist() == seed_seq.generate_state(4, np.uint64).tolist()
    spec = LognormalSpec("aa", 2.5, 1.1, 7)
    for stream_id in stream_ids:
        expected = numpy_stream_values(spec, seed, stream_id)
        assert sample_series(spec, seed, stream_id).values.tobytes() == expected.tobytes()
    # 600 series, so the ensemble's streams run from 0 to 599
    ensemble = generate_ensemble(EnsembleConfig(3.0, 2.0, 300, (2, 1), seed=seed))
    for i, (spec, series) in enumerate(zip(ensemble.specs, ensemble.series, strict=True)):
        assert series.values.tobytes() == numpy_stream_values(spec, seed, i).tobytes()


def test_stream_id_is_a_nonnegative_integer():
    spec = LognormalSpec("aa", 2.5, 1.1, 3)
    with pytest.raises(TypeError):
        sample_series(spec, 1, 2.0)
    with pytest.raises(ValueError):
        sample_series(spec, 1, -1)
    expected = sample_series(spec, 1, 2).values.tobytes()
    assert sample_series(spec, 1, np.uint8(2)).values.tobytes() == expected


@pytest.mark.parametrize(
    "mu, cause",
    [(800.0, "citation values must be finite"),
     (-800.0, "synthetic citation values must be > 0")],
)
def test_out_of_range_mu_keeps_its_grid_error(mu, cause):
    message = f"series aa: mu = {mu} puts values outside float range ({cause})"
    with pytest.raises(DataError) as exc:
        generate_ensemble(EnsembleConfig(mu, mu, 1, (4, 1), seed=3))
    assert str(exc.value) == message
    with pytest.raises(DataError) as exc:
        sample_series(LognormalSpec("aa", mu, 1.1, 4), 3, 0)
    assert str(exc.value) == message


def test_ensemble_names_its_first_out_of_range_series():
    # aa and ab sample fine at mu = 2; ac is the first series at mu = 800
    config = EnsembleConfig(2.0, 800.0, 2, (4, 1), seed=3)
    with pytest.raises(DataError) as exc:
        generate_ensemble(config)
    assert str(exc.value) == (
        "series ac: mu = 800.0 puts values outside float range (citation values must be finite)"
    )


def test_ensemble_series_are_read_only():
    ensemble = generate_ensemble(EnsembleConfig(4.0, 2.0, 5, (30, 1), seed=9))
    for series in ensemble.series:
        assert not series.values.flags.writeable
        with pytest.raises(ValueError):
            series.values[0] = 1.0
        with pytest.raises(ValueError):
            series.values.flags.writeable = True


def test_series_validation():
    with pytest.raises(ValueError):
        CitationSeries("a", [1.0, 0.0], origin=SYNTHETIC)
    with pytest.raises(ValueError):
        CitationSeries("a", [1.5], origin=REAL)
    with pytest.raises(ValueError):
        CitationSeries("a", [-1], origin=REAL)
    ok = CitationSeries("a", [0, 3, 2], origin=REAL)
    assert ok.n == 3


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "# comment\nmu_start = 4.0\nmu_end = 2.0\nmu_count = 200\n"
        "sizes = 800,400,200\nseed = 42\n"
    )
    config = load_config(path)
    assert config == EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=42)


BAD_CONFIG_TEXTS = [
    ("mu_start = 4.0\n", "bad.cfg: missing keys ['mu_end', 'mu_count', 'sizes', 'seed']"),
    ("mu_start = 4.0\nmu_end = 2.0\nmu_count = 2\nsizes = 10\nseed = 1\nbogus = 3\n",
     "bad.cfg:6: unknown key 'bogus'"),
    ("mu_start4.0\nmu_end = 2.0\nmu_count = 2\nsizes = 10\nseed = 1\n",
     "bad.cfg:1: expected 'key = value', got 'mu_start4.0'"),
    ("mu_start = 4.0\nmu_start = 3.0\nmu_end = 2.0\nmu_count = 2\nsizes = 10\nseed = 1\n",
     "bad.cfg:2: duplicate key 'mu_start'"),
]


@pytest.mark.parametrize("text, message", BAD_CONFIG_TEXTS, ids=[t for t, _ in BAD_CONFIG_TEXTS])
def test_config_file_rejects_bad_text(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(message) + "$"):
        load_config(path)


def test_csv_exports():
    config = EnsembleConfig(4.0, 2.0, 2, (3, 2), seed=5)
    ensemble = generate_ensemble(config)
    spec_buf, value_buf = io.StringIO(), io.StringIO()
    write_specs_csv(ensemble.specs, spec_buf)
    write_values_csv(ensemble.series, value_buf)
    spec_lines = spec_buf.getvalue().splitlines()
    assert spec_lines[0] == "label,mu,sigma,n"
    assert len(spec_lines) == 1 + 4
    value_lines = value_buf.getvalue().splitlines()
    assert value_lines[0] == "label,value"
    assert len(value_lines) == 1 + config.total_papers
