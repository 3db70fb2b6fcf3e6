import csv
import io
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.base import canonical_json
from rankmetrics.errors import DataError
from rankmetrics.experiments import (
    ExperimentReport,
    atomic_write_text,
    config_hash,
    extended_grid,
    nearest_mu_index,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_ptop,
    run_table_s1,
    sample_positions,
    select_99,
    write_report,
)
from rankmetrics.indicators import rk_from_rank1s
from rankmetrics.rankcore import build_world, geometric_mean
from rankmetrics.synthdist import (
    REAL,
    SYNTHETIC,
    CitationSeries,
    EnsembleConfig,
    LognormalSpec,
    generate_ensemble,
    load_config,
    write_specs_csv,
    write_values_csv,
)
from rankmetrics.table import write_table

SMALL_TRIPLE_GRID = EnsembleConfig(4.0, 2.0, 33, (800, 400, 200), seed=3)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMALL_GRID_CFG = CONFIGS / "small_grid.cfg"


@pytest.fixture(scope="module")
def small_ensemble():
    return generate_ensemble(SMALL_TRIPLE_GRID)


def test_sample_positions_even():
    assert sample_positions(600, 15)[0] == 0
    assert sample_positions(600, 15)[-1] == 599
    assert len(set(sample_positions(600, 15))) == 15
    assert sample_positions(1, 1) == [0]
    with pytest.raises(DataError, match=r"^cannot sample 11 of 10 series$"):
        sample_positions(10, 11)


def test_table_s1_shape(world600):
    ensemble, _ = world600
    report = run_table_s1(ensemble, sample_size=15)
    assert len(report.rows) == 15 * 10
    labels = [row["label"] for row in report.rows]
    assert len(set(labels)) == 15
    assert labels[0] == "aa" and labels[-1] == "xb"
    block = report.rows[:10]
    assert [row["rank2"] for row in block] == list(range(1, 11))
    gm = math.exp(np.mean([math.log(row["ratio"]) for row in block]))
    assert block[0]["gm_ratio"] == pytest.approx(gm, rel=1e-12)


def test_table_s1_single_series():
    ensemble = generate_ensemble(EnsembleConfig(3.0, 3.0, 1, (40,), seed=1))
    report = run_table_s1(ensemble, sample_size=1)
    assert len(report.rows) == 10
    assert all(row["label"] == "aa" for row in report.rows)


def test_table_s1_rejects_oversample(small_ensemble):
    with pytest.raises(DataError, match=r"^cannot sample 100 of 99 series$"):
        run_table_s1(small_ensemble, sample_size=100)


def test_top_ratio_outlier_in_most_seeds():
    # the series holding the world's best paper shows a first ratio at
    # least twice its second; the geometric mean damps that outlier
    hits = 0
    for seed in range(11):
        ensemble = generate_ensemble(
            EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=seed)
        )
        world = build_world(list(ensemble.series))
        owner = next(label for label in world.labels if world.top_rank1s(label, 1)[0] == 1)
        ranks = world.top_rank1s(owner, 2).astype(float)
        first, second = 1.0 / ranks[0], 2.0 / ranks[1]
        hits += first >= 2 * second
    assert hits >= 6


def test_select_99(world600):
    ensemble, _ = world600
    labels = select_99(ensemble)
    assert len(labels) == 99
    mus = {ensemble.spec_by_label[l].mu for l in labels}
    assert len(mus) == 33
    sizes = [ensemble.spec_by_label[l].n for l in labels]
    assert sizes[:3] == [800, 400, 200]


def test_select_99_complete_small_grid(small_ensemble):
    labels = select_99(small_ensemble)
    assert labels == [spec.label for spec in small_ensemble.specs]


def test_select_99_picks_33_distinct_mu_values_on_every_grid():
    # select_99 reads only the grid's shape and each spec's label, so a
    # stand-in whose spec i is labelled i covers 1,968 grids in a blink
    class Specs:
        def __getitem__(self, index):
            return SimpleNamespace(label=index)

    for mu_count in range(33, 2001):
        ensemble = SimpleNamespace(config=SimpleNamespace(sizes=(3, 2, 1), mu_count=mu_count),
                                   specs=Specs())
        labels = select_99(ensemble)
        assert labels[:3] == [0, 1, 2] and labels[-1] == 3 * mu_count - 1
        assert len({label // 3 for label in labels}) == 33


def test_select_99_needs_triples():
    ensemble = generate_ensemble(EnsembleConfig(4.0, 2.0, 40, (800,), seed=1))
    with pytest.raises(DataError, match=r"^triple selection needs three sizes per mu, grid has 1$"):
        select_99(ensemble)


def test_fig1_rows_and_branches(world600):
    ensemble, _ = world600
    report = run_fig1(ensemble)
    assert len(report.rows) == 99
    # at fixed mu the expected top-10% count is ordered by series size
    by_mu = {}
    for row in report.rows:
        by_mu.setdefault(row["mu"], []).append((row["n"], row["ptop_10_analytic"]))
    for entries in by_mu.values():
        entries.sort(reverse=True)
        values = [v for _, v in entries]
        assert values[0] > values[1] > values[2]
    # every row's rank index recomputes from its stored ranks
    for row in report.rows:
        rk = rk_from_rank1s([int(r) for r in row["rank1s"].split(";")])
        assert row["rk"] == pytest.approx(rk, rel=1e-9)
        assert row["gm_inv_rank1"] > row["gm_inv_offset_rank1"]


def test_fig1_deterministic():
    config = EnsembleConfig(4.0, 2.0, 33, (800, 400, 200), seed=9)
    one = run_fig1(generate_ensemble(config))
    two = run_fig1(generate_ensemble(config))
    assert one.rows == two.rows
    assert one.config_hash == two.config_hash


@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_ptop_matches_fig1(small_ensemble, tie_policy):
    fig1 = run_fig1(small_ensemble, tie_policy=tie_policy)
    labels = select_99(small_ensemble)
    report = run_ptop(small_ensemble, (10, 0.1), labels=labels, tie_policy=tie_policy)
    assert report.parameters["labels"] == ",".join(labels)
    assert report.columns == ("label", "mu", "n", "ptop_10", "ptop_0.1", "rk")
    assert [(r["label"], r["rk"], r["ptop_10"], r["ptop_0.1"]) for r in report.rows] == [
        (r["label"], r["rk"], r["ptop_10_analytic"], r["ptop_0.1_analytic"]) for r in fig1.rows
    ]
    selected = run_ptop(small_ensemble, (10, 0.1), tie_policy=tie_policy)
    assert selected.rows == report.rows
    assert selected.parameters["labels"] is None


def test_fig2_partition(world600):
    ensemble, _ = world600
    report = run_fig2(ensemble)
    tiers = {"high": [], "medium": [], "low": []}
    for row in report.rows:
        tiers[row["tier"]].append(row["rk"])
    assert [len(tiers[t]) for t in ("high", "medium", "low")] == [33, 33, 33]
    assert min(tiers["high"]) >= max(tiers["medium"]) >= min(tiers["medium"])
    assert min(tiers["medium"]) >= max(tiers["low"])
    for row in report.rows:
        assert row["rk"] == pytest.approx(
            rk_from_rank1s([int(r) for r in row["rank1s"].split(";")]), rel=1e-9
        )


def _branch_spread(rows, tier, column):
    """Spread between per-size trend lines at the tier's median rank index."""
    pts = [r for r in rows if r["tier"] == tier]
    mid = np.median([math.log(r["rk"]) for r in pts])
    preds = []
    for n in (800, 400, 200):
        branch = [r for r in pts if r["n"] == n]
        x = np.array([math.log(r["rk"]) for r in branch])
        y = np.array([math.log(r[column]) for r in branch])
        slope, intercept = np.polyfit(x, y, 1)
        preds.append(math.exp(intercept + slope * mid))
    return max(preds) / min(preds)


def test_fig2_stringency_tiers_merge_direction():
    # size branches merge at the stringent end for the high tier, and
    # only at milder percentiles for the low tier
    checks = {"high_trend": 0, "high_tight": 0, "p10_apart": 0, "low_at_3": 0, "med_at_05": 0}
    seeds = range(9)
    for seed in seeds:
        ensemble = generate_ensemble(
            EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=seed)
        )
        rows = run_fig2(ensemble).rows
        checks["high_trend"] += _branch_spread(rows, "high", "ptop_0.1") < _branch_spread(
            rows, "high", "ptop_10"
        )
        checks["high_tight"] += _branch_spread(rows, "high", "ptop_0.1") <= 1.5
        checks["p10_apart"] += _branch_spread(rows, "high", "ptop_10") >= 1.5
        checks["low_at_3"] += _branch_spread(rows, "low", "ptop_3") < _branch_spread(
            rows, "low", "ptop_0.1"
        )
        checks["med_at_05"] += _branch_spread(rows, "medium", "ptop_0.5") < _branch_spread(
            rows, "medium", "ptop_0.1"
        )
    for name, hits in checks.items():
        assert hits >= 6, f"{name} held only {hits} of {len(seeds)} seeds"


def test_fig3_traces(world600):
    ensemble, _ = world600
    report = run_fig3(ensemble)
    assert len(report.rows) == 4 * 10
    by_label = {}
    for row in report.rows:
        by_label.setdefault(row["label"], []).append(row)
    assert len(by_label) == 4
    mus = sorted({round(rows[0]["mu"], 2) for rows in by_label.values()})
    assert mus == [3.03, 3.63]
    sizes = sorted(rows[0]["n"] for rows in by_label.values())
    assert sizes == [200, 200, 800, 800]
    for rows in by_label.values():
        assert [r["rank2"] for r in rows] == list(range(1, 11))
        ranks = [r["rank1"] for r in rows]
        assert ranks == sorted(ranks)
        assert rows[0]["rk"] == pytest.approx(rk_from_rank1s(ranks), rel=1e-9)


def test_fig3_needs_sizes(small_ensemble):
    with pytest.raises(DataError, match=r"^grid sizes \(800, 400, 200\) do not include 100$"):
        run_fig3(small_ensemble, size_pair=(800, 100))


def test_nearest_mu_index():
    config = EnsembleConfig(4.0, 2.0, 200, (800, 400, 200), seed=0)
    mus = config.mu_values()
    assert abs(mus[nearest_mu_index(config, 3.63)] - 3.63) < 0.01
    assert abs(mus[nearest_mu_index(config, 3.03)] - 3.03) < 0.01


def test_single_series_trace_is_identity():
    world = build_world([CitationSeries("a", list(range(30, 0, -1)), origin=REAL)])
    assert world.top_rank1s("a", 10).tolist() == list(range(1, 11))


def test_fig4_report():
    report = run_fig4(extended_grid(seed=1))
    assert len(report.rows) == 115
    for row in report.rows:
        assert row["in_equiv_0.1"] == (0.5 <= row["rk"] <= 39.5)
        assert row["in_equiv_0.01"] == (1.0 <= row["rk"] <= 39.5)
        assert row["rk_over_ptop_0.1"] == pytest.approx(row["rk"] / row["ptop_0.1"], rel=1e-12)
        ranks = [int(r) for r in row["rank1s"].split(";")]
        assert row["rk"] == pytest.approx(rk_from_rank1s(ranks), rel=1e-9)
    ratios = np.array([row["rk_over_ptop_0.1"] for row in report.rows])
    inside = np.array([row["in_equiv_0.1"] for row in report.rows])
    assert inside.any() and not inside.all()
    assert ratios[inside].max() / ratios[inside].min() < ratios.max() / ratios.min()


def test_report_hash_stable_under_reserialization(small_ensemble):
    report = run_table_s1(small_ensemble, sample_size=3)
    round_tripped = json.loads(canonical_json(report.parameters))
    assert config_hash(round_tripped) == report.config_hash


def test_write_report_files(tmp_path, small_ensemble):
    report = run_table_s1(small_ensemble, sample_size=3)
    paths = write_report(report, tmp_path)
    assert paths[0].endswith(f"tables1_{report.config_hash}.csv")
    assert paths[1].endswith(f"tables1_{report.config_hash}.json")
    header = Path(paths[0]).read_text().splitlines()[0]
    assert header == ",".join(report.columns)
    sidecar = json.loads(Path(paths[1]).read_text())
    assert sidecar["row_count"] == len(report.rows)
    assert sidecar["parameters"]["config"]["seed"] == SMALL_TRIPLE_GRID.seed
    assert "created" not in json.dumps(sidecar)  # no timestamps in outputs
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".part")]
    assert leftovers == []


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"


def test_report_requires_rows():
    with pytest.raises(ValueError):
        ExperimentReport("x", {}, [])


def test_failed_stream_leaves_no_file(tmp_path):
    def chunks():
        yield [np.array([1, 2]), np.array([0.5, 0.25])]
        raise RuntimeError("source failed partway")

    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        report = ExperimentReport("x", {"a": 1}, columns=("n", "v"), chunks=chunks())
        with pytest.raises(RuntimeError, match="partway"):
            write_report(report, out, fmt=fmt)
        assert os.listdir(out) == []


# The writers the table writer replaced, kept as its oracles.
def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def csv_text_oracle(columns, rows: list[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def csv_writer_oracle(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1, math.nan, math.inf, -math.inf]
INT64 = st.integers(-(2**63), 2**63 - 1)
# rows are %-templates, so text holding % is an edge case of its own
PERCENT = st.sampled_from(["%", "%s", "%%d", "é%"])
# numpy string arrays drop trailing NULs and cannot hold lone surrogates
ARRAY_TEXT = st.one_of(PERCENT, st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4))
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(), INT64, st.integers(2**53, 10**30),
    st.booleans(), st.just(""), PERCENT, st.text(max_size=4),
)


@st.composite
def column_tables(draw):
    """(columns, column values, chunk cut points): arrays of every dtype the
    program writes beside lists of mixed cells."""
    size = draw(st.integers(0, 7))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    names = draw(st.lists(st.one_of(PERCENT, st.text(min_size=1, max_size=4)),
                          min_size=1, max_size=4, unique=True))
    values = []
    for _ in names:
        kind = draw(st.sampled_from(["float", "int", "bool", "str", "label", "list"]))
        if kind == "float":
            floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
            values.append(np.array(cells(floats), dtype=np.float64))
        elif kind == "int":
            values.append(np.array(cells(INT64), dtype=np.int64))
        elif kind == "bool":
            values.append(np.array(cells(st.booleans()), dtype=bool))
        elif kind == "str":
            values.append(np.array(cells(ARRAY_TEXT), dtype=str))
        elif kind == "label":
            values.append(np.full(size, draw(ARRAY_TEXT)))
        else:
            values.append(cells(CELLS))
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=5)))
    return tuple(names), values, cuts


@given(table=column_tables())
@settings(max_examples=300, deadline=None)
def test_write_table_matches_former_writers(table):
    columns, values, cuts = table
    edges = [0, *cuts, len(values[0])]
    chunks = [[column[a:b] for column in values] for a, b in zip(edges, edges[1:])]
    plain = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
    rows = [dict(zip(columns, cells)) for cells in zip(*plain)]
    expected = {
        "csv": csv_text_oracle(columns, rows),
        "json": json.dumps(rows, indent=1) + "\n",
    }
    for fmt, text in expected.items():
        out = io.StringIO()
        assert write_table(out, columns, iter(chunks), fmt) == len(rows)
        assert out.getvalue() == text


LABELS = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3)
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e16, 1e-7, 0.1]),
                     st.floats(min_value=5e-324, allow_infinity=False))


@given(
    labels=st.lists(LABELS, max_size=4, unique=True),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_gen_writers_match_csv_writer(labels, data):
    series = []
    for label in labels:
        if data.draw(st.booleans()):
            values = data.draw(st.lists(POSITIVE, max_size=3))
            series.append(CitationSeries(label, values, origin=SYNTHETIC))
        else:
            values = data.draw(st.lists(st.integers(0, 2**53), max_size=3))
            series.append(CitationSeries(label, values, origin=REAL))
    out = io.StringIO()
    write_values_csv(series, out)
    rows = [[s.label, repr(float(v))] for s in series for v in s.values]
    assert out.getvalue() == csv_writer_oracle(["label", "value"], rows)
    specs = [
        LognormalSpec(label, data.draw(st.one_of(st.sampled_from(EDGE_FLOATS[:5]),
                                                 st.floats(allow_nan=False, allow_infinity=False))),
                      data.draw(st.floats(min_value=5e-324, allow_infinity=False)),
                      data.draw(st.integers(1, 2**63)))
        for label in labels
    ]
    out = io.StringIO()
    write_specs_csv(specs, out)
    rows = [[spec.label, repr(spec.mu), repr(spec.sigma), spec.n] for spec in specs]
    assert out.getvalue() == csv_writer_oracle(["label", "mu", "sigma", "n"], rows)


def _rank1s(row) -> list[int]:
    return [int(r) for r in row["rank1s"].split(";")]


@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_row_wise_index_equals_the_scalar_index_exactly(tie_policy):
    # The studies take one vectorised log/mean/exp over all their units;
    # each value must equal, bit for bit, the scalar function on its row.
    config = load_config(SMALL_GRID_CFG)
    ensemble = generate_ensemble(config)
    for row in run_fig1(ensemble, tie_policy=tie_policy).rows:
        ranks = _rank1s(row)
        assert row["gm_inv_rank1"] == rk_from_rank1s(ranks, offset=0.0, scale=1.0)
        assert row["gm_inv_offset_rank1"] == rk_from_rank1s(ranks, offset=20.0, scale=1.0)
        assert row["rk"] == rk_from_rank1s(ranks)
    for row in run_fig2(ensemble, tie_policy=tie_policy).rows:
        assert row["rk"] == rk_from_rank1s(_rank1s(row))
    for row in run_fig4(config, tie_policy=tie_policy).rows:
        rk = rk_from_rank1s(_rank1s(row))
        assert row["rk"] == rk
        assert row["rk_over_ptop_0.1"] == rk / row["ptop_0.1"]
        assert row["rk_over_ptop_0.01"] == rk / row["ptop_0.01"]
    blocks = {}
    for row in run_fig3(ensemble, tie_policy=tie_policy).rows:
        blocks.setdefault(row["label"], []).append(row)
    for block in blocks.values():
        assert all(row["rk"] == rk_from_rank1s([r["rank1"] for r in block]) for row in block)
    world = build_world(list(ensemble.series), tie_policy=tie_policy)
    for row in run_ptop(ensemble, (10.0, 0.1), tie_policy=tie_policy).rows:
        assert row["rk"] == rk_from_rank1s(world.top_rank1s(row["label"], 10))
    blocks = {}
    for row in run_table_s1(ensemble, tie_policy=tie_policy).rows:
        assert row["ratio"] == row["rank2"] / row["rank1"]
        blocks.setdefault(row["label"], []).append(row)
    for block in blocks.values():
        gm = geometric_mean([row["ratio"] for row in block])
        assert all(row["gm_ratio"] == gm for row in block)


def test_extended115_config_is_the_built_in_fig4_grid():
    assert load_config(CONFIGS / "extended115.cfg") == extended_grid(20230615)
