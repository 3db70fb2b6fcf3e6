import argparse
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankmetrics
from rankmetrics import cli, experiments, synthdist
from rankmetrics.cli import build_parser, main
from rankmetrics.errors import DataError
from rankmetrics.ingest import corpus_world_ranks, load_corpus

SMALL_CFG = (
    "mu_start = 4.0\nmu_end = 2.0\nmu_count = 33\nsizes = 800,400,200\nseed = 7\n"
)
# 2 mu values x sizes 800 and 200: the smallest grid fig3 runs on, 2,000 papers
FIG3_CFG = "mu_start = 4.0\nmu_end = 2.0\nmu_count = 2\nsizes = 800,200\nseed = 7\n"

CORPUS = (
    "id,year,citations,countries\n"
    + "\n".join(f"u{i:03d},2015,{300 - i},USA" for i in range(30))
    + "\n"
    + "\n".join(f"c{i:03d},2015,{150 - i},CHN" for i in range(30))
    + "\n"
    + "\n".join(f"m{i:03d},2015,{200 - i},USA;CHN" for i in range(15))
    + "\n"
)

SMALL_GRID = str(Path(__file__).resolve().parents[1] / "configs" / "small_grid.cfg")

# Integer counts 0..12 over 400 papers: blocks of about 31 tied papers,
# cut by the top-x% cutoffs, and ids in an order other than row order.
TIED_CORPUS = "id,year,citations,countries\n" + "".join(
    f"t{i * 37 % 400:03d},2015,{i * 7 % 13},{('USA', 'CHN', 'USA;CHN', 'JPN', 'USA;JPN')[i % 5]}\n"
    for i in range(400)
)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture
def corpus_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(CORPUS)
    return str(path)


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def test_gen_outputs(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert main(["gen", "--config", small_cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    specs = read_lines(printed[0])
    assert specs[0] == "label,mu,sigma,n"
    assert len(specs) == 1 + 99
    values = read_lines(printed[1])
    assert len(values) == 1 + 33 * 1400
    sidecar = json.loads(Path(printed[2]).read_text())
    assert sidecar["total_papers"] == 46200


def test_gen_deterministic_bytes(tmp_path, small_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", small_cfg, "--out", str(out1)]) == 0
    assert main(["gen", "--config", small_cfg, "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rank_table_stdout(tmp_path, small_cfg, capsys):
    assert main(["rank", "--config", small_cfg, "--labels", "aa,ab", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,rank2,rank1,value"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("aa,1,")


def test_rk_single_row(corpus_csv, capsys):
    assert main(["rk", "--input", corpus_csv, "--country", "USA", "--split", "domestic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("country,split,p,p0,ptop10")
    assert len(lines) == 2
    assert lines[1].startswith("USA,domestic,30,0,")


def test_rk_json_format(corpus_csv, capsys):
    assert main(
        ["rk", "--input", corpus_csv, "--country", "CHN", "--split", "collaborative",
         "--format", "json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["country"] == "CHN"
    assert rows[0]["split"] == "collaborative"
    assert rows[0]["p"] == 15


def test_ptop_corpus_empirical(corpus_csv, capsys):
    assert main(
        ["ptop", "--input", corpus_csv, "--country", "USA", "--split", "domestic",
         "--x", "10,1"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,p,p0,ptop_10,ptop_1,rk"
    assert len(lines) == 2
    assert lines[1].startswith("USA:domestic,30,0,")


@pytest.mark.parametrize("split", ["domestic", "collaborative"])
@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_ptop_corpus_matches_rk_and_brute_force(tmp_path, capsys, tie_policy, split):
    path = tmp_path / "tied.csv"
    path.write_text(TIED_CORPUS)
    flags = ["--input", str(path), "--country", "USA", "--split", split,
             "--tie-policy", tie_policy, "--format", "json"]
    xs = ("1", "10", "25", "50", "100")
    assert main(["rk", *flags]) == 0
    (rk_row,) = json.loads(capsys.readouterr().out)
    assert main(["ptop", *flags, "--x", ",".join(xs)]) == 0
    (ptop_row,) = json.loads(capsys.readouterr().out)
    assert (ptop_row["p"], ptop_row["p0"], ptop_row["rk"]) == (rk_row["p"], rk_row["p0"], rk_row["rk"])

    rank_of = corpus_world_ranks(load_corpus(path).records, tie_policy=tie_policy)
    # every row of the file is valid: the members are read off its text
    rows = [line.split(",") for line in TIED_CORPUS.splitlines()[1:]]
    members = [(paper_id, int(citations)) for paper_id, _, citations, countries in rows
               if "USA" in countries.split(";") and (";" not in countries) == (split == "domestic")]
    assert rk_row["p"] == len(members)
    assert rk_row["p0"] == sum(1 for _, citations in members if citations == 0)
    for x in xs:
        cutoff = math.floor(Fraction(x) * len(rows) / 100)
        assert ptop_row[f"ptop_{x}"] == sum(1 for paper_id, _ in members if rank_of[paper_id] <= cutoff)


def test_ptop_synthetic_table(tmp_path, small_cfg, capsys):
    assert main(
        ["ptop", "--config", small_cfg, "--labels", "aa,ab,ac", "--x", "10,0.1"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,mu,n,ptop_10,ptop_0.1,rk"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["tables1", "--config", SMALL_GRID],
        ["fig1", "--config", SMALL_GRID],
        ["fig2", "--config", SMALL_GRID],
        ["fig3", "--config", SMALL_GRID],
        ["fig4", "--seed", "42"],
        ["ptop", "--config", SMALL_GRID, "--labels", "aa,cu"],
        ["ptop", "--input", "CORPUS", "--country", "USA", "--split", "domestic"],
        ["rk", "--input", "CORPUS", "--country", "CHN", "--split", "collaborative"],
        ["assess", "--input", "CORPUS", "--countries", "USA,CHN"],
    ],
    ids=["tables1", "fig1", "fig2", "fig3", "fig4", "ptop-config", "ptop-input", "rk", "assess"],
)
def test_json_keys_csv_header_and_sidecar_name_the_same_columns(tmp_path, corpus_csv, capsys,
                                                                 argv):
    argv = [corpus_csv if arg == "CORPUS" else arg for arg in argv]
    named = []
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        data, sidecar = (Path(path) for path in capsys.readouterr().out.splitlines())
        if fmt == "csv":
            named.append(read_lines(data)[0].split(","))
        else:
            named += [list(row) for row in json.loads(data.read_text())]
        named.append(json.loads(sidecar.read_text())["columns"])
    assert all(columns == named[0] for columns in named)


def test_fig4_file_shape(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fig4", "--seed", "42", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    csv_path = printed[0]
    assert os.path.basename(csv_path).startswith("fig4_")
    rows = read_lines(csv_path)
    assert len(rows) == 1 + 115
    sidecar = json.loads(Path(printed[1]).read_text())
    assert sidecar["experiment"] == "fig4"
    assert sidecar["row_count"] == 115


def test_fig4_refuses_an_expected_count_that_underflows(tmp_path, capsys):
    # at mu = -0.91 the tail above a world cutoff near exp(40) is below the
    # smallest float, so rk / ptop would divide by 0
    path = tmp_path / "wide.cfg"
    path.write_text("mu_start = 40.0\nmu_end = -20.0\nmu_count = 23\n"
                    "sizes = 200,800,2000,4000,8000\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["fig4", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: series cx: its expected top 0.1% count underflows to 0 at "
        "mu = -0.9090909090909065, so rk_over_ptop_0.1 has no value\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_experiment_runs_small_grid(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    for name in ("tables1", "fig1", "fig2", "fig3"):
        assert main([name, "--config", small_cfg, "--out", str(out)]) == 0
    files = os.listdir(out)
    assert len(files) == 8  # csv + sidecar each
    capsys.readouterr()


def test_assess_table(tmp_path, corpus_csv, capsys):
    out = tmp_path / "out"
    assert main(
        ["assess", "--input", corpus_csv, "--countries", "USA,CHN", "--out", str(out)]
    ) == 0
    printed = capsys.readouterr().out.splitlines()
    rows = read_lines(printed[0])
    assert rows[0] == "country,split,p,p0,ptop10,ptop10_over_p,rk,rk_status"
    assert len(rows) == 1 + 4
    sidecar = json.loads(Path(printed[1]).read_text())
    assert sidecar["parameters"]["countries"] == ["USA", "CHN"]
    assert "input_sha256" in sidecar["parameters"]


def test_assess_bad_rows_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,year,citations,countries\np1,2015,5,USA\np2,2015,-2,CHN\n")
    code = main(["assess", "--input", str(path), "--countries", "USA"])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 3" in captured.err
    assert main(
        ["assess", "--input", str(path), "--countries", "USA", "--skip-bad-rows"]
    ) == 0


def test_assess_countries_file(tmp_path, corpus_csv, capsys):
    countries = tmp_path / "countries.txt"
    countries.write_text("# countries to assess\nUSA\n\n   \n  # CHN is left out\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["assess", "--input", corpus_csv, "--countries-file", str(countries)])
    assert code == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["USA", "domestic"], ["USA", "collaborative"]]


@pytest.mark.parametrize(
    "argv, source",
    [(["--countries", ",", "--out", "out"], "--countries"),
     (["--countries-file", "empty.txt"], "empty.txt")],
    ids=["countries", "countries-file"],
)
def test_assess_without_countries_is_data_error(tmp_path, corpus_csv, capsys, argv, source):
    (tmp_path / "empty.txt").write_text("# nothing to assess\n\n")
    argv = [str(tmp_path / a) if a in ("out", "empty.txt") else a for a in argv]
    assert main(["assess", "--input", corpus_csv, *argv]) == 1
    captured = capsys.readouterr()
    source = str(tmp_path / source) if source == "empty.txt" else source
    assert captured.err == f"error: {source} names no country\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_assess_refuses_both_country_flags(tmp_path, corpus_csv, capsys):
    countries = tmp_path / "countries.txt"
    countries.write_text("CHN\n")
    out = tmp_path / "out"
    argv = ["--countries", "USA", "--countries-file", str(countries), "--out", str(out)]
    assert main(["assess", "--input", corpus_csv, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: give either --countries or --countries-file, not both\n"
    assert captured.out == ""
    assert not out.exists()


def test_sidecar_warning_prints_as_a_diagnosis(tmp_path, corpus_csv, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text('{"pub_window": [2014, 2017], "cit_window": [2020, 2023]}')
    out = tmp_path / "out"
    argv = ["assess", "--input", corpus_csv, "--countries", "USA", "--out", str(out)]
    assert main([*argv, "--meta", str(meta)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"warning: {meta}: citation window (2020, 2023) is not displaced 5 years "
        "from publication window (2014, 2017)\n"
    )
    shutil.rmtree(out)
    assert main(argv) == 0
    assert capsys.readouterr() == (captured.out, "")


def test_label_lists_are_stripped(small_cfg, capsys):
    assert main(["rank", "--config", small_cfg, "--labels", "aa,ab", "--top", "2"]) == 0
    expected = capsys.readouterr().out
    assert main(["rank", "--config", small_cfg, "--labels", " aa,, ab ,", "--top", "2"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["ptop", "--config", small_cfg, "--labels", "aa,ab"]) == 0
    expected = capsys.readouterr().out
    assert main(["ptop", "--config", small_cfg, "--labels", "aa , ab,"]) == 0
    assert capsys.readouterr().out == expected


def test_assess_refuses_a_repeated_country(tmp_path, corpus_csv, capsys):
    countries = tmp_path / "countries.txt"
    countries.write_text("# twice\nUSA\nCHN\n USA \n")
    for argv, source in (
        (["--countries", "USA, CHN,USA"], "--countries"),
        (["--countries-file", str(countries)], str(countries)),
    ):
        out = tmp_path / "out"
        assert main(["assess", "--input", corpus_csv, *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {source} names USA twice\n"
        assert captured.out == ""
        assert not out.exists()


def test_grid_too_large_to_allocate_is_a_data_error(tmp_path, capsys):
    # the byte count of 2**61 values overflows, so nothing is allocated; a
    # grid of 2**61 mu values is refused before its mu values are built
    wide = tmp_path / "wide.cfg"
    wide.write_text(f"mu_start = 3.0\nmu_end = 3.0\nmu_count = 1\nsizes = {2**61}\nseed = 1\n")
    tall = tmp_path / "tall.cfg"
    tall.write_text(f"mu_start = 3.0\nmu_end = 2.0\nmu_count = {2**61}\nsizes = 1\nseed = 1\n")
    out = tmp_path / "out"
    runs = [["gen", "--config", str(wide)]]
    for command in ("gen", "tables1", "fig1", "fig2", "fig3", "fig4"):
        runs.append([command, "--config", str(tall)])
    runs.append(["ptop", "--config", str(tall), "--x", "10"])
    runs.append(["rank", "--config", str(tall)])
    runs.append(["rank", "--config", str(tall), "--labels", "aa"])
    for argv in runs:
        assert main([*argv, "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: a grid of {2**61} papers is too large to allocate\n", argv
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "meta, bad",
    [
        ('{"pub_window": [2014]}', "pub_window must be [first, last] integer years"),
        ("[1, 2]", "metadata must be a JSON object, got list"),
        ('{"pub_window": ["a", "b"]}', "pub_window must be [first, last] integer years"),
        ('{"cit_window": [2022, 2019]}', "cit_window must be [first, last] integer years"),
        ('{"field": "x" "source": "y"}', "invalid JSON: Expecting ',' delimiter"),
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"field": 3}', "field must be a string, got 3"),
        ('{"source": ["x"]}', 'source must be a string, got ["x"]'),
    ],
    ids=["short-window", "not-an-object", "non-integer-years", "reversed-window",
         "json-syntax", "json-too-deep", "field-type", "source-type"],
)
def test_malformed_meta_is_data_error(tmp_path, corpus_csv, capsys, meta, bad):
    path = tmp_path / "meta.json"
    path.write_text(meta)
    argv = ["rk", "--input", corpus_csv, "--meta", str(path), "--country", "USA", "--split", "domestic"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {bad}")
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["config", "meta", "countries-file"])
def test_invalid_utf8_file_is_data_error(tmp_path, corpus_csv, capsys, kind):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# first line\n\xe9\n")
    out = tmp_path / "out"
    argv = {
        "config": ["gen", "--config", str(path)],
        "meta": ["rk", "--input", corpus_csv, "--meta", str(path), "--country", "USA",
                 "--split", "domestic"],
        "countries-file": ["assess", "--input", corpus_csv, "--countries-file", str(path)],
    }[kind]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: line 2 is not valid UTF-8 (invalid continuation byte)\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("mu", ["nan", "inf", "800", "-1000"])
@pytest.mark.parametrize("command", ["gen", "rank"])
def test_unusable_mu_is_data_error(tmp_path, capsys, command, mu):
    path = tmp_path / "grid.cfg"
    path.write_text(SMALL_CFG.replace("mu_start = 4.0", f"mu_start = {mu}"))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "mu" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_mu_range_wider_than_a_float_is_one_diagnosis(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text("mu_start = 1e308\nmu_end = -1e308\nmu_count = 3\nsizes = 5\nseed = 1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {path}: mu range 1e+308 to -1e+308 is too wide: its span overflows a float\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_study_commands_check_out_before_sampling(small_cfg, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the study ran before --out was checked")

    monkeypatch.setattr(experiments, "run_fig4", unreachable)
    monkeypatch.setattr(synthdist, "generate_ensemble", unreachable)
    for argv in (["fig4", "--seed", "1"], *([name, "--config", small_cfg]
                                            for name in ("tables1", "fig1", "fig2", "fig3"))):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[0]} requires --out\n"


def test_rank_checks_labels_before_sampling(tmp_path, small_cfg, capsys, monkeypatch):
    # a grid whose sampling fails still reports the unknown label first
    mu800 = tmp_path / "mu800.cfg"
    mu800.write_text(SMALL_CFG.replace("mu_start = 4.0", "mu_start = 800"))
    assert main(["rank", "--config", str(mu800), "--labels", "aa,zz"]) == 1
    assert capsys.readouterr().err == "error: unknown series label 'zz'\n"

    def unreachable(*args, **kwargs):
        raise AssertionError("the ensemble was sampled before --labels was checked")

    monkeypatch.setattr(synthdist, "generate_ensemble", unreachable)
    out = tmp_path / "out"
    assert main(["rank", "--config", small_cfg, "--labels", "aa,zzz", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown series label 'zzz'\n"
    assert captured.out == ""
    assert not out.exists()


def python_env():
    """The environment of a Python subprocess that imports this checkout's rankmetrics."""
    env = dict(os.environ)
    src = str(Path(rankmetrics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the stream seeding loads numpy.random on first use, not at import
    code = "import sys, rankmetrics.cli; print(sorted(m for m in sys.modules if 'numpy.random' in m))"
    result = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


# Run in one fresh process: which modules the package, the parser and a
# study command load.  It prints the fig3 paths, then one JSON line.
MODULE_SETS = """
import json, sys
HEAVY = ("numpy", *(f"rankmetrics.{name}" for name in
         ("synthdist", "rankcore", "indicators", "ingest", "experiments", "table")))

def loaded(*names):
    return sorted(name for name in names if name in sys.modules)

import rankmetrics
package = loaded(*HEAVY)
from rankmetrics import cli
cli.build_parser()
parser = loaded(*HEAVY)
code = cli.main(["fig3", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([package, parser, code, loaded("rankmetrics.experiments", "rankmetrics.ingest", "csv")]))
"""


def test_the_parser_loads_no_numpy_and_a_study_no_corpus_loader(tmp_path):
    result = subprocess.run([sys.executable, "-c", MODULE_SETS, SMALL_GRID, str(tmp_path)],
                            env=python_env(), capture_output=True, text=True, check=True)
    package, parser, code, study = json.loads(result.stdout.splitlines()[-1])
    assert (package, parser) == ([], [])
    assert (code, study) == (0, ["rankmetrics.experiments"])


def test_package_names_load_on_first_access():
    from rankmetrics import base, errors, indicators, rankcore, synthdist

    assert set(rankmetrics.__all__) <= set(dir(rankmetrics))  # loaded or not
    namespace = {}
    exec("from rankmetrics import *", namespace)
    homes = (base, errors, indicators, rankcore, synthdist)
    for name in rankmetrics.__all__:
        holders = [module for module in homes if name in vars(module)]
        assert name == "__version__" or holders, name
        assert all(getattr(module, name) is namespace[name] for module in holders), name
        assert getattr(rankmetrics, name) is namespace[name], name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rankmetrics.no_such_name
    assert not hasattr(rankmetrics, "no_such_name")


def test_oversized_citation_count_is_row_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(f"id,year,citations,countries\np1,2015,5,USA\np2,2015,{'9' * 401},USA\n")
    assert main(["assess", "--input", str(path), "--countries", "USA"]) == 1
    assert "line 3: citation count above 2**53" in capsys.readouterr().err
    argv = ["assess", "--input", str(path), "--countries", "USA", "--skip-bad-rows"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("USA,domestic,1,0,")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "0"], "--k must be >= 1"),
        (["--k", "-3"], "--k must be >= 1"),
        (["--offset", "-30"], "--offset must be"),
        (["--offset", "nan"], "--offset must be"),
        (["--scale", "0"], "--scale must be"),
    ],
)
def test_meaningless_index_flags_are_data_errors(tmp_path, small_cfg, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["fig3", "--config", small_cfg, "--out", str(out), *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ptop", "--x", "0"], "percentile must satisfy 0 < x <= 100"),
        (["ptop", "--x", "10,150"], "percentile must satisfy 0 < x <= 100"),
        (["tables1", "--sample-size", "0"], "--sample-size must be >= 1"),
        (["rank", "--top", "-1"], "--top must be >= 1"),
        (["rank", "--top", "0"], "--top must be >= 1"),
        (["ptop", "--x", "0.0001"], "top 0.0001% of a world of 46200 papers holds no entries"),
        (["rank", "--labels", ","], "--labels names no label"),
        (["rank", "--labels", "aa,zz"], "unknown series label 'zz'"),
        (["ptop", "--labels", "aa,zz"], "unknown series label 'zz'"),
        (["rank", "--labels", "aa,zz", "--format", "json"], "unknown series label 'zz'"),
        # the whole selection is ranked before any unit's cutoffs are checked
        (["ptop", "--labels", "aa,zz", "--x", "0.0001"], "unknown series label 'zz'"),
        (["ptop", "--labels", "zz,aa", "--x", "0.0001"], "unknown series label 'zz'"),
        # each cutoff names one ptop_{x:g} column
        (["ptop", "--x", "10,10"], "percentile 10 given twice"),
        (["ptop", "--x", "10,1e1"], "percentile 10 given twice"),
        # every label list is stripped, drops blanks and refuses repeats
        (["rank", "--labels", "aa,aa"], "--labels names aa twice"),
        (["ptop", "--labels", "aa, ab,aa "], "--labels names aa twice"),
        (["rank", "--labels", ""], "--labels names no label"),
        (["ptop", "--labels", " , "], "--labels names no label"),
    ],
)
@pytest.mark.parametrize("to_dir", [True, False], ids=["out", "stdout"])
def test_out_of_range_selections_are_data_errors(tmp_path, small_cfg, capsys, argv, message, to_dir):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if to_dir else []
    assert main([argv[0], "--config", small_cfg, *argv[1:], *extra]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "sizes, message",
    [
        # 858 papers: the top 0.1% holds no entries, but unit ab's shortfall
        # refuses the selection, which is ranked first
        ("12,9,5", "unit ab has 9 papers, 10 required"),
        ("40,9,5", "unit ab has 9 papers, 10 required"),
        # 990 papers and every unit at --k: only the world-level error is left
        ("10,10,10", "top 0.1% of a world of 990 papers holds no entries"),
    ],
)
def test_fig1_reports_a_refused_selection_before_world_level_errors(
    tmp_path, capsys, sizes, message
):
    # the first selected unit (aa) holds at least --k papers
    config = tmp_path / "grid.cfg"
    config.write_text(f"mu_start = 4.0\nmu_end = 2.0\nmu_count = 33\nsizes = {sizes}\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["fig1", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


# Grids whose first selected unit (aa) holds at least --k papers and a later
# one fewer, with no other fault: short.cfg has 33 mu values x sizes 40,9,5;
# fig4.cfg 13 x sizes 800,9, 10,517 papers, so its top 0.01% holds an entry;
# fig3.cfg's units hold 800 and 200 papers.
SHORT_UNIT_GRIDS = {
    "short.cfg": "mu_start = 4.0\nmu_end = 2.0\nmu_count = 33\nsizes = 40,9,5\nseed = 3\n",
    "fig4.cfg": "mu_start = 4.0\nmu_end = 2.0\nmu_count = 13\nsizes = 800,9\nseed = 3\n",
    "fig3.cfg": FIG3_CFG,
}


@pytest.mark.parametrize(
    "argv, message",
    [
        # tables1 samples every 7th series: aa, then ah
        (["tables1", "--config", "short.cfg"], "unit ah has 9 papers, 10 required"),
        (["fig1", "--config", "short.cfg"], "unit ab has 9 papers, 10 required"),
        (["fig2", "--config", "short.cfg"], "unit ab has 9 papers, 10 required"),
        # both mu targets are nearest mu 4.0: aa, ab, aa, ab
        (["fig3", "--config", "fig3.cfg", "--k", "201"], "unit ab has 200 papers, 201 required"),
        (["fig4", "--config", "fig4.cfg"], "unit ab has 9 papers, 10 required"),
        (["ptop", "--config", "short.cfg", "--x", "10"], "unit ab has 9 papers, 10 required"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_study_refuses_a_later_unit_before_writing(tmp_path, capsys, argv, message):
    for name, text in SHORT_UNIT_GRIDS.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    named = {name: str(tmp_path / name) for name in SHORT_UNIT_GRIDS}
    assert main([*(named.get(token, token) for token in argv), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_ptop_corpus_refuses_a_repeated_cutoff(tmp_path, corpus_csv, capsys):
    out = tmp_path / "out"
    argv = ["ptop", "--input", corpus_csv, "--country", "USA", "--split", "domestic",
            "--x", "0.1,1,.1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: percentile 0.1 given twice\n"
    assert captured.out == ""
    assert not out.exists()


def test_corpus_ptop_refuses_a_missing_unit_before_reading_the_corpus(tmp_path, capsys):
    # the bad row would end the run on its own diagnoses if the corpus were read first
    corpus = tmp_path / "c.csv"
    corpus.write_text("id,year,citations,countries\np1,2015,5,USA\np2,2015,x,USA\np3,2015,3,USA\n")
    out = tmp_path / "out"
    for unit in ([], ["--country", "USA"], ["--split", "domestic"]):
        assert main(["ptop", "--input", str(corpus), "--x", "10", *unit, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: corpus ptop needs --country and --split\n"
        assert captured.out == ""
    assert not out.exists()


def test_unknown_flag_is_usage_error(small_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--config", small_cfg, "--bogus"])
    assert exc.value.code == 2


def test_gen_refuses_flags_it_would_ignore(small_cfg, tmp_path):
    # gen writes fixed CSV files; tables1 reports rank ratios, not the index
    for argv in (["gen", "--format", "json"], ["tables1", "--offset", "5"],
                 ["tables1", "--scale", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", small_cfg, *argv[1:], "--out", str(tmp_path / "g")])
        assert exc.value.code == 2
        assert not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--labels", "aa"], "--labels does not apply to ptop --input"),
        (["--labels", ""], "--labels does not apply to ptop --input"),
        (["--seed", "0"], "--seed does not apply to ptop --input"),
        (["--country", "USA"], "--country does not apply to ptop --config"),
        (["--split", "domestic"], "--split does not apply to ptop --config"),
        (["--meta", "nope.json"], "--meta does not apply to ptop --config"),
        (["--skip-bad-rows"], "--skip-bad-rows does not apply to ptop --config"),
    ],
)
@pytest.mark.parametrize("to_dir", [True, False], ids=["out", "stdout"])
def test_ptop_refuses_the_other_inputs_flags(tmp_path, small_cfg, corpus_csv, capsys, flags,
                                              message, to_dir):
    source = ["--input", corpus_csv, "--country", "USA", "--split", "domestic"]
    if message.endswith("--config"):
        source = ["--config", small_cfg]
    out = tmp_path / "out"
    extra = ["--out", str(out)] if to_dir else []
    assert main(["ptop", *source, *flags, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["rk", "--input", str(tmp_path / "nope.csv"), "--country", "USA",
                 "--split", "domestic"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["assess", "--countries", "ZZZ"],
        ["rk", "--country", "ZZZ", "--split", "domestic"],
        ["ptop", "--country", "ZZZ", "--split", "collaborative"],
    ],
    ids=["assess", "rk", "ptop"],
)
def test_unknown_country_is_data_error(corpus_csv, capsys, argv):
    code = main([argv[0], "--input", corpus_csv, *argv[1:]])
    assert code == 1
    assert capsys.readouterr() == ("", "error: country 'ZZZ' does not appear in the corpus\n")


UNIT = ["--country", "USA", "--split", "domestic"]


@pytest.mark.parametrize("k", [str(2**60), str(10**20)])
@pytest.mark.parametrize(
    "argv",
    [["assess", "--countries", "USA,CHN"], ["rk", *UNIT], ["ptop", *UNIT, "--x", "10"]],
    ids=["assess", "rk", "ptop"],
)
def test_a_k_beyond_every_unit_reads_insufficient_papers(corpus_csv, capsys, argv, k):
    # no unit holds k papers, so none is scored: the output is the one a k
    # just past the 75-paper corpus gives
    argv = [argv[0], "--input", corpus_csv, *argv[1:]]
    assert main([*argv, "--k", "76"]) == 0
    expected = capsys.readouterr()
    assert main([*argv, "--k", k]) == 0
    assert capsys.readouterr() == expected
    if argv[0] != "ptop":
        rows = expected.out.splitlines()[1:]
        assert rows and all(row.endswith(",,insufficient_papers") for row in rows)


def test_data_error_is_the_one_input_error_type():
    for module in pkgutil.iter_modules(rankmetrics.__path__):
        if module.name != "__main__":  # which runs the command line
            importlib.import_module(f"rankmetrics.{module.name}")
    assert DataError.__subclasses__() == []


# Exact refusals the tests above pin only in part: a corpus that cannot be
# read, a config line, a config grid, an unknown label in a ranked
# selection, and each kind of study selection a grid cannot support.
REFUSAL_FILES = {
    "grid.cfg": SMALL_CFG,
    "pair.cfg": "mu_start = 4.0\nmu_end = 2.0\nmu_count = 33\nsizes = 400,100\nseed = 3\n",
    "keyless.cfg": "mu_start 4.0\n",
    "one.cfg": "mu_start = 4.0\nmu_end = 2.0\nmu_count = 1\nsizes = 10\nseed = 1\n",
    "header.csv": "id;year;citations;countries\n",
    "empty.csv": "",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["assess", "--input", "header.csv", "--countries", "USA"],
         "{file}: header must be id,year,citations,countries[,field], "
         "got ['id;year;citations;countries']"),
        (["assess", "--input", "empty.csv", "--countries", "USA"], "{file}: empty file"),
        (["gen", "--config", "keyless.cfg"], "{file}:1: expected 'key = value', got 'mu_start 4.0'"),
        # checked when the config is built, so the file is named
        (["gen", "--config", "one.cfg"], "{file}: mu_count=1 requires mu_start == mu_end"),
        (["ptop", "--config", "grid.cfg", "--labels", "aa,zz"], "unknown series label 'zz'"),
        (["tables1", "--config", "grid.cfg", "--sample-size", "100"],
         "cannot sample 100 of 99 series"),
        (["fig1", "--config", "pair.cfg"], "triple selection needs three sizes per mu, grid has 2"),
        (["fig3", "--config", "pair.cfg"], "grid sizes (400, 100) do not include 800"),
    ],
    ids=lambda value: " ".join(value[:3]) if isinstance(value, list) else None,
)
def test_a_refusal_prints_its_exact_error_line(tmp_path, capsys, argv, message):
    for name, text in REFUSAL_FILES.items():
        (tmp_path / name).write_text(text)
    (file,) = (str(tmp_path / token) for token in argv if token in REFUSAL_FILES)
    out = tmp_path / "out"
    argv = [str(tmp_path / token) if token in REFUSAL_FILES else token for token in argv]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: " + message.replace("{file}", file) + "\n"
    assert captured.out == ""
    assert not out.exists()


def test_unwritable_out_is_data_error(tmp_path, small_cfg, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["gen", "--config", small_cfg, "--out", str(blocker)])
    assert code == 1
    capsys.readouterr()


def test_no_temp_leftovers(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert main(["fig1", "--config", small_cfg, "--out", str(out)]) == 0
    assert not [f for f in os.listdir(out) if f.endswith(".part")]
    capsys.readouterr()


# Input files for the argv fuzz test: a 33x3 grid and a 2x2 grid small
# enough to sample in a few milliseconds, and corpora, sidecars and
# country lists with planted defects.  Each flag that names a file draws
# one of these by key.
FUZZ_FILES = {
    "grid.cfg": SMALL_CFG.replace("sizes = 800,400,200", "sizes = 14,12,10").encode(),
    "nan.cfg": SMALL_CFG.replace("mu_start = 4.0", "mu_start = nan").encode(),
    "mu800.cfg": SMALL_CFG.replace("mu_start = 4.0", "mu_start = 800").encode(),
    "latin1.cfg": SMALL_CFG.encode() + b"# \xe9\n",
    "keyless.cfg": b"mu_start 4.0\n",
    "corpus.csv": CORPUS.encode(),
    "tied.csv": TIED_CORPUS.encode(),
    "badrows.csv": (CORPUS + 'u000,2015,3,USA\n"x\ny",2015,-1,CHN\nz,20x5,3,JPN\n').encode(),
    "latin1.csv": CORPUS.encode() + b"p\xe9,2015,3,FRA\n",
    "header.csv": b"id;year;citations;countries\n",
    "empty.csv": b"",
    "headeronly.csv": b"\xef\xbb\xbfid,year,citations,countries\n",
    "meta.json": b'{"field": "x", "pub_window": [2014, 2016], "cit_window": [2019, 2021]}',
    "oddwindow.json": b'{"pub_window": [2014, 2016], "cit_window": [2018, 2021]}',
    "syntax.json": b'{"field": "x" "source": "y"}',
    "types.json": b'{"field": 3, "source": ["x"]}',
    "list.json": b"[2014, 2016]",
    "latin1.json": b'{"field": "\xe9"}',
    "countries.txt": b"# assess these\nUSA\n\nCHN\n",
    "nocountries.txt": b"# none\n",
    "latin1.txt": b"USA\n\xe9\n",
    "fig3.cfg": FIG3_CFG.encode(),
}
FILE_FLAGS = {
    "config": [n for n in FUZZ_FILES if n.endswith(".cfg")],
    "input": [n for n in FUZZ_FILES if n.endswith(".csv")],
    "meta": [n for n in FUZZ_FILES if n.endswith(".json")],
    "countries_file": [n for n in FUZZ_FILES if n.endswith(".txt")],
}
FLAG_VALUES = {
    "seed": ["0", "7", "-1", str(2**64), "x"],
    "k": ["1", "3", "10", "0", "-2", "100000", str(2**62), "x"],
    "top": ["1", "3", "0", "-1", str(10**30)],
    "sample_size": ["1", "15", "0", "-1", "100000", "x"],
    "offset": ["0", "20", "1e308", "-1", "nan", "inf", "x"],
    "scale": ["1000", "1e-300", "1e308", "0", "-inf", "nan"],
    "x": ["10,1", "100", "0.0001", "0", "150", "nan", ",", "", "a,1"],
    "labels": ["aa,ab", "aa", ",", "zz", "aa,,ab", ""],
    "country": ["USA", "CHN", "ZZZ", ""],
    "countries": ["USA,CHN", "USA", ",", "ZZZ", ""],
}
# A value a file flag may name instead of a file; --out also takes these.
BAD_PATHS = ["missing", "dir", "blocker", "blocker/sub"]


def subcommand_flags():
    """Each subcommand's flags: (option, dest, takes a value, choices, required)."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [(a.option_strings[-1], a.dest, a.nargs != 0, a.choices, a.required)
               for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }


SUBCOMMANDS = subcommand_flags()


@st.composite
def fuzz_argv(draw):
    """A subcommand and a random subset of its flags, each with a good,
    boundary or garbage value, in random order.  The first value of each
    list is a good one and is drawn about half the time."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = []
    for option, dest, takes_value, choices, required in SUBCOMMANDS[command]:
        if draw(st.integers(0, 9)) >= (9 if required else 7 if dest in ("config", "input") else 3):
            continue
        if not takes_value:
            argv.append([option])
            continue
        if choices:
            values = [*choices, *choices, "bogus"]
        elif dest in FILE_FLAGS:
            values = FILE_FLAGS[dest] + BAD_PATHS
            if (command, dest) == ("fig3", "config"):  # the one grid fig3 runs on
                values = ["fig3.cfg", *(value for value in values if value != "fig3.cfg")]
        elif dest == "out":
            values = ["out", *BAD_PATHS[1:]]
        else:
            values = FLAG_VALUES[dest]
        argv.append([option, draw(st.sampled_from([values[0]] * len(values) + values))])
    argv = [token for flag in draw(st.permutations(argv)) for token in flag]
    return [command, *argv]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_FILES.items():
        (base / name).write_bytes(data)
    (base / "dir").mkdir()
    (base / "blocker").write_text("a file, not a directory")
    return base


# the fig3 grid drawn together with good values for every other flag
GOOD_STUDY_ARGVS = [
    [command, "--config", "fig3.cfg", *extra, "--seed", seed, "--out", "out"]
    for command, extra in (("fig3", []), ("tables1", ["--sample-size", "1"]))
    for seed in ("0", "7")
]
# good argvs of the commands the fuzz strategy draws only failing runs of:
# fig4 on the built-in grid, gen, and ptop on each input
GOOD_OTHER_ARGVS = [
    ["fig4", "--seed", "7", "--out", "out"],
    ["gen", "--config", "fig3.cfg", "--out", "out"],
    ["ptop", "--config", "fig3.cfg", "--labels", "aa,ab", "--x", "10", "--out", "out"],
    ["ptop", "--input", "corpus.csv", "--country", "USA", "--split", "domestic", "--x", "10",
     "--out", "out"],
]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
@example(argv=GOOD_STUDY_ARGVS[0])
@example(argv=GOOD_STUDY_ARGVS[1])
@example(argv=GOOD_STUDY_ARGVS[2])
@example(argv=GOOD_STUDY_ARGVS[3])
@example(argv=GOOD_OTHER_ARGVS[0])
@example(argv=GOOD_OTHER_ARGVS[1])
@example(argv=GOOD_OTHER_ARGVS[2])
@example(argv=GOOD_OTHER_ARGVS[3])
def test_fuzzed_argv_exits_with_a_diagnosis(fuzz_dir, argv):
    """Any argv the parser's own flags can form, over defective inputs,
    exits 0, 1 or 2 and raises nothing else.  Exit 1 ends with one
    `error: ` line that says more than a quoted value (row diagnoses may
    precede it), and a failed run writes no file and nothing to stdout."""
    out = Path(tempfile.mkdtemp(dir=fuzz_dir)) / "out"
    named = {"out": str(out)}
    named.update((name, str(fuzz_dir / name)) for name in [*FUZZ_FILES, *BAD_PATHS])
    argv = [named.get(token, token) for token in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, err)
    if code == 1:
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and not re.fullmatch(r"error: '.*'", last), (argv, err)
    if code != 0:
        assert not out.exists(), argv
        assert stdout.getvalue() == "", argv
    assert (fuzz_dir / "blocker").read_text() == "a file, not a directory"


@pytest.mark.parametrize("argv", GOOD_STUDY_ARGVS, ids=" ".join)
def test_fuzz_grid_runs_the_studies(fuzz_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    named = {"out": str(out), "fig3.cfg": str(fuzz_dir / "fig3.cfg")}
    assert main([named.get(token, token) for token in argv]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert [name.rsplit(".", 1)[1] for name in written] == ["csv", "json"]
    assert all(name.startswith(argv[0] + "_") for name in written)
    assert capsys.readouterr().out.split() == [str(out / name) for name in written]


@pytest.mark.parametrize("argv", GOOD_OTHER_ARGVS, ids=" ".join)
def test_fuzz_files_run_the_other_commands(fuzz_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    named = {"out": str(out), "fig3.cfg": str(fuzz_dir / "fig3.cfg"),
             "corpus.csv": str(fuzz_dir / "corpus.csv")}
    assert main([named.get(token, token) for token in argv]) == 0
    written = sorted(str(p) for p in out.iterdir())
    assert sorted(capsys.readouterr().out.split()) == written


def run_main(argv, full_parser=False):
    """(stdout, stderr, exit code) of main(argv).  With `full_parser`, main
    parses with every subcommand's arguments, as `build_parser()` builds."""
    stdout, stderr = io.StringIO(), io.StringIO()
    full = mock.patch.object(cli, "build_parser", lambda command=None: build_parser())
    with (full if full_parser else contextlib.nullcontext()), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return stdout.getvalue(), stderr.getvalue(), code


# `-5` is a positional to argparse, so it, not `gen`, is the invalid command
TOP_LEVEL_ARGVS = [["--help"], ["--version"], [], ["frobnicate"], ["-5", "gen"], ["--", "rank"]]


@pytest.mark.parametrize(
    "argv", TOP_LEVEL_ARGVS + [[command, "--help"] for command in sorted(SUBCOMMANDS)], ids=str
)
def test_subcommand_parser_prints_what_the_full_parser_prints(argv):
    assert run_main(argv) == run_main(argv, full_parser=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
def test_subcommand_parser_runs_fuzzed_argvs_as_the_full_parser(fuzz_dir, argv):
    out = Path(tempfile.mkdtemp(dir=fuzz_dir)) / "out"
    named = {"out": str(out)}
    named.update((name, str(fuzz_dir / name)) for name in [*FUZZ_FILES, *BAD_PATHS])
    argv = [named.get(token, token) for token in argv]
    runs = []
    for full_parser in (True, False):
        printed = run_main(argv, full_parser)
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else None
        runs.append((printed, written))
        if out.is_dir():
            shutil.rmtree(out)
    assert runs[0] == runs[1], argv


def test_module_entry_point_parses_sys_argv(capsys, monkeypatch):
    # only a real process calls main() with no argv, which reads sys.argv
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    env = dict(python_env(), COLUMNS="80")
    for argv in (["ptop", "--config", SMALL_GRID, "--labels", "aa,ab", "--x", "10,1"],
                 ["ptop", "--config", SMALL_GRID, "--bogus"]):
        result = subprocess.run([sys.executable, "-m", "rankmetrics", *argv], env=env,
                                capture_output=True, text=True)
        assert (result.stdout, result.stderr, result.returncode) == run_main(argv)
