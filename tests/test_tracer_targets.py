"""The benchmark's tracer (`perfbench/spans.py`) wraps rankmetrics
functions by module and attribute name, so a traced run fails when one of
those names is gone, and a layer reads 0 when the program stops calling
the wrapped name.  These check every name it wraps still resolves, and
that each kind of command still reaches the layers it is timed by."""

import importlib
import sys
from pathlib import Path

import pytest

from rankmetrics import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patch_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    monkeypatch.delitem(sys.modules, "spans")
    table = spans._patch_table()
    assert table
    for module, attribute, _, _ in table:
        assert module.__name__.startswith("rankmetrics.")
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"


# 33 mu values x 3 sizes, as fig1's selection needs; 10,230 papers, so the
# top 0.01% that fig4 counts holds an entry
GRID = "mu_start = 4.0\nmu_end = 2.0\nmu_count = 33\nsizes = 120,100,90\nseed = 7\n"
CORPUS = (
    "id,year,citations,countries\n"
    + "".join(f"u{i:03d},2015,{300 - i},USA\n" for i in range(30))
    + "".join(f"m{i:03d},2015,{200 - i},USA;CHN\n" for i in range(15))
)
STUDY = {"synthdist.sample", "rankcore.build_world", "experiments.rank_query",
         "indicators.analytic_ptop", "experiments.study", "experiments.report_write"}
CORPUS_READ = {"ingest.parse", "ingest.assess", "cli.input_hash", "experiments.report_write"}
UNIT = ["--country", "USA", "--split", "domestic"]
COMMANDS = [
    (["fig1", "--config", "grid.cfg"], STUDY),
    (["fig4", "--config", "grid.cfg"], STUDY),
    (["tables1", "--config", "grid.cfg", "--sample-size", "2"],
     STUDY - {"indicators.analytic_ptop"}),
    (["ptop", "--config", "grid.cfg", "--labels", "aa,ab", "--x", "10"],
     STUDY - {"experiments.study"}),
    (["gen", "--config", "grid.cfg"],
     {"synthdist.sample", "synthdist.write", "experiments.report_write"}),
    (["rank", "--config", "grid.cfg", "--top", "2"],
     {"synthdist.sample", "rankcore.build_world", "experiments.report_write"}),
    (["assess", "--input", "corpus.csv", "--countries", "USA,CHN"], CORPUS_READ),
    (["rk", "--input", "corpus.csv", *UNIT], CORPUS_READ),
    (["ptop", "--input", "corpus.csv", *UNIT, "--x", "10"], CORPUS_READ | {"cli.ptop_corpus"}),
]


@pytest.mark.parametrize("argv, layers", COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_each_command_reaches_its_traced_layers(tmp_path, monkeypatch, capsys, argv, layers):
    (tmp_path / "grid.cfg").write_text(GRID)
    (tmp_path / "corpus.csv").write_text(CORPUS)
    named = {name: str(tmp_path / name) for name in ("grid.cfg", "corpus.csv")}
    argv = [named.get(token, token) for token in argv] + ["--out", str(tmp_path / "out")]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        code, _ = tracer.command(0, lambda: cli.main(argv))
    finally:
        tracer.uninstall()
        for name in ("spans", "corpus"):
            sys.modules.pop(name, None)
    assert code == 0, capsys.readouterr().err
    assert {span[1] for span in tracer.spans} == layers | {spans.ROOT, spans.COUNTERS}
