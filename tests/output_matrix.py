#!/usr/bin/env python3
"""The byte contract of the command line: run a fixed list of argvs through
`rankmetrics.cli.main` and write a manifest of what each one produced.

    PYTHONPATH=src python3 tests/output_matrix.py --out manifest.json
    PYTHONPATH=src python3 tests/output_matrix.py --slice quick --out quick.json

For each argv the manifest holds the exit code and the sha256 of its
stdout, of its stderr and of each file under its --out directory, by
name.  All argvs run in one process.  Each argv that reads a corpus
(`--input`) runs with no parse cache beside any input, and then once
more, after a run of its own has written that cache, in an entry marked
`"warm": true`: the two entries must be equal but for that mark.  The
inputs (the configs, the demo corpus, a small seeded benchmark corpus
with its planted bad rows, and a tied corpus whose cutoffs split tie
blocks) are written into a work directory first, and every argv names
them and its --out directory by a path relative to it, so two runs
compare byte for byte wherever they ran.

To check a change against its parent, run this file once with PYTHONPATH
naming each tree's `src` and compare the two manifests: every entry must
match, or the change names why it differs.  numpy's `exp` and `log`
depend on the CPU's SIMD targets, so manifests compare only between runs
on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SMALL, WORLD600, EXTENDED = "configs/small_grid.cfg", "configs/world600.cfg", "configs/extended115.cfg"
DEMO, BENCH, TIED, QUOTED = "demo/corpus.csv", "bench/corpus.csv", "tied.csv", "quoted.csv"
DEMO_META, BENCH_META = "demo/corpus.meta.json", "bench/corpus.meta.json"
BENCH_ROWS = 3000
# Integer counts 0..12 over 400 papers, ids in an order other than row
# order: blocks of about 31 tied papers, which the top 10%, 1% and 50%
# cutoffs (ranks 40, 4 and 200) split.
TIED_ROWS = "id,year,citations,countries\n" + "".join(
    f"t{i * 37 % 400:03d},2015,{i * 7 % 13},{('USA', 'CHN', 'USA;CHN', 'JPN', 'USA;JPN')[i % 5]}\n"
    for i in range(400)
)
# quoted cells, two of them across lines, and a bad row after each
QUOTED_ROWS = (
    'id,year,citations,countries\n"q1\nq1",2015,4,USA\nq2,2015,x,USA\nq3,2015,4,"USA;\r\nCHN"\n'
    'q4,2015,-1,CHN\n"q5",2015,2,CHN\n'
)
POLICIES = ("ordinal", "competition")
FORMATS = ("csv", "json")
COMMANDS = ("gen", "rank", "rk", "ptop", "tables1", "fig1", "fig2", "fig3", "fig4", "assess")
OUT = "{out}"  # stands for the argv's own output directory
CACHE_SUFFIX = ".rankmetrics-cache.npz"  # of the parse cache a corpus load writes beside its input


def _styles(argv):
    """`argv` under each tie policy and format."""
    return [[*argv, "--tie-policy", policy, "--format", fmt] for policy in POLICIES for fmt in FORMATS]


def quick():
    """A slice of `full` that runs in about half a second."""
    argvs = [["--help"], ["assess", "--help"], ["gen", "--config", SMALL, "--out", OUT]]
    argvs += _styles(["rank", "--config", SMALL, "--labels", "aa,ab", "--top", "5"])
    argvs += [
        ["fig3", "--config", SMALL, "--out", OUT],
        ["ptop", "--config", SMALL, "--labels", "aa,bb", "--x", "10,1", "--tie-policy", "competition"],
        ["rk", "--input", TIED, "--country", "USA", "--split", "collaborative", "--k", "3"],
        ["assess", "--input", BENCH, "--countries", "USA,CHN,DEU", "--skip-bad-rows"],
        ["assess", "--input", BENCH, "--countries", "USA"],
        ["assess", "--input", TIED, "--countries", "USA,XX"],
    ]
    for policy in POLICIES:
        argvs.append(["assess", "--input", TIED, "--countries", "USA,CHN,JPN", "--k", "5",
                      "--tie-policy", policy])
        argvs.append(["ptop", "--input", TIED, "--country", "USA", "--split", "domestic",
                      "--x", "10,1,50,0.1", "--tie-policy", policy])
    return argvs


def full():
    """Every command under both tie policies and both formats, on the small
    grid, world600, the extended grid and the built-in fig4 grid, on each
    corpus, plus the refusals, a corpus of quoted multi-line cells, and
    every --help text."""
    argvs = [["--version"], ["--help"], *([command, "--help"] for command in COMMANDS)]
    for seed in ("0", "7", str(2**64 - 1)):
        argvs.append(["gen", "--config", SMALL, "--seed", seed, "--out", OUT])
    argvs.append(["gen", "--config", WORLD600, "--out", OUT])
    for config in (SMALL, WORLD600):
        argvs += _styles(["rank", "--config", config, "--labels", "aa,ab,ba", "--top", "12"])
        argvs += _styles(["ptop", "--config", config, "--out", OUT])
        for study in ("tables1", "fig1", "fig2", "fig3"):
            argvs += _styles([study, "--config", config, "--out", OUT])
    argvs += _styles(["rank", "--config", SMALL, "--out", OUT])
    argvs.append(["rank", "--config", WORLD600, "--tie-policy", "competition", "--out", OUT])
    argvs += _styles(["fig4", "--seed", "7", "--out", OUT])
    argvs += _styles(["fig4", "--config", EXTENDED, "--out", OUT])
    argvs.append(["fig1", "--config", SMALL, "--k", "5", "--offset", "0", "--scale", "1", "--out", OUT])
    argvs.append(["tables1", "--config", SMALL, "--sample-size", "4", "--k", "3", "--out", OUT])
    argvs.append(["ptop", "--config", SMALL, "--labels", "aa,bb", "--x", "10,0.01", "--k", "3"])
    corpora = [(DEMO, ["--meta", DEMO_META], "USA", "CHN,USA,KOR,JPN,DEU,SGP"),
               (BENCH, ["--meta", BENCH_META, "--skip-bad-rows"], "DEU",
                ",".join(_bench_corpus().COUNTRIES)),
               (TIED, [], "USA", "USA,CHN,JPN")]
    for path, flags, country, countries in corpora:
        for split in ("domestic", "collaborative"):
            argvs += _styles(["rk", "--input", path, *flags, "--country", country, "--split", split,
                              "--out", OUT])
            argvs += _styles(["ptop", "--input", path, *flags, "--country", country,
                              "--split", split, "--x", "10,1,50,0.1"])
        argvs += _styles(["assess", "--input", path, *flags, "--countries", countries, "--out", OUT])
        argvs += _styles(["assess", "--input", path, *flags, "--countries", countries, "--k", "3"])
    argvs += [
        # refusals and usage errors, with and without --out
        [], ["nope"], ["gen", "--config", SMALL], ["gen", "--out", OUT],
        ["rank", "--config", SMALL, "--labels", "aa,zz", "--out", OUT],
        ["rank", "--config", SMALL, "--top", "0"], ["rank", "--config", "missing.cfg"],
        ["fig1", "--config", SMALL], ["fig4", "--out", OUT], ["fig2", "--config", SMALL, "--k", "0"],
        ["fig1", "--config", SMALL, "--offset", "nan", "--out", OUT],
        ["tables1", "--config", SMALL, "--sample-size", "5000", "--out", OUT],
        ["ptop", "--config", SMALL, "--input", TIED], ["ptop", "--x", "10"],
        ["ptop", "--config", SMALL, "--x", "0"], ["ptop", "--config", SMALL, "--x", "10,10"],
        ["ptop", "--input", TIED, "--x", "10", "--out", OUT],
        ["ptop", "--input", TIED, "--country", "USA", "--split", "domestic", "--labels", "aa"],
        ["rk", "--input", BENCH, "--country", "USA", "--split", "domestic", "--out", OUT],
        ["rk", "--input", "missing.csv", "--country", "USA", "--split", "domestic"],
        ["rk", "--input", TIED, "--country", "XX", "--split", "domestic"],
        ["assess", "--input", TIED], ["assess", "--input", TIED, "--countries", "USA,USA"],
        ["assess", "--input", TIED, "--countries", "USA", "--countries-file", "missing.txt"],
        ["assess", "--input", TIED, "--countries", "USA", "--k", "500", "--out", OUT],
        ["assess", "--input", TIED, "--countries", "USA", "--scale", "0", "--out", OUT],
        ["assess", "--input", QUOTED, "--countries", "USA,CHN"],
        ["assess", "--input", QUOTED, "--countries", "USA,CHN", "--k", "1", "--skip-bad-rows"],
    ]
    return argvs


SLICES = {"quick": quick, "full": full}


@functools.cache
def _bench_corpus():
    """The benchmark's seeded corpus writer, `perfbench/corpus.py`."""
    return _load("perfbench_corpus", ROOT / "perfbench" / "corpus.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def prepare(work: Path) -> None:
    """Write every input the argvs name into `work`."""
    shutil.copytree(ROOT / "configs", work / "configs")
    (work / TIED).write_text(TIED_ROWS)
    (work / QUOTED).write_bytes(QUOTED_ROWS.encode())
    _bench_corpus().write(1, str(work / "bench"), rows=BENCH_ROWS)
    # The demo script puts this checkout's src first on sys.path; the
    # package is imported first so the script runs the one under test.
    import rankmetrics.cli  # noqa: F401

    argv, path = sys.argv, list(sys.path)
    demo = _load("make_demo_corpus", ROOT / "scripts" / "make_demo_corpus.py")
    sys.argv = ["make_demo_corpus.py", "--out", str(work / "demo")]
    try:  # the script also runs `assess` on what it wrote: its output is not kept
        with contextlib.redirect_stdout(io.StringIO()):
            demo.main()
    finally:
        sys.argv, sys.path[:] = argv, path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_argv(argv: list[str]) -> dict:
    """Run one argv through `cli.main` from the work directory."""
    from rankmetrics import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": 0 if code is None else code,
            "stdout": sha256(out.getvalue().encode()), "stderr": sha256(err.getvalue().encode())}


def run_entry(index: int, argv: list[str]) -> dict:
    """The manifest entry of argv `index`, which writes under out/index."""
    out = Path("out", str(index))
    shutil.rmtree(out, ignore_errors=True)
    entry = run_argv([token.replace(OUT, str(out)) for token in argv])
    entry["files"] = {
        path.relative_to(out).as_posix(): sha256(path.read_bytes())
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    return entry


def run(argvs: list[list[str]], work: Path) -> list[dict]:
    """Each argv's manifest entry, run in order from `work`, then the warm
    entry of each argv that reads a corpus, run after a first, unrecorded
    run of the same argv."""
    entries = []
    here = os.getcwd()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # the width argparse formats --help to
    os.chdir(work)
    try:
        for index, argv in enumerate(argvs):
            if "--input" in argv:  # cold: no parse cache anywhere
                for cache in Path(".").rglob(".*" + CACHE_SUFFIX):
                    cache.unlink()
            entries.append(run_entry(index, argv))
        for index, argv in enumerate(argvs):
            if "--input" in argv:
                run_entry(index, argv)
                entries.append({**run_entry(index, argv), "warm": True})
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return entries


def manifest(slice_name: str, work: Path | None = None) -> list[dict]:
    """Prepare the inputs in `work` (a fresh temporary directory if None)
    and run the slice there."""
    if work is not None:
        prepare(work)
        return run(SLICES[slice_name](), work)
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        return run(SLICES[slice_name](), Path(tmp))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", choices=SLICES, default="full")
    parser.add_argument("--out", required=True, help="manifest JSON to write")
    parser.add_argument("--work", help="a new directory for the inputs and outputs "
                                       "(default: a temporary one)")
    args = parser.parse_args()
    work = None
    if args.work:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
    entries = manifest(args.slice, work)
    Path(args.out).write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
