#!/usr/bin/env python3
"""Check that every oracle accepts a real output and flags a perturbed one.

    python3 perfbench/selftest.py

Run from the root of a rankmetrics checkout.  Runs one command of each
kind the benchmark uses (the corpus commands on a 20,000-row corpus),
checks the output, then changes one cell of it, or drops one rejected-
row diagnosis, and checks again.  The rank export is also emptied, to
show that a malformed output is a finding rather than a crash.  Exits 1
unless every pristine output passes and every perturbed one is flagged.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys

import corpus as corpus_gen
import oracles
import worker
from workloads import WORKLOADS, command_plan

SELFTEST_ROWS = 20_000


def bump(cell: str) -> str:
    return str(int(cell) + 1)


def nudge(cell: str) -> str:
    return repr(float(cell) * (1 + 1e-9))


def bump_first_rank(cell: str) -> str:
    first, _, rest = cell.partition(";")
    return f"{int(first) + 1};{rest}"


# kind -> (output file pattern, column, change to its first data row)
PERTURBATIONS = {
    "fig1": ("fig1_*.csv", "rank1s", bump_first_rank),
    "fig2": ("fig2_*.csv", "rk", nudge),
    "fig3": ("fig3_*.csv", "rank1", bump),
    "tables1": ("tables1_*.csv", "ratio", nudge),
    "fig4": ("fig4_*.csv", "ptop_0.1", nudge),
    "gen": ("ensemble_*_values.csv", "value", nudge),
    "rank": ("rank_*.csv", "rank1", lambda cell: "0"),
    "assess": ("assess_*.csv", "p0", bump),
    "ptop": ("ptop_*.csv", "ptop_10", bump),
}


def empty(path: str) -> None:
    open(path, "w").close()


def edit_first_row(path: str, column: str, change) -> None:
    with open(path) as handle:
        lines = handle.read().split("\n")
    cells = lines[1].split(",")
    index = lines[0].split(",").index(column)
    cells[index] = change(cells[index])
    lines[1] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines))


def main() -> int:
    root = os.getcwd()
    cli, _ = worker.setup(os.path.join(root, "src"))
    work = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    failures = 0
    try:
        inputs = {}
        corpus, inputs["corpus"], inputs["meta"] = corpus_gen.write(3, work, SELFTEST_ROWS)
        inputs["countries"] = list(corpus.countries)
        corpus_oracle = oracles.CorpusOracle(corpus)
        for workload, kinds in WORKLOADS.items():
            for index, kind in enumerate(kinds):
                plan = command_plan(workload, 3, index, os.path.join(work, workload), inputs)
                cmd = worker.run_command(cli, plan)
                stderr = cmd["stderr"]
                pattern, column, change = PERTURBATIONS[kind]
                (path,) = glob.glob(os.path.join(plan["out"], pattern))
                # (name, stderr, edit of the output file or None); edits stay, so they come last
                cases = [("pristine", stderr, None)]
                if kind in ("assess", "ptop"):
                    cases.append(("one rejected row unreported", stderr.split("\n", 1)[1], None))
                cases.append((f"{column} changed", stderr, lambda: edit_first_row(path, column, change)))
                if kind == "rank":
                    cases.append(("file emptied", stderr, lambda: empty(path)))
                for name, err, edit in cases:
                    perturbed = name != "pristine"
                    if edit:
                        edit()
                    problems = ([f"exit {cmd['exit']}"] if cmd["exit"] != 0 else
                                oracles.check(kind, plan["seed"], plan["out"], err, corpus_oracle))
                    ok = bool(problems) == perturbed
                    failures += not ok
                    verdict = (problems[0] if problems else "accepted")[:100]
                    print(f"{'PASS' if ok else 'FAIL'} {kind:8s} {name:30s} {verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
