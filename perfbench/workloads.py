"""Workload definitions shared by the runner and the worker.

A workload is a fixed rotation of CLI commands.  Each command gets its
own seed, derived from the workload seed and the command's position in
the run, so no command can reuse a world that another command built.
"""

from __future__ import annotations

import hashlib
import os

# The paper's 600-series study grid, written out apart from configs/world600.cfg
# (which the commands read) so the oracles do not trust the repository's copy.
WORLD600 = {"mu_start": 4.0, "mu_end": 2.0, "mu_count": 200, "sizes": (800, 400, 200)}
# The CLI's built-in 115-series grid for fig4 (experiments.extended_grid).
EXTENDED115 = {"mu_start": 4.0, "mu_end": 2.22, "mu_count": 23, "sizes": (200, 800, 2000, 4000, 8000)}
SIGMA = 1.1

WORKLOADS = {
    "study-sweep": ("fig1", "fig2", "fig3", "tables1", "fig4"),
    "rank-export": ("gen", "rank"),
    "corpus-assess": ("assess", "ptop"),
}

PTOP_X = "10,1,0.1"
CONFIG = os.path.join("configs", "world600.cfg")  # relative to the checkout's root


def grid_papers(grid: dict) -> int:
    return grid["mu_count"] * sum(grid["sizes"])


def command_seed(workload_seed: int, index: int) -> int:
    """Seed of the index-th command of a run: distinct per command, stable per run."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def command_argv(kind: str, seed: int, out_dir: str, inputs: dict) -> list[str]:
    """CLI arguments of one command; `inputs` holds the corpus file paths."""
    if kind in ("fig1", "fig2", "fig3", "tables1", "gen"):
        return [kind, "--config", CONFIG, "--seed", str(seed), "--out", out_dir]
    if kind == "fig4":
        return ["fig4", "--seed", str(seed), "--out", out_dir]
    if kind == "rank":
        return ["rank", "--config", CONFIG, "--seed", str(seed),
                "--tie-policy", "competition", "--out", out_dir]
    corpus = ["--input", inputs["corpus"], "--meta", inputs["meta"], "--skip-bad-rows"]
    if kind == "assess":
        return ["assess", *corpus, "--countries", ",".join(inputs["countries"]), "--out", out_dir]
    if kind == "ptop":
        return ["ptop", *corpus, "--tie-policy", "competition", "--country", inputs["countries"][0],
                "--split", "collaborative", "--x", PTOP_X, "--out", out_dir]
    raise ValueError(f"unknown command kind {kind!r}")


def command_plan(workload: str, workload_seed: int, index: int, work_dir: str, inputs: dict,
                 tag: str = "") -> dict:
    kinds = WORKLOADS[workload]
    kind = kinds[index % len(kinds)]
    seed = command_seed(workload_seed, index)
    out_dir = os.path.join(work_dir, f"cmd{index:04d}{tag}")
    return {"index": index, "kind": kind, "seed": seed, "out": out_dir,
            "argv": command_argv(kind, seed, out_dir, inputs)}
