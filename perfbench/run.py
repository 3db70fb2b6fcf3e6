#!/usr/bin/env python3
"""rankmetrics benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload study-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a rankmetrics checkout.  The program is imported
from ./src; the run fails without a result when it is missing.  Each
run sets up a fresh worker process, runs the workload's CLI commands
in a closed loop for --seconds (whole rotations only), checks every
output file against an independent oracle, and prints the metrics.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
they are the per-layer metrics of a traced run.  The full result set
(run context, per-command timings and output digests) goes to
.bench_results/; traced runs also write their spans there.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import corpus as corpus_gen
import oracles
import spans as span_tools
from workloads import CONFIG, EXTENDED115, WORKLOADS, WORLD600, grid_papers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10
# setup_s is scaled to a host where the yardstick takes YARDSTICK_NOMINAL_S.  Set-up
# time follows the yardstick only in part: over 250 fresh processes on a 2-vCPU
# virtual machine, log(set-up) against log(yardstick) had slope 0.48.
YARDSTICK_NOMINAL_S = 0.04
SETUP_YARDSTICK_EXPONENT = 0.5
SPAN_SLACK_S = 0.002  # outer clock minus the spans' total, per traced command
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
CHECK_RESERVE_S = 40.0  # left for oracles after the worker's deadline

PAPERS_RANKED = {
    "fig1": grid_papers(WORLD600), "fig2": grid_papers(WORLD600), "fig3": grid_papers(WORLD600),
    "tables1": grid_papers(WORLD600), "fig4": grid_papers(EXTENDED115), "gen": 0,
    "rank": grid_papers(WORLD600), "assess": corpus_gen.ROWS, "ptop": corpus_gen.ROWS,
}

# per-layer metric -> span whose self time it reports
LAYER_TIMES = {
    "synthdist.sample_s": "synthdist.sample",
    "synthdist.write_s": "synthdist.write",
    "rankcore.build_world_s": "rankcore.build_world",
    "rankcore.dual_ranks_s": "rankcore.dual_ranks",
    "experiments.rank_query_s": "experiments.rank_query",
    "experiments.study_self_s": "experiments.study",
    "experiments.report_write_s": "experiments.report_write",
    "indicators.analytic_ptop_s": "indicators.analytic_ptop",
    "indicators.rk_s": "indicators.rk",
    "ingest.parse_s": "ingest.parse",
    "ingest.world_ranks_s": "ingest.world_ranks",
    "ingest.split_s": "ingest.split",
    "ingest.assess_self_s": "ingest.assess",
    "cli.ptop_corpus_self_s": "cli.ptop_corpus",
    "cli.input_hash_s": "cli.input_hash",
    "cli.glue_s": span_tools.ROOT,
    "trace.counters_s": span_tools.COUNTERS,
}
# per-layer metric -> (span, counter, unit)
LAYER_COUNTS = {
    "synthdist.papers_sampled": ("synthdist.sample", "papers_sampled", "papers"),
    "synthdist.bytes_written": ("synthdist.write", "bytes_written", "bytes"),
    "rankcore.worlds_built": ("rankcore.build_world", "worlds_built", "count"),
    "rankcore.papers_indexed": ("rankcore.build_world", "papers_indexed", "papers"),
    "rankcore.rank_pairs_built": ("rankcore.dual_ranks", "rank_pairs_built", "count"),
    "experiments.rank_queries": ("experiments.rank_query", "rank_queries", "count"),
    "experiments.report_bytes": ("experiments.report_write", "report_bytes", "bytes"),
    "indicators.analytic_ptop_calls": ("indicators.analytic_ptop", "analytic_ptop_calls", "count"),
    "indicators.rk_calls": ("indicators.rk", "rk_calls", "count"),
    "ingest.rows_read": ("ingest.parse", "rows_read", "rows"),
    "ingest.rows_rejected": ("ingest.parse", "rows_rejected", "rows"),
    "ingest.tied_blocks": ("ingest.world_ranks", "tied_blocks", "count"),
    "ingest.split_passes": ("ingest.split", "split_passes", "count"),
    "ingest.units_insufficient": ("ingest.assess", "units_insufficient", "count"),
}


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rankmetrics benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    return args


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def git_commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(root: str, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "machine": platform.machine(), "system": platform.system(),
        "python": platform.python_version(), "numpy": np.__version__, "git_commit": git_commit(root),
    }


def python_child(argv, root: str, timeout: float):
    try:
        done = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[0]} did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def setup_samples(root: str, src: str, count: int) -> list[tuple[float, float]]:
    """(set-up time, yardstick time) of `count` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        out = python_child([os.path.join(HERE, "worker.py"), "--probe", src], root, 60)
        probe = json.loads(out.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["yardstick_s"]))
    return samples


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, or the maximum."""
    n = len(values)
    if n < 11:
        return "max", max(values)
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}", float(np.percentile(values, q))


def check_commands(commands, corpus_oracle) -> dict:
    """Oracle verdict and output digests per command; output files are removed after."""
    for cmd in commands:
        problems = []
        if cmd["error"]:
            problems.append("raised: " + cmd["error"].strip().splitlines()[-1])
        elif cmd["exit"] != 0:
            problems.append(f"exit code {cmd['exit']}: {cmd['stderr'].strip()[-300:]}")
        digests = {}
        if os.path.isdir(cmd["out"]):
            for name in sorted(os.listdir(cmd["out"])):
                digests[name] = sha256(os.path.join(cmd["out"], name))
        listed = {os.path.basename(p) for p in cmd["stdout"].split()}
        if not problems:
            if not listed or listed != set(digests):
                problems.append(f"stdout lists {sorted(listed)}, directory holds {sorted(digests)}")
            else:
                problems += oracles.check(cmd["kind"], cmd["seed"], cmd["out"], cmd["stderr"],
                                          corpus_oracle)
        cmd["digests"] = digests
        cmd["problems"] = problems
        shutil.rmtree(cmd["out"], ignore_errors=True)
    by_key = {}
    for cmd in commands:
        suffix = ":traced" if cmd["traced"] else ""
        by_key[f"{cmd['index']}:{cmd['kind']}:{cmd['seed']}{suffix}"] = cmd["digests"]
    return by_key


def check_trace_pairs(commands) -> None:
    """Tracing must not change a single output byte."""
    plain = {c["index"]: c for c in commands if not c["traced"]}
    for cmd in commands:
        if cmd["traced"] and not cmd["problems"]:
            twin = plain[cmd["index"]]
            if cmd["digests"] != twin["digests"]:
                cmd["problems"].append("traced output differs from the untraced run of the same seed")


def check_spans(commands, spans, planted: dict) -> None:
    """Per traced command: spans nest, self times plus glue add up to the command
    time on a clock read outside the tracer, and the rejected rows counted by
    cause equal the planted ones."""
    for span in spans:
        if span[1] == "ingest.parse" and span[6]["rejected_by_cause"] != planted:
            run = next(c for c in commands if c["traced"] and c["index"] == span[5])
            run["problems"].append(f"rejected rows by cause {span[6]['rejected_by_cause']}, "
                                   f"planted {planted}")
    by_run = {}
    for span in spans:
        by_run.setdefault(span[5], []).append(span)
    for cmd in commands:
        if not cmd["traced"]:
            continue
        mine = by_run.get(cmd["index"], [])
        intervals = {s[0]: (s[2], s[3]) for s in mine}
        nested = all(s[4] is None or (intervals[s[4]][0] <= s[2] and s[3] <= intervals[s[4]][1])
                     for s in mine)
        total = math.fsum(span_tools.self_times(mine).values())
        if not nested:
            cmd["problems"].append("spans do not nest inside their parents")
        if not 0 <= cmd["outer_s"] - total <= SPAN_SLACK_S:
            cmd["problems"].append(
                f"span self times sum to {total:.6f} s, command took {cmd['outer_s']:.6f} s")


def timing(values: list[float]) -> dict:
    """Median, tail and sample count of one timing."""
    label, value = tail(values)
    return {"median": statistics.median(values), label: value, "n": len(values)}


def end_to_end(result, setup: list[tuple[float, float]], commands) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw timings printed beside them.

    Each command's time is also divided by the yardstick time taken around
    it; `cycle_ref` sums the per-kind medians of those ratios.  Each set-up
    time is scaled by the yardstick time of its own process, to the power
    SETUP_YARDSTICK_EXPONENT; `setup_s` is the median of the scaled times.
    """
    by_kind, ratios = {}, {}
    for cmd in commands:
        by_kind.setdefault(cmd["kind"], []).append(cmd["seconds"])
        ratios.setdefault(cmd["kind"], []).append(cmd["seconds"] / cmd["ref_s"])
    ok = [c for c in commands if not c["problems"]]
    papers = sum(PAPERS_RANKED[c["kind"]] for c in ok)
    details = {f"{kind}_s": timing(values) for kind, values in by_kind.items()}
    details["setup_s"] = timing([s for s, _ in setup])
    details["setup_yardstick_s"] = timing([y for _, y in setup])
    details["yardstick_s"] = timing([c["ref_s"] for c in commands])
    details["cycle_s"] = math.fsum(statistics.median(v) for v in by_kind.values())
    details["papers_per_s"] = papers / result["wall_s"]
    details["failed_ratio"] = (len(commands) - len(ok)) / len(commands)
    metrics = {
        "setup_s": (statistics.median(s * (YARDSTICK_NOMINAL_S / y) ** SETUP_YARDSTICK_EXPONENT
                                      for s, y in setup), "s"),
        "cycle_ref": (math.fsum(statistics.median(v) for v in ratios.values()), "ratio"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    return metrics, details


def per_layer(spans, commands) -> dict:
    """Per-layer metrics, each per traced command, except the use ratio."""
    traced = [c for c in commands if c["traced"]]
    plain = [c for c in commands if not c["traced"]]
    n = len(traced)
    own = span_tools.self_times(spans)
    metrics = {}
    for metric, name in LAYER_TIMES.items():
        total = math.fsum(own[s[0]] for s in spans if s[1] == name)
        metrics[metric] = (total / n, "s")
    sums = {}
    for span in spans:
        for counter, value in (span[6] or {}).items():
            if isinstance(value, (int, float)):
                sums[(span[1], counter)] = sums.get((span[1], counter), 0) + value
    for metric, (name, counter, unit) in LAYER_COUNTS.items():
        metrics[metric] = (sums.get((name, counter), 0) / n, unit)
    reads = sums.get(("experiments.rank_query", "rank1_reads"), 0)
    indexed = sums.get(("rankcore.build_world", "papers_indexed"), 0)
    metrics["rankcore.rank_use_ratio"] = (reads / indexed if indexed else 0.0, "ratio")
    metrics["trace.command_s"] = (math.fsum(c["seconds"] for c in traced) / n, "s")
    metrics["trace.overhead_s"] = (
        (math.fsum(c["seconds"] for c in traced) - math.fsum(c["seconds"] for c in plain)) / n, "s")
    return metrics


def run(args, root: str) -> tuple[dict, dict, list]:
    """One run: (the summary printed as the last line, printed details, failed commands)."""
    started = perf_counter()
    src = os.path.join(root, "src")
    if not (os.path.isfile(os.path.join(src, "rankmetrics", "cli.py"))
            and os.path.isfile(os.path.join(root, CONFIG))):
        raise BenchmarkError(f"no rankmetrics sources or {CONFIG} under {root}; "
                             "run from a checkout's root")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
    results = os.path.join(root, ".bench_results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    try:
        inputs = {}
        corpus_oracle, planted = None, {}
        if args.workload == "corpus-assess":
            corpus, inputs["corpus"], inputs["meta"] = corpus_gen.write(args.seed, work)
            inputs["countries"] = list(corpus.countries)
            corpus_oracle = oracles.CorpusOracle(corpus)
            for _, cause in corpus.planted:
                planted[cause] = planted.get(cause, 0) + 1
        # Half the probes run before the worker and half after, so the median
        # spans the host's speed over the whole run.  The first probe only
        # warms file caches and is dropped.
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = setup_samples(root, src, probes + 1)[1:] if probes else []
        job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "src": src, "work": work, "inputs": inputs}
        job_path, result_path = os.path.join(work, "job.json"), os.path.join(work, "result.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        budget = RUN_LIMIT_S - CHECK_RESERVE_S - (perf_counter() - started)
        python_child([os.path.join(HERE, "worker.py"), job_path, result_path], root, budget)
        with open(result_path) as handle:
            result = json.load(handle)
        setup += setup_samples(root, src, SETUP_PROBES - probes) if probes else []
        setup.append((result["setup_s"], result["setup_yardstick_s"]))
        commands = result["commands"]
        digests = check_commands(commands, corpus_oracle)
        details = {}
        if args.trace:
            check_trace_pairs(commands)
            check_spans(commands, result["spans"], planted)
            metrics = per_layer(result["spans"], commands)
            if planted:
                details["planted rows by cause"] = planted
            with open(os.path.join(results, tag + ".spans.jsonl"), "w") as handle:
                for span in result["spans"]:
                    handle.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "run_id", "counters"), span))) + "\n")
        else:
            metrics, details = end_to_end(result, setup, commands)
        failed = [c for c in commands if c["problems"]]
        summary = {
            "correct": not failed,
            "attempted": len(commands),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        record = {
            "context": run_context(root, args), "summary": summary, "details": details,
            "setup_samples": setup, "wall_s": result["wall_s"], "output_digests": digests,
            "commands": [{k: c[k] for k in ("index", "kind", "seed", "argv", "seconds", "outer_s", "ref_s",
                                            "exit", "traced", "problems") if k in c} for c in commands],
        }
        with open(os.path.join(results, tag + ".json"), "w") as handle:
            json.dump(record, handle, indent=1)
        return summary, details, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        summary, details, failed = run(args, root)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{summary['attempted']} commands, {summary['failed']} failed")
    for cmd in failed[:5]:
        print(f"  FAILED {cmd['kind']} seed {cmd['seed']}: {'; '.join(cmd['problems'][:3])}")
    for name, value in details.items():
        if isinstance(value, dict) and "median" in value:
            value = ", ".join(f"{k} {v:.4f} s" if k != "n" else f"n={v}" for k, v in value.items())
        print(f"  {name}: {value}")
    for name, metric in summary["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
