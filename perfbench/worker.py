"""Fresh worker process: times its own set-up, then runs one workload's
CLI commands in a closed loop with a single client.

    python3 perfbench/worker.py --probe SRC          # set-up and yardstick times only
    python3 perfbench/worker.py JOB.json RESULT.json # a timed run

Set-up is the import of rankmetrics.cli plus building its parser, which
every CLI invocation pays.  Right after it the process times the
yardstick, so set-up can be read relative to the host's speed of the
moment.  Commands go through rankmetrics.cli.main
one at a time with stdout and stderr captured.  The loop runs whole
rotations of the workload's commands and stops at the rotation boundary
nearest to the requested number of seconds, after at least one.  With
tracing on, every command runs twice on the same seed, once traced and
once not, alternating which goes first, so the trace overhead is
measured on identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import spans
import workloads

YARDSTICK_REPEATS = 5


def setup(src: str):
    sys.path.insert(0, src)
    start = perf_counter()
    from rankmetrics import cli

    cli.build_parser()
    return cli, perf_counter() - start


class Yardstick:
    """A fixed mix of numpy sorting, Python object churn and float text
    round trips, timed between commands.  The host's speed drifts by tens
    of percent over seconds; a command's time divided by the mean of the
    yardstick times just before and just after it nearly cancels that
    drift."""

    def __init__(self):
        import numpy as np

        self._np = np
        self.values = np.random.default_rng(0).standard_normal(100_000)
        self.keys = np.arange(self.values.size)

    def seconds(self) -> float:
        start = perf_counter()
        self._np.lexsort((self.keys, -self.values))
        head = self.values[:12_000].tolist()
        sorted(zip(head, range(len(head))))
        sum(map(float, ",".join(map(repr, head)).split(",")))
        return perf_counter() - start

    def median_seconds(self) -> float:
        return statistics.median(self.seconds() for _ in range(YARDSTICK_REPEATS))


def run_command(cli, plan, tracer=None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    record = dict(plan, exit=None, error=None)

    def call():
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return cli.main(plan["argv"])
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            record["error"] = traceback.format_exc()
            return None

    if tracer is None:
        start = perf_counter()
        record["exit"] = call()
        record["seconds"] = perf_counter() - start
    else:
        # an outer clock, independent of the spans, to check their self times against
        start = perf_counter()
        record["exit"], record["seconds"] = tracer.command(plan["index"], call)
        record["outer_s"] = perf_counter() - start
    record["traced"] = tracer is not None
    record["stdout"], record["stderr"] = stdout.getvalue(), stderr.getvalue()
    return record


def main(argv) -> int:
    if argv[0] == "--probe":
        _, seconds = setup(argv[1])
        print(json.dumps({"setup_s": seconds, "yardstick_s": Yardstick().median_seconds()}))
        return 0
    with open(argv[0]) as handle:
        job = json.load(handle)
    cli, setup_s = setup(job["src"])
    yardstick = Yardstick()
    setup_yardstick_s = yardstick.median_seconds()
    kinds = workloads.WORKLOADS[job["workload"]]
    tracer = spans.Tracer() if job["trace"] else None
    commands = []
    index = 0
    after = yardstick.seconds()
    start = perf_counter()
    while True:
        plan = workloads.command_plan(job["workload"], job["seed"], index, job["work"], job["inputs"])
        if tracer is None:
            before = after
            record = run_command(cli, plan)
            after = yardstick.seconds()
            commands.append(dict(record, ref_s=(before + after) / 2))
        else:
            traced = workloads.command_plan(job["workload"], job["seed"], index, job["work"],
                                            job["inputs"], tag="-traced")
            # flip the order per command and per rotation, so each kind gets both orders
            flip = (index + index // len(kinds)) % 2
            for traced_turn in ((True, False) if flip else (False, True)):
                if traced_turn:
                    tracer.install()
                    try:
                        commands.append(run_command(cli, traced, tracer))
                    finally:
                        tracer.uninstall()
                else:
                    commands.append(run_command(cli, plan))
        index += 1
        if index % len(kinds) == 0:
            elapsed = perf_counter() - start
            rotation = elapsed / (index // len(kinds))
            if elapsed + rotation / 2 >= job["seconds"]:
                break
    wall_s = perf_counter() - start
    result = {
        "setup_s": setup_s,
        "setup_yardstick_s": setup_yardstick_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": commands,
        "spans": tracer.spans if tracer else [],
    }
    with open(argv[1], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
