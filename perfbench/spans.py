"""In-memory spans around calls into rankmetrics' public functions.

The program itself is not instrumented: `Tracer.install` replaces module
attributes with timing wrappers and `Tracer.uninstall` restores them.
A function is wrapped under every name its callers use, because
`experiments` and `ingest` import some functions by name.

A span is (id, name, start, end, parent id, run id, counters).  The run
id is the index of the CLI command the span belongs to; each command's
root span is `cli.main`.  Counters are computed right after their span
ends, inside a sibling `trace.counters` span, so counting time is kept
out of every layer's self time.  Counting holds no reference past the
call, so tracing does not move when the program frees its data.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

ROOT = "cli.main"
COUNTERS = "trace.counters"


def _tied_blocks(records):
    import numpy as np

    _, counts = np.unique(np.fromiter((r.citations for r in records), dtype=np.int64),
                          return_counts=True)
    return int(np.count_nonzero(counts > 1))


def _rejects_by_cause(errors):
    from corpus import reject_cause

    causes = {}
    for error in errors:
        cause = reject_cause(error.message)
        causes[cause] = causes.get(cause, 0) + 1
    return causes


def _patch_table():
    """(module, attribute, span name, counter) for every wrapped call site."""
    from rankmetrics import cli, experiments, indicators, ingest, rankcore, synthdist

    def sampled(result, config, *args, **kwargs):
        return {"papers_sampled": config.total_papers}

    def csv_written(result, items, fileobj):
        return {"bytes_written": fileobj.tell()}

    def world_built(result, *args, **kwargs):
        return {"worlds_built": 1, "papers_indexed": result.size}

    def one(name):
        return lambda *args, **kwargs: {name: 1}

    def rank_query(result, *args, **kwargs):
        return {"rank_queries": 1, "rank1_reads": int(result.size)}

    def report_files(result, *args, **kwargs):
        return {"report_bytes": sum(os.path.getsize(path) for path in result)}

    def text_written(result, path, text):
        return {"report_bytes": len(text.encode())}

    def corpus_loaded(result, *args, **kwargs):
        return {"rows_read": len(result.records) + len(result.errors),
                "rows_rejected": len(result.errors),
                "rejected_by_cause": _rejects_by_cause(result.errors)}

    def world_ranked(result, records, *args, **kwargs):
        return {"tied_blocks": _tied_blocks(records)}

    def assessed(result, *args, **kwargs):
        return {"units_insufficient": sum(row.rk_status == ingest.RK_INSUFFICIENT for row in result)}

    table = [
        (synthdist, "generate_ensemble", "synthdist.sample", sampled),
        (experiments, "generate_ensemble", "synthdist.sample", sampled),
        (synthdist, "write_specs_csv", "synthdist.write", csv_written),
        (synthdist, "write_values_csv", "synthdist.write", csv_written),
        (rankcore, "build_world", "rankcore.build_world", world_built),
        (experiments, "build_world", "rankcore.build_world", world_built),
        (ingest, "build_world", "rankcore.build_world", world_built),
        (rankcore, "dual_ranks", "rankcore.dual_ranks",
         lambda result, *a, **k: {"rank_pairs_built": len(result)}),
        (experiments, "top_rank1s", "experiments.rank_query", rank_query),
        (experiments, "write_report", "experiments.report_write", report_files),
        (cli, "atomic_write_text", "experiments.report_write", text_written),
        (indicators, "analytic_ptop", "indicators.analytic_ptop", one("analytic_ptop_calls")),
        (experiments, "analytic_ptop", "indicators.analytic_ptop", one("analytic_ptop_calls")),
        (indicators, "rk_from_rank1s", "indicators.rk", one("rk_calls")),
        (ingest, "rk_from_rank1s", "indicators.rk", one("rk_calls")),
        (ingest, "load_corpus", "ingest.parse", corpus_loaded),
        (ingest, "corpus_world_ranks", "ingest.world_ranks", world_ranked),
        (ingest, "split_country", "ingest.split", one("split_passes")),
        (ingest, "assess", "ingest.assess", assessed),
        (cli, "ptop_corpus", "cli.ptop_corpus", None),
        (cli, "file_sha256", "cli.input_hash", None),
    ]
    for study in ("run_fig1", "run_fig2", "run_fig3", "run_fig4", "run_table_s1"):
        table.append((experiments, study, "experiments.study", None))
    return table


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._run_id = None
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._run_id, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = perf_counter()
        return span

    def _close(self, span):
        span[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                counting = tracer._open(COUNTERS)
                span[6] = count(result, *args, **kwargs)
                tracer._close(counting)
            return result

        return wrapper

    def install(self):
        for module, attr, name, count in _patch_table():
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def command(self, run_id, fn):
        """Run fn() as the root span of command `run_id`; returns (result, seconds)."""
        self._run_id = run_id
        root = self._open(ROOT)
        try:
            result = fn()
        finally:
            self._close(root)
            self._run_id = None
        return result, root[3] - root[2]


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        if span[4] is not None:
            own[span[4]] -= span[3] - span[2]
    return own
