"""Command-line front end: ensemble generation, rank tables, indicators,
validation studies, and real-data assessment, all as reproducible runs.

Exit codes: 0 success, 1 data error (bad input file, failed selection),
2 usage error.  Outputs are written atomically; every emitted file is
accompanied by enough metadata (config, seed, hash, tool version) to
reproduce it byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

from . import __version__
from .base import (
    COLLABORATIVE, DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE, DOMESTIC, FORMATS, ORDINAL,
    TIE_POLICIES, atomic_open, atomic_write_text, config_hash,
)
from .errors import DataError, read_text

if TYPE_CHECKING:
    from . import experiments, ingest, synthdist

# Each handler imports the modules it runs, so building the parser loads no
# numpy, hashlib or json, and a command loads only its own modules.  A
# handler calls them as `module.name`, looked up when it runs, so a wrapper
# set on a module from outside is the one called.

DEFAULT_X = (10.0, 1.0, 0.5, 0.1, 0.01)
# the flags a study command passes to its `experiments.run_*` by name
STUDY_FLAGS = ("sample_size", "k", "offset", "scale", "tie_policy")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level options take no value, so the first token that is not
    # an option is the one argparse reads as the command
    command = next((token for token in argv if not token.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        check_flags(args)
        return args.handler(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is listed with its help,
    but only `command` gets its arguments, or every subcommand when
    `command` is None: a run builds only the subparser it parses with."""
    parser = argparse.ArgumentParser(
        prog="rankmetrics",
        description="Rank-based research-assessment metrics and their validation studies.",
    )
    parser.add_argument("--version", action="version", version=f"rankmetrics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
        else:  # never parsed with, so without even its --help
            sub.add_parser(name, help=help_text, add_help=False)
    return parser


def add_common(p, config=False, corpus=False, report=True):
    if config:
        p.add_argument("--config", help="ensemble config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the config seed")
    if corpus:
        p.add_argument("--input", help="corpus CSV (id,year,citations,countries[,field])")
        p.add_argument("--meta", help="corpus metadata JSON sidecar")
        p.add_argument(
            "--skip-bad-rows", action="store_true",
            help="proceed with valid rows instead of failing on row errors",
        )
    if report:  # gen writes a fixed set of CSV files and ranks nothing
        p.add_argument("--tie-policy", choices=TIE_POLICIES, default=ORDINAL)
        p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", help="output directory (default: stdout where supported)")


def add_indicator_flags(p, index=True):
    p.add_argument("--k", type=int, default=DEFAULT_K)
    if index:  # tables1 reports rank ratios, not the index
        p.add_argument("--offset", type=float, default=DEFAULT_OFFSET)
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE)


def gen_arguments(p):
    add_common(p, config=True, report=False)
    p.set_defaults(handler=cmd_gen)


def rank_arguments(p):
    add_common(p, config=True)
    p.add_argument("--labels", help="comma-separated series labels (default: all)")
    p.add_argument("--top", type=int, help="keep only each unit's top-n papers")
    p.set_defaults(handler=cmd_rank)


def rk_arguments(p):
    add_common(p, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--country", required=True)
    p.add_argument("--split", choices=(DOMESTIC, COLLABORATIVE), required=True)
    p.set_defaults(handler=cmd_rk)


def ptop_arguments(p):
    add_common(p, config=True, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--x", default=",".join(str(x) for x in DEFAULT_X),
                   help="comma-separated percentile list")
    p.add_argument("--labels", help="series labels (synthetic input; default: triple selection)")
    p.add_argument("--country", help="country code (corpus input)")
    p.add_argument("--split", choices=(DOMESTIC, COLLABORATIVE),
                   help="country split (corpus input)")
    p.set_defaults(handler=cmd_ptop)


def study_arguments(name, study):
    """The function that adds the arguments of study command `name`, which runs
    `experiments.<study>`."""
    def add_arguments(p):
        add_common(p, config=name != "fig4")
        if name == "fig4":
            p.add_argument("--config",
                           help="extended grid config (default: built-in 115-series grid)")
            p.add_argument("--seed", type=int,
                           help="seed for the built-in grid or config override")
        add_indicator_flags(p, index=name != "tables1")
        if name == "tables1":
            p.add_argument("--sample-size", type=int, default=15)
        p.set_defaults(handler=cmd_study, study=study)

    return add_arguments


def assess_arguments(p):
    add_common(p, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--countries", help="comma-separated country codes")
    p.add_argument("--countries-file", help="file with one country code per line")
    p.set_defaults(handler=cmd_assess)


# each subcommand's help and the function that adds its arguments, in help order
SUBCOMMANDS = {
    "gen": ("generate an ensemble and export it", gen_arguments),
    "rank": ("export the dual-rank table of an ensemble", rank_arguments),
    "rk": ("rank index of one country/split in a corpus", rk_arguments),
    "ptop": ("top-percentile indicators", ptop_arguments),
    "tables1": ("dual-rank sample table", study_arguments("tables1", "run_table_s1")),
    "fig1": ("collapse of percentile counts onto inverse-rank means",
             study_arguments("fig1", "run_fig1")),
    "fig2": ("stringency tiers", study_arguments("fig2", "run_fig2")),
    "fig3": ("size/efficiency rank traces", study_arguments("fig3", "run_fig3")),
    "fig4": ("equivalence ranges of the rank index", study_arguments("fig4", "run_fig4")),
    "assess": ("country assessment table from a corpus", assess_arguments),
}


def check_flags(args) -> None:
    """Refuse flags that have no meaning: the index needs at least one
    paper (--k), a finite offset >= 0 and scale > 0; a rank table at
    least one row per unit (--top); a sample table at least one series
    (--sample-size)."""
    for name in ("k", "top", "sample_size"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise DataError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    if not hasattr(args, "offset"):
        return
    if not (math.isfinite(args.offset) and args.offset >= 0):
        raise DataError(f"--offset must be a finite number >= 0, got {args.offset}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise DataError(f"--scale must be a finite number > 0, got {args.scale}")


def parse_list(source: str, tokens, noun: str) -> list[str]:
    """The entries of a list input, each stripped, blanks dropped; a
    repeated entry or an empty list is refused with `source` named."""
    entries = [token.strip() for token in tokens if token.strip()]
    if not entries:
        raise DataError(f"{source} names no {noun}")
    seen = set()
    for entry in entries:
        if entry in seen:
            raise DataError(f"{source} names {entry} twice")
        seen.add(entry)
    return entries


def parse_labels(args) -> list[str] | None:
    if args.labels is None:
        return None
    return parse_list("--labels", args.labels.split(","), "label")


def load_run_config(args) -> synthdist.EnsembleConfig:
    import dataclasses

    from . import synthdist

    if not args.config:
        raise DataError("--config is required for this command")
    config = synthdist.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def load_corpus_or_fail(args) -> ingest.Corpus:
    from . import ingest

    if not args.input:
        raise DataError("--input is required for this command")
    meta = None
    if args.meta:  # a sidecar's warnings print as diagnoses, one line each
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            meta = ingest.CorpusMeta.from_json(args.meta)
        for warning in caught:
            print(f"warning: {args.meta}: {warning.message}", file=sys.stderr)
    result = ingest.load_corpus(args.input, meta)
    if result.errors:
        for error in result.errors:
            print(f"{args.input}: {error}", file=sys.stderr)
        if not args.skip_bad_rows:
            raise DataError(f"{len(result.errors)} malformed rows (use --skip-bad-rows to proceed)")
    if not result.records:
        raise DataError(f"{args.input}: no usable records")
    return result.records


def emit(report: experiments.ExperimentReport, args) -> int:
    """Write a report as CSV/JSON to --out (with sidecar) or stdout."""
    from . import experiments, table

    if args.out:
        for path in experiments.write_report(report, args.out, fmt=args.format):
            print(path)
    else:
        table.write_table(sys.stdout, *report.table(), args.format)
    return 0


def cmd_gen(args) -> int:
    import json

    from . import synthdist

    config = load_run_config(args)
    if not args.out:
        raise DataError("gen requires --out")
    ensemble = synthdist.generate_ensemble(config)
    os.makedirs(args.out, exist_ok=True)
    params = {"config": config.to_dict()}
    digest = config_hash(params)
    base = os.path.join(args.out, f"ensemble_{digest}")
    with atomic_open(base + "_specs.csv") as handle:
        synthdist.write_specs_csv(ensemble.specs, handle)
    with atomic_open(base + "_values.csv") as handle:
        synthdist.write_values_csv(ensemble.series, handle)
    sidecar = {
        "experiment": "gen",
        "config_hash": digest,
        "parameters": params,
        "series_count": len(ensemble.specs),
        "total_papers": config.total_papers,
        "tool_version": __version__,
    }
    atomic_write_text(base + ".json", json.dumps(sidecar, indent=1, sort_keys=True) + "\n")
    for suffix in ("_specs.csv", "_values.csv", ".json"):
        print(base + suffix)
    return 0


def cmd_rank(args) -> int:
    from . import experiments, rankcore, synthdist

    config = load_run_config(args)
    labels = parse_labels(args)
    if labels is not None:  # the grid names every label: refuse one before sampling
        known = {spec.label for spec in synthdist.build_grid(config)}
        for label in labels:
            if label not in known:
                raise DataError(f"unknown series label {label!r}")
    ensemble = synthdist.generate_ensemble(config)
    world = rankcore.build_world(list(ensemble.series), tie_policy=args.tie_policy)
    chunks = rankcore.rank_table_chunks(world, labels=labels, top=args.top)
    params = {
        "config": config.to_dict(), "tie_policy": args.tie_policy,
        "labels": labels, "top": args.top,
    }
    report = experiments.ExperimentReport(
        "rank", params, columns=rankcore.RANK_TABLE_COLUMNS, chunks=chunks
    )
    return emit(report, args)


def corpus_unit(args, records, xs=()) -> ingest.AssessmentRow:
    """The assessment row of --country and --split, counted at the top 10%
    and at each top x% of `xs`."""
    from . import ingest

    rows = ingest.assess(
        records, [args.country], k=args.k, offset=args.offset,
        scale=args.scale, tie_policy=args.tie_policy, xs=tuple(xs),
    )
    return next(r for r in rows if r.split == args.split)


def cmd_rk(args) -> int:
    from . import experiments, ingest

    records = load_corpus_or_fail(args)
    rows = ingest.assessment_table([corpus_unit(args, records)])
    params = corpus_parameters(args)
    return emit(experiments.ExperimentReport("rk", params, rows), args)


def parse_x_list(text: str) -> list[float]:
    try:
        xs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DataError(f"bad percentile list {text!r}") from exc
    if not xs:
        raise DataError("empty percentile list")
    names = set()
    for x in xs:
        if not 0 < x <= 100:
            raise DataError(f"percentile must satisfy 0 < x <= 100, got {x:g}")
        if f"{x:g}" in names:  # each cutoff names one ptop_{x:g} column
            raise DataError(f"percentile {x:g} given twice")
        names.add(f"{x:g}")
    return xs


# the flags that only ptop's other input reads
FOREIGN_FLAGS = {"--input": ("labels", "seed"),
                 "--config": ("country", "split", "meta", "skip_bad_rows")}


def cmd_ptop(args) -> int:
    from . import experiments, synthdist

    xs = parse_x_list(args.x)
    if args.input and args.config:
        raise DataError("give either --config or --input, not both")
    if not (args.input or args.config):
        raise DataError("ptop needs --config (synthetic) or --input (corpus)")
    mode = "--input" if args.input else "--config"
    for name in FOREIGN_FLAGS[mode]:
        value = getattr(args, name)
        if value is not None and value is not False:  # refused, not ignored
            raise DataError(f"--{name.replace('_', '-')} does not apply to ptop {mode}")
    if args.input:
        if not args.country or not args.split:  # before the corpus is read
            raise DataError("corpus ptop needs --country and --split")
        return ptop_corpus(args, xs)
    config = load_run_config(args)
    labels = parse_labels(args)
    ensemble = synthdist.generate_ensemble(config)
    report = experiments.run_ptop(
        ensemble, xs, labels=labels, k=args.k,
        offset=args.offset, scale=args.scale, tie_policy=args.tie_policy,
    )
    return emit(report, args)


def ptop_corpus(args, xs) -> int:
    from . import experiments

    # real data carries no distribution parameters: empirical counting only
    records = load_corpus_or_fail(args)
    unit = corpus_unit(args, records, xs)
    row = {"label": f"{args.country}:{args.split}", "p": unit.p, "p0": unit.p0}
    for x in xs:
        row[f"ptop_{x:g}"] = unit.top_counts[x]
    row["rk"] = "" if unit.rk is None else unit.rk.rk
    params = corpus_parameters(args, x=xs)
    return emit(experiments.ExperimentReport("ptop", params, [row]), args)


def cmd_study(args) -> int:
    from . import experiments, synthdist

    if args.command == "fig4" and not args.config:
        if args.seed is None:
            raise DataError("fig4 needs --seed when using the built-in grid")
        config = experiments.extended_grid(args.seed)
    else:
        config = load_run_config(args)
    if not args.out:  # before sampling, which is most of a study's time
        raise DataError(f"{args.command} requires --out")
    # fig4 samples its own grid; the others study a sampled ensemble
    source = config if args.command == "fig4" else synthdist.generate_ensemble(config)
    flags = {name: getattr(args, name) for name in STUDY_FLAGS if hasattr(args, name)}
    return emit(getattr(experiments, args.study)(source, **flags), args)


def file_sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def corpus_parameters(args, **extra) -> dict:
    params = {
        "input": os.path.basename(args.input),
        "input_sha256": file_sha256(args.input),
        "tie_policy": args.tie_policy,
        "k": args.k,
        "offset": args.offset,
        "scale": args.scale,
    }
    if getattr(args, "country", None):
        params["country"] = args.country
    if getattr(args, "split", None):
        params["split"] = args.split
    params.update(extra)
    return params


def cmd_assess(args) -> int:
    from . import experiments, ingest

    if args.countries is not None and args.countries_file is not None:
        raise DataError("give either --countries or --countries-file, not both")
    if args.countries is not None:
        countries = parse_list("--countries", args.countries.split(","), "country")
    elif args.countries_file:
        lines = read_text(args.countries_file).splitlines()
        kept = (line for line in lines if not line.strip().startswith("#"))
        countries = parse_list(args.countries_file, kept, "country")
    else:
        raise DataError("assess needs --countries or --countries-file")
    records = load_corpus_or_fail(args)
    rows = ingest.assess(
        records, countries, k=args.k, offset=args.offset,
        scale=args.scale, tie_policy=args.tie_policy,
    )
    params = corpus_parameters(args, countries=countries)
    report = experiments.ExperimentReport("assess", params, ingest.assessment_table(rows))
    return emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
