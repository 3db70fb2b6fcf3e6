"""Command-line front end: ensemble generation, rank tables, indicators,
validation studies, and real-data assessment, all as reproducible runs.

Exit codes: 0 success, 1 data error (bad input file, failed selection),
2 usage error.  Outputs are written atomically; every emitted file is
accompanied by enough metadata (config, seed, hash, tool version) to
reproduce it byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__, experiments, indicators, ingest, rankcore, synthdist, table
from .errors import DataError, read_text
from .experiments import atomic_open, atomic_write_text, config_hash
from .rankcore import TIE_POLICIES

DEFAULT_X = (10.0, 1.0, 0.5, 0.1, 0.01)
# the flags a study command passes to its `experiments.run_*` by name
STUDY_FLAGS = ("sample_size", "k", "offset", "scale", "tie_policy")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_flags(args)
        return args.handler(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmetrics",
        description="Rank-based research-assessment metrics and their validation studies.",
    )
    parser.add_argument("--version", action="version", version=f"rankmetrics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

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
            p.add_argument("--tie-policy", choices=TIE_POLICIES, default=rankcore.ORDINAL)
            p.add_argument("--format", choices=table.FORMATS, default="csv")
        p.add_argument("--out", help="output directory (default: stdout where supported)")

    def add_indicator_flags(p, index=True):
        p.add_argument("--k", type=int, default=indicators.DEFAULT_K)
        if index:  # tables1 reports rank ratios, not the index
            p.add_argument("--offset", type=float, default=indicators.DEFAULT_OFFSET)
            p.add_argument("--scale", type=float, default=indicators.DEFAULT_SCALE)

    p = sub.add_parser("gen", help="generate an ensemble and export it")
    add_common(p, config=True, report=False)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("rank", help="export the dual-rank table of an ensemble")
    add_common(p, config=True)
    p.add_argument("--labels", help="comma-separated series labels (default: all)")
    p.add_argument("--top", type=int, help="keep only each unit's top-n papers")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("rk", help="rank index of one country/split in a corpus")
    add_common(p, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--country", required=True)
    p.add_argument("--split", choices=(ingest.DOMESTIC, ingest.COLLABORATIVE), required=True)
    p.set_defaults(handler=cmd_rk)

    p = sub.add_parser("ptop", help="top-percentile indicators")
    add_common(p, config=True, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--x", default=",".join(str(x) for x in DEFAULT_X),
                   help="comma-separated percentile list")
    p.add_argument("--labels", help="series labels (synthetic input; default: triple selection)")
    p.add_argument("--country", help="country code (corpus input)")
    p.add_argument("--split", choices=(ingest.DOMESTIC, ingest.COLLABORATIVE),
                   help="country split (corpus input)")
    p.set_defaults(handler=cmd_ptop)

    for name, study, help_text in (
        ("tables1", "run_table_s1", "dual-rank sample table"),
        ("fig1", "run_fig1", "collapse of percentile counts onto inverse-rank means"),
        ("fig2", "run_fig2", "stringency tiers"),
        ("fig3", "run_fig3", "size/efficiency rank traces"),
        ("fig4", "run_fig4", "equivalence ranges of the rank index"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p, config=name != "fig4")
        if name == "fig4":
            p.add_argument("--config", help="extended grid config (default: built-in 115-series grid)")
            p.add_argument("--seed", type=int, help="seed for the built-in grid or config override")
        add_indicator_flags(p, index=name != "tables1")
        if name == "tables1":
            p.add_argument("--sample-size", type=int, default=15)
        p.set_defaults(handler=cmd_study, study=study)

    p = sub.add_parser("assess", help="country assessment table from a corpus")
    add_common(p, corpus=True)
    add_indicator_flags(p)
    p.add_argument("--countries", help="comma-separated country codes")
    p.add_argument("--countries-file", help="file with one country code per line")
    p.set_defaults(handler=cmd_assess)

    return parser


def check_flags(args) -> None:
    """Refuse flags that have no meaning: the index needs at least one
    paper (--k), a finite offset >= 0 and scale > 0; a rank table at
    least one row per unit (--top); a sample table at least one series
    (--sample-size); a label list at least one label (--labels)."""
    for name in ("k", "top", "sample_size"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise DataError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    if getattr(args, "labels", None) and not args.labels.replace(",", "").strip():
        raise DataError("--labels names no label")
    if not hasattr(args, "offset"):
        return
    if not (math.isfinite(args.offset) and args.offset >= 0):
        raise DataError(f"--offset must be a finite number >= 0, got {args.offset}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise DataError(f"--scale must be a finite number > 0, got {args.scale}")


def load_run_config(args) -> synthdist.EnsembleConfig:
    if not args.config:
        raise DataError("--config is required for this command")
    config = synthdist.load_config(args.config)
    if args.seed is not None:
        config = synthdist.EnsembleConfig(
            mu_start=config.mu_start, mu_end=config.mu_end,
            mu_count=config.mu_count, sizes=config.sizes, seed=args.seed,
        )
    return config


def load_corpus_or_fail(args) -> ingest.Corpus:
    if not args.input:
        raise DataError("--input is required for this command")
    meta = ingest.CorpusMeta.from_json(args.meta) if args.meta else None
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
    if args.out:
        for path in experiments.write_report(report, args.out, fmt=args.format):
            print(path)
    else:
        table.write_table(sys.stdout, *report.table(args.format), args.format)
    return 0


def cmd_gen(args) -> int:
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
    config = load_run_config(args)
    ensemble = synthdist.generate_ensemble(config)
    world = rankcore.build_world(list(ensemble.series), tie_policy=args.tie_policy)
    labels = args.labels.split(",") if args.labels else None
    chunks = rankcore.rank_table_chunks(world, labels=labels, top=args.top)
    params = {
        "config": config.to_dict(), "tie_policy": args.tie_policy,
        "labels": labels, "top": args.top,
    }
    report = experiments.ExperimentReport(
        "rank", params, rankcore.RANK_TABLE_COLUMNS, chunks=chunks
    )
    return emit(report, args)


def corpus_unit(args, records) -> ingest.AssessmentRow:
    """The assessment row of --country and --split."""
    rows = ingest.assess(
        records, [args.country], k=args.k, offset=args.offset,
        scale=args.scale, tie_policy=args.tie_policy,
    )
    return next(r for r in rows if r.split == args.split)


def cmd_rk(args) -> int:
    records = load_corpus_or_fail(args)
    rows = ingest.assessment_table([corpus_unit(args, records)])
    params = corpus_parameters(args)
    return emit(experiments.ExperimentReport("rk", params, ingest.ASSESSMENT_COLUMNS, rows), args)


def parse_x_list(text: str) -> list[float]:
    try:
        xs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DataError(f"bad percentile list {text!r}") from exc
    if not xs:
        raise DataError("empty percentile list")
    for x in xs:
        if not 0 < x <= 100:
            raise DataError(f"percentile must satisfy 0 < x <= 100, got {x:g}")
    return xs


# the flags that only ptop's other input reads
FOREIGN_FLAGS = {"--input": ("labels", "seed"),
                 "--config": ("country", "split", "meta", "skip_bad_rows")}


def cmd_ptop(args) -> int:
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
        return ptop_corpus(args, xs)
    ensemble = synthdist.generate_ensemble(load_run_config(args))
    report = experiments.run_ptop(
        ensemble, xs, labels=args.labels, k=args.k, offset=args.offset,
        scale=args.scale, tie_policy=args.tie_policy,
    )
    return emit(report, args)


def ptop_corpus(args, xs) -> int:
    # real data carries no distribution parameters: empirical counting only
    records = load_corpus_or_fail(args)
    if not args.country or not args.split:
        raise DataError("corpus ptop needs --country and --split")
    unit = corpus_unit(args, records)
    row = {"label": f"{args.country}:{args.split}", "p": unit.p, "p0": unit.p0}
    for x in xs:
        row[f"ptop_{x:g}"] = ingest.top_count(unit.ranks, x, len(records))
    row["rk"] = "" if unit.rk is None else unit.rk.rk
    columns = ["label", "p", "p0"] + [f"ptop_{x:g}" for x in xs] + ["rk"]
    params = corpus_parameters(args, x=xs)
    return emit(experiments.ExperimentReport("ptop", params, tuple(columns), [row]), args)


def cmd_study(args) -> int:
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
    # looked up when run, so a wrapper set on `experiments` is the one called
    return emit(getattr(experiments, args.study)(source, **flags), args)


def file_sha256(path) -> str:
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
        "k": getattr(args, "k", indicators.DEFAULT_K),
        "offset": getattr(args, "offset", indicators.DEFAULT_OFFSET),
        "scale": getattr(args, "scale", indicators.DEFAULT_SCALE),
    }
    if getattr(args, "country", None):
        params["country"] = args.country
    if getattr(args, "split", None):
        params["split"] = args.split
    params.update(extra)
    return params


def cmd_assess(args) -> int:
    if args.countries:
        countries = [c.strip() for c in args.countries.split(",") if c.strip()]
        source = "--countries"
    elif args.countries_file:
        lines = [line.strip() for line in read_text(args.countries_file).splitlines()]
        countries = [line for line in lines if line and not line.startswith("#")]
        source = args.countries_file
    else:
        raise DataError("assess needs --countries or --countries-file")
    if not countries:
        raise DataError(f"{source} names no country")
    records = load_corpus_or_fail(args)
    rows = ingest.assess(
        records, countries, k=args.k, offset=args.offset,
        scale=args.scale, tie_policy=args.tie_policy,
    )
    params = corpus_parameters(args, countries=countries)
    report = experiments.ExperimentReport(
        "assess", params, ingest.ASSESSMENT_COLUMNS, ingest.assessment_table(rows)
    )
    return emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
