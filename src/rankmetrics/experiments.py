"""Synthetic validation studies and their plot-ready data files.

Each study runs on a regenerated seeded ensemble and emits one CSV of
rows plus a JSON sidecar with the exact parameters and a stable config
hash, so a report can always be traced back to the run that made it.
Rendering is left to external tools.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DataError
from .indicators import analytic_ptop, rk_rows
from .rankcore import ORDINAL, RankQuery, build_world, geometric_means
from .synthdist import Ensemble, EnsembleConfig, generate_ensemble
from .table import write_table

FIG2_PERCENTILES = (10.0, 3.0, 1.0, 0.5, 0.1)
EQUIV_RANGE_01 = (0.5, 39.5)
EQUIV_RANGE_001 = (1.0, 39.5)


class SelectionError(DataError):
    """The ensemble grid does not support the requested selection."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(parameters: dict) -> str:
    return hashlib.sha256(canonical_json(parameters).encode()).hexdigest()[:12]


@contextmanager
def atomic_open(path):
    """A text file whose contents replace `path` only when the block exits
    cleanly: it is written as a temp file beside `path`, then renamed, so
    readers never see a partial file and a failure leaves none."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so readers never see a partial file."""
    with atomic_open(path) as handle:
        handle.write(text)


@dataclass
class ExperimentReport:
    """Tabular output of one study plus everything needed to reproduce it.

    The table is `rows`, one dict per row, whose first row's keys are the
    columns of both formats; or, for an export too large to hold as dicts,
    `chunks` in the order `columns` names, consumed once as they are
    written (see `table.write_table`).
    """

    experiment_id: str
    parameters: dict
    rows: list[dict] = field(default_factory=list)
    columns: tuple[str, ...] = ()
    chunks: Iterable | None = None
    config_hash: str = field(init=False)

    def __post_init__(self):
        if self.chunks is None:
            if not self.rows:
                raise ValueError("a report must carry at least one row")
            self.columns = tuple(self.rows[0])
        self.config_hash = config_hash(self.parameters)

    def table(self):
        """(columns, chunks) to write; dict rows become one chunk."""
        if self.chunks is not None:
            return self.columns, self.chunks
        return self.columns, [[[row[name] for row in self.rows] for name in self.columns]]

    def sidecar(self, row_count: int) -> dict:
        # no timestamp here: fixed-seed runs must emit identical bytes
        return {
            "experiment": self.experiment_id,
            "config_hash": self.config_hash,
            "parameters": self.parameters,
            "columns": list(self.columns),
            "row_count": row_count,
            "tool_version": __version__,
        }


def write_report(report: ExperimentReport, out_dir, fmt: str = "csv") -> list[str]:
    """Emit <experiment>_<confighash>.csv|json plus the sidecar; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(os.fspath(out_dir), f"{report.experiment_id}_{report.config_hash}")
    data_path = base + (".csv" if fmt == "csv" else ".rows.json")
    with atomic_open(data_path) as handle:
        row_count = write_table(handle, *report.table(), fmt)
    sidecar_path = base + ".json"
    sidecar = json.dumps(report.sidecar(row_count), indent=1, sort_keys=True)
    atomic_write_text(sidecar_path, sidecar + "\n")
    return [data_path, sidecar_path]


def top_rank1s(world: RankQuery, labels, k: int) -> np.ndarray:
    """Global ranks of each unit's k locally best papers: one row per
    label, local order (`RankQuery.top_rank1s_many`)."""
    return world.top_rank1s_many(labels, k)


def _units(ensemble: Ensemble, labels, k: int, tie_policy: str):
    """The ensemble's world, the specs and (units, k) top-k rank1s of the
    labels, ranked in one query, and a check that refuses the rest.

    The query ranks the labels before the first one it would refuse, and
    the check raises that refusal.  A study calls the check after its
    per-unit work on the ranked rows, so errors come in the order of a
    study that ranks one unit at a time: the first unit's rank error, then
    a world-level error such as a `PercentileCutoffError` (raised on the
    first unit), then a later unit's rank error.  The rank query sees each
    label before its spec is read, so it refuses an unknown one.
    """
    world = build_world(list(ensemble.series), tie_policy=tie_policy)
    labels = list(labels)
    ranked = labels[:world.rankable(labels, k) or 1]
    ranks = top_rank1s(world, ranked, k)
    refused = labels[len(ranked):]

    def check_rest():
        if refused:
            world.top_rank1s(refused[0], k)

    return world, [ensemble.spec_by_label[label] for label in ranked], ranks, check_rest


def _join_ranks(ranks: np.ndarray) -> str:
    return ";".join(map(str, ranks.tolist()))


def _base_parameters(config: EnsembleConfig, tie_policy: str, **extra) -> dict:
    params = {"config": config.to_dict(), "tie_policy": tie_policy}
    params.update(extra)
    return params


def sample_positions(total: int, sample_size: int) -> list[int]:
    """Evenly spaced positions over 0..total-1, endpoints included."""
    if sample_size > total:
        raise SelectionError(f"cannot sample {sample_size} of {total} series")
    if sample_size == 1:
        return [0]
    step = (total - 1) / (sample_size - 1)
    return [round(i * step) for i in range(sample_size)]


def run_table_s1(
    ensemble: Ensemble, sample_size: int = 15, k: int = 10, tie_policy: str = ORDINAL
) -> ExperimentReport:
    """Dual-rank table for an evenly spaced sample of series.

    Each sampled series contributes k rows of (rank2, rank1, ratio) plus
    the geometric mean of its ratios, repeated down the block.
    """
    positions = sample_positions(len(ensemble.specs), sample_size)
    labels = [ensemble.specs[pos].label for pos in positions]
    _, specs, ranks, check_rest = _units(ensemble, labels, k, tie_policy)
    ratios = np.arange(1, k + 1) / ranks
    rows = []
    for spec, rank1s, unit_ratios, gm in zip(
        specs, ranks.tolist(), ratios.tolist(), geometric_means(ratios).tolist()
    ):
        for i, (r, ratio) in enumerate(zip(rank1s, unit_ratios)):
            rows.append(
                {
                    "label": spec.label,
                    "mu": spec.mu,
                    "n": spec.n,
                    "rank2": i + 1,
                    "rank1": r,
                    "ratio": ratio,
                    "gm_ratio": gm,
                }
            )
    check_rest()
    params = _base_parameters(
        ensemble.config, tie_policy, sample_size=sample_size, k=k,
        selection="evenly spaced over grid order, endpoints included",
    )
    return ExperimentReport(experiment_id="tables1", parameters=params, rows=rows)


def select_99(ensemble: Ensemble, mu_picks: int = 33) -> list[str]:
    """Labels of 33 same-mu triples evenly spaced over the mu grid.

    Requires a grid with exactly three sizes per mu value.
    """
    config = ensemble.config
    if len(config.sizes) != 3:
        raise SelectionError(
            f"triple selection needs three sizes per mu, grid has {len(config.sizes)}"
        )
    if config.mu_count < mu_picks:
        raise SelectionError(f"grid has {config.mu_count} mu values, {mu_picks} required")
    idx = np.round(np.linspace(0, config.mu_count - 1, mu_picks)).astype(int)
    if len(set(idx.tolist())) != mu_picks:
        raise SelectionError("mu grid too coarse for an even selection")
    labels = []
    for i in idx:
        for j in range(3):
            labels.append(ensemble.specs[int(i) * 3 + j].label)
    return labels


def run_fig1(
    ensemble: Ensemble,
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Collapse study: per selected series, the geometric means of inverse
    global ranks (raw and offset) against expected top-10% / top-0.1% counts."""
    world, specs, ranks, check_rest = _units(ensemble, select_99(ensemble), k, tie_policy)
    columns = zip(
        specs,
        rk_rows(ranks, offset=0.0, scale=1.0).tolist(),
        rk_rows(ranks, offset=offset, scale=1.0).tolist(),
        rk_rows(ranks, offset=offset, scale=scale).tolist(),
        ranks,
    )
    rows = []
    for spec, gm_inv, gm_inv_offset, rk, rank1s in columns:
        rows.append(
            {
                "label": spec.label,
                "mu": spec.mu,
                "n": spec.n,
                "gm_inv_rank1": gm_inv,
                "gm_inv_offset_rank1": gm_inv_offset,
                "rk": rk,
                "ptop_10_analytic": analytic_ptop(spec, world, 10.0).value,
                "ptop_0.1_analytic": analytic_ptop(spec, world, 0.1).value,
                "rank1s": _join_ranks(rank1s),
            }
        )
    check_rest()
    params = _base_parameters(ensemble.config, tie_policy, k=k, offset=offset, scale=scale)
    return ExperimentReport(experiment_id="fig1", parameters=params, rows=rows)


def run_fig2(
    ensemble: Ensemble,
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Stringency tiers: the 99 selected series split 33/33/33 by
    descending rank index, with expected counts for several percentiles."""
    world, specs, ranks, check_rest = _units(ensemble, select_99(ensemble), k, tie_policy)
    scored = []
    for spec, rk, rank1s in zip(specs, rk_rows(ranks, offset=offset, scale=scale).tolist(), ranks):
        ptops = {f"ptop_{x:g}": analytic_ptop(spec, world, x).value for x in FIG2_PERCENTILES}
        scored.append((rk, spec, ptops, rank1s))
    check_rest()
    scored.sort(key=lambda e: (-e[0], e[1].label))
    third = len(scored) // 3
    rows = [
        {
            "label": spec.label,
            "mu": spec.mu,
            "n": spec.n,
            "tier": "high" if i < third else ("medium" if i < 2 * third else "low"),
            "rk": rk,
            **ptops,
            "rank1s": _join_ranks(rank1s),
        }
        for i, (rk, spec, ptops, rank1s) in enumerate(scored)
    ]
    params = _base_parameters(
        ensemble.config, tie_policy, k=k, offset=offset, scale=scale,
        percentiles=list(FIG2_PERCENTILES),
    )
    return ExperimentReport(experiment_id="fig2", parameters=params, rows=rows)


def run_ptop(
    ensemble: Ensemble,
    xs,
    labels: str | None = None,
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Expected top-x% counts and the rank index of chosen series.

    `labels` is a comma-separated label list, recorded in the parameters
    as given; when empty or None the 99 triple-selected series are used.
    """
    chosen = labels.split(",") if labels else select_99(ensemble)
    world, specs, ranks, check_rest = _units(ensemble, chosen, k, tie_policy)
    rows = []
    for spec in specs:
        row = {"label": spec.label, "mu": spec.mu, "n": spec.n}
        for x in xs:
            row[f"ptop_{x:g}"] = analytic_ptop(spec, world, x).value
        rows.append(row)
    for row, rk in zip(rows, rk_rows(ranks, offset=offset, scale=scale).tolist()):
        row["rk"] = rk
    check_rest()
    params = _base_parameters(
        ensemble.config, tie_policy, x=list(xs), labels=labels, k=k, offset=offset, scale=scale
    )
    return ExperimentReport("ptop", params, rows)


def nearest_mu_index(config: EnsembleConfig, target: float) -> int:
    return int(np.argmin(np.abs(config.mu_values() - target)))


def run_fig3(
    ensemble: Ensemble,
    mu_targets: tuple[float, float] = (3.63, 3.03),
    size_pair: tuple[int, int] = (800, 200),
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Size/efficiency study: rank traces of four series crossing two mu
    values with two sizes; high-mu/small-N and low-mu/large-N should
    nearly coincide."""
    config = ensemble.config
    for n in size_pair:
        if n not in config.sizes:
            raise SelectionError(f"grid sizes {config.sizes} do not include {n}")
    width = len(config.sizes)
    labels = [ensemble.specs[nearest_mu_index(config, mu) * width + config.sizes.index(n)].label
              for mu in mu_targets for n in size_pair]
    _, specs, ranks, check_rest = _units(ensemble, labels, k, tie_policy)
    rows = []
    for spec, rk, rank1s in zip(specs, rk_rows(ranks, offset=offset, scale=scale).tolist(),
                                ranks.tolist()):
        for rank2, rank1 in enumerate(rank1s, start=1):
            rows.append(
                {
                    "label": spec.label,
                    "mu": spec.mu,
                    "n": spec.n,
                    "rank2": rank2,
                    "rank1": rank1,
                    "rk": rk,
                }
            )
    check_rest()
    params = _base_parameters(
        ensemble.config, tie_policy, k=k, offset=offset, scale=scale,
        mu_targets=list(mu_targets), size_pair=list(size_pair),
        selection="two mu targets x two sizes, nearest grid mu",
    )
    return ExperimentReport(experiment_id="fig3", parameters=params, rows=rows)


def extended_grid(seed: int) -> EnsembleConfig:
    """Default 115-series grid for the equivalence-range study: 23 mu
    values from 4.00 to 2.22 by five sizes from 200 to 8000."""
    return EnsembleConfig(
        mu_start=4.0, mu_end=2.22, mu_count=23, sizes=(200, 800, 2000, 4000, 8000), seed=seed
    )


def run_fig4(
    extended_config: EnsembleConfig,
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Equivalence ranges: rank-index to top-percentile ratios per series,
    flagged where the index may substitute for the percentile count."""
    ensemble = generate_ensemble(extended_config)
    world, specs, ranks, check_rest = _units(ensemble, ensemble.labels, k, tie_policy)
    rows = []
    for spec, rk, rank1s in zip(specs, rk_rows(ranks, offset=offset, scale=scale).tolist(), ranks):
        p01 = analytic_ptop(spec, world, 0.1).value
        p001 = analytic_ptop(spec, world, 0.01).value
        rows.append(
            {
                "label": spec.label,
                "mu": spec.mu,
                "n": spec.n,
                "rk": rk,
                "ptop_0.1": p01,
                "ptop_0.01": p001,
                "rk_over_ptop_0.1": rk / p01,
                "rk_over_ptop_0.01": rk / p001,
                "in_equiv_0.1": EQUIV_RANGE_01[0] <= rk <= EQUIV_RANGE_01[1],
                "in_equiv_0.01": EQUIV_RANGE_001[0] <= rk <= EQUIV_RANGE_001[1],
                "rank1s": _join_ranks(rank1s),
            }
        )
    check_rest()
    params = _base_parameters(
        extended_config, tie_policy, k=k, offset=offset, scale=scale,
        equiv_range_01=list(EQUIV_RANGE_01), equiv_range_001=list(EQUIV_RANGE_001),
        note="combined-size series sampled directly at their mu",
    )
    return ExperimentReport(experiment_id="fig4", parameters=params, rows=rows)
