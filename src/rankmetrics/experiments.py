"""Synthetic validation studies and their plot-ready data files.

Each study runs on a regenerated seeded ensemble and emits one CSV of
rows plus a JSON sidecar with the exact parameters and a stable config
hash, so a report can always be traced back to the run that made it.
Rendering is left to external tools.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .base import (
    DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE, ORDINAL, atomic_open, atomic_write_text, config_hash,
)
from .errors import DataError
from .indicators import analytic_ptop, rk_rows
from .rankcore import RankQuery, build_world, geometric_means
from .synthdist import Ensemble, EnsembleConfig, generate_ensemble
from .table import write_table

FIG2_PERCENTILES = (10.0, 3.0, 1.0, 0.5, 0.1)
EQUIV_RANGE_01 = (0.5, 39.5)
EQUIV_RANGE_001 = (1.0, 39.5)
# the fig1/fig2 selection: this many mu values, three series each
MU_PICKS = 33


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
    """The ensemble's world, the labels' specs and their (units, k) top-k
    rank1s, ranked in one query.

    The query refuses the first label that names no unit or a unit of
    fewer than k papers, before a study does any per-unit work, so a
    refused selection is reported ahead of a world-level error such as a
    top-x% cutoff that holds no entries.
    """
    world = build_world(list(ensemble.series), tie_policy=tie_policy)
    ranks = top_rank1s(world, labels, k)
    return world, [ensemble.spec_by_label[label] for label in labels], ranks


def _join_ranks(ranks: np.ndarray) -> str:
    return ";".join(map(str, ranks.tolist()))


def _base_parameters(config: EnsembleConfig, tie_policy: str, **extra) -> dict:
    params = {"config": config.to_dict(), "tie_policy": tie_policy}
    params.update(extra)
    return params


def sample_positions(total: int, sample_size: int) -> list[int]:
    """Evenly spaced positions over 0..total-1, endpoints included."""
    if sample_size > total:
        raise DataError(f"cannot sample {sample_size} of {total} series")
    if sample_size == 1:
        return [0]
    step = (total - 1) / (sample_size - 1)
    return [round(i * step) for i in range(sample_size)]


def run_table_s1(
    ensemble: Ensemble, sample_size: int = 15, k: int = DEFAULT_K, tie_policy: str = ORDINAL
) -> ExperimentReport:
    """Dual-rank table for an evenly spaced sample of series.

    Each sampled series contributes k rows of (rank2, rank1, ratio) plus
    the geometric mean of its ratios, repeated down the block.
    """
    positions = sample_positions(len(ensemble.specs), sample_size)
    labels = [ensemble.specs[pos].label for pos in positions]
    _, specs, ranks = _units(ensemble, labels, k, tie_policy)
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
    params = _base_parameters(
        ensemble.config, tie_policy, sample_size=sample_size, k=k,
        selection="evenly spaced over grid order, endpoints included",
    )
    return ExperimentReport(experiment_id="tables1", parameters=params, rows=rows)


def select_99(ensemble: Ensemble) -> list[str]:
    """Labels of `MU_PICKS` same-mu triples evenly spaced over the mu grid.

    Requires a grid with exactly three sizes per mu value.
    """
    config = ensemble.config
    if len(config.sizes) != 3:
        raise DataError(
            f"triple selection needs three sizes per mu, grid has {len(config.sizes)}"
        )
    if config.mu_count < MU_PICKS:
        raise DataError(f"grid has {config.mu_count} mu values, {MU_PICKS} required")
    # with mu_count >= MU_PICKS the picks step by at least 1: all distinct
    idx = np.round(np.linspace(0, config.mu_count - 1, MU_PICKS)).astype(int)
    labels = []
    for i in idx:
        for j in range(3):
            labels.append(ensemble.specs[int(i) * 3 + j].label)
    return labels


def run_fig1(
    ensemble: Ensemble,
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Collapse study: per selected series, the geometric means of inverse
    global ranks (raw and offset) against expected top-10% / top-0.1% counts."""
    world, specs, ranks = _units(ensemble, select_99(ensemble), k, tie_policy)
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
    params = _base_parameters(ensemble.config, tie_policy, k=k, offset=offset, scale=scale)
    return ExperimentReport(experiment_id="fig1", parameters=params, rows=rows)


def run_fig2(
    ensemble: Ensemble,
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Stringency tiers: the 99 selected series split 33/33/33 by
    descending rank index, with expected counts for several percentiles."""
    world, specs, ranks = _units(ensemble, select_99(ensemble), k, tie_policy)
    scored = []
    for spec, rk, rank1s in zip(specs, rk_rows(ranks, offset=offset, scale=scale).tolist(), ranks):
        ptops = {f"ptop_{x:g}": analytic_ptop(spec, world, x).value for x in FIG2_PERCENTILES}
        scored.append((rk, spec, ptops, rank1s))
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
    labels: list[str] | None = None,
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Expected top-x% counts and the rank index of chosen series.

    `labels` is a list of series labels, recorded in the parameters
    comma-joined; when empty or None the 99 triple-selected series are
    used, recorded as None.
    """
    chosen = labels or select_99(ensemble)
    world, specs, ranks = _units(ensemble, chosen, k, tie_policy)
    rows = []
    for spec in specs:
        row = {"label": spec.label, "mu": spec.mu, "n": spec.n}
        for x in xs:
            row[f"ptop_{x:g}"] = analytic_ptop(spec, world, x).value
        rows.append(row)
    for row, rk in zip(rows, rk_rows(ranks, offset=offset, scale=scale).tolist()):
        row["rk"] = rk
    params = _base_parameters(
        ensemble.config, tie_policy, x=list(xs), labels=",".join(labels) if labels else None,
        k=k, offset=offset, scale=scale,
    )
    return ExperimentReport("ptop", params, rows)


def nearest_mu_index(config: EnsembleConfig, target: float) -> int:
    return int(np.argmin(np.abs(config.mu_values() - target)))


def run_fig3(
    ensemble: Ensemble,
    mu_targets: tuple[float, float] = (3.63, 3.03),
    size_pair: tuple[int, int] = (800, 200),
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Size/efficiency study: rank traces of four series crossing two mu
    values with two sizes; high-mu/small-N and low-mu/large-N should
    nearly coincide."""
    config = ensemble.config
    for n in size_pair:
        if n not in config.sizes:
            raise DataError(f"grid sizes {config.sizes} do not include {n}")
    width = len(config.sizes)
    labels = [ensemble.specs[nearest_mu_index(config, mu) * width + config.sizes.index(n)].label
              for mu in mu_targets for n in size_pair]
    _, specs, ranks = _units(ensemble, labels, k, tie_policy)
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
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Equivalence ranges: rank-index to top-percentile ratios per series,
    flagged where the index may substitute for the percentile count."""
    ensemble = generate_ensemble(extended_config)
    world, specs, ranks = _units(ensemble, ensemble.labels, k, tie_policy)
    rows = []
    for spec, rk, rank1s in zip(specs, rk_rows(ranks, offset=offset, scale=scale).tolist(), ranks):
        p01 = analytic_ptop(spec, world, 0.1).value
        p001 = analytic_ptop(spec, world, 0.01).value
        for x, expected in ((0.1, p01), (0.01, p001)):
            if expected == 0:  # the tail probability underflowed
                raise DataError(
                    f"series {spec.label}: its expected top {x}% count underflows to 0 at "
                    f"mu = {spec.mu}, so rk_over_ptop_{x} has no value"
                )
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
    params = _base_parameters(
        extended_config, tie_policy, k=k, offset=offset, scale=scale,
        equiv_range_01=list(EQUIV_RANGE_01), equiv_range_001=list(EQUIV_RANGE_001),
        note="combined-size series sampled directly at their mu",
    )
    return ExperimentReport(experiment_id="fig4", parameters=params, rows=rows)
