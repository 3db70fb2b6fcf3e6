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
from .indicators import analytic_ptop, rk_from_rank1s
from .rankcore import ORDINAL, RankQuery, build_world, geometric_mean
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

    The table is `rows`, one dict per row, or, for an export too large to
    hold as dicts, `chunks`: column chunks in `columns` order, consumed
    once as they are written (see `table.write_table`).
    """

    experiment_id: str
    parameters: dict
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    config_hash: str = ""
    chunks: Iterable | None = None

    def __post_init__(self):
        if self.chunks is None and not self.rows:
            raise ValueError("a report must carry at least one row")
        if not self.config_hash:
            self.config_hash = config_hash(self.parameters)

    def table(self, fmt: str):
        """(names, chunks) to write in `fmt`.  Dict rows become one chunk
        here; their JSON keeps each dict's own key order, as
        ``json.dumps(rows)`` does, where CSV follows `columns`."""
        if self.chunks is not None:
            return self.columns, self.chunks
        names = tuple(self.rows[0]) if fmt == "json" else self.columns
        return names, [[[row[name] for row in self.rows] for name in names]]

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
        row_count = write_table(handle, *report.table(fmt), fmt)
    sidecar_path = base + ".json"
    sidecar = json.dumps(report.sidecar(row_count), indent=1, sort_keys=True)
    atomic_write_text(sidecar_path, sidecar + "\n")
    return [data_path, sidecar_path]


def top_rank1s(world: RankQuery, label: str, k: int) -> np.ndarray:
    """Global ranks of the unit's k locally best papers, local order."""
    return world.top_rank1s(label, k)


def _units(ensemble: Ensemble, labels, k: int, tie_policy: str):
    """The ensemble's world, and a lazy (spec, top-k rank1s) per label.

    A unit is ranked only when the study reaches it, so the study's own
    checks on one unit fail before the next is ranked; and the rank query
    sees each label before its spec is read, so it refuses an unknown one.
    """
    world = build_world(list(ensemble.series), tie_policy=tie_policy)
    ranked = ((label, top_rank1s(world, label, k)) for label in labels)
    return world, ((ensemble.spec_by_label[label], ranks) for label, ranks in ranked)


def _join_ranks(ranks) -> str:
    return ";".join(str(int(r)) for r in ranks)


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
    _, units = _units(ensemble, labels, k, tie_policy)
    rows = []
    for spec, ranks in units:
        ratios = [(i + 1) / float(r) for i, r in enumerate(ranks)]
        gm = geometric_mean(ratios)
        for i, r in enumerate(ranks):
            rows.append(
                {
                    "label": spec.label,
                    "mu": spec.mu,
                    "n": spec.n,
                    "rank2": i + 1,
                    "rank1": int(r),
                    "ratio": ratios[i],
                    "gm_ratio": gm,
                }
            )
    params = _base_parameters(
        ensemble.config, tie_policy, sample_size=sample_size, k=k,
        selection="evenly spaced over grid order, endpoints included",
    )
    return ExperimentReport(
        experiment_id="tables1",
        parameters=params,
        columns=("label", "mu", "n", "rank2", "rank1", "ratio", "gm_ratio"),
        rows=rows,
    )


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
    world, units = _units(ensemble, select_99(ensemble), k, tie_policy)
    rows = []
    for spec, ranks in units:
        rows.append(
            {
                "label": spec.label,
                "mu": spec.mu,
                "n": spec.n,
                "gm_inv_rank1": rk_from_rank1s(ranks, offset=0.0, scale=1.0),
                "gm_inv_offset_rank1": rk_from_rank1s(ranks, offset=offset, scale=1.0),
                "rk": rk_from_rank1s(ranks, offset=offset, scale=scale),
                "ptop_10_analytic": analytic_ptop(spec, world, 10.0).value,
                "ptop_0.1_analytic": analytic_ptop(spec, world, 0.1).value,
                "rank1s": _join_ranks(ranks),
            }
        )
    params = _base_parameters(ensemble.config, tie_policy, k=k, offset=offset, scale=scale)
    return ExperimentReport(
        experiment_id="fig1",
        parameters=params,
        columns=(
            "label", "mu", "n", "gm_inv_rank1", "gm_inv_offset_rank1", "rk",
            "ptop_10_analytic", "ptop_0.1_analytic", "rank1s",
        ),
        rows=rows,
    )


def run_fig2(
    ensemble: Ensemble,
    k: int = 10,
    offset: float = 20.0,
    scale: float = 1000.0,
    tie_policy: str = ORDINAL,
) -> ExperimentReport:
    """Stringency tiers: the 99 selected series split 33/33/33 by
    descending rank index, with expected counts for several percentiles."""
    world, units = _units(ensemble, select_99(ensemble), k, tie_policy)
    entries = []
    for spec, ranks in units:
        entry = {
            "label": spec.label,
            "mu": spec.mu,
            "n": spec.n,
            "rk": rk_from_rank1s(ranks, offset=offset, scale=scale),
            "rank1s": _join_ranks(ranks),
        }
        for x in FIG2_PERCENTILES:
            entry[f"ptop_{x:g}"] = analytic_ptop(spec, world, x).value
        entries.append(entry)
    entries.sort(key=lambda e: (-e["rk"], e["label"]))
    third = len(entries) // 3
    for i, entry in enumerate(entries):
        entry["tier"] = "high" if i < third else ("medium" if i < 2 * third else "low")
    columns = ["label", "mu", "n", "tier", "rk"]
    columns += [f"ptop_{x:g}" for x in FIG2_PERCENTILES]
    columns.append("rank1s")
    params = _base_parameters(
        ensemble.config, tie_policy, k=k, offset=offset, scale=scale,
        percentiles=list(FIG2_PERCENTILES),
    )
    return ExperimentReport(
        experiment_id="fig2", parameters=params, columns=tuple(columns), rows=entries
    )


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
    world, units = _units(ensemble, chosen, k, tie_policy)
    rows = []
    for spec, ranks in units:
        row = {"label": spec.label, "mu": spec.mu, "n": spec.n}
        for x in xs:
            row[f"ptop_{x:g}"] = analytic_ptop(spec, world, x).value
        row["rk"] = rk_from_rank1s(ranks, offset=offset, scale=scale)
        rows.append(row)
    columns = ["label", "mu", "n"] + [f"ptop_{x:g}" for x in xs] + ["rk"]
    params = _base_parameters(
        ensemble.config, tie_policy, x=list(xs), labels=labels, k=k, offset=offset, scale=scale
    )
    return ExperimentReport("ptop", params, tuple(columns), rows)


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
    _, units = _units(ensemble, labels, k, tie_policy)
    rows = []
    for spec, ranks in units:
        rk = rk_from_rank1s(ranks, offset=offset, scale=scale)
        for rank2, rank1 in enumerate(ranks, start=1):
            rows.append(
                {
                    "label": spec.label,
                    "mu": spec.mu,
                    "n": spec.n,
                    "rank2": rank2,
                    "rank1": int(rank1),
                    "rk": rk,
                }
            )
    params = _base_parameters(
        ensemble.config, tie_policy, k=k, offset=offset, scale=scale,
        mu_targets=list(mu_targets), size_pair=list(size_pair),
        selection="two mu targets x two sizes, nearest grid mu",
    )
    return ExperimentReport(
        experiment_id="fig3",
        parameters=params,
        columns=("label", "mu", "n", "rank2", "rank1", "rk"),
        rows=rows,
    )


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
    world, units = _units(ensemble, ensemble.labels, k, tie_policy)
    rows = []
    for spec, ranks in units:
        rk = rk_from_rank1s(ranks, offset=offset, scale=scale)
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
                "rank1s": _join_ranks(ranks),
            }
        )
    params = _base_parameters(
        extended_config, tie_policy, k=k, offset=offset, scale=scale,
        equiv_range_01=list(EQUIV_RANGE_01), equiv_range_001=list(EQUIV_RANGE_001),
        note="combined-size series sampled directly at their mu",
    )
    return ExperimentReport(
        experiment_id="fig4",
        parameters=params,
        columns=(
            "label", "mu", "n", "rk", "ptop_0.1", "ptop_0.01",
            "rk_over_ptop_0.1", "rk_over_ptop_0.01", "in_equiv_0.1", "in_equiv_0.01", "rank1s",
        ),
        rows=rows,
    )
