"""Independent checks of every file a benchmarked command writes.

Nothing here calls rankmetrics.  Synthetic worlds are redrawn from
PCG64(SeedSequence((seed, stream))) with the grid written out by hand;
world ranks come from one np.sort plus searchsorted; indicators are
recomputed from their formulas.  Corpus indicators are a vectorised
brute-force count over the generator's own arrays.  Each check returns
a list of mismatch descriptions; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import glob
import math
import os
from fractions import Fraction

import numpy as np

from corpus import reject_cause
from workloads import EXTENDED115, PTOP_X, SIGMA, WORLD600

K, OFFSET, SCALE = 10, 20.0, 1000.0
REL_TOL = 1e-12
FIG2_X = (10.0, 3.0, 1.0, 0.5, 0.1)
RANK_SAMPLE = 2000


def label_of(stream: int) -> str:
    """Grid label of a stream below 676: aa, ab, ..., zz."""
    return chr(97 + stream // 26) + chr(97 + stream % 26)


class World:
    """A redrawn synthetic world: per-unit values plus the sorted union."""

    def __init__(self, grid: dict, seed: int):
        sizes = grid["sizes"]
        self.labels, self.mu, self.n, self.values = [], [], [], []
        for i, mu in enumerate(np.linspace(grid["mu_start"], grid["mu_end"], grid["mu_count"])):
            for j, n in enumerate(sizes):
                stream = i * len(sizes) + j
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))
                self.labels.append(label_of(stream))
                self.mu.append(float(mu))
                self.n.append(n)
                self.values.append(np.exp(mu + SIGMA * rng.standard_normal(n)))
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.ascending = np.sort(np.concatenate(self.values))
        self.size = self.ascending.size

    def rank_bounds(self, values):
        """(1 + papers valued higher, papers valued at least as high) per value."""
        lo = self.size - np.searchsorted(self.ascending, values, side="right") + 1
        hi = self.size - np.searchsorted(self.ascending, values, side="left")
        return lo, hi

    def top_rank1s(self, label: str) -> np.ndarray:
        top = np.sort(self.values[self.index[label]])[::-1][:K]
        lo, hi = self.rank_bounds(top)
        if np.any(lo != hi):
            raise ValueError(f"tied values in the top-{K} of {label}; ordinal ranks are ambiguous")
        return lo

    def value_at_rank(self, rank: int) -> float:
        return float(self.ascending[self.size - rank])

    def analytic_ptop(self, label: str, x: float) -> float:
        i = self.index[label]
        threshold = self.value_at_rank(cutoff(x, self.size))
        return self.n[i] * 0.5 * math.erfc((math.log(threshold) - self.mu[i]) / (SIGMA * math.sqrt(2.0)))


def cutoff(x: float, size: int) -> int:
    """floor(x% of size) in exact arithmetic."""
    return math.floor(Fraction(repr(x)) * size / 100)


def gm_inv(ranks, offset: float = 0.0) -> float:
    return math.exp(-math.fsum(math.log(offset + float(r)) for r in ranks) / len(ranks))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def only_file(out_dir: str, pattern: str) -> str:
    found = glob.glob(os.path.join(out_dir, pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def close(got: str, want: float) -> bool:
    return abs(float(got) - want) <= REL_TOL * abs(want)


def compare(rows: list[dict], expected: list[dict], what: str) -> list[str]:
    """Cell-by-cell comparison; floats in `expected` compare to REL_TOL."""
    if len(rows) != len(expected):
        return [f"{what}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for number, (row, want) in enumerate(zip(rows, expected), start=1):
        for column, value in want.items():
            got = row.get(column)
            if got is None:
                problems.append(f"{what}: column {column} missing")
                return problems
            if isinstance(value, bool):
                ok = got == ("true" if value else "false")
            elif isinstance(value, float):
                ok = close(got, value)
            else:
                ok = got == str(value)
            if not ok:
                problems.append(f"{what} row {number} {column}: got {got}, expected {value}")
                if len(problems) >= 5:
                    return problems
    return problems


def _unit_row(world: World, label: str) -> dict:
    i = world.index[label]
    return {"label": label, "mu": world.mu[i], "n": world.n[i]}


def _ranks_cell(ranks) -> str:
    return ";".join(str(int(r)) for r in ranks)


def select_99(grid: dict) -> list[str]:
    picks = np.round(np.linspace(0, grid["mu_count"] - 1, 33)).astype(int)
    return [label_of(s) for i in picks for s in (3 * i, 3 * i + 1, 3 * i + 2)]


def expect_fig1(world: World) -> list[dict]:
    rows = []
    for label in select_99(WORLD600):
        ranks = world.top_rank1s(label)
        rows.append(dict(
            _unit_row(world, label),
            gm_inv_rank1=gm_inv(ranks), gm_inv_offset_rank1=gm_inv(ranks, OFFSET),
            rk=SCALE * gm_inv(ranks, OFFSET),
            ptop_10_analytic=world.analytic_ptop(label, 10.0),
            **{"ptop_0.1_analytic": world.analytic_ptop(label, 0.1)},
            rank1s=_ranks_cell(ranks),
        ))
    return rows


def expect_fig2(world: World) -> list[dict]:
    rows = []
    for label in select_99(WORLD600):
        ranks = world.top_rank1s(label)
        row = dict(_unit_row(world, label), rk=SCALE * gm_inv(ranks, OFFSET), rank1s=_ranks_cell(ranks))
        for x in FIG2_X:
            row[f"ptop_{x:g}"] = world.analytic_ptop(label, x)
        rows.append(row)
    rows.sort(key=lambda r: (-r["rk"], r["label"]))
    for i, row in enumerate(rows):
        row["tier"] = "high" if i < 33 else ("medium" if i < 66 else "low")
    return rows


def expect_fig3(world: World) -> list[dict]:
    mus = np.linspace(WORLD600["mu_start"], WORLD600["mu_end"], WORLD600["mu_count"])
    rows = []
    for target in (3.63, 3.03):
        mu_index = int(np.argmin(np.abs(mus - target)))
        for size_index in (0, 2):  # sizes 800 and 200
            label = label_of(3 * mu_index + size_index)
            ranks = world.top_rank1s(label)
            rk = SCALE * gm_inv(ranks, OFFSET)
            for rank2, rank1 in enumerate(ranks, start=1):
                rows.append(dict(_unit_row(world, label), rank2=rank2, rank1=int(rank1), rk=rk))
    return rows


def expect_tables1(world: World) -> list[dict]:
    step = (len(world.labels) - 1) / 14
    rows = []
    for position in (round(i * step) for i in range(15)):
        label = world.labels[position]
        ranks = world.top_rank1s(label)
        ratios = [rank2 / float(r) for rank2, r in enumerate(ranks, start=1)]
        gm = math.exp(math.fsum(math.log(q) for q in ratios) / len(ratios))
        for rank2, (rank1, ratio) in enumerate(zip(ranks, ratios), start=1):
            rows.append(dict(_unit_row(world, label), rank2=rank2, rank1=int(rank1),
                             ratio=ratio, gm_ratio=gm))
    return rows


def expect_fig4(world: World) -> list[dict]:
    rows = []
    for label in world.labels:
        ranks = world.top_rank1s(label)
        rk = SCALE * gm_inv(ranks, OFFSET)
        p01, p001 = world.analytic_ptop(label, 0.1), world.analytic_ptop(label, 0.01)
        rows.append(dict(
            _unit_row(world, label), rk=rk,
            **{"ptop_0.1": p01, "ptop_0.01": p001, "rk_over_ptop_0.1": rk / p01,
               "rk_over_ptop_0.01": rk / p001, "in_equiv_0.1": 0.5 <= rk <= 39.5,
               "in_equiv_0.01": 1.0 <= rk <= 39.5},
            rank1s=_ranks_cell(ranks),
        ))
    return rows


STUDIES = {"fig1": expect_fig1, "fig2": expect_fig2, "fig3": expect_fig3,
           "tables1": expect_tables1, "fig4": expect_fig4}


def check_study(kind: str, seed: int, out_dir: str) -> list[str]:
    world = World(EXTENDED115 if kind == "fig4" else WORLD600, seed)
    rows = read_csv(only_file(out_dir, f"{kind}_*.csv"))
    return compare(rows, STUDIES[kind](world), kind)


def _split_columns(path: str, columns: int) -> list[list[str]]:
    """Columns of a comma-separated file without quoting, header dropped."""
    with open(path) as handle:
        body = handle.read().split("\n", 1)[1]
    rows = body.count("\n")
    cells = body.replace("\n", ",").split(",")[:-1]
    if len(cells) != rows * columns or not body.endswith("\n"):
        raise ValueError(f"{os.path.basename(path)}: rows do not all have {columns} cells")
    return [cells[i::columns] for i in range(columns)]


def check_gen(seed: int, out_dir: str) -> list[str]:
    world = World(WORLD600, seed)
    problems = []
    labels, values = _split_columns(only_file(out_dir, "ensemble_*_values.csv"), 2)
    want_labels = np.repeat(world.labels, world.n)
    if len(labels) != world.size:
        return [f"gen values: {len(labels)} rows, expected {world.size}"]
    if not np.array_equal(np.array(labels), want_labels):
        problems.append("gen values: label column differs from the grid order")
    if not np.array_equal(np.array(values, dtype=np.float64), np.concatenate(world.values)):
        problems.append("gen values: sampled values differ from independent PCG64 draws")
    specs = read_csv(only_file(out_dir, "ensemble_*_specs.csv"))
    want = [dict(label=label, mu=mu, sigma=SIGMA, n=n)
            for label, mu, n in zip(world.labels, world.mu, world.n)]
    return problems + compare(specs, want, "gen specs")


def check_rank(seed: int, out_dir: str) -> list[str]:
    """Competition-policy dual-rank export of world600."""
    world = World(WORLD600, seed)
    labels, rank2, rank1, values = _split_columns(only_file(out_dir, "rank_*.csv"), 4)
    if len(labels) != world.size:
        return [f"rank: {len(labels)} rows, expected {world.size}"]
    labels = np.array(labels)
    rank2 = np.array(rank2, dtype=np.int64)
    rank1 = np.array(rank1, dtype=np.int64)
    problems = []
    if np.any(rank1 < rank2):
        problems.append(f"rank: {int(np.count_nonzero(rank1 < rank2))} rows with rank1 < rank2")
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    ends = np.r_[starts[1:], labels.size]
    if sorted(labels[starts].tolist()) != sorted(world.labels) or starts.size != len(world.labels):
        return problems + ["rank: labels are not one contiguous block per unit"]
    for lo, hi in zip(starts, ends):
        n = world.n[world.index[labels[lo]]]
        if hi - lo != n or not np.array_equal(rank2[lo:hi], np.arange(1, n + 1)):
            problems.append(f"rank: unit {labels[lo]} does not have rank2 values 1..{n}")
            break
    sample = np.random.Generator(np.random.PCG64(seed)).choice(labels.size, RANK_SAMPLE, replace=False)
    for row in np.sort(sample):
        label = labels[row]
        local = np.sort(world.values[world.index[label]])[::-1]
        value = local[rank2[row] - 1]
        expect1 = world.rank_bounds(np.array([value]))[0][0]  # competition rank = min rank
        if float(values[row]) != value or rank1[row] != expect1:
            problems.append(f"rank row {row + 2}: ({label}, {rank2[row]}, {rank1[row]}, {values[row]})"
                            f" vs oracle ({expect1}, {value!r})")
            if len(problems) >= 5:
                break
    return problems


class CorpusOracle:
    """Brute-force corpus indicators from the generator's arrays."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.size = corpus.citations.size
        cites = corpus.citations
        # Ordinal: citations descending, ties by id ascending (ids are zero-padded,
        # so numeric order is string order).
        order = np.lexsort((corpus.ids, -cites))
        self.ordinal = np.empty(self.size, dtype=np.int64)
        self.ordinal[order] = np.arange(1, self.size + 1)
        # Competition: one plus the number of papers cited more.
        self.competition = self.size - np.searchsorted(np.sort(cites), cites, side="right") + 1

    def members(self, code: int, split: str) -> np.ndarray:
        c = self.corpus
        if split == "domestic":
            return (c.first == code) & (c.second < 0)
        return ((c.first == code) | (c.second == code)) & (c.second >= 0)

    def indicators(self, code: int, split: str, ranks: np.ndarray, xs) -> dict:
        mask = self.members(code, split)
        mine = np.sort(ranks[mask])
        out = {"p": int(mask.sum()), "p0": int(np.count_nonzero(self.corpus.citations[mask] == 0))}
        for x in xs:
            out[x] = int(np.count_nonzero(mine <= cutoff(x, self.size)))
        out["rk"] = SCALE * gm_inv(mine[:K], OFFSET) if mine.size >= K else None
        return out

    def check_rejects(self, stderr: str) -> list[str]:
        got = []
        for line in stderr.splitlines():
            _, sep, message = line.partition(": line ")
            if sep:
                number, _, message = message.partition(": ")
                got.append((int(number), reject_cause(message)))
        want = [tuple(p) for p in self.corpus.planted]
        if got != want:
            missing = sorted(set(want) - set(got))[:3]
            extra = sorted(set(got) - set(want))[:3]
            return [f"rejected rows differ from planted rows: missing {missing}, unexpected {extra}"]
        return []

    def check_assess(self, out_dir: str, stderr: str) -> list[str]:
        expected = []
        for code, country in enumerate(self.corpus.countries):
            for split in ("domestic", "collaborative"):
                ind = self.indicators(code, split, self.ordinal, (10.0,))
                expected.append({
                    "country": country, "split": split, "p": ind["p"], "p0": ind["p0"],
                    "ptop10": ind[10.0], "ptop10_over_p": ind[10.0] / ind["p"] if ind["p"] else "",
                    "rk": "" if ind["rk"] is None else ind["rk"],
                    "rk_status": "insufficient_papers" if ind["rk"] is None else "ok",
                })
        rows = read_csv(only_file(out_dir, "assess_*.csv"))
        return self.check_rejects(stderr) + compare(rows, expected, "assess")

    def check_ptop(self, out_dir: str, stderr: str) -> list[str]:
        xs = [float(x) for x in PTOP_X.split(",")]
        ind = self.indicators(0, "collaborative", self.competition, xs)
        want = {"label": f"{self.corpus.countries[0]}:collaborative", "p": ind["p"], "p0": ind["p0"]}
        want.update({f"ptop_{x:g}": ind[x] for x in xs})
        want["rk"] = "" if ind["rk"] is None else ind["rk"]
        rows = read_csv(only_file(out_dir, "ptop_*.csv"))
        return self.check_rejects(stderr) + compare(rows, [want], "ptop")


def check(kind: str, seed: int, out_dir: str, stderr: str, corpus_oracle=None) -> list[str]:
    """Mismatches of one command's output; an oracle exception counts as one."""
    try:
        if kind in STUDIES:
            return check_study(kind, seed, out_dir)
        if kind == "gen":
            return check_gen(seed, out_dir)
        if kind == "rank":
            return check_rank(seed, out_dir)
        if kind == "assess":
            return corpus_oracle.check_assess(out_dir, stderr)
        return corpus_oracle.check_ptop(out_dir, stderr)
    except Exception as exc:  # a malformed output is a failed command, not a failed run
        return [f"{kind}: output could not be checked: {type(exc).__name__}: {exc}"]
