"""Loading real paper-level citation records and producing assessment tables.

The corpus is a CSV export from any citation database: one row per
paper with its citation count already aggregated over the intended
citation window.  Window logic therefore lives in the sidecar metadata
and is validated, not computed.  The loader parses the rows into
columns (`Corpus`), with each paper's countries held as integer codes.
Assessment splits each country's papers into domestic (single-country
affiliation) and internationally collaborative sets, ranks them in one
world of every paper (`rankcore.build_paper_world`, the kernel the
synthetic studies rank with), and bundles the indicators into one row
per country and split.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .base import (
    COLLABORATIVE, DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE, DOMESTIC, ORDINAL, TIE_POLICIES,
)
from .errors import DataError, not_utf8, read_text
from .indicators import RkResult, percentile_cutoff, rk_rows
# The corpus ranks through `build_paper_world`, not `build_world`, and
# scores its units with `rk_rows`, not `rk_from_rank1s`; both stay
# importable here because perfbench/spans.py wraps `ingest.build_world`
# and `ingest.rk_from_rank1s` by name and fails without them.
from .indicators import rk_from_rank1s  # noqa: F401
from .rankcore import _competition_ranks, build_paper_world, build_world  # noqa: F401

CORPUS_COLUMNS = ("id", "year", "citations", "countries")
MAX_CITATIONS = 2**53
WINDOW_DISPLACEMENT_YEARS = 5

RK_OK = "ok"
RK_INSUFFICIENT = "insufficient_papers"


@dataclass(frozen=True)
class CorpusMeta:
    """Field and window metadata accompanying a corpus file."""

    field: str = ""
    pub_window: tuple[int, int] | None = None
    cit_window: tuple[int, int] | None = None
    source: str = ""

    def validate(self) -> None:
        """Warn when the citation window is not displaced five years from
        the publication window; other conventions are allowed but flagged."""
        if self.pub_window and self.cit_window:
            if self.cit_window[0] != self.pub_window[0] + WINDOW_DISPLACEMENT_YEARS:
                warnings.warn(
                    f"citation window {self.cit_window} is not displaced "
                    f"{WINDOW_DISPLACEMENT_YEARS} years from publication window {self.pub_window}",
                    stacklevel=2,
                )

    @classmethod
    def from_json(cls, path) -> "CorpusMeta":
        """Read a sidecar; a window is a JSON list of two integer years,
        first <= last, `field` and `source` are strings, and anything else
        is a `DataError`."""
        text = read_text(path)
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or too many digits or levels
            raise DataError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DataError(f"{path}: metadata must be a JSON object, got {type(data).__name__}")

        def window(key):
            value = data.get(key)
            if value is None:
                return None
            if not (
                isinstance(value, list) and len(value) == 2
                and all(type(year) is int for year in value) and value[0] <= value[1]
            ):
                raise DataError(
                    f"{path}: {key} must be [first, last] integer years with first <= last, "
                    f"got {json.dumps(value)}"
                )
            return (value[0], value[1])

        def string(key):
            value = data.get(key, "")
            if not isinstance(value, str):
                raise DataError(f"{path}: {key} must be a string, got {json.dumps(value)}")
            return value

        meta = cls(
            pub_window=window("pub_window"),
            cit_window=window("cit_window"),
            field=string("field"),
            source=string("source"),
        )
        meta.validate()
        return meta


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus held as columns, one entry per paper, in file order.

    Paper i's countries are the codes `indices[indptr[i]:indptr[i + 1]]`
    (compressed sparse rows) in the order its row first lists them, and
    `countries[code]` names a code.  Ids are unique, and a paper lists a
    country at most once.
    """

    ids: list[str]
    citations: np.ndarray  # int64
    countries: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def world_ranks(self, tie_policy: str = ORDINAL) -> np.ndarray:
        """Each paper's world rank, in row order.

        Papers rank by citations descending.  Under the ordinal policy
        ties are broken by id, so ranks do not depend on file row order,
        and a paper's rank is its position in (-citations, id) order.
        Under the competition policy tied papers share their block's
        smallest rank, so ids play no part.
        """
        if tie_policy not in TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
        n = len(self)
        if not n:
            raise DataError("corpus holds no records")
        ranks = np.empty(n, dtype=np.int64)
        if tie_policy == ORDINAL:
            id_order = np.empty(n, dtype=np.int64)
            id_order[sorted(range(n), key=self.ids.__getitem__)] = np.arange(n)
            # one int64 key per paper, (dense citation rank, id order): below n**2
            _, dense = np.unique(-self.citations, return_inverse=True)
            ranks[np.argsort(dense * n + id_order)] = np.arange(1, n + 1)
        else:
            order = np.argsort(-self.citations, kind="stable")
            ranks[order] = _competition_ranks(self.citations[order])
        return ranks

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """For each entry of `indices`: its paper, and whether that paper
        is collaborative (its row lists more than one country)."""
        degree = np.diff(self.indptr)
        paper = np.repeat(np.arange(len(self)), degree)
        return paper, degree[paper] > 1

    def code(self, country: str) -> int:
        """The integer code of `country`; no paper lists an unknown one."""
        try:
            return self.countries.index(country)
        except ValueError:
            raise DataError(f"country {country!r} does not appear in the corpus") from None


@dataclass
class RowError:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


@dataclass
class CorpusLoadResult:
    records: Corpus
    errors: list[RowError]


@dataclass(frozen=True)
class CountrySplit:
    """A country's papers partitioned into domestic and collaborative ids."""

    country: str
    domestic: tuple[str, ...]
    collaborative: tuple[str, ...]


@dataclass(frozen=True)
class AssessmentRow:
    """Indicator bundle for one country and split: paper count, uncited
    count, top-10% count and share, and the rank index (or an explicit
    insufficient-papers marker for units below k papers).  `top_counts`
    maps each top-x% that `assess` was asked for, 10 always among them,
    to the unit's papers holding a world rank <= floor(x/100 * W)."""

    country: str
    split: str
    p: int
    p0: int
    ptop10: int
    ptop10_over_p: float | None
    rk: RkResult | None
    rk_status: str
    top_counts: dict[float, int]


def load_corpus(path, meta: CorpusMeta | None = None) -> CorpusLoadResult:
    """Read and validate a corpus CSV; malformed rows are collected, not fatal.

    Header must be ``id,year,citations,countries`` with an optional
    trailing ``field`` column; countries are semicolon-separated codes.
    Each year is checked against the publication window, and neither the
    year nor the field is kept.  Only an unusable header aborts the load.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            return _read_corpus(reader, path, meta)
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(path, exc)) from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_corpus(reader, path, meta: CorpusMeta | None) -> CorpusLoadResult:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip().lower() for h in header]
    if tuple(header[:4]) != CORPUS_COLUMNS or len(header) > 5 or (
        len(header) == 5 and header[4] != "field"
    ):
        raise DataError(f"{path}: header must be id,year,citations,countries[,field], got {header}")
    columns = len(header)
    window = meta.pub_window if meta is not None else None
    ids, citations, indptr, indices = [], [], [0], []
    errors, seen = [], set()
    # Each distinct year text is checked once, and each distinct count and
    # countries text converted and checked once; a year is not kept.
    good_years, count_of, cell_codes, code_of = set(), {}, {}, {}
    for row in reader:
        if not row:
            continue
        # The checks run in this order and the first failing one names the
        # row.  The countries cell comes last, so a cell that names a
        # country is first parsed in an accepted row: codes numbered as
        # cells are first parsed number countries by first use.
        try:
            if len(row) != columns:
                raise ValueError(f"expected {columns} columns, got {len(row)}")
            paper_id = row[0].strip()
            if not paper_id:
                raise ValueError("empty id")
            if row[1] not in good_years:
                year = int(row[1])
                if window is not None and not window[0] <= year <= window[1]:
                    raise ValueError(f"year {year} outside publication window {window[0]}-{window[1]}")
                good_years.add(row[1])
            count = count_of.get(row[2])
            if count is None:
                count = int(row[2])
                if count < 0:
                    raise ValueError(f"negative citation count {count}")
                if count > MAX_CITATIONS:
                    # counts rank as float64, exact only up to 2**53
                    raise ValueError(f"citation count above 2**53 ({MAX_CITATIONS})")
                count_of[row[2]] = count
            if paper_id in seen:
                raise ValueError(f"duplicate id {paper_id!r}")
            codes = cell_codes.get(row[3])
            if codes is None:
                names = dict.fromkeys(name.strip() for name in row[3].split(";"))
                names.pop("", None)
                codes = tuple(code_of.setdefault(name, len(code_of)) for name in names)
                cell_codes[row[3]] = codes
            if not codes:
                raise ValueError("empty country list")
        except ValueError as exc:
            errors.append(RowError(line=_first_line(reader, row), message=str(exc)))
            continue
        seen.add(paper_id)
        ids.append(paper_id)
        citations.append(count)
        indices.extend(codes)
        indptr.append(len(indices))
    corpus = Corpus(
        ids=ids, citations=np.array(citations, dtype=np.int64), countries=tuple(code_of),
        indptr=np.array(indptr, dtype=np.int64), indices=np.array(indices, dtype=np.int64),
    )
    return CorpusLoadResult(records=corpus, errors=errors)


def _first_line(reader, row: list[str]) -> int:
    """The line the row just read starts on.  The reader has counted the
    row's last line, and a row spans more than one line only through line
    breaks inside its quoted fields; `\\r\\n`, a lone `\\r` and a lone
    `\\n` each end one line."""
    breaks = sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)
    return reader.line_num - breaks


# `split_country` and `corpus_world_ranks` serve tests only, but
# perfbench/spans.py wraps both by name and fails if either is missing.
def split_country(corpus: Corpus, country: str) -> CountrySplit:
    """Partition a country's papers: single-affiliation vs multinational.

    Papers not mentioning the country belong to neither list.
    """
    paper, collaborative = corpus.incidence()
    mine = corpus.indices == corpus.code(country)
    papers, collaborative = paper[mine], collaborative[mine]
    ids = corpus.ids
    return CountrySplit(
        country=country,
        domestic=tuple(ids[i] for i in papers[~collaborative].tolist()),
        collaborative=tuple(ids[i] for i in papers[collaborative].tolist()),
    )


def corpus_world_ranks(corpus: Corpus, tie_policy: str = ORDINAL) -> dict[str, int]:
    """Global rank per paper id over the whole corpus (`Corpus.world_ranks`)."""
    return dict(zip(corpus.ids, corpus.world_ranks(tie_policy).tolist()))


def assess(
    corpus: Corpus,
    countries: list[str],
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
    xs: tuple[float, ...] = (),
) -> list[AssessmentRow]:
    """Country/split assessment rows against the full-corpus world list.

    The world includes every paper regardless of split, so a country's
    domestic ranks still compete with everyone's collaborative papers.
    Each row counts its papers in the top 10% and in the top x% of every
    x in `xs`.  Every number of a row comes from one `RankQuery` over the
    corpus (`build_paper_world`), whose units are the country/split paper
    lists: p; p0, p less the count at the last cited rank, since a cited
    paper outranks every uncited one; the k best world ranks; the count at
    each cutoff rank.  Under `ordinal` ids are ordered only in the tie
    blocks holding a unit's top k and in a block a cutoff splits.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
    world_size = len(corpus)
    if not world_size:
        raise DataError("corpus holds no records")
    # One sorted key per (country, split, paper), unit 2 * code +
    # collaborative first, so each unit's papers are one slice.  The keys
    # are built and sorted in place: 10 MB an array at a million papers.
    paper, collaborative = corpus.incidence()
    keys = (2 * corpus.indices + collaborative) * world_size
    keys += paper
    keys.sort()
    kinds = (DOMESTIC, COLLABORATIVE)
    labels = [f"{country}:{kind}" for country in corpus.countries for kind in kinds]
    indptr = np.searchsorted(keys, np.arange(len(labels) + 1) * world_size)
    keys %= world_size
    world = build_paper_world(corpus.citations, corpus.ids, labels, indptr, keys, tie_policy)
    units = []
    for country in countries:
        corpus.code(country)  # refuses a country no paper lists
        units.extend((country, kind, f"{country}:{kind}") for kind in kinds)
    cited = int(np.count_nonzero(corpus.citations))
    cutoffs = {x: percentile_cutoff(x, world_size) for x in (10.0, *xs)}
    # the Rk of every unit of at least k papers, in one query and one row-wise pass
    full = [label for _, _, label in units if world.unit_values(label).size >= k]
    tops, rks = [], []
    if full:
        ranks = world.top_rank1s_many(full, k)
        tops, rks = ranks.tolist(), rk_rows(ranks, offset=offset, scale=scale).tolist()
    tops, rks = iter(tops), iter(rks)
    rows = []
    for country, kind, label in units:
        p = world.unit_values(label).size
        top_counts = {x: world.count(label, cutoff) for x, cutoff in cutoffs.items()}
        if p >= k:
            rk = RkResult(label=label, rk=next(rks), k=k, offset=offset, scale=scale,
                          rank1s=tuple(next(tops)))
            status = RK_OK
        else:
            rk, status = None, RK_INSUFFICIENT
        ptop10 = top_counts[10.0]
        rows.append(
            AssessmentRow(
                country=country,
                split=kind,
                p=p,
                p0=p - world.count(label, cited),
                ptop10=ptop10,
                ptop10_over_p=(ptop10 / p) if p else None,
                rk=rk,
                rk_status=status,
                top_counts=top_counts,
            )
        )
    return rows


def assessment_table(rows: list[AssessmentRow]) -> list[dict]:
    """Flatten assessment rows for CSV/JSON emission."""
    out = []
    for row in rows:
        out.append(
            {
                "country": row.country,
                "split": row.split,
                "p": row.p,
                "p0": row.p0,
                "ptop10": row.ptop10,
                "ptop10_over_p": "" if row.ptop10_over_p is None else row.ptop10_over_p,
                "rk": "" if row.rk is None else row.rk.rk,
                "rk_status": row.rk_status,
            }
        )
    return out
