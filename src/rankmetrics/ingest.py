"""Loading real paper-level citation records and producing assessment tables.

The corpus is a CSV export from any citation database: one row per
paper with its citation count already aggregated over the intended
citation window.  Window logic therefore lives in the sidecar metadata
and is validated, not computed.  The loader parses the rows into
columns (`Corpus`), with each paper's countries held as integer codes.
Assessment ranks every paper once against the full-corpus world list,
splits each country's papers into domestic (single-country affiliation)
and internationally collaborative sets, and bundles the indicators into
one row per country and split.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, not_utf8, read_text
from .indicators import DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE, RkResult, percentile_cutoff, rk_rows
# The corpus ranks without `build_world` and scores its units without
# `rk_from_rank1s`; both stay importable here because perfbench/spans.py
# wraps `ingest.build_world` and `ingest.rk_from_rank1s` by name and fails
# without them.
from .indicators import rk_from_rank1s  # noqa: F401
from .rankcore import ORDINAL, TIE_POLICIES, _competition_ranks, build_world  # noqa: F401

DOMESTIC = "domestic"
COLLABORATIVE = "collaborative"

CORPUS_COLUMNS = ("id", "year", "citations", "countries")
MAX_CITATIONS = 2**53
WINDOW_DISPLACEMENT_YEARS = 5

RK_OK = "ok"
RK_INSUFFICIENT = "insufficient_papers"


class CorpusFormatError(DataError):
    """The corpus file cannot be parsed at all (bad header, not CSV)."""


class UnknownCountryError(DataError):
    def __init__(self, country: str):
        super().__init__(f"country {country!r} does not appear in the corpus")


class EmptyCorpusError(DataError):
    pass


@dataclass(frozen=True)
class PaperRecord:
    id: str
    year: int
    citations: int
    countries: tuple[str, ...]
    field: str | None = None


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
        is a `CorpusFormatError`."""
        text = read_text(path)
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or too many digits or levels
            raise CorpusFormatError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CorpusFormatError(f"{path}: metadata must be a JSON object, got {type(data).__name__}")

        def window(key):
            value = data.get(key)
            if value is None:
                return None
            if not (
                isinstance(value, list) and len(value) == 2
                and all(type(year) is int for year in value) and value[0] <= value[1]
            ):
                raise CorpusFormatError(
                    f"{path}: {key} must be [first, last] integer years with first <= last, "
                    f"got {json.dumps(value)}"
                )
            return (value[0], value[1])

        def string(key):
            value = data.get(key, "")
            if not isinstance(value, str):
                raise CorpusFormatError(f"{path}: {key} must be a string, got {json.dumps(value)}")
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
class Corpus(Sequence):
    """A corpus held as columns, one entry per paper, in file order.

    Paper i's countries are the codes `indices[indptr[i]:indptr[i + 1]]`
    (compressed sparse rows) in the order its row first lists them, and
    `countries[code]` names a code.  Ids are unique, and a paper lists a
    country at most once.  As a sequence the corpus yields `PaperRecord`s,
    built on demand.
    """

    ids: list[str]
    years: list[int]
    citations: np.ndarray  # int64
    fields: list[str | None]
    countries: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_records(cls, records) -> "Corpus":
        """Columns of any sequence of `PaperRecord`s; a corpus is returned as is."""
        if isinstance(records, Corpus):
            return records
        ids = [r.id for r in records]
        if len(set(ids)) < len(ids):
            ordered = sorted(ids)
            duplicate = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise DataError(f"duplicate id {duplicate!r}")
        code_of, indptr, indices = {}, [0], []
        for r in records:
            # a record naming a country twice names it once, as a file row does
            for code in dict.fromkeys(r.countries):
                indices.append(code_of.setdefault(code, len(code_of)))
            indptr.append(len(indices))
        return cls(
            ids=ids,
            years=[r.year for r in records],
            citations=np.array([r.citations for r in records], dtype=np.int64),
            fields=[r.field for r in records],
            countries=tuple(code_of),
            indptr=np.array(indptr, dtype=np.int64),
            indices=np.array(indices, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        codes = self.indices[self.indptr[i]:self.indptr[i + 1]].tolist()
        return PaperRecord(
            id=self.ids[i], year=self.years[i], citations=int(self.citations[i]),
            countries=tuple(self.countries[c] for c in codes), field=self.fields[i],
        )

    def __iter__(self):
        codes = [self.countries[c] for c in self.indices.tolist()]
        bounds = self.indptr.tolist()
        columns = zip(self.ids, self.years, self.citations.tolist(), self.fields)
        for i, (paper_id, year, citations, field_tag) in enumerate(columns):
            countries = tuple(codes[bounds[i]:bounds[i + 1]])
            yield PaperRecord(paper_id, year, citations, countries, field_tag)

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
            raise EmptyCorpusError("corpus holds no records")
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
            raise UnknownCountryError(country) from None


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
    insufficient-papers marker for units below k papers).  `ranks` are
    the world ranks of the unit's papers, an ascending int64 array from
    which every indicator of the unit is read; rows compare without it."""

    country: str
    split: str
    p: int
    p0: int
    ptop10: int
    ptop10_over_p: float | None
    rk: RkResult | None
    rk_status: str
    ranks: np.ndarray = field(repr=False, compare=False)


def load_corpus(path, meta: CorpusMeta | None = None) -> CorpusLoadResult:
    """Read and validate a corpus CSV; malformed rows are collected, not fatal.

    Header must be ``id,year,citations,countries`` with an optional
    trailing ``field`` column; countries are semicolon-separated codes.
    Only an unusable header aborts the load.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            return _read_corpus(reader, path, meta)
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(not_utf8(path, exc)) from None
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_corpus(reader, path, meta: CorpusMeta | None) -> CorpusLoadResult:
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusFormatError(f"{path}: empty file") from None
    header = [h.strip().lower() for h in header]
    if tuple(header[:4]) != CORPUS_COLUMNS or len(header) > 5 or (
        len(header) == 5 and header[4] != "field"
    ):
        raise CorpusFormatError(
            f"{path}: header must be id,year,citations,countries[,field], got {header}"
        )
    has_field = len(header) == 5
    columns = len(header)
    window = meta.pub_window if meta is not None else None
    ids, years, citations, fields, indptr, indices = [], [], [], [], [0], []
    errors, seen = [], set()
    # Each distinct year, count and countries text is converted and checked
    # once.  Country codes are numbered as their cells are first parsed,
    # and renumbered by first use in an accepted row at the end.
    year_of, count_of, cell_codes, code_of = {}, {}, {}, {}
    end = reader.line_num
    for row in reader:
        # a row starts on the line after the last one the previous row spans
        line, end = end + 1, reader.line_num
        if not row:
            continue
        # The checks run in this order and the first failing one names the row.
        try:
            if len(row) != columns:
                raise ValueError(f"expected {columns} columns, got {len(row)}")
            paper_id = row[0].strip()
            if not paper_id:
                raise ValueError("empty id")
            year = year_of.get(row[1])
            if year is None:
                year = int(row[1])
                if window is not None and not window[0] <= year <= window[1]:
                    raise ValueError(f"year {year} outside publication window {window[0]}-{window[1]}")
                year_of[row[1]] = year
            count = count_of.get(row[2])
            if count is None:
                count = int(row[2])
                if count < 0:
                    raise ValueError(f"negative citation count {count}")
                if count > MAX_CITATIONS:
                    # counts rank as float64, exact only up to 2**53
                    raise ValueError(f"citation count above 2**53 ({MAX_CITATIONS})")
                count_of[row[2]] = count
            codes = cell_codes.get(row[3])
            if codes is None:
                names = dict.fromkeys(name.strip() for name in row[3].split(";"))
                names.pop("", None)
                codes = tuple(code_of.setdefault(name, len(code_of)) for name in names)
                cell_codes[row[3]] = codes
            if not codes:
                raise ValueError("empty country list")
            if paper_id in seen:
                raise ValueError(f"duplicate id {paper_id!r}")
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
            continue
        seen.add(paper_id)
        ids.append(paper_id)
        years.append(year)
        citations.append(count)
        if has_field:
            fields.append(row[4].strip() or None)
        indices.extend(codes)
        indptr.append(len(indices))
    # A rejected duplicate-id row may name a country first, or one that no
    # accepted row names: number the codes by first use in an accepted row.
    indices = np.array(indices, dtype=np.int64)
    first = np.full(len(code_of), indices.size)
    np.minimum.at(first, indices, np.arange(indices.size))
    order = np.argsort(first)[:np.count_nonzero(first < indices.size)]
    renumber = np.empty(len(code_of), dtype=np.int64)
    renumber[order] = np.arange(order.size)
    names = list(code_of)
    corpus = Corpus(
        ids=ids, years=years, citations=np.array(citations, dtype=np.int64),
        fields=fields if has_field else [None] * len(ids),
        countries=tuple(names[code] for code in order.tolist()),
        indptr=np.array(indptr, dtype=np.int64), indices=renumber[indices],
    )
    return CorpusLoadResult(records=corpus, errors=errors)


# `split_country` and `corpus_world_ranks` serve tests only, but
# perfbench/spans.py wraps both by name and fails if either is missing.
def split_country(records: Sequence[PaperRecord], country: str) -> CountrySplit:
    """Partition a country's papers: single-affiliation vs multinational.

    Papers not mentioning the country belong to neither list.
    """
    corpus = Corpus.from_records(records)
    paper, collaborative = corpus.incidence()
    mine = corpus.indices == corpus.code(country)
    papers, collaborative = paper[mine], collaborative[mine]
    ids = corpus.ids
    return CountrySplit(
        country=country,
        domestic=tuple(ids[i] for i in papers[~collaborative].tolist()),
        collaborative=tuple(ids[i] for i in papers[collaborative].tolist()),
    )


def corpus_world_ranks(records: Sequence[PaperRecord], tie_policy: str = ORDINAL) -> dict[str, int]:
    """Global rank per paper id over the whole corpus (`Corpus.world_ranks`)."""
    corpus = Corpus.from_records(records)
    return dict(zip(corpus.ids, corpus.world_ranks(tie_policy).tolist()))


def assess(
    records: Sequence[PaperRecord],
    countries: list[str],
    k: int = DEFAULT_K,
    offset: float = DEFAULT_OFFSET,
    scale: float = DEFAULT_SCALE,
    tie_policy: str = ORDINAL,
) -> list[AssessmentRow]:
    """Country/split assessment rows against the full-corpus world list.

    The world includes every paper regardless of split, so a country's
    domestic ranks still compete with everyone's collaborative papers.
    """
    corpus = Corpus.from_records(records)
    world_size = len(corpus)
    ranks = corpus.world_ranks(tie_policy)
    # One sorted key per (country, split, paper): the unit 2 * code +
    # collaborative, then the paper's rank, so each unit's ranks are one
    # ascending slice.
    paper, collaborative = corpus.incidence()
    stride = world_size + 1
    keys = np.sort((2 * corpus.indices + collaborative) * stride + ranks[paper])
    # Under both tie policies a cited paper holds a world rank <= cited
    # and an uncited one a rank > cited, so p0 counts ranks > cited.
    cited = int(np.count_nonzero(corpus.citations))
    units = []
    for country in countries:
        code = corpus.code(country)
        for unit, kind in enumerate((DOMESTIC, COLLABORATIVE), start=2 * code):
            lo, hi = np.searchsorted(keys, [unit * stride, (unit + 1) * stride]).tolist()
            units.append((country, kind, keys[lo:hi] - unit * stride))
    # the Rk of every unit of at least k papers, in one row-wise pass
    tops = [ranks[:k] for _, _, ranks in units if ranks.size >= k]
    rks = iter(rk_rows(np.array(tops, dtype=np.int64).reshape(len(tops), k),
                       offset=offset, scale=scale).tolist())
    rows = []
    for country, kind, ranks in units:
        p = ranks.size
        ptop10 = top_count(ranks, 10.0, world_size)
        if p >= k:
            rank1s = tuple(ranks[:k].tolist())
            rk = RkResult(
                label=f"{country}:{kind}", rk=next(rks),
                k=k, offset=offset, scale=scale, rank1s=rank1s,
            )
            status = RK_OK
        else:
            rk, status = None, RK_INSUFFICIENT
        rows.append(
            AssessmentRow(
                country=country,
                split=kind,
                p=p,
                p0=p - int(np.searchsorted(ranks, cited, side="right")),
                ptop10=ptop10,
                ptop10_over_p=(ptop10 / p) if p else None,
                rk=rk,
                rk_status=status,
                ranks=ranks,
            )
        )
    return rows


def top_count(ranks: np.ndarray, x: float, world_size: int) -> int:
    """Papers among ascending world `ranks` that hold a top-x% world rank."""
    return int(np.searchsorted(ranks, percentile_cutoff(x, world_size), side="right"))


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
