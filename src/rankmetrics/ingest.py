"""Loading real paper-level citation records and producing assessment tables.

The corpus is a CSV export from any citation database: one row per
paper with its citation count already aggregated over the intended
citation window.  Window logic therefore lives in the sidecar metadata
and is validated, not computed.  Assessment splits each country's
papers into domestic (single-country affiliation) and internationally
collaborative sets, ranks everything against the full-corpus world
list, and bundles the indicators into one row per country and split.
"""

from __future__ import annotations

import csv
import json
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .indicators import DEFAULT_K, DEFAULT_OFFSET, DEFAULT_SCALE, RkResult, percentile_cutoff, rk_from_rank1s
from .rankcore import ORDINAL, build_world
from .synthdist import REAL, CitationSeries

DOMESTIC = "domestic"
COLLABORATIVE = "collaborative"

CORPUS_COLUMNS = ("id", "year", "citations", "countries")
WINDOW_DISPLACEMENT_YEARS = 5

RK_OK = "ok"
RK_INSUFFICIENT = "insufficient_papers"


class CorpusFormatError(ValueError):
    """The corpus file cannot be parsed at all (bad header, not CSV)."""


class UnknownCountryError(KeyError):
    def __str__(self):
        return f"country {self.args[0]!r} does not appear in the corpus"


class EmptyCorpusError(ValueError):
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
        data = json.loads(Path(path).read_text())
        def window(key):
            if key not in data or data[key] is None:
                return None
            y1, y2 = data[key]
            return (int(y1), int(y2))
        meta = cls(
            field=data.get("field", ""),
            pub_window=window("pub_window"),
            cit_window=window("cit_window"),
            source=data.get("source", ""),
        )
        meta.validate()
        return meta


@dataclass
class RowError:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


@dataclass
class CorpusLoadResult:
    records: list[PaperRecord]
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
    the world ranks of the unit's papers, ascending, from which every
    indicator of the unit is read."""

    country: str
    split: str
    p: int
    p0: int
    ptop10: int
    ptop10_over_p: float | None
    rk: RkResult | None
    rk_status: str
    ranks: tuple[int, ...] = field(repr=False)


def _parse_row(row: list[str], line: int, has_field: bool, meta: CorpusMeta | None):
    expected = 5 if has_field else 4
    if len(row) != expected:
        raise ValueError(f"expected {expected} columns, got {len(row)}")
    paper_id = row[0].strip()
    if not paper_id:
        raise ValueError("empty id")
    year = int(row[1])
    if meta is not None and meta.pub_window is not None:
        lo, hi = meta.pub_window
        if not lo <= year <= hi:
            raise ValueError(f"year {year} outside publication window {lo}-{hi}")
    citations = int(row[2])
    if citations < 0:
        raise ValueError(f"negative citation count {citations}")
    countries = []
    for code in row[3].split(";"):
        code = code.strip()
        if code and code not in countries:
            countries.append(code)
    if not countries:
        raise ValueError("empty country list")
    field_tag = row[4].strip() if has_field else None
    return PaperRecord(
        id=paper_id, year=year, citations=citations,
        countries=tuple(countries), field=field_tag or None,
    )


def load_corpus(path, meta: CorpusMeta | None = None) -> CorpusLoadResult:
    """Read and validate a corpus CSV; malformed rows are collected, not fatal.

    Header must be ``id,year,citations,countries`` with an optional
    trailing ``field`` column; countries are semicolon-separated codes.
    Only an unusable header aborts the load.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return _read_corpus(csv.reader(handle), path, meta)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _read_corpus(reader, path, meta: CorpusMeta | None) -> CorpusLoadResult:
    records, errors, seen = [], [], set()
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
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            record = _parse_row(row, line, has_field, meta)
            if record.id in seen:
                raise ValueError(f"duplicate id {record.id!r}")
            seen.add(record.id)
            records.append(record)
        except ValueError as exc:
            errors.append(RowError(line=line, message=str(exc)))
    return CorpusLoadResult(records=records, errors=errors)


def _not_utf8(path, exc: UnicodeDecodeError) -> CorpusFormatError:
    """Name the first line that is not UTF-8; decoding runs ahead of the
    csv reader in blocks, so the error itself does not locate the line."""
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return CorpusFormatError(f"{path}: line {line} is not valid UTF-8 ({exc.reason})")


def split_country(records: list[PaperRecord], country: str) -> CountrySplit:
    """Partition a country's papers: single-affiliation vs multinational.

    Papers not mentioning the country belong to neither list.
    """
    domestic, collaborative = [], []
    for record in records:
        if country not in record.countries:
            continue
        if len(record.countries) == 1:
            domestic.append(record.id)
        else:
            collaborative.append(record.id)
    if not domestic and not collaborative:
        raise UnknownCountryError(country)
    return CountrySplit(
        country=country, domestic=tuple(domestic), collaborative=tuple(collaborative)
    )


def corpus_world_ranks(records: list[PaperRecord], tie_policy: str = ORDINAL) -> dict[str, int]:
    """Global rank per paper id over the whole corpus.

    Ties are broken by id under the ordinal policy, so ranks do not
    depend on file row order or on how other papers are labeled.
    """
    if not records:
        raise EmptyCorpusError("corpus holds no records")
    series = CitationSeries(
        label="corpus",
        values=[float(r.citations) for r in records],
        origin=REAL,
        keys=[r.id for r in records],
    )
    world = build_world([series], tie_policy=tie_policy)
    return {key: int(rank) for key, rank in zip(world.keys, world.rank1)}


def assess(
    records: list[PaperRecord],
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
    rank_of = corpus_world_ranks(records, tie_policy=tie_policy)
    # Under both tie policies a cited paper holds a world rank <= cited
    # and an uncited one a rank > cited, so p0 counts ranks > cited.
    cited = sum(1 for r in records if r.citations > 0)
    rows = []
    for country in countries:
        split = split_country(records, country)
        for kind, ids in ((DOMESTIC, split.domestic), (COLLABORATIVE, split.collaborative)):
            ranks = tuple(sorted(rank_of[i] for i in ids))
            p = len(ranks)
            ptop10 = top_count(ranks, 10.0, len(records))
            if p >= k:
                rank1s = ranks[:k]
                rk = RkResult(
                    label=f"{country}:{kind}",
                    rk=rk_from_rank1s(rank1s, offset=offset, scale=scale),
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
                    p0=p - bisect_right(ranks, cited),
                    ptop10=ptop10,
                    ptop10_over_p=(ptop10 / p) if p else None,
                    rk=rk,
                    rk_status=status,
                    ranks=ranks,
                )
            )
    return rows


def top_count(ranks: tuple[int, ...], x: float, world_size: int) -> int:
    """Papers among ascending world `ranks` that hold a top-x% world rank."""
    return bisect_right(ranks, percentile_cutoff(x, world_size))


ASSESSMENT_COLUMNS = ("country", "split", "p", "p0", "ptop10", "ptop10_over_p", "rk", "rk_status")


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
