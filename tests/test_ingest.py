import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.indicators import RkResult, percentile_cutoff, rk_from_rank1s
from rankmetrics.ingest import (
    COLLABORATIVE,
    DOMESTIC,
    MAX_CITATIONS,
    RK_INSUFFICIENT,
    RK_OK,
    AssessmentRow,
    Corpus,
    CorpusFormatError,
    CorpusMeta,
    CountrySplit,
    EmptyCorpusError,
    PaperRecord,
    UnknownCountryError,
    assess,
    assessment_table,
    corpus_world_ranks,
    load_corpus,
    split_country,
)

RK_MAX_DEFAULT = 39.468121292436805

HEADER = "id,year,citations,countries\n"


def write_corpus(tmp_path, body, header=HEADER, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return path


def test_load_well_formed(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,12,USA\np2,2016,0,CHN;USA\np3,2014,3,DEU\n")
    result = load_corpus(path)
    assert len(result.records) == 3
    assert result.errors == []
    assert result.records[1].countries == ("CHN", "USA")


def test_row_errors_collected_not_fatal(tmp_path):
    path = write_corpus(
        tmp_path,
        "p1,2015,12,USA\np2,2016,-1,CHN\np3,2014,3,\np4,not_a_year,3,JPN\np1,2015,2,USA\n",
    )
    result = load_corpus(path)
    assert [r.id for r in result.records] == ["p1"]
    assert len(result.errors) == 4
    assert any("negative" in e.message for e in result.errors)
    assert any("duplicate" in e.message for e in result.errors)
    assert any("country" in e.message for e in result.errors)


def test_citation_count_above_2_53_is_row_error(tmp_path):
    # float64 holds every integer up to 2**53 exactly, so ranks stay exact
    path = write_corpus(
        tmp_path, f"p1,2015,{2**53},USA\np2,2015,{2**53 + 1},USA\np3,2015,{'9' * 400},USA\n"
    )
    result = load_corpus(path)
    assert [r.citations for r in result.records] == [2**53]
    message = "citation count above 2**53 (9007199254740992)"
    assert [(e.line, e.message) for e in result.errors] == [(3, message), (4, message)]


def test_country_deduplication(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,4,USA;USA\n")
    result = load_corpus(path)
    assert result.records[0].countries == ("USA",)


def test_corrupt_header_fatal(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,4,USA\n", header="paper,when,cites,where\n")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CorpusFormatError):
        load_corpus(empty)


def test_field_column_optional(tmp_path):
    path = write_corpus(
        tmp_path, "p1,2015,4,USA,batteries\n", header="id,year,citations,countries,field\n"
    )
    result = load_corpus(path)
    assert result.records[0].field == "batteries"


def test_publication_window_filter(tmp_path):
    meta = CorpusMeta(field="x", pub_window=(2014, 2017), cit_window=(2019, 2022))
    path = write_corpus(tmp_path, "p1,2015,4,USA\np2,2010,9,USA\n")
    result = load_corpus(path, meta)
    assert [r.id for r in result.records] == ["p1"]
    assert "window" in result.errors[0].message


def test_meta_validation_warns_on_odd_windows(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text(
        '{"field": "solar", "pub_window": [2014, 2017], "cit_window": [2018, 2021],'
        ' "source": "export"}'
    )
    with pytest.warns(UserWarning):
        CorpusMeta.from_json(path)


def test_meta_accepts_displaced_window(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text('{"field": "solar", "pub_window": [2014, 2017], "cit_window": [2019, 2022]}')
    meta = CorpusMeta.from_json(path)
    assert meta.cit_window == (2019, 2022)


def record(pid, citations, countries, year=2015):
    return PaperRecord(id=pid, year=year, citations=citations, countries=tuple(countries))


def test_split_examples():
    records = [
        record("p1", 5, ["USA"]),
        record("p2", 9, ["USA", "CHN"]),
        record("p3", 2, ["CHN"]),
    ]
    usa = split_country(records, "USA")
    assert usa.domestic == ("p1",)
    assert usa.collaborative == ("p2",)
    chn = split_country(records, "CHN")
    assert chn.domestic == ("p3",)
    assert chn.collaborative == ("p2",)
    with pytest.raises(UnknownCountryError):
        split_country(records, "FRA")


def test_world_ranks_tie_break_by_id():
    records = [record("b", 5, ["USA"]), record("a", 5, ["CHN"]), record("c", 7, ["JPN"])]
    ranks = corpus_world_ranks(records)
    assert ranks == {"c": 1, "a": 2, "b": 3}
    with pytest.raises(EmptyCorpusError):
        corpus_world_ranks([])


def test_world_ranks_reject_duplicate_ids():
    records = [record("a", 5, ["USA"]), record("b", 3, ["CHN"]), record("a", 1, ["JPN"])]
    with pytest.raises(ValueError, match="duplicate id 'a'"):
        corpus_world_ranks(records)


def test_single_country_corpus_reaches_max_rk():
    records = [record(f"p{i:03d}", 1000 - i, ["USA"]) for i in range(40)]
    rows = assess(records, ["USA"])
    domestic = rows[0]
    assert domestic.split == DOMESTIC
    assert domestic.p == 40
    assert domestic.rk_status == RK_OK
    assert domestic.rk.rk == pytest.approx(RK_MAX_DEFAULT, abs=1e-9)
    collaborative = rows[1]
    assert collaborative.p == 0
    assert collaborative.rk_status == RK_INSUFFICIENT
    assert collaborative.ptop10_over_p is None


def test_insufficient_marker_below_k():
    records = [record(f"u{i}", 50 - i, ["USA"]) for i in range(9)]
    records += [record(f"c{i}", 30 - i, ["CHN"]) for i in range(20)]
    rows = assess(records, ["USA", "CHN"])
    usa_domestic = rows[0]
    assert usa_domestic.p == 9
    assert usa_domestic.rk is None
    assert usa_domestic.rk_status == RK_INSUFFICIENT
    chn_domestic = rows[2]
    assert chn_domestic.rk_status == RK_OK


def test_relabeling_other_countries_leaves_rk_unchanged():
    rng = np.random.default_rng(5)
    citations = rng.integers(0, 400, size=120)
    records = [
        record(f"p{i:03d}", int(c), ["USA"] if i % 3 == 0 else ["CHN"])
        for i, c in enumerate(citations)
    ]
    relabeled = [
        PaperRecord(r.id, r.year, r.citations, ("KOR",) if r.countries == ("CHN",) else r.countries)
        for r in records
    ]
    before = [r for r in assess(records, ["USA"]) if r.split == DOMESTIC][0]
    after = [r for r in assess(relabeled, ["USA"]) if r.split == DOMESTIC][0]
    assert before.rk.rank1s == after.rk.rank1s
    assert before.rk.rk == after.rk.rk
    assert before.ptop10 == after.ptop10


def test_ptop10_additivity_matches_direct_count():
    rng = np.random.default_rng(11)
    pool = ["USA", "CHN", "JPN"]
    records = []
    for i in range(300):
        k = 1 if rng.random() < 0.7 else 2
        countries = list(rng.choice(pool, size=k, replace=False))
        records.append(record(f"p{i:04d}", int(rng.integers(0, 500)), countries))
    rows = assess(records, pool)
    cutoff = percentile_cutoff(10.0, len(records))
    ranks = corpus_world_ranks(records)
    direct = 0
    for r in records:
        if ranks[r.id] <= cutoff:
            direct += len(r.countries)  # whole counting per owning country
    assert sum(row.ptop10 for row in rows) == direct
    domestic_total = sum(row.p for row in rows if row.split == DOMESTIC)
    assert domestic_total <= len(records)


def test_assessment_table_shape():
    records = [record(f"p{i:03d}", 100 - i, ["USA"]) for i in range(15)]
    table = assessment_table(assess(records, ["USA"]))
    assert [row["country"] for row in table] == ["USA", "USA"]
    assert [row["split"] for row in table] == [DOMESTIC, COLLABORATIVE]
    assert table[0]["ptop10_over_p"] == pytest.approx(table[0]["ptop10"] / 15)
    assert table[1]["rk"] == ""


def test_windowed_corpora_produce_per_window_rows(tmp_path):
    # three publication windows, one assessment each: the temporal-trend
    # table is just the concatenation of per-window rows
    windows = [(2010, 2013), (2012, 2015), (2014, 2017)]
    trend = []
    for start, end in windows:
        rng = np.random.default_rng(start)
        records = [
            record(f"w{start}p{i:03d}", int(rng.integers(0, 300)), ["USA"], year=start)
            for i in range(30)
        ]
        row = [r for r in assess(records, ["USA"]) if r.split == DOMESTIC][0]
        trend.append((f"{start}-{end}", row.p, row.rk.rk))
    assert len(trend) == 3
    assert all(p == 30 and rk > 0 for _, p, rk in trend)


def test_byte_order_mark_header_accepted(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "p1,2015,12,USA\n").encode())
    result = load_corpus(path)
    assert [r.id for r in result.records] == ["p1"]
    assert result.errors == []


def test_invalid_utf8_is_format_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "p1,2015,12,USA\n").encode() + b"p\xe9,2015,3,FRA\n")
    with pytest.raises(CorpusFormatError, match=r"latin1\.csv: line 3 is not valid UTF-8"):
        load_corpus(path)


def test_row_lines_count_physical_lines_after_a_multiline_field(tmp_path):
    path = write_corpus(tmp_path, '"p1\nx",2015,3,USA\np2,2015,-1,USA\n\np3,2015,x,USA\n')
    result = load_corpus(path)
    assert [str(e) for e in result.errors] == [
        "line 4: negative citation count -1",
        "line 6: invalid literal for int() with base 10: 'x'",
    ]


def test_unparseable_csv_is_format_error(tmp_path):
    path = write_corpus(tmp_path, f"p1,2015,3,USA\n\"{'x' * 200_000}\",2015,3,USA\n")
    with pytest.raises(CorpusFormatError, match=r"corpus\.csv: line 3: field larger than field limit"):
        load_corpus(path)


# A slow per-row oracle for the loader and `assess`: each row is split on
# commas and checked field by field in the order the loader reports
# defects; world ranks come from a brute-force sort by (-citations, id).


def oracle_load(lines, has_field, window):
    records, errors, seen = [], [], set()
    for line, text in enumerate(lines, start=2):
        if not text:
            continue
        row = text.split(",")
        try:
            record = oracle_parse_row(row, has_field, window)
            if record.id in seen:
                raise ValueError(f"duplicate id {record.id!r}")
        except ValueError as exc:
            errors.append((line, str(exc)))
            continue
        seen.add(record.id)
        records.append(record)
    return records, errors


def oracle_parse_row(row, has_field, window):
    expected = 5 if has_field else 4
    if len(row) != expected:
        raise ValueError(f"expected {expected} columns, got {len(row)}")
    paper_id = row[0].strip()
    if not paper_id:
        raise ValueError("empty id")
    year = int(row[1])
    if window is not None and not window[0] <= year <= window[1]:
        raise ValueError(f"year {year} outside publication window {window[0]}-{window[1]}")
    citations = int(row[2])
    if citations < 0:
        raise ValueError(f"negative citation count {citations}")
    if citations > MAX_CITATIONS:
        raise ValueError(f"citation count above 2**53 ({MAX_CITATIONS})")
    countries = []
    for code in row[3].split(";"):
        if code.strip() and code.strip() not in countries:
            countries.append(code.strip())
    if not countries:
        raise ValueError("empty country list")
    field_tag = row[4].strip() if has_field else None
    return PaperRecord(paper_id, year, citations, tuple(countries), field_tag or None)


def oracle_ranks(records, tie_policy):
    if tie_policy == "ordinal":
        ordered = sorted(records, key=lambda r: (-r.citations, r.id))
        return {r.id: i + 1 for i, r in enumerate(ordered)}
    return {r.id: 1 + sum(o.citations > r.citations for o in records) for r in records}


def oracle_assess(records, countries, k, offset, scale, tie_policy):
    rank_of = oracle_ranks(records, tie_policy)
    rows = []
    for country in countries:
        for split in (DOMESTIC, COLLABORATIVE):
            members = [r for r in records
                       if country in r.countries and (len(r.countries) == 1) == (split == DOMESTIC)]
            ranks = sorted(rank_of[r.id] for r in members)
            p = len(ranks)
            ptop10 = sum(1 for rank in ranks if rank <= len(records) // 10)
            rk = None
            if p >= k:
                rk = RkResult(
                    label=f"{country}:{split}", rk=rk_from_rank1s(ranks[:k], offset=offset, scale=scale),
                    k=k, offset=offset, scale=scale, rank1s=tuple(ranks[:k]),
                )
            rows.append((AssessmentRow(
                country=country, split=split, p=p, p0=sum(r.citations == 0 for r in members),
                ptop10=ptop10, ptop10_over_p=ptop10 / p if p else None, rk=rk,
                rk_status=RK_INSUFFICIENT if rk is None else RK_OK, ranks=None,
            ), ranks))
    return rows


ROW_IDS = st.one_of(st.integers(0, 40).map("p{}".format), st.sampled_from([" p1 ", "", "  "]))
ROW_YEARS = ["2015", "2016", " 2014", "2017", "20_16", "2013", "2018", "x", ""]
ROW_CITATIONS = ["0", "1", "1", "2", "2", "3", " 4", "-1", "1.5", "", str(2**53), str(2**53 + 1)]
ROW_CODES = ["USA", "USA", "CHN", "JPN", " FRA ", ""]


@st.composite
def corpus_rows(draw):
    """Corpus lines mixing valid rows with every malformed cause, repeated
    and padded ids, repeated or blank country codes and integer ties."""
    has_field = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        row = [draw(ROW_IDS), draw(st.sampled_from(ROW_YEARS)),
               draw(st.sampled_from(ROW_CITATIONS)),
               ";".join(draw(st.lists(st.sampled_from(ROW_CODES), min_size=1, max_size=3)))]
        if has_field:
            row.append(draw(st.sampled_from(["", "bio", " chem "])))
        row = row[:draw(st.sampled_from([len(row)] * 10 + [len(row) - 1]))]
        row += [""] * draw(st.sampled_from([0] * 10 + [1]))
        lines.append("" if draw(st.integers(0, 15)) == 0 else ",".join(row))
    return has_field, lines


@given(
    rows=corpus_rows(),
    window=st.sampled_from([None, (2014, 2017)]),
    k=st.integers(1, 3),
    offset=st.sampled_from([0.0, 20.0]),
    scale=st.sampled_from([1.0, 1000.0]),
)
@settings(max_examples=200, deadline=None)
def test_loader_and_assess_match_per_row_oracle(tmp_path_factory, rows, window, k, offset, scale):
    has_field, lines = rows
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    header = "id,year,citations,countries" + (",field" if has_field else "")
    path.write_text("\n".join([header, *lines]) + "\n")
    meta = None if window is None else CorpusMeta(pub_window=window)
    loaded = load_corpus(path, meta)
    records, errors = oracle_load(lines, has_field, window)
    assert list(loaded.records) == records
    assert [loaded.records[i] for i in range(len(records))] == records
    assert [(e.line, e.message) for e in loaded.errors] == errors
    if not records:
        with pytest.raises(EmptyCorpusError):
            assess(loaded.records, ["USA"])
        return
    countries = sorted({c for r in records for c in r.countries})
    for country in countries:
        mine = [r for r in records if country in r.countries]
        assert split_country(loaded.records, country) == CountrySplit(
            country,
            domestic=tuple(r.id for r in mine if len(r.countries) == 1),
            collaborative=tuple(r.id for r in mine if len(r.countries) > 1),
        )
    for tie_policy in ("ordinal", "competition"):
        assert corpus_world_ranks(loaded.records, tie_policy) == oracle_ranks(records, tie_policy)
        got = assess(loaded.records, countries, k=k, offset=offset, scale=scale, tie_policy=tie_policy)
        expected = oracle_assess(records, countries, k, offset, scale, tie_policy)
        assert got == [row for row, _ in expected]
        assert [row.ranks.tolist() for row in got] == [ranks for _, ranks in expected]
        assert got == assess(records, countries, k=k, offset=offset, scale=scale, tie_policy=tie_policy)
    with pytest.raises(UnknownCountryError):
        assess(loaded.records, ["ZZZ"])


def test_corpus_from_records_round_trips():
    records = [record("b", 5, ["USA", "CHN"], year=2014), record("a", 0, ["JPN"], year=2016)]
    corpus = Corpus.from_records(records)
    assert list(corpus) == records
    assert (corpus[-1], corpus[0:1], len(corpus)) == (records[1], records[:1], 2)
    assert corpus.citations.dtype == np.int64
    assert Corpus.from_records(corpus) is corpus
    with pytest.raises(IndexError):
        corpus[2]
