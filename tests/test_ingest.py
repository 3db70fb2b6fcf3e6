import numpy as np
import pytest

from rankmetrics.indicators import percentile_cutoff
from rankmetrics.ingest import (
    COLLABORATIVE,
    DOMESTIC,
    RK_INSUFFICIENT,
    RK_OK,
    CorpusFormatError,
    CorpusMeta,
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
