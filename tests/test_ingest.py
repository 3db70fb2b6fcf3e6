import io
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmetrics.cli import main
from rankmetrics.errors import DataError
from rankmetrics.indicators import RkResult, count_uncited, empirical_ptop, percentile_cutoff, rk_from_rank1s
from rankmetrics.ingest import (
    COLLABORATIVE,
    DOMESTIC,
    MAX_CITATIONS,
    RK_INSUFFICIENT,
    RK_OK,
    AssessmentRow,
    CorpusMeta,
    CountrySplit,
    assess,
    assessment_table,
    corpus_world_ranks,
    load_corpus,
    split_country,
)
from rankmetrics.rankcore import build_world
from rankmetrics.synthdist import REAL, CitationSeries, EnsembleConfig, generate_ensemble

RK_MAX_DEFAULT = 39.468121292436805

HEADER = "id,year,citations,countries\n"


def write_corpus(tmp_path, body, header=HEADER, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return path


# A paper as the oracles below see it: the columns a corpus keeps.
Row = namedtuple("Row", "id citations countries")


def load_rows(tmp_path, rows, year=2015):
    """The corpus of `rows` (`Row`s or (id, citations, countries) tuples),
    written as CSV text and read through `load_corpus`."""
    body = "".join(f"{pid},{year},{citations},{';'.join(countries)}\n"
                   for pid, citations, countries in rows)
    result = load_corpus(write_corpus(tmp_path, body))
    assert result.errors == []
    return result.records


def paper_countries(corpus):
    """Each paper's country names, in the order its row lists them."""
    bounds = corpus.indptr.tolist()
    names = [corpus.countries[code] for code in corpus.indices.tolist()]
    return [tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])]


def test_load_well_formed(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,12,USA\np2,2016,0,CHN;USA\np3,2014,3,DEU\n")
    result = load_corpus(path)
    assert len(result.records) == 3
    assert result.errors == []
    assert paper_countries(result.records) == [("USA",), ("CHN", "USA"), ("DEU",)]


def test_row_errors_collected_not_fatal(tmp_path):
    path = write_corpus(
        tmp_path,
        "p1,2015,12,USA\np2,2016,-1,CHN\np3,2014,3,\np4,not_a_year,3,JPN\np1,2015,2,USA\n",
    )
    result = load_corpus(path)
    assert result.records.ids == ["p1"]
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
    assert result.records.citations.tolist() == [2**53]
    message = "citation count above 2**53 (9007199254740992)"
    assert [(e.line, e.message) for e in result.errors] == [(3, message), (4, message)]


def test_country_deduplication(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,4,USA;USA\n")
    result = load_corpus(path)
    assert paper_countries(result.records) == [("USA",)]


def test_corrupt_header_fatal(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,4,USA\n", header="paper,when,cites,where\n")
    with pytest.raises(
        DataError, match=r"corpus\.csv: header must be id,year,citations,countries\[,field\], "
        r"got \['paper', 'when', 'cites', 'where'\]$",
    ):
        load_corpus(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match=r"empty\.csv: empty file$"):
        load_corpus(empty)


def test_field_column_optional(tmp_path, capsys):
    # the field column is accepted and ignored: assess writes the same bytes
    rows = [f"p{i:02d},2015,{i * 7 % 11},{('USA', 'CHN', 'USA;CHN')[i % 3]}" for i in range(24)]
    fields = ["batteries", "", " solar ", "batteries"]
    plain = write_corpus(tmp_path, "".join(f"{row}\n" for row in rows), name="plain.csv")
    tagged = write_corpus(
        tmp_path, "".join(f"{row},{fields[i % 4]}\n" for i, row in enumerate(rows)),
        header="id,year,citations,countries,field\n", name="tagged.csv",
    )
    assert load_corpus(tagged).errors == []
    outputs = []
    for path in (plain, tagged):
        assert main(["assess", "--input", str(path), "--countries", "USA,CHN", "--k", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 5


def test_publication_window_filter(tmp_path):
    meta = CorpusMeta(field="x", pub_window=(2014, 2017), cit_window=(2019, 2022))
    path = write_corpus(tmp_path, "p1,2015,4,USA\np2,2010,9,USA\n")
    result = load_corpus(path, meta)
    assert result.records.ids == ["p1"]
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


def test_split_examples(tmp_path):
    corpus = load_rows(tmp_path, [("p1", 5, ["USA"]), ("p2", 9, ["USA", "CHN"]), ("p3", 2, ["CHN"])])
    usa = split_country(corpus, "USA")
    assert usa.domestic == ("p1",)
    assert usa.collaborative == ("p2",)
    chn = split_country(corpus, "CHN")
    assert chn.domestic == ("p3",)
    assert chn.collaborative == ("p2",)
    with pytest.raises(DataError, match=r"^country 'FRA' does not appear in the corpus$"):
        split_country(corpus, "FRA")


def test_world_ranks_tie_break_by_id(tmp_path):
    corpus = load_rows(tmp_path, [("b", 5, ["USA"]), ("a", 5, ["CHN"]), ("c", 7, ["JPN"])])
    assert corpus_world_ranks(corpus) == {"c": 1, "a": 2, "b": 3}
    with pytest.raises(DataError, match=r"^corpus holds no records$"):
        corpus_world_ranks(load_rows(tmp_path, []))


def test_single_country_corpus_reaches_max_rk(tmp_path):
    rows = assess(load_rows(tmp_path, [(f"p{i:03d}", 1000 - i, ["USA"]) for i in range(40)]), ["USA"])
    domestic = rows[0]
    assert domestic.split == DOMESTIC
    assert domestic.p == 40
    assert domestic.rk_status == RK_OK
    assert domestic.rk.rk == pytest.approx(RK_MAX_DEFAULT, abs=1e-9)
    collaborative = rows[1]
    assert collaborative.p == 0
    assert collaborative.rk_status == RK_INSUFFICIENT
    assert collaborative.ptop10_over_p is None


def test_insufficient_marker_below_k(tmp_path):
    papers = [(f"u{i}", 50 - i, ["USA"]) for i in range(9)]
    papers += [(f"c{i}", 30 - i, ["CHN"]) for i in range(20)]
    rows = assess(load_rows(tmp_path, papers), ["USA", "CHN"])
    usa_domestic = rows[0]
    assert usa_domestic.p == 9
    assert usa_domestic.rk is None
    assert usa_domestic.rk_status == RK_INSUFFICIENT
    chn_domestic = rows[2]
    assert chn_domestic.rk_status == RK_OK


def test_relabeling_other_countries_leaves_rk_unchanged(tmp_path):
    rng = np.random.default_rng(5)
    citations = rng.integers(0, 400, size=120)
    papers = [
        (f"p{i:03d}", int(c), ["USA"] if i % 3 == 0 else ["CHN"])
        for i, c in enumerate(citations)
    ]
    relabeled = [(pid, c, ["KOR"] if countries == ["CHN"] else countries) for pid, c, countries in papers]
    before = [r for r in assess(load_rows(tmp_path, papers), ["USA"]) if r.split == DOMESTIC][0]
    after = [r for r in assess(load_rows(tmp_path, relabeled), ["USA"]) if r.split == DOMESTIC][0]
    assert before.rk.rank1s == after.rk.rank1s
    assert before.rk.rk == after.rk.rk
    assert before.ptop10 == after.ptop10


def test_ptop10_additivity_matches_direct_count(tmp_path):
    rng = np.random.default_rng(11)
    pool = ["USA", "CHN", "JPN"]
    papers = []
    for i in range(300):
        k = 1 if rng.random() < 0.7 else 2
        countries = list(rng.choice(pool, size=k, replace=False))
        papers.append(Row(f"p{i:04d}", int(rng.integers(0, 500)), countries))
    corpus = load_rows(tmp_path, papers)
    rows = assess(corpus, pool)
    cutoff = percentile_cutoff(10.0, len(papers))
    ranks = corpus_world_ranks(corpus)
    direct = 0
    for r in papers:
        if ranks[r.id] <= cutoff:
            direct += len(r.countries)  # whole counting per owning country
    assert sum(row.ptop10 for row in rows) == direct
    domestic_total = sum(row.p for row in rows if row.split == DOMESTIC)
    assert domestic_total <= len(papers)


def test_assessment_table_shape(tmp_path):
    corpus = load_rows(tmp_path, [(f"p{i:03d}", 100 - i, ["USA"]) for i in range(15)])
    table = assessment_table(assess(corpus, ["USA"]))
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
        papers = [(f"w{start}p{i:03d}", int(rng.integers(0, 300)), ["USA"]) for i in range(30)]
        row = [r for r in assess(load_rows(tmp_path, papers, year=start), ["USA"]) if r.split == DOMESTIC][0]
        trend.append((f"{start}-{end}", row.p, row.rk.rk))
    assert len(trend) == 3
    assert all(p == 30 and rk > 0 for _, p, rk in trend)


def test_byte_order_mark_header_accepted(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "p1,2015,12,USA\n").encode())
    result = load_corpus(path)
    assert result.records.ids == ["p1"]
    assert result.errors == []


def test_invalid_utf8_is_format_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "p1,2015,12,USA\n").encode() + b"p\xe9,2015,3,FRA\n")
    with pytest.raises(DataError, match=r"latin1\.csv: line 3 is not valid UTF-8"):
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
    with pytest.raises(DataError, match=r"corpus\.csv: line 3: field larger than field limit"):
        load_corpus(path)


# A slow per-row oracle for the loader and `assess`: each row is split on
# commas and checked field by field in the order the loader reports
# defects, and kept as a `Row`; world ranks come from a brute-force sort
# by (-citations, id).


def oracle_load(lines, has_field, window):
    records, errors, seen = [], [], set()
    for line, text in enumerate(lines, start=2):
        if not text:
            continue
        row = text.split(",")
        try:
            record = oracle_parse_row(row, has_field, window, seen)
        except ValueError as exc:
            errors.append((line, str(exc)))
            continue
        seen.add(record.id)
        records.append(record)
    return records, errors


def oracle_parse_row(row, has_field, window, seen):
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
    if paper_id in seen:
        raise ValueError(f"duplicate id {paper_id!r}")
    countries = []
    for code in row[3].split(";"):
        if code.strip() and code.strip() not in countries:
            countries.append(code.strip())
    if not countries:
        raise ValueError("empty country list")
    return Row(paper_id, citations, tuple(countries))


def oracle_ranks(records, tie_policy):
    if tie_policy == "ordinal":
        ordered = sorted(records, key=lambda r: (-r.citations, r.id))
        return {r.id: i + 1 for i, r in enumerate(ordered)}
    return {r.id: 1 + sum(o.citations > r.citations for o in records) for r in records}


def oracle_assess(records, countries, k, offset, scale, tie_policy, xs=()):
    rank_of = oracle_ranks(records, tie_policy)
    rows = []
    for country in countries:
        for split in (DOMESTIC, COLLABORATIVE):
            members = [r for r in records
                       if country in r.countries and (len(r.countries) == 1) == (split == DOMESTIC)]
            ranks = sorted(rank_of[r.id] for r in members)
            p = len(ranks)
            top_counts = {}
            for x in (10.0, *xs):
                cutoff = math.floor(Fraction(x) * len(records) / 100)
                top_counts[x] = sum(1 for rank in ranks if rank <= cutoff)
            ptop10 = top_counts[10.0]
            rk = None
            if p >= k:
                rk = RkResult(
                    label=f"{country}:{split}", rk=rk_from_rank1s(ranks[:k], offset=offset, scale=scale),
                    k=k, offset=offset, scale=scale, rank1s=tuple(ranks[:k]),
                )
            rows.append(AssessmentRow(
                country=country, split=split, p=p, p0=sum(r.citations == 0 for r in members),
                ptop10=ptop10, ptop10_over_p=ptop10 / p if p else None, rk=rk,
                rk_status=RK_INSUFFICIENT if rk is None else RK_OK, top_counts=top_counts,
            ))
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
    # quarters of a percent are exact binary floats; with at most 40 rows
    # and a handful of citation counts most cutoffs split a tie block
    xs=st.lists(st.integers(1, 400).map(lambda quarters: quarters / 4), max_size=4, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_loader_and_assess_match_per_row_oracle(tmp_path_factory, rows, window, k, offset, scale, xs):
    has_field, lines = rows
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    header = "id,year,citations,countries" + (",field" if has_field else "")
    path.write_text("\n".join([header, *lines]) + "\n")
    meta = None if window is None else CorpusMeta(pub_window=window)
    loaded = load_corpus(path, meta)
    records, errors = oracle_load(lines, has_field, window)
    corpus = loaded.records
    assert len(corpus) == len(records)
    assert corpus.ids == [r.id for r in records]
    assert corpus.citations.dtype == np.int64
    assert corpus.citations.tolist() == [r.citations for r in records]
    assert paper_countries(corpus) == [r.countries for r in records]
    assert [(e.line, e.message) for e in loaded.errors] == errors
    if not records:
        with pytest.raises(DataError, match=r"^corpus holds no records$"):
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
        got = assess(loaded.records, countries, k=k, offset=offset, scale=scale,
                     tie_policy=tie_policy, xs=tuple(xs))
        assert got == oracle_assess(records, countries, k, offset, scale, tie_policy, xs)
    with pytest.raises(DataError, match=r"^country 'ZZZ' does not appear in the corpus$"):
        assess(loaded.records, ["ZZZ"])


def test_country_named_only_by_a_rejected_duplicate_is_unknown(tmp_path):
    path = write_corpus(tmp_path, "p1,2015,3,USA\np1,2015,4,FRA\np2,2015,1,CHN;FRA\n")
    result = load_corpus(path)
    assert [(e.line, e.message) for e in result.errors] == [(3, "duplicate id 'p1'")]
    assert result.records.countries == ("USA", "CHN", "FRA")
    path = write_corpus(tmp_path, "p1,2015,3,USA\np1,2015,4,FRA\np2,2015,1,CHN\n")
    corpus = load_corpus(path).records
    assert corpus.countries == ("USA", "CHN")
    assert paper_countries(corpus) == [("USA",), ("CHN",)]
    with pytest.raises(DataError, match=r"^country 'FRA' does not appear in the corpus$"):
        assess(corpus, ["FRA"])


def test_a_duplicate_id_is_named_before_an_empty_country_list(tmp_path):
    path = write_corpus(tmp_path, "p0,2015,0,USA\np0,2015,0,\np1,2015,0,\n")
    result = load_corpus(path)
    assert [(e.line, e.message) for e in result.errors] == [
        (3, "duplicate id 'p0'"), (4, "empty country list"),
    ]


def test_countries_are_numbered_by_first_use_in_an_accepted_row(tmp_path):
    path = write_corpus(
        tmp_path,
        "p1,2015,3,USA\np1,2015,4,FRA;CHN\np2,2015,1,CHN;USA\n,2015,1,KOR\n"
        "p3,2015,x,DEU\np4,2015,2,JPN;FRA\np5,2015,2,FRA;CHN\n",
    )
    corpus = load_corpus(path).records
    assert corpus.countries == ("USA", "CHN", "JPN", "FRA")
    assert paper_countries(corpus) == [("USA",), ("CHN", "USA"), ("JPN", "FRA"), ("FRA", "CHN")]
    assert corpus.indices.tolist() == [0, 1, 0, 2, 3, 3, 1]


def test_reversing_id_order_moves_only_ordinal_ranks(tmp_path):
    citations = [5, 3, 5, 5, 0, 3, 7, 0]
    before = [Row(f"p{i}", c, ("USA",)) for i, c in enumerate(citations)]
    after = [Row(f"p{len(citations) - 1 - i}", c, ("USA",)) for i, c in enumerate(citations)]
    one, two = load_rows(tmp_path, before), load_rows(tmp_path, after)
    for records, corpus in ((before, one), (after, two)):
        for tie_policy in ("ordinal", "competition"):
            expected = oracle_ranks(records, tie_policy)
            assert corpus.world_ranks(tie_policy).tolist() == [expected[r.id] for r in records]
    assert one.world_ranks("competition").tolist() == two.world_ranks("competition").tolist()
    assert one.world_ranks("competition").tolist() == [2, 5, 2, 2, 7, 5, 1, 7]
    assert one.world_ranks("ordinal").tolist() == [2, 5, 3, 4, 7, 6, 1, 8]
    assert two.world_ranks("ordinal").tolist() == [4, 6, 3, 2, 8, 5, 1, 7]


@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_corpus_assessment_equals_the_synthetic_world(tmp_path, tie_policy):
    # An ensemble rounded to integer counts, written as a corpus with one
    # domestic country per series and ids ordered by (label, position),
    # must rank exactly as the synthetic world built from the same counts.
    config = EnsembleConfig(mu_start=2.5, mu_end=1.0, mu_count=4, sizes=(40, 15), seed=8)
    series = [
        CitationSeries(s.label, np.floor(s.values), origin=REAL)
        for s in generate_ensemble(config).series
    ]
    lines = [
        f"{s.label}{position:04d},2015,{int(value)},{s.label.upper()}"
        for s in series for position, value in enumerate(s.values.tolist())
    ]
    lines.reverse()  # file order plays no part
    path = write_corpus(tmp_path, "\n".join(lines) + "\n")
    corpus = load_corpus(path).records
    k = 10
    xs = (1.0, 10.0, 25.0, 50.0)
    rows = assess(corpus, [s.label.upper() for s in series], k=k, tie_policy=tie_policy, xs=xs)
    world = build_world(series, tie_policy=tie_policy)
    assert world.size == len(corpus)
    for s, (domestic, collaborative) in zip(series, zip(rows[::2], rows[1::2])):
        assert (domestic.split, collaborative.p) == (DOMESTIC, 0)
        assert domestic.p == s.n
        assert domestic.rk.rank1s == tuple(world.top_rank1s(s.label, k).tolist())
        assert domestic.p0 == count_uncited(s)
        assert domestic.ptop10 == empirical_ptop(world, s.label, 10.0).value
        assert domestic.top_counts == {x: empirical_ptop(world, s.label, x).value for x in xs}
    assert any(domestic.p0 for domestic in rows[::2])
    assert len(np.unique(corpus.citations)) < len(corpus) // 2  # ties across series


@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_a_top_k_and_cutoffs_inside_one_large_tied_block(tmp_path, tie_policy):
    # 100 papers: 5 above a block of 60 tied at 50 citations (positions
    # 6-65), 35 below it.  USA's 10th best paper and the 10% and 50%
    # cutoffs all fall inside the block, and ids run against file order,
    # so USA's block members, listed first, come last in id order.
    citations = [100, 99, 98, 97, 96] + [50] * 60 + list(range(40, 5, -1))
    countries = [["USA"], ["CHN"], ["USA"], ["CHN"], ["USA"]]
    countries += [["USA"]] * 20 + [["CHN"]] * 15 + [["USA", "CHN"]] * 10 + [["CHN"]] * 15
    countries += [["USA"] if i % 2 else ["CHN"] for i in range(35)]
    papers = [(f"p{99 - i:03d}", c, owners) for i, (c, owners) in enumerate(zip(citations, countries))]
    corpus = load_rows(tmp_path, papers)
    ranks = corpus.world_ranks(tie_policy)
    xs = (1.0, 25.0, 50.0, 64.5, 65.0, 100.0)
    rows = assess(corpus, ["USA", "CHN"], k=10, tie_policy=tie_policy, xs=xs)
    for row in rows:
        mine = sorted(ranks[i] for i, (_, _, owners) in enumerate(papers)
                      if row.country in owners and (len(owners) == 1) == (row.split == DOMESTIC))
        assert row.p == len(mine)
        assert row.rk.rank1s == tuple(mine[:10])
        assert row.top_counts == {x: sum(r <= math.floor(x) for r in mine) for x in (10.0, *xs)}
    usa = rows[0]
    if tie_policy == "ordinal":
        # file order would have given the block's first ranks, 6-12
        assert usa.rk.rank1s == (1, 3, 5, 46, 47, 48, 49, 50, 51, 52)
        assert (usa.top_counts[10.0], usa.top_counts[50.0]) == (3, 8)
    else:
        assert usa.rk.rank1s == (1, 3, 5, 6, 6, 6, 6, 6, 6, 6)
        assert (usa.top_counts[10.0], usa.top_counts[50.0]) == (23, 23)


@pytest.mark.parametrize("tie_policy", ["ordinal", "competition"])
def test_counts_near_two_to_the_53_rank_exactly(tmp_path, tie_policy):
    # The loader's largest counts, a step of 1 apart: tie blocks of 2**53
    # (ranks 1-2), 2**53 - 1 (3-5) and 2**53 - 2 (6-9), which the 20% and
    # 40% cutoffs split and the 10% and 25% cutoffs end, and in which each
    # unit's top 4 lie.  Ids run against file order.
    big = MAX_CITATIONS
    citations = [big] * 2 + [big - 1] * 3 + [big - 2] * 4 + [2**52, 7, 7, 5, 5, 1, 1, 0, 0, 0, 0, 0]
    owners = (["USA"], ["CHN"], ["USA", "CHN"], ["CHN", "USA"])
    papers = [(f"p{99 - i:03d}", c, owners[i % 4]) for i, c in enumerate(citations)]
    corpus = load_rows(tmp_path, papers)
    assert corpus.citations.tolist() == citations
    ranks = corpus.world_ranks(tie_policy)
    xs = (20.0, 25.0, 40.0)
    rows = assess(corpus, ["USA", "CHN"], k=4, tie_policy=tie_policy, xs=xs)
    for row in rows:
        mine = sorted(ranks[i] for i, (_, _, names) in enumerate(papers)
                      if row.country in names and (len(names) == 1) == (row.split == DOMESTIC))
        assert row.rk.rank1s == tuple(mine[:4])
        assert row.top_counts == {x: sum(r <= math.floor(x / 5) for r in mine) for x in (10.0, *xs)}
        assert row.p0 == sum(citations[i] == 0 for i, (_, _, names) in enumerate(papers)
                             if row.country in names and (len(names) == 1) == (row.split == DOMESTIC))


def test_numeric_cells_load_as_int_reads_them(tmp_path):
    # underscores, a sign, surrounding spaces and non-ASCII digits are
    # all numbers to int(), so the rows load, with no row errors
    path = write_corpus(tmp_path, "p1,2_015,1_000,USA\np2,+2015,+5,USA\np3,2015, 7 ,USA\np4,2015,٣,USA\n")
    result = load_corpus(path, CorpusMeta(pub_window=(2014, 2017)))
    assert result.errors == []
    assert result.records.citations.tolist() == [1000, 5, 7, 3]


LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def multiline_corpus(draw):
    """A corpus text whose cells may be quoted and hold line breaks, with
    blank lines between rows, and the (line, message) of each row it plants
    to fail.  The line a row starts on is counted as the text is written,
    by reading that text back line by line."""
    end = draw(st.sampled_from(LINE_ENDS))
    text, expected = HEADER.replace("\n", end), []
    for i in range(draw(st.integers(0, 12))):
        text += end * draw(st.sampled_from([0, 0, 0, 1, 2]))
        cells = [f"p{i}", "2015", draw(st.sampled_from(["3", "-1"])), "USA"]
        for c in range(4):
            if draw(st.booleans()):
                breaks = draw(st.lists(st.sampled_from(LINE_ENDS), max_size=3))
                cells[c] = '"' + "".join(breaks) + cells[c] + draw(st.sampled_from(["", *LINE_ENDS])) + '"'
        if draw(st.integers(0, 5)) == 0:
            cells[0] = '"' + draw(st.sampled_from(LINE_ENDS)) + '"'
        line = len(io.StringIO(text, newline="").readlines()) + 1
        if not cells[0].strip('"\r\n'):
            expected.append((line, "empty id"))
        elif cells[2].strip('"\r\n') == "-1":
            expected.append((line, "negative citation count -1"))
        text += ",".join(cells) + end
    return text, expected


@given(corpus=multiline_corpus())
@settings(max_examples=300, deadline=None)
def test_rejected_rows_name_the_line_they_start_on(tmp_path_factory, corpus):
    text, expected = corpus
    path = tmp_path_factory.getbasetemp() / "multiline.csv"
    path.write_bytes(text.encode())
    assert [(e.line, e.message) for e in load_corpus(path).errors] == expected
