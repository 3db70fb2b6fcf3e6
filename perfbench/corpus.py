"""Seeded synthetic corpus for the corpus-assess workload.

`write(seed, out_dir)` writes out_dir/corpus.csv and
out_dir/corpus.meta.json.  The corpus has 40
countries with Zipf-distributed sizes, integer lognormal citation
counts per country with about 8% uncited papers, and about 25% two-
country collaborations.  Ids are zero-padded and shuffled against row
order, so ties between equal citation counts are broken by an id order
that differs from file order.  A fixed number of malformed rows is
planted for each cause load_corpus diagnoses; each planted row has
exactly one defect.  A UTF-8 BOM and invalid UTF-8 are not planted:
either one aborts the whole load instead of rejecting a row.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

COUNTRIES = (
    "USA", "CHN", "GBR", "DEU", "JPN", "FRA", "CAN", "ITA", "IND", "AUS",
    "ESP", "KOR", "NLD", "BRA", "CHE", "SWE", "RUS", "POL", "TUR", "BEL",
    "IRN", "TWN", "DNK", "AUT", "ISR", "SGP", "NOR", "FIN", "PRT", "MEX",
    "CZE", "GRC", "ZAF", "IRL", "NZL", "ARG", "HUN", "CHL", "EGY", "THA",
)
ZIPF_EXPONENT = 1.1
COLLABORATION_SHARE = 0.25
FORCED_UNCITED_SHARE = 0.07  # plus lognormal draws below 1: about 8% uncited in all
SIGMA = 1.1
PUB_WINDOW = (2014, 2017)
CIT_WINDOW = (PUB_WINDOW[0] + 5, PUB_WINDOW[1] + 5)
ROWS = 150_000
PLANTED_PER_CAUSE = 20
CAUSES = (
    "column_count", "year_not_integer", "year_outside_window", "negative_citations",
    "empty_id", "empty_countries", "duplicate_id",
)


@dataclass
class Corpus:
    """The valid rows as arrays, plus the line number and cause of each planted row."""

    ids: np.ndarray          # integer id; the file id is f"p{id:07d}"
    citations: np.ndarray
    first: np.ndarray        # country code index
    second: np.ndarray       # partner code index, -1 for domestic papers
    planted: list            # [(line, cause)]
    countries: tuple = COUNTRIES


def reject_cause(message: str) -> str:
    """The planted cause a load_corpus row diagnosis reports."""
    if message.startswith("expected ") and " columns" in message:
        return "column_count"
    if message == "empty id":
        return "empty_id"
    if message.startswith("invalid literal for int()"):
        return "year_not_integer"
    if message.startswith("year ") and "outside publication window" in message:
        return "year_outside_window"
    if message.startswith("negative citation count"):
        return "negative_citations"
    if message == "empty country list":
        return "empty_countries"
    if message.startswith("duplicate id"):
        return "duplicate_id"
    return "other"


def file_id(number: int) -> str:
    return f"p{number:07d}"


def _malformed(cause: str, number: int, rng) -> str:
    pid = f"x{number:07d}"
    year = int(rng.integers(PUB_WINDOW[0], PUB_WINDOW[1] + 1))
    return {
        "column_count": f"{pid},{year},3",
        "year_not_integer": f"{pid},{year}.5,3,USA",
        "year_outside_window": f"{pid},{PUB_WINDOW[0] - 3},3,USA",
        "negative_citations": f"{pid},{year},-4,USA",
        "empty_id": f",{year},3,USA",
        "empty_countries": f"{pid},{year},3, ; ",
    }[cause]


def generate(seed: int, rows: int = ROWS) -> tuple[Corpus, list[str]]:
    """The corpus and its CSV lines (header first); same seed, same bytes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0))))
    n_countries = len(COUNTRIES)
    weights = 1.0 / np.arange(1, n_countries + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    first = rng.choice(n_countries, size=rows, p=weights)
    partner = rng.choice(n_countries, size=rows, p=weights)
    clash = partner == first
    partner[clash] = (first[clash] + rng.integers(1, n_countries, size=int(clash.sum()))) % n_countries
    second = np.where(rng.random(rows) < COLLABORATION_SHARE, partner, -1)
    country_mu = rng.uniform(2.0, 3.2, size=n_countries)
    citations = np.floor(np.exp(country_mu[first] + SIGMA * rng.standard_normal(rows))).astype(np.int64)
    citations[rng.random(rows) < FORCED_UNCITED_SHARE] = 0
    years = rng.integers(PUB_WINDOW[0], PUB_WINDOW[1] + 1, size=rows)
    ids = rng.permutation(rows)

    codes = np.array(COUNTRIES)
    owners = np.where(second >= 0, np.char.add(np.char.add(codes[first], ";"), codes[second]),
                      codes[first])
    lines = [
        f"{file_id(i)},{y},{c},{o}"
        for i, y, c, o in zip(ids.tolist(), years.tolist(), citations.tolist(), owners.tolist())
    ]

    # Planted rows go to random places; a duplicate always follows its original.
    inserts = []
    count = 0
    for cause in CAUSES:
        for _ in range(PLANTED_PER_CAUSE):
            if cause == "duplicate_id":
                original = int(rng.integers(rows))
                inserts.append((original + 1 + int(rng.integers(rows - original)), cause,
                                lines[original]))
            else:
                inserts.append((int(rng.integers(rows + 1)), cause, _malformed(cause, count, rng)))
            count += 1
    inserts.sort(key=lambda item: item[0])
    out, planted, previous = ["id,year,citations,countries"], [], 0
    for position, cause, text in inserts:
        out.extend(lines[previous:position])
        previous = position
        out.append(text)
        planted.append((len(out), cause))  # header is line 1
    out.extend(lines[previous:])
    return Corpus(ids=ids, citations=citations, first=first, second=second, planted=planted), out


def write(seed: int, out_dir: str, rows: int = ROWS) -> tuple[Corpus, str, str]:
    corpus, lines = generate(seed, rows)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "corpus.csv")
    meta_path = os.path.join(out_dir, "corpus.meta.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    meta = {"field": "benchmark", "pub_window": list(PUB_WINDOW), "cit_window": list(CIT_WINDOW),
            "source": f"perfbench seeded generator, seed {seed}"}
    with open(meta_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, indent=1) + "\n")
    return corpus, csv_path, meta_path

