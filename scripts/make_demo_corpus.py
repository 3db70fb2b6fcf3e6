#!/usr/bin/env python3
"""Build a synthetic demo corpus and run the country assessment on it.

Real corpora come from citation-database exports; this stand-in samples
integer citation counts from per-country lognormal profiles (plus an
uncited slab and some collaborations) so the ingest path can be
demonstrated end to end without any proprietary data.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from rankmetrics.cli import main as cli_main

PROFILES = {  # country -> (mu, papers)
    "USA": (3.6, 1200),
    "CHN": (3.3, 1800),
    "KOR": (3.0, 700),
    "JPN": (2.9, 600),
    "DEU": (3.1, 500),
    "SGP": (3.2, 150),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/demo_corpus")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    lines = ["id,year,citations,countries"]
    counter = 0
    codes = list(PROFILES)
    for country, (mu, papers) in PROFILES.items():
        draws = np.exp(mu + 1.1 * rng.standard_normal(papers))
        for value in draws:
            cites = int(value) if rng.random() > 0.06 else 0
            owners = country
            if rng.random() < 0.25:
                partner = codes[int(rng.integers(len(codes)))]
                if partner != country:
                    owners = f"{country};{partner}"
            year = 2014 + int(rng.integers(4))
            lines.append(f"d{counter:05d},{year},{cites},{owners}")
            counter += 1

    corpus_path = out / "corpus.csv"
    corpus_path.write_text("\n".join(lines) + "\n")
    meta = {
        "field": "demo",
        "pub_window": [2014, 2017],
        "cit_window": [2019, 2022],
        "source": "synthetic demo generator",
    }
    meta_path = out / "corpus.meta.json"
    meta_path.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"wrote {counter} records -> {corpus_path}")

    # a malformed generated row fails the run: no --skip-bad-rows
    return cli_main(["assess", "--input", str(corpus_path), "--meta", str(meta_path),
                     "--countries", ",".join(codes)])


if __name__ == "__main__":
    sys.exit(main())
