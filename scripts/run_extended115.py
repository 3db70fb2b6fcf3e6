#!/usr/bin/env python3
"""Equivalence-range study on the extended 115-series grid.

Computes the rank index and its ratios to the expected top-0.1% and
top-0.01% counts for 23 mu values from 4.00 to 2.22 and five sizes from
200 to 8000, and summarizes how much tighter the ratios sit inside the
equivalence ranges [0.5, 39.5] and [1.0, 39.5].
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from rankmetrics.experiments import (
    EQUIV_RANGE_01, EQUIV_RANGE_001, extended_grid, run_fig4, write_report,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20230615)
    parser.add_argument("--out", default="out/extended115")
    args = parser.parse_args()

    report = run_fig4(extended_grid(seed=args.seed))
    paths = write_report(report, args.out)
    print(f"fig4: {len(report.rows)} rows -> {paths[0]}")

    for ratio_col, flag_col, bounds in (
        ("rk_over_ptop_0.1", "in_equiv_0.1", EQUIV_RANGE_01),
        ("rk_over_ptop_0.01", "in_equiv_0.01", EQUIV_RANGE_001),
    ):
        ratios = np.array([row[ratio_col] for row in report.rows])
        inside = np.array([row[flag_col] for row in report.rows])
        print(
            f"{ratio_col}: spread all {ratios.max() / ratios.min():.1f}, "
            f"spread for rk in {bounds} {ratios[inside].max() / ratios[inside].min():.1f} "
            f"({inside.sum()} of {len(ratios)} series in range)"
        )


if __name__ == "__main__":
    main()
