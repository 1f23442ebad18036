#!/usr/bin/env python3
"""Exhaustively census T-stable submodules and compare against the series.

For the chosen prime q, width d, and window depth N, prints the per-colength
totals next to the product-series prediction, then a stratum table per
colength: each leading-term profile x with its weight, the predicted
stratum size q**W(x), and the observed brute-force count.
"""

import argparse

from spiralshift import Census, enumerate_submodules, window_depth
from spiralshift.cli import nonnegative


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--N", type=nonnegative, default=3)
    args = parser.parse_args()

    try:
        submodules = enumerate_submodules(args.q, args.d, window_depth(args.N))
        census = Census.tally(args.q, args.d, args.N, submodules)
    except ValueError as exc:
        parser.error(str(exc))

    print(f"T-stable census for q={args.q}, d={args.d}, depth={args.N}")
    for n, (observed, predicted) in enumerate(zip(census.observed(), census.predicted())):
        mark = "ok" if observed == predicted else "MISMATCH"
        print(f"  colength {n}: observed {observed}, predicted {predicted} [{mark}]")

    for n in range(args.N + 1):
        print(f"strata at colength {n}:")
        for x, w, predicted, observed in census.stratum_rows(n):
            mark = "ok" if observed == predicted else "MISMATCH"
            print(f"  x={x.levels} W={w} predicted {predicted} observed {observed} [{mark}]")


if __name__ == "__main__":
    main()
