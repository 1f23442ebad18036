#!/usr/bin/env python3
"""Walk through the spiral shifting operators on a width-5 configuration.

Prints the height-sorted points, applies the rank-2 and rank-3 operators in
both orders to show they commute, and reports the statistics along the way.
"""

import argparse
import sys

from spiralshift import Config, decompose, shift_from, size, weight
from spiralshift.cli import parse_levels


def describe(label, x):
    # Sorted height marks rank the points; divmod(mark, d) is (level, 0-based seat).
    points = " ".join(
        f"({seat + 1},{level})" for level, seat in (divmod(m, x.d) for m in sorted(x.marks()))
    )
    print(f"{label}: levels={x.levels}  n={size(x)}  W={weight(x)}")
    print(f"    points low to high: {points}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", default="0,2,1,0,1", help="comma-separated levels")
    args = parser.parse_args()

    try:
        levels = parse_levels(args.x)
        if len(levels) < 3:
            raise ValueError(f"--x needs at least 3 levels for the rank-3 operator, got {args.x!r}")
        x = Config(levels)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    describe("start", x)

    a = shift_from(x, 3)
    describe("after rank 3", a)
    b = shift_from(x, 2)
    describe("after rank 2", b)

    ab = shift_from(a, 2)
    ba = shift_from(b, 3)
    describe("rank 3 then rank 2", ab)
    describe("rank 2 then rank 3", ba)
    print("commutes:", ab == ba)

    exponents = decompose(x)
    print(f"exponents reaching {x.levels} from the origin: {exponents.steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
