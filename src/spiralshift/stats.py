"""Size, weight, and content of cylinder configurations."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cylinder import Config, MultiIndex


def size(x: Config) -> int:
    """Total level of a configuration; rises by one under every operator."""
    return sum(x.levels)


def weight(x: Config) -> int:
    """Sum of floored height gaps over all pairs of points of x.

    The heights are compared as height marks (`Config.marks`), whose gaps
    are d times the height gaps.
    """
    d = x.d
    return sum([(b - a) // d for a, b in itertools.combinations(sorted(x.marks()), 2)])


def weight_by_seats(x: Config) -> int:
    """Weight as a double sum over ordered seat pairs.

    Each ordered pair of distinct seats contributes the floored height
    difference when positive.  Agrees with `weight` on every configuration;
    the equality is pinned by the test suite.
    """
    d = x.d
    marks = x.marks()
    return sum(
        max(0, (marks[j] - marks[i]) // d)
        for i in range(d)
        for j in range(d)
        if i != j
    )


class ContentExponents(NamedTuple):
    """The exponent pair (size, weight) read off a configuration or index."""

    t_exp: int
    q_exp: int


def content(x: Config) -> ContentExponents:
    return ContentExponents(size(x), weight(x))


def multiindex_content(a: MultiIndex) -> ContentExponents:
    """Content added by acting with a: rank j contributes (1, j - 1) per step."""
    return ContentExponents(
        sum(a.steps),
        sum((j - 1) * s for j, s in enumerate(a.steps, start=1)),
    )
