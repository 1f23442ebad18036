"""Exact truncated bivariate series and the generating-function identities.

Series live in Z[[t, q]] truncated by t-degree: t tracks the size of a
configuration, q its weight.  Every series here is built from two
primitives.  `BiPoly.geometric` is the closed-form factor
1/(1 - t^a q^b); a product of such factors after a start monomial gives
the census of N^d, prod_{i<d} 1/(1 - t q^i), and the orbit of x0 under
free generators, t^size(x0) q^W(x0) prod_g 1/(1 - t^|g| q^(content of g)).
`_census` is the brute side: one term t^size q^W per configuration, over
all of N^d or over an orbit.  The census of N^d is computed three
independent ways (closed product, brute-force enumeration,
one-seat-at-a-time recurrence); the brute orbit sum is compared against the
closed product whenever the generators are rationally independent.
Both brute sums count their work before they start and raise
`FeasibilityError` past `cap`; the census enumerators in `submodules`
share the cap and the error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cylinder import Config, MultiIndex, act, configs_with_size
from .stats import content, multiindex_content, size

DEFAULT_CAP = 2**20


class FeasibilityError(Exception):
    """An enumeration request exceeded the configured work cap."""


class NotFreeError(ValueError):
    """A closed-form orbit expansion was requested for dependent generators."""


@dataclass(frozen=True)
class BiPoly:
    """Truncated integer power series in t and q.

    Keys are (t_degree, q_degree) pairs; terms with t-degree beyond `t_cut`
    are dropped on construction and during multiplication.  q is never
    truncated: the series built here keep q-degree bounded by a multiple of
    the t-degree.  Coefficients are exact integers and zero coefficients are
    never stored.
    """

    t_cut: int
    coeffs: dict

    def __post_init__(self) -> None:
        if self.t_cut < 0:
            raise ValueError("t_cut must be nonnegative")
        clean = {}
        for (td, qd), c in self.coeffs.items():
            if td < 0 or qd < 0:
                raise ValueError(f"degrees must be nonnegative, got ({td}, {qd})")
            if c and td <= self.t_cut:
                clean[(td, qd)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def one(cls, t_cut: int) -> "BiPoly":
        return cls(t_cut, {(0, 0): 1})

    @classmethod
    def monomial(cls, t_cut: int, t_deg: int, q_deg: int) -> "BiPoly":
        return cls(t_cut, {(t_deg, q_deg): 1})

    @classmethod
    def geometric(cls, t_cut: int, t_deg: int, q_deg: int) -> "BiPoly":
        """Expansion of 1/(1 - t^t_deg q^q_deg): coefficient 1 at each (k*t_deg, k*q_deg)."""
        if t_deg < 1:
            raise ValueError(f"a geometric factor needs a positive t-degree, got {t_deg}")
        return cls(t_cut, {(k * t_deg, k * q_deg): 1 for k in range(t_cut // t_deg + 1)})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.t_cut != other.t_cut:
            raise ValueError(f"truncation mismatch: {self.t_cut} vs {other.t_cut}")
        out: dict = {}
        for (ta, qa), ca in self.coeffs.items():
            for (tb, qb), cb in other.coeffs.items():
                if ta + tb <= self.t_cut:
                    key = (ta + tb, qa + qb)
                    out[key] = out.get(key, 0) + ca * cb
        return BiPoly(self.t_cut, out)

    def substitute_t_times_q(self) -> "BiPoly":
        """Replace t by t*q: the key (a, b) becomes (a, a + b)."""
        return BiPoly(self.t_cut, {(a, a + b): c for (a, b), c in self.coeffs.items()})

    def coefficient(self, t_deg: int, q_deg: int) -> int:
        return self.coeffs.get((t_deg, q_deg), 0)

    def terms(self) -> list[tuple[tuple[int, int], int]]:
        """Coefficients sorted by (t_degree, q_degree)."""
        return sorted(self.coeffs.items())

    def eval_q(self, q_value: int) -> dict[int, int]:
        """Collapse q numerically: per t-degree totals sum c * q_value**q_deg."""
        out: dict[int, int] = {}
        for (td, qd), c in self.coeffs.items():
            out[td] = out.get(td, 0) + c * q_value**qd
        return out


def _geometric_product(t_cut: int, start: tuple[int, int], factors) -> BiPoly:
    """t^a q^b for start = (a, b), times 1/(1 - t^c q^e) for each (c, e) in factors."""
    out = BiPoly.monomial(t_cut, *start)
    for t_deg, q_deg in factors:
        out = out * BiPoly.geometric(t_cut, t_deg, q_deg)
    return out


def _census(t_cut: int, configs) -> BiPoly:
    """One term t^size q^weight per configuration."""
    return BiPoly(t_cut, Counter(content(x) for x in configs))


def product_formula(d: int, t_cut: int) -> BiPoly:
    """Truncation of the product of geometric series 1/(1 - t q^i) for i < d."""
    if d < 1:
        raise ValueError("width d must be positive")
    return _geometric_product(t_cut, (0, 0), ((1, i) for i in range(d)))


def sum_over_configs(d: int, t_cut: int, cap: int = DEFAULT_CAP) -> BiPoly:
    """Brute-force census: one term t^size q^weight per configuration.

    Refuses when the C(t_cut + d, d) configurations of size <= t_cut pass `cap`.
    """
    if d < 1:
        raise ValueError("width d must be positive")
    if t_cut < 0:
        raise ValueError("t_cut must be nonnegative")
    work = math.comb(t_cut + d, d)
    if work > cap:
        raise FeasibilityError(f"{work} configurations exceed the cap {cap}")
    return _census(t_cut, (x for n in range(t_cut + 1) for x in configs_with_size(d, n)))


def recurrence_formula(d: int, t_cut: int) -> BiPoly:
    """Census series built one seat at a time.

    Widening by a seat substitutes t -> t*q and divides by 1 - t; the width-0
    series is 1.
    """
    if d < 1:
        raise ValueError("width d must be positive")
    inv = BiPoly.geometric(t_cut, 1, 0)
    out = BiPoly.one(t_cut)
    for _ in range(d):
        out = inv * out.substitute_t_times_q()
    return out


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of distinct nonzero operator exponents of one width."""

    d: int
    generators: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.d < 1:
            raise ValueError("width d must be positive")
        for g in self.generators:
            if g.d != self.d:
                raise ValueError(f"generator {g.steps} does not have width {self.d}")
            if g.total == 0:
                raise ValueError("generators must be nonzero")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")


def _rational_rank(rows: list[tuple[int, ...]], width: int) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def is_free_basis(gens: GeneratorSet) -> bool:
    """Rational linear independence of the generators.

    Independence over the rationals forces unique nonnegative integer
    combinations, so the generated subsemigroup is free on these generators.
    """
    rows = [g.steps for g in gens.generators]
    return _rational_rank(rows, gens.d) == len(rows)


def semigroup_elements(gens: GeneratorSet, max_total: int) -> set[MultiIndex]:
    """All sums of generators (the empty sum included) with total <= max_total."""
    start = MultiIndex.zero(gens.d)
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for a in frontier:
            for g in gens.generators:
                b = a + g
                if b.total <= max_total and b not in seen:
                    seen.add(b)
                    grown.append(b)
        frontier = grown
    return seen


def word_count(gens: GeneratorSet, max_total: int, limit: int) -> int:
    """How many coefficient vectors c >= 0 have sum_i c_i * total(g_i) <= max_total.

    Every element of `semigroup_elements(gens, max_total)` is the sum of
    such a word, so the count bounds their number, exactly when the
    generators are free.  Counted one generator at a time, largest total
    first, with the smallest total's share in closed form; counting stops
    once it passes `limit`.  Each loop step adds at least one word, so the
    cost is at most about len(gens) * limit steps, whatever max_total.
    """

    def count(totals: list[int], budget: int, room: int) -> int:
        first, *rest = totals
        if not rest:
            return budget // first + 1
        found = 0
        for spent in range(0, budget + 1, first):
            found += count(rest, budget - spent, room - found)
            if found > room:
                break
        return found

    if max_total < 0:
        return 0
    if not gens.generators:
        return 1
    return count(sorted((g.total for g in gens.generators), reverse=True), max_total, limit)


def orbit_sum(x0: Config, gens: GeneratorSet, t_cut: int, cap: int = DEFAULT_CAP) -> BiPoly:
    """Brute-force orbit census from x0 under the generated subsemigroup.

    Applies every reachable exponent to x0, deduplicates the resulting
    configurations, and records t^size q^weight of each.  Each operator
    application raises the size by exactly one, so exponents with total
    beyond t_cut - size(x0) cannot contribute a retained term.  When x0
    itself is past t_cut, only x0 is built, and the truncation drops it.
    Refuses before building any when those exponents' combinations pass `cap`.
    """
    if gens.d != x0.d:
        raise ValueError("dimension mismatch between generators and base configuration")
    budget = t_cut - size(x0)
    if word_count(gens, budget, cap) > cap:
        raise FeasibilityError(
            f"the brute orbit sum would try more than --cap {cap} generator combinations"
        )
    return _census(t_cut, {act(a, x0) for a in semigroup_elements(gens, budget)})


def free_orbit_formula(x0: Config, gens: GeneratorSet, t_cut: int) -> BiPoly:
    """Closed-form orbit census for rationally independent generators.

    The content of x0 times one geometric series per generator; rejects
    generator sets that are not free.
    """
    if gens.d != x0.d:
        raise ValueError("dimension mismatch between generators and base configuration")
    if not is_free_basis(gens):
        raise NotFreeError("generators are rationally dependent; no closed product form")
    return _geometric_product(
        t_cut, content(x0), (multiindex_content(g) for g in gens.generators)
    )
