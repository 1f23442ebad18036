"""Exact truncated bivariate series and the generating-function identities.

Series live in Z[[t, q]] truncated by t-degree: t tracks the size of a
configuration, q its weight.  The size/weight census over all of N^d equals
a product of geometric series; the same series is computed three independent
ways (closed product, brute-force enumeration, one-seat-at-a-time
recurrence).  Orbit sums under a finitely generated subsemigroup of the
operator exponents are enumerated by brute force, and compared against a
closed product formula whenever the generators are rationally independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinder import Config, MultiIndex, act, configs_with_size
from .stats import content, multiindex_content, size, weight


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
    def monomial(cls, t_cut: int, t_deg: int, q_deg: int, coeff: int = 1) -> "BiPoly":
        return cls(t_cut, {(t_deg, q_deg): coeff})

    def _check_compatible(self, other: "BiPoly") -> None:
        if self.t_cut != other.t_cut:
            raise ValueError(f"truncation mismatch: {self.t_cut} vs {other.t_cut}")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(self.t_cut, out)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        self._check_compatible(other)
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

    def is_zero(self) -> bool:
        return not self.coeffs


def geometric_inverse(p: BiPoly) -> BiPoly:
    """Expansion of 1/(1 - p) as 1 + p + p^2 + ... up to the t truncation.

    Every term of p must carry a positive t-degree, otherwise the expansion
    would not terminate degree by degree.
    """
    if any(td == 0 for td, _ in p.coeffs):
        raise ValueError("geometric inverse needs every term to have positive t-degree")
    result = BiPoly.one(p.t_cut)
    power = BiPoly.one(p.t_cut)
    for _ in range(p.t_cut):
        power = power * p
        if power.is_zero():
            break
        result = result + power
    return result


def product_formula(d: int, t_cut: int) -> BiPoly:
    """Truncation of the product of geometric series 1/(1 - t q^i) for i < d."""
    if d < 1:
        raise ValueError("width d must be positive")
    out = BiPoly.one(t_cut)
    for i in range(d):
        out = out * geometric_inverse(BiPoly.monomial(t_cut, 1, i))
    return out


def sum_over_configs(d: int, t_cut: int) -> BiPoly:
    """Brute-force census: one term t^size q^weight per configuration."""
    if d < 1:
        raise ValueError("width d must be positive")
    total: dict = {}
    for n in range(t_cut + 1):
        for x in configs_with_size(d, n):
            key = (n, weight(x))
            total[key] = total.get(key, 0) + 1
    return BiPoly(t_cut, total)


def recurrence_formula(d: int, t_cut: int) -> BiPoly:
    """Census series built one seat at a time.

    Widening by a seat substitutes t -> t*q and divides by 1 - t; the width-0
    series is 1.
    """
    if d < 1:
        raise ValueError("width d must be positive")
    inv = geometric_inverse(BiPoly.monomial(t_cut, 1, 0))
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


def orbit_sum(x0: Config, gens: GeneratorSet, t_cut: int) -> BiPoly:
    """Brute-force orbit census from x0 under the generated subsemigroup.

    Applies every reachable exponent to x0, deduplicates the resulting
    configurations, and records t^size q^weight of each.  Each operator
    application raises the size by exactly one, so exponents with total
    beyond t_cut - size(x0) cannot contribute a retained term.
    """
    if gens.d != x0.d:
        raise ValueError("dimension mismatch between generators and base configuration")
    total: dict = {}
    budget = t_cut - size(x0)
    if budget >= 0:
        orbit = {act(a, x0) for a in semigroup_elements(gens, budget)}
        for y in orbit:
            key = tuple(content(y))
            total[key] = total.get(key, 0) + 1
    return BiPoly(t_cut, total)


def free_orbit_formula(x0: Config, gens: GeneratorSet, t_cut: int) -> BiPoly:
    """Closed-form orbit census for rationally independent generators.

    The content of x0 times one geometric series per generator; rejects
    generator sets that are not free.
    """
    if gens.d != x0.d:
        raise ValueError("dimension mismatch between generators and base configuration")
    if not is_free_basis(gens):
        raise NotFreeError("generators are rationally dependent; no closed product form")
    n0, w0 = content(x0)
    out = BiPoly.monomial(t_cut, n0, w0)
    for g in gens.generators:
        tg, qg = multiindex_content(g)
        out = out * geometric_inverse(BiPoly.monomial(t_cut, tg, qg))
    return out
