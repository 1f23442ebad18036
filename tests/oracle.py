"""Slow reference implementations of the spiral shifting operators and the census.

`Slot` is the reference coordinate system: a cylinder point as a (seat,
level) value ordered by height, with `slot_index` and `slot_from_index`
the spiral index and its inverse.  The package works on height marks and
flat positions only, and is tested against these.

The operators follow the definition literally: each mover walks up the
spiral one position at a time until it reaches a seat of the moving group,
and powers and actions are loops of single applications.  The closed forms
in `spiralshift.cylinder` are tested against them; they share only the
value types `Config` and `MultiIndex`.  `shift_all` is the closed form of
one rank-1 step, `unit` the exponent vector of one rank-j step, and
`distance` the floored height gap whose sum over pairs of points defines
the weight.  `compositions` is the head-first recursion and `is_tight` the
slot-by-slot reading of tightness, the references for the stars-and-bars
and height-mark versions in `spiralshift.cylinder`.  `decompose_by_walk`
replays the action forward from the origin, rank by rank, with the
package's closed-form powers, so it reaches exponents of any size; it is
the reference for the peeling `spiralshift.decompose`.

`geometric_inverse` expands 1/(1 - p) for any p without a constant term by
summing the powers of p, the reference for the closed-form geometric
factor `BiPoly.geometric`.

The census reference scans every reduced echelon form of every pivot set
and tests T-stability by listing the span, so it shares nothing with
`enumerate_submodules` but the basis value type `SubmoduleBasis`.
`is_t_stable` is the row form of T-stability, the reference for the
package's column form: each T-row of a reduced basis is reduced by every
row and must vanish.  `echelon_forms` lists every reduced echelon basis of
F_q^dim, pivot set by pivot set.  `monomial_vector` builds the flat vector
of one monomial of a window, and `mul_by_t` is the tests' own T, moving
each monomial's coefficient to the slot a level up.  `deepen` takes a
submodule into a deeper window, where it gains every monomial of the new
levels.
`family_cells` lists a family's free cells as slots under `hlex_order`
or `lex_order`.  `lead` is the lead rule of a nonzero vector under a
package monomial key, and `leading_profile` reads the per-seat leading
levels off the whole span with it, with no echelon form.
"""

import itertools
from dataclasses import dataclass
from functools import total_ordering

from spiralshift import BiPoly, Config, ModuleSpace, MultiIndex, SubmoduleBasis
from spiralshift import shift_from as shift_power


@total_ordering
@dataclass(frozen=True)
class Slot:
    """A cylinder point: a seat (at least 1) at a nonnegative level.

    Ordered by (level, seat), which realizes the height order.
    """

    seat: int
    level: int

    def __post_init__(self) -> None:
        if self.seat < 1:
            raise ValueError(f"seat must be at least 1, got {self.seat}")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")

    def __lt__(self, other: "Slot") -> bool:
        return (self.level, self.seat) < (other.level, other.seat)


def slot_index(slot: Slot, d: int) -> int:
    """0-based position of `slot` along the spiral of width d; `slot_from_index` inverts it."""
    if d < 1:
        raise ValueError("width d must be positive")
    if slot.seat > d:
        raise ValueError(f"seat {slot.seat} exceeds width {d}")
    return slot.level * d + slot.seat - 1


def slot_from_index(index: int, d: int) -> Slot:
    if d < 1:
        raise ValueError("width d must be positive")
    if index < 0:
        raise ValueError("index must be nonnegative")
    level, offset = divmod(index, d)
    return Slot(offset + 1, level)


def slots(x: Config) -> tuple[Slot, ...]:
    """The points of x, seat by seat."""
    return tuple(Slot(i, n) for i, n in enumerate(x.levels, start=1))


def sorted_slots(x: Config) -> tuple[Slot, ...]:
    """The points of x from lowest to highest; strict because seats differ."""
    return tuple(sorted(slots(x)))


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, head first."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def is_tight(x: Config, r: int) -> bool:
    """Whether the rank-r point is the least slot, on a seat of the top d-r+1
    points, strictly above the rank-(r-1) point; compared as `Slot`s."""
    ranked = sorted_slots(x)
    below = ranked[r - 2]
    lowest_above = min(
        Slot(s.seat, below.level if s.seat > below.seat else below.level + 1)
        for s in ranked[r - 1 :]
    )
    return lowest_above == ranked[r - 1]


def shift_all(x: Config) -> Config:
    """Move every point one spiral step up; closed form (n_d + 1, n_1, ..., n_{d-1})."""
    return Config((x.levels[-1] + 1,) + x.levels[:-1])


def unit(j: int, d: int) -> MultiIndex:
    """The exponents of one application of the rank-j operator."""
    if not 1 <= j <= d:
        raise ValueError(f"component must lie in [1, {d}], got {j}")
    return MultiIndex(tuple(1 if k == j else 0 for k in range(1, d + 1)))


def distance(lower: Slot, upper: Slot, d: int) -> int:
    """Floor of the height gap between two slots, the strictly lower one first."""
    gap = slot_index(upper, d) - slot_index(lower, d)
    if gap <= 0:
        raise ValueError("distance requires the first slot strictly below the second")
    return gap // d


def shift_slot(slot: Slot, steps: int, d: int) -> Slot:
    """Move `steps` positions up the spiral; seat d wraps to seat 1, one level up."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return slot_from_index(slot_index(slot, d) + steps, d)


def landing(slot: Slot, seats, d: int) -> Slot:
    """The first cylinder point above `slot` whose seat is in `seats`."""
    target = shift_slot(slot, 1, d)
    while target.seat not in seats:
        target = shift_slot(target, 1, d)
    return target


def shift_from(x: Config, j: int) -> Config:
    """One application of the rank-j operator, seat by seat."""
    d = x.d
    if not 1 <= j <= d:
        raise ValueError(f"operator rank must lie in [1, {d}], got {j}")
    moving = sorted_slots(x)[j - 1 :]
    seats = frozenset(s.seat for s in moving)
    levels = list(x.levels)
    for s in moving:
        target = landing(s, seats, d)
        levels[target.seat - 1] = target.level
    return Config(tuple(levels))


def act(a: MultiIndex, x: Config) -> Config:
    """Apply the rank-j operator a_j times, one application at a time."""
    out = x
    for j, count in enumerate(a.steps, start=1):
        for _ in range(count):
            out = shift_from(out, j)
    return out


def preimages(d: int, n: int) -> dict[Config, list[MultiIndex]]:
    """Every exponent vector of total n, grouped by its image at the origin.

    Each application raises the size by one, so these are all exponents
    reaching the configurations of size n.
    """
    origin = Config.origin(d)
    found: dict[Config, list[MultiIndex]] = {}
    for steps in compositions(n, d):
        a = MultiIndex(steps)
        found.setdefault(act(a, origin), []).append(a)
    return found


def decompose_by_walk(x: Config) -> MultiIndex:
    """The exponents reaching x from the origin, by replaying the action forward.

    Only the rank-1 operator moves the lowest point, which forces a_1; once
    a_1..a_{r-1} are applied, only the rank-r operator moves the r-th lowest
    point, and it is always the mover of least sub-index.  So a_r is the
    sub-index of the r-th lowest point of x minus that of the current r-th
    lowest point, in the current moving group, and the walk applies it with
    the package's closed-form `shift_from` power before the next rank.
    """
    goals = sorted_slots(x)
    cur = Config.origin(x.d)
    steps = []
    for r in range(1, x.d + 1):
        ranked = sorted_slots(cur)
        seats = sorted(s.seat for s in ranked[r - 1 :])
        m = len(seats)
        goal, lowest = goals[r - 1], ranked[r - 1]
        if goal.seat not in seats:
            raise AssertionError(
                f"the rank-{r} point of {x.levels} is on seat {goal.seat}, "
                f"outside the moving seats {seats}"
            )
        count = (goal.level - lowest.level) * m + seats.index(goal.seat) - seats.index(lowest.seat)
        if count < 0:
            raise AssertionError(
                f"the rank-{r} point of {x.levels} lies below the moving group of {cur.levels}"
            )
        if count:
            cur = shift_power(cur, r, count)
        steps.append(count)
    return MultiIndex(tuple(steps))


def geometric_inverse(p: BiPoly) -> BiPoly:
    """Expansion of 1/(1 - p) as 1 + p + p^2 + ... up to the t truncation.

    Every term of p must carry a positive t-degree, otherwise the expansion
    would not terminate degree by degree.
    """
    if any(td == 0 for td, _ in p.coeffs):
        raise ValueError("geometric inverse needs every term to have positive t-degree")
    total = {(0, 0): 1}
    power = BiPoly.one(p.t_cut)
    for _ in range(p.t_cut):
        power = power * p
        if not power.coeffs:
            break
        for key, c in power.coeffs.items():
            total[key] = total.get(key, 0) + c
    return BiPoly(p.t_cut, total)


def monomial_vector(space, slot: Slot) -> tuple[int, ...]:
    """The flat vector of the monomial `slot` in the window `space`."""
    vec = [0] * space.dim
    vec[slot_index(slot, space.d)] = 1
    return tuple(vec)


def mul_by_t(space, vec: tuple[int, ...]) -> tuple[int, ...]:
    """T times the flat vector `vec`: each coefficient moves a level up; the top level falls off."""
    shifted = [0] * space.dim
    for index, c in enumerate(vec):
        slot = slot_from_index(index, space.d)
        if slot.level + 1 < space.depth:
            shifted[slot_index(Slot(slot.seat, slot.level + 1), space.d)] = c
    return tuple(shifted)


def deepen(m: SubmoduleBasis, depth: int) -> SubmoduleBasis:
    """m taken into the window of `depth`, at least m's: its rows zero-padded, then unit rows.

    A subspace of the window of depth k stands for a submodule that contains
    T^k times the module, so the deeper window adds to it every monomial at
    level k and up, one unit row each; those keep the basis reduced and in
    height order.
    """
    shallow = m.space
    d = shallow.d
    space = ModuleSpace(shallow.q, d, depth)
    padding = (0,) * (space.dim - shallow.dim)
    units = [
        monomial_vector(space, Slot(seat, level))
        for level in range(shallow.depth, depth)
        for seat in range(1, d + 1)
    ]
    return SubmoduleBasis(space, tuple(row + padding for row in m.rows) + tuple(units))


def hlex_order(slot: Slot) -> Slot:
    """The height order on slots: `Slot`'s own order."""
    return slot


def lex_order(slot: Slot) -> tuple[int, int]:
    """The seat-major order on slots: seat, then level."""
    return (slot.seat, slot.level)


def family_cells(x: Config, order) -> list[list[Slot]]:
    """Per seat i, the slots (j, a) with j != i and a < x_j that lie above (i, x_i) in `order`."""
    return [
        [
            Slot(j, a)
            for j, nj in enumerate(x.levels, start=1)
            if j != seat
            for a in range(nj)
            if order(Slot(j, a)) > order(Slot(seat, level))
        ]
        for seat, level in enumerate(x.levels, start=1)
    ]


def lead(vec, d: int, key) -> int:
    """Flat position of the lowest nonzero monomial of vec under the package key `key`."""
    return min((p for p, c in enumerate(vec) if c), key=lambda p: key(*divmod(p, d)))


def leading_profile(m: SubmoduleBasis, key) -> tuple[int, ...]:
    """Per seat, the least level of a leading monomial under `key` of a nonzero span vector.

    `key` is a package monomial key on (level, 0-based seat).  The span is
    listed from every coefficient tuple.  A seat that leads no vector gets
    the window depth.
    """
    space = m.space
    q, d, dim = space.q, space.d, space.dim
    lows = [space.depth] * d
    for coeffs in itertools.product(range(q), repeat=len(m.rows)):
        vec = [sum(c * row[i] for c, row in zip(coeffs, m.rows)) % q for i in range(dim)]
        if any(vec):
            level, seat = divmod(lead(vec, d, key), d)
            lows[seat] = min(lows[seat], level)
    return tuple(lows)


def echelon_forms(q: int, dim: int):
    """Every reduced echelon row tuple in F_q^dim, pivot sets of every size."""
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [[c for c in range(p + 1, dim) if c not in pivots] for p in pivots]
            for assign in itertools.product(range(q), repeat=sum(map(len, free))):
                values = iter(assign)
                rows = []
                for p, cells in zip(pivots, free):
                    row = [0] * dim
                    row[p] = 1
                    for c in cells:
                        row[c] = next(values)
                    rows.append(tuple(row))
                yield tuple(rows)


def is_t_stable(m: SubmoduleBasis) -> bool:
    """Whether T maps the span of the reduced basis m into itself.

    Each row's T-image, shifted d places up with the top level dropped, is
    cleared at each row's pivot (its first nonzero position) by that row in
    turn; it lies in the span exactly when nothing is left.
    """
    space = m.space
    q, d, dim = space.q, space.d, space.dim
    pivots = [next(p for p, c in enumerate(row) if c) for row in m.rows]
    for row in m.rows:
        vec = (0,) * d + row[: dim - d]
        for other, p in zip(m.rows, pivots):
            c = vec[p]
            if c:
                vec = tuple((a - c * b) % q for a, b in zip(vec, other))
        if any(vec):
            return False
    return True


def t_stable_subspaces(space) -> list[SubmoduleBasis]:
    """Every T-stable subspace of the window, in `enumerate_submodules` order.

    T shifts a flat vector d places up and drops the top level.
    """
    q, d, dim = space.q, space.d, space.dim
    found = []
    for rows in echelon_forms(q, dim):
        span = {
            tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q for i in range(dim))
            for coeffs in itertools.product(range(q), repeat=len(rows))
        }
        if all((0,) * d + row[: dim - d] in span for row in rows):
            found.append(SubmoduleBasis(space, rows))
    found.sort(key=lambda m: (m.codim, m.rows))
    return found
