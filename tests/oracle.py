"""Slow reference implementations of the spiral shifting operators and the census.

The operators follow the definition literally: each mover walks up the
spiral one position at a time until it reaches a seat of the moving group,
and powers and actions are loops of single applications.  The closed forms
in `spiralshift.cylinder` are tested against them; they share only the
value types and the linear spiral index.  `shift_all` is the closed form of
one rank-1 step, `unit` the exponent vector of one rank-j step, and
`distance` the floored height gap whose sum over pairs of points defines
the weight.  `compositions` is the head-first recursion and `is_tight` the
slot-by-slot reading of tightness, the references for the stars-and-bars
and height-mark versions in `spiralshift.cylinder`.

The census reference scans every reduced echelon form of every pivot set
and tests T-stability by listing the span, so it shares nothing with
`enumerate_submodules` but the basis value type.  `monomial_vector` builds
the flat vector of one monomial of a window.  `leading_profile` reads the
per-seat leading levels off the whole span, with no echelon form.
"""

import itertools

from spiralshift import (
    Config,
    MultiIndex,
    Slot,
    SubmoduleBasis,
    slot_from_index,
    slot_index,
    sorted_slots,
)


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


def monomial_vector(space, slot: Slot) -> tuple[int, ...]:
    """The flat vector of the monomial `slot` in the window `space`."""
    vec = [0] * space.dim
    vec[slot_index(slot, space.d)] = 1
    return tuple(vec)


def leading_profile(m: SubmoduleBasis, key) -> tuple[int, ...]:
    """Per seat, the least level of a leading monomial under `key` of a nonzero span vector.

    The span is listed from every coefficient tuple.  A seat that leads no
    vector gets the window depth.
    """
    space = m.space
    q, dim = space.q, space.dim
    lows = [space.depth] * space.d
    for coeffs in itertools.product(range(q), repeat=len(m.rows)):
        vec = [sum(c * row[i] for c, row in zip(coeffs, m.rows)) % q for i in range(dim)]
        if any(vec):
            lead = min((slot_from_index(p, space.d) for p, c in enumerate(vec) if c), key=key)
            lows[lead.seat - 1] = min(lows[lead.seat - 1], lead.level)
    return tuple(lows)


def _echelon_forms(q: int, dim: int):
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


def t_stable_subspaces(space) -> list[SubmoduleBasis]:
    """Every T-stable subspace of the window, in `enumerate_submodules` order.

    T shifts a flat vector d places up and drops the top level.
    """
    q, d, dim = space.q, space.d, space.dim
    found = []
    for rows in _echelon_forms(q, dim):
        span = {
            tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q for i in range(dim))
            for coeffs in itertools.product(range(q), repeat=len(rows))
        }
        if all((0,) * d + row[: dim - d] in span for row in rows):
            found.append(SubmoduleBasis(space, rows))
    found.sort(key=lambda m: (m.codim, m.rows))
    return found
