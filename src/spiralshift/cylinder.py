"""Point configurations on a discrete cylinder and the spiral shifting operators.

A tuple x = (n_1, ..., n_d) of nonnegative integers is drawn as d points on
the cylinder [1..d] x N, one per seat: seat i carries a point at level n_i.
Points are compared by height, level + seat/d, which for every width d is
exactly the lexicographic order on (level, seat); no fractional arithmetic
is ever needed.  Walking the cylinder upward in height order traces a
spiral through all of [1..d] x N, and a point's place on it is its height
mark: seat i at level a has mark a*d + (i-1), which `Config.marks` gives
for every point of a configuration and `divmod(mark, d)` turns back into
(level, 0-based seat).  Marks are the package's only coordinates for
points.

The operator of rank j keeps the j-1 lowest points of a configuration fixed
and moves each remaining point up the spiral to the next seat occupied by
the moving group; the point on the group's highest seat wraps around to the
group's lowest seat one level up.  These d operators commute and give a
free, transitive action of the semigroup N^d on configurations, inverted at
the all-zero configuration by `decompose`.

Powers have a closed form.  The movers only rise, so they stay above the
fixed points and keep the same m = d-j+1 seats forever.  Number the points
of those seats along their own sub-spiral: the point at `level` on the
seat of rank r among them (r = 0..m-1) has sub-index level*m + r.  One
application raises every mover's sub-index by one, so k applications raise
it by k.  `shift_from` therefore costs one sort, O(d log d), whatever k,
and `act` makes at most d such calls, O(d^2 log d).  `decompose` reads
each exponent off as a least sub-index, with no sort and no operator call,
O(d^2).  Both costs hold whatever the exponents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import sub
from typing import Iterator


@dataclass(frozen=True)
class Config:
    """A point of N^d: seat i holds a cylinder point at level `levels[i-1]`."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("a configuration needs at least one seat")
        if min(self.levels) < 0:
            raise ValueError(f"levels must be nonnegative, got {self.levels}")

    @property
    def d(self) -> int:
        return len(self.levels)

    @classmethod
    def origin(cls, d: int) -> "Config":
        if d < 1:
            raise ValueError("width d must be positive")
        return cls((0,) * d)

    def marks(self) -> tuple[int, ...]:
        """Per seat i, the spiral position n_i*d + (i-1) of its point: its height mark.

        This is the one rule from seat and level to position; `divmod(mark, d)`
        inverts it to (level, 0-based seat).  Sorting the marks ranks the
        points by height.
        """
        d = len(self.levels)
        return tuple([n * d + i for i, n in enumerate(self.levels)])


@dataclass(frozen=True)
class MultiIndex:
    """Operator exponents (a_1, ..., a_d): apply the rank-j operator a_j times."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a multi-index needs at least one component")
        if any(s < 0 for s in self.steps):
            raise ValueError(f"steps must be nonnegative, got {self.steps}")

    @property
    def d(self) -> int:
        return len(self.steps)

    @property
    def total(self) -> int:
        return sum(self.steps)

    @classmethod
    def zero(cls, d: int) -> "MultiIndex":
        return cls((0,) * d)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return MultiIndex(tuple(a + b for a, b in zip(self.steps, other.steps)))


def shift_from(x: Config, j: int, k: int = 1) -> Config:
    """The rank-j spiral shifting operator, applied k times.

    The j-1 lowest points stay put; every other point moves up the spiral
    to the next seat occupied by the moving group.  Exactly one mover (the
    one on the group's highest seat) gains a level, so the total level
    rises by one per application.  Rank 1 moves every point one spiral
    step up: (n_d + 1, n_1, ..., n_{d-1}).  Computed in closed form: each
    mover's sub-index (see the module docstring) rises by k.
    """
    d = x.d
    if not 1 <= j <= d:
        raise ValueError(f"operator rank must lie in [1, {d}], got {j}")
    if k < 0:
        raise ValueError(f"applications must be nonnegative, got {k}")
    levels = x.levels
    # Seats from the lowest point up, less the j-1 lowest; the sort is
    # stable, so equal levels keep seat order, as height requires.
    seats = sorted(sorted(range(d), key=levels.__getitem__)[j - 1 :])
    m = len(seats)
    out = list(levels)
    for rank, seat in enumerate(seats):
        level, landing = divmod(levels[seat] * m + rank + k, m)
        out[seats[landing]] = level
    return Config(tuple(out))


def act(a: MultiIndex, x: Config) -> Config:
    """Apply the rank-j operator a_j times, for every j.

    The operators commute, so the application order is immaterial; ranks are
    applied from d down to 1, each in one closed-form `shift_from` call, so
    the cost is O(d^2 log d) whatever the exponents.
    """
    if a.d != x.d:
        raise ValueError(f"dimension mismatch: index has {a.d} components, configuration {x.d}")
    out = x
    for j in range(x.d, 0, -1):
        if a.steps[j - 1]:
            out = shift_from(out, j, a.steps[j - 1])
    return out


def decompose(x: Config) -> MultiIndex:
    """The unique exponents a with act(a, origin) == x.

    Peeled off rank by rank, with no operator call.  On the origin, `act`
    applies ranks d down to 1; when rank r acts, seats 1..r-1 are still at
    level 0 and hold the r-1 lowest points, so rank r moves exactly the
    points on seats r..d, along their sub-spiral, and seat r is the mover of
    least sub-index, 0.  So a_r is the least sub-index of those points in
    x, and lowering every sub-index by a_r undoes rank r and leaves seat r
    at level 0.  That costs O(d^2) whatever the exponents.
    """
    rest = x.levels
    steps = []
    while rest:
        m = len(rest)
        subs = [n * m + i for i, n in enumerate(rest)]
        a = min(subs)
        undone = [0] * m
        for s in subs:
            level, seat = divmod(s - a, m)
            undone[seat] = level
        steps.append(a)
        rest = undone[1:]
    return MultiIndex(tuple(steps))


def is_tight(x: Config, r: int) -> bool:
    """Whether the rank-r point sits as low as the seats above it allow.

    True iff, among cylinder points whose seat belongs to the top d-r+1
    points of x, the rank-r point of x is the least one strictly higher than
    the rank-(r-1) point.  Preserved by every operator of rank below r.
    Worked on height marks: the least point of a mark's seat above the mark
    `below` lies (mark - below) mod d places above it, and that gap is never
    0 because the seats differ.
    """
    d = x.d
    if not 2 <= r <= d:
        raise ValueError(f"rank must lie in [2, {d}], got {r}")
    ranked = sorted(x.marks())
    below = ranked[r - 2]
    return below + min((m - below) % d for m in ranked[r - 1 :]) == ranked[r - 1]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in lexicographic order.

    Stars and bars: the `parts - 1` bars stand at the partial sums, a
    nondecreasing tuple of cuts in [0, total], and the parts are the gaps
    between consecutive cuts.  Cuts taken in lexicographic order give the
    tuples in lexicographic order.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def configs_with_size(d: int, n: int) -> Iterator[Config]:
    """Every width-d configuration whose levels sum to n."""
    for levels in compositions(n, d):
        yield Config(levels)
