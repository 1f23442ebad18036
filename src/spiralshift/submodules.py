"""Exhaustive census of T-stable subspaces of a truncated power-series module.

The ambient object is (F_q[T]/T^N)^d, an F_q-space of dimension d*N whose
coordinates are indexed by the monomials T^a u_i, each reused as a cylinder
point: seat i, level a.  The census works in flat positions, the points'
height marks a*d + (i-1) (see `Config.marks`; `divmod(p, d)` gives back the
level and the 0-based seat), so flat order is the height order and T shifts
a vector d places up, dropping the top level.
Subspaces closed under T correspond exactly to the finite-colength
submodules of the untruncated module that contain T^N times everything, so
enumerating them is an oracle for submodule counts by colength up to N.

Two monomial orders are used, each given as a sort key of (level, 0-based
seat): the height order `hlex_key` (level, then seat), whose reduced
echelon bases are the canonical identity of a submodule, and the
seat-major order `lex_key` (seat, then level), under which the strata are
the diagonals of the lower-triangular generator matrices.  One lead rule
serves both: a vector's lead under `key` is its nonzero flat position p
least by `key(*divmod(p, d))`.  `echelonize`, under either order, is a
forward pass that keeps span rows with distinct leads, each 1, and a
back-substitution that clears each lead from the other rows.  The leading
module, the least lead level on each seat, is the stratum label under
either order; `leading_module` reads it off the stored hlex pivots, or
off the forward pass's leads under `lex_key`.
Both stratifications come from one generator: for a profile x, the
generator of seat i leads at level x_i and carries free coefficients from
F_q on the monomials of the other seats that lie above its lead in the
order and below their own seat's lead.  Under `hlex_key` that family is
the stratum of x, of q**W(x) members; under `lex_key` it is the group of
Hermite matrices with diagonal x.  One filler, `_fillings`, builds the
members' generators, and one T-power list per profile, sliced from them
(`ModuleSpace` has no T of its own), spans each member.  Under `hlex_key`
each power leads at its own flat position with coefficient 1, and those
make up the same pivot set P(x) = {a*d + (i-1) : x_i <= a < depth} for
every member, in any window of depth at least max x, so the stratum is
planned once: the powers from the highest pivot down, each with the
earlier pivots its shifted free cells land on.
A member then clears each power at those pivots only, with nothing sorted
or scanned.  Under `lex_key` the height-order leads can collide, and the
powers are echelonized.  Every elimination step is one `_reduce`.

`families(q, d, n, key)` and `Census.walk` share one capped path to the
families, `_capped_profiles`: it sums the members of the families profile
by profile against `cap`, stopping past it, before any is built.  Both
first build the window of depth n, which validates q, d and n.
`families` yields every family, one profile at a time, in that window.
`Census.walk` builds each hlex stratum x in its own window, of depth
max x: its generators' free cells all lie below that level, so every
member contains T^{max x} times the module and is determined by its image
there, in fewer and shorter rows.  It checks each stratum's members as
they come, from their rows alone: reduced echelon form, T-stability, the
pivot set P(x), worked out once per stratum from x and the window's
depth, and no repeats.  For a T-stable member the pivot set says the
leading module is x and the colength size(x).  Both basis checks read
columns, and all they need of a basis besides its columns is its pivots,
so they are planned once per pivot set (`_PivotFrame`): the walk plans
them once per stratum, and the scan once per pivot set, and each member
is transposed once.  The walk keeps only the stratum sizes; the colength
totals and the stratum sizes, with their predictions, are read off it.
The scan `enumerate_submodules`, grouped by `brute_strata`, is the
independent oracle the walk is tested against: it fills the free cells of
each P(x) in the window of depth n with the same filler and builds a
`SubmoduleBasis` only for the T-stable candidates.  Every enumerator
counts its exact work in `_check_work` before it starts and refuses past
`cap`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .cylinder import Config, configs_with_size
from .series import DEFAULT_CAP, FeasibilityError, product_formula
from .stats import size, weight


class InternalInvariantError(RuntimeError):
    """A bound that only an implementation bug can violate was exceeded."""


def is_prime(n: int) -> bool:
    """Miller-Rabin over the prime bases up to 37, which is exact for n below 3.1 * 10**23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    # n passes base a when a^odd is 1 or one of a^(odd * 2^k), k < twos, is -1.
    return all(
        pow(a, odd, n) == 1 or any(pow(a, odd << k, n) == n - 1 for k in range(twos))
        for a in bases
    )


def hlex_key(level: int, seat: int) -> tuple[int, int]:
    return (level, seat)


def lex_key(level: int, seat: int) -> tuple[int, int]:
    return (seat, level)


# A monomial order, given as the sort key of the monomial T^level u_(seat+1),
# with seat 0-based as `divmod(p, d)` gives it: hlex_key or lex_key.
MonomialKey = Callable[[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ModuleSpace:
    """The window (F_q[T]/T^depth)^d as a flat coefficient space.

    Vectors are tuples of length d*depth; the coefficient of T^a u_i sits at
    flat position a*d + (i-1), so flat order is the height order.  The
    modulus q must be a prime below 2**64.  Depth 0 is the zero space.
    """

    q: int
    d: int
    depth: int

    def __post_init__(self) -> None:
        if self.q >= 2**64:
            raise ValueError(f"modulus must be below 2^64, got {self.q}")
        if not is_prime(self.q):
            raise ValueError(f"modulus must be prime, got {self.q}")
        if self.d < 1:
            raise ValueError("width d must be positive")
        if self.depth < 0:
            raise ValueError(f"depth must be nonnegative, got {self.depth}")

    @property
    def dim(self) -> int:
        return self.d * self.depth


def echelonize(
    space: ModuleSpace, vectors: Iterable[tuple[int, ...]], key: MonomialKey = hlex_key
) -> tuple[tuple[int, ...], ...]:
    """Reduced echelon basis of the span, canonical for the monomial order `key`.

    A row's pivot is its lowest nonzero monomial under `key`.  A forward
    pass gives the span rows with distinct pivots, each 1; back-substitution
    clears every pivot from the other rows.  Rows come back sorted by pivot
    in `key` order.  Each vector must have length `space.dim` and entries
    in [0, q).
    """
    return _back_substitute(space, _forward_pass(space, vectors, key), key)


def _forward_pass(
    space: ModuleSpace, vectors: Iterable[tuple[int, ...]], key: MonomialKey
) -> list[tuple[int, tuple[int, ...]]]:
    """(pivot, row) pairs spanning the vectors, each row 1 at its pivot.

    Each vector is reduced by the rows kept so far, in the order they were
    kept; each kept row is zero at the earlier pivots, so that order clears
    them all, and the pivots are distinct.  The pivots are then the leading
    monomials under `key` of the whole span.
    """
    q, d, dim = space.q, space.d, space.dim
    positions = range(dim)
    key_of = [key(*divmod(p, d)) for p in positions]
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for vec in vectors:
        if len(vec) != dim:
            raise ValueError(f"vector of length {len(vec)} in a window of dimension {dim}")
        if min(vec, default=0) < 0 or max(vec, default=0) >= q:
            raise ValueError(f"vector entries must lie in [0, {q}), got {vec}")
        v = _reduce(q, rows, pivots, vec)
        lead = min(filter(v.__getitem__, positions), key=key_of.__getitem__, default=None)
        if lead is not None:
            if v[lead] != 1:
                inv = pow(v[lead], -1, q)
                v = [(a * inv) % q for a in v]
            rows.append(tuple(v))
            pivots.append(lead)
    return list(zip(pivots, rows))


def _back_substitute(
    space: ModuleSpace, pairs: list[tuple[int, tuple[int, ...]]], key: MonomialKey
) -> tuple[tuple[int, ...], ...]:
    """The reduced echelon rows of (pivot, row) pairs whose pivots are distinct and 1.

    A row's pivot is its lowest nonzero monomial under `key`.  Taken from
    the highest pivot down, a row is cleared at the pivots of the rows
    already done; those are zero at one another's pivots, so each clearing
    leaves the others in place.  Rows come back sorted by pivot in `key`
    order.
    """
    pairs = sorted(pairs, key=lambda pair: key(*divmod(pair[0], space.d)), reverse=True)
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for pivot, row in pairs:
        rows.append(_reduce(space.q, rows, pivots, row))
        pivots.append(pivot)
    return tuple(reversed(rows))


def _reduce(
    q: int,
    rows: Iterable[tuple[int, ...]],
    pivot_positions: Iterable[int],
    vec: tuple[int, ...],
) -> tuple[int, ...]:
    """vec with each row's pivot position cleared by that row, in turn.

    Each row must be 1 at its own pivot; when the rows are also zero at one
    another's pivots, as in a reduced echelon basis, this is the remainder
    of vec modulo their span.
    """
    for row, p in zip(rows, pivot_positions):
        c = vec[p]
        if c:
            vec = tuple([(a - c * b) % q for a, b in zip(vec, row)])
    return vec


@dataclass(frozen=True)
class SubmoduleBasis:
    """Canonical height-order reduced echelon basis of a subspace of a module window.

    Every row must have the window's dimension as its length and entries
    in [0, q).
    """

    space: ModuleSpace
    rows: tuple[tuple[int, ...], ...]
    # Each row's first nonzero position, read once from the rows; a zero row
    # gets dim, which `is_reduced` rejects.
    _pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        q, dim, rows = self.space.q, self.space.dim, self.rows
        for row in rows:
            if len(row) != dim:
                raise ValueError(f"row of length {len(row)} in a window of dimension {dim}")
        entries = set().union(*rows)
        if min(entries, default=0) < 0 or max(entries, default=0) >= q:
            row = next(row for row in rows if min(row) < 0 or max(row) >= q)
            raise ValueError(f"row entries must lie in [0, {q}), got {row}")
        pivots = tuple(next(itertools.compress(itertools.count(), row), dim) for row in rows)
        object.__setattr__(self, "_pivots", pivots)

    @property
    def codim(self) -> int:
        return self.space.dim - len(self.rows)

    def pivot_positions(self) -> tuple[int, ...]:
        """Flat position of each row's pivot: in height order, its first nonzero entry."""
        return self._pivots

    def is_reduced(self) -> bool:
        """Pivots distinct and increasing, each 1 and the only nonzero entry of its column."""
        pivots = self._pivots
        if any(a >= b for a, b in zip(pivots, pivots[1:])) or self.space.dim in pivots:
            return False
        frame = _PivotFrame(self.space, pivots)
        return frame.reduced(frame.columns(self.rows))

    def is_t_stable(self) -> bool:
        """Whether T maps the span into itself; the basis must be reduced."""
        frame = _PivotFrame(self.space, self._pivots)
        return frame.t_stable(frame.columns(self.rows))


class _PivotFrame:
    """The basis checks for rows with given pivots, worked out once for the pivots.

    Both checks read the basis column by column, from one transpose
    (`columns`), and need nothing of the rows but their pivots, so a
    stratum, or a scan of one pivot set, builds one frame and checks every
    member against it.  The pivots must be distinct positions of the
    window, one per row.
    """

    def __init__(self, space: ModuleSpace, pivots: tuple[int, ...]) -> None:
        q, d, dim, r = space.q, space.d, space.dim, len(pivots)
        zero = (0,) * (r + 1)
        self.q, self.dim, self.zero, self.pivots = q, dim, zero, pivots
        rank = {p: i for i, p in enumerate(pivots)}
        # Column p_i of a reduced basis is the unit vector at row i.
        self.units = [zero[:i] + (1,) + zero[i + 1 :] for i in range(r)]
        # Entry k of column f moved by T is its entry at the row whose pivot
        # is p_k + d, or the 0 at index r when there is none; entry r stays 0.
        self.up = [rank.get(p + d, r) for p in pivots] + [r]
        # The rows whose pivot lies a level above a free column.
        self.lows = [(i, p - d) for i, p in enumerate(pivots) if p >= d and p - d not in rank]
        # Each free column, with the column a level below it (None on level 0).
        self.free = [(f, f - d if f >= d else None) for f in range(dim) if f not in rank]

    def columns(self, rows: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        """The columns of the rows, each with a 0 appended at index r, the row count."""
        return list(zip(*rows, (0,) * self.dim))

    def reduced(self, columns: list[tuple[int, ...]]) -> bool:
        """Whether each pivot column is the unit vector at its row."""
        return list(map(columns.__getitem__, self.pivots)) == self.units

    def t_stable(self, columns: list[tuple[int, ...]]) -> bool:
        """Whether T maps the span of a reduced basis with these pivots into itself.

        A vector v lies in the span of a reduced basis exactly when it is
        the sum of the rows weighted by its entries at their pivots.  For
        v = T·row, whose entry at f is the row's entry at f - d (0 below
        level 1), that reads column by column: column f - d equals the sum
        over the rows i of rows[i][f] times column p_i - d.  A pivot column
        holds the lone 1 of its row, so it needs no check.  Where p_i - d is
        the pivot of row k, column p_i - d is the unit vector at k, so those
        rows only move the entries of column f to other rows; the few rows
        i whose p_i - d is a free column are summed where they are nonzero.
        """
        q, up, lows, zero = self.q, self.up, self.lows, self.zero
        for f, below in self.free:
            column = columns[f]
            total = tuple(map(column.__getitem__, up))
            for i, source in lows:
                c = column[i]
                if c:
                    total = tuple([(a + c * b) % q for a, b in zip(total, columns[source])])
            if total != (zero if below is None else columns[below]):
                return False
        return True


def leading_module(m: SubmoduleBasis, key: MonomialKey = hlex_key) -> Config:
    """Leading-term stratum label of a T-stable subspace under the monomial order `key`.

    Seat i carries the least level of a pivot on it, or the full depth when
    the seat has no pivot.  Under `hlex_key` the pivots are the stored
    rows'; under another key they are the forward pass's, whose pivots are
    the leading monomials of the span.  Only meaningful while no leading
    data is truncated away, i.e. when the colength is at most the depth.
    """
    space = m.space
    if m.codim > space.depth:
        raise ValueError(
            f"colength {m.codim} exceeds window depth {space.depth}; deepen the window"
        )
    if key is hlex_key:  # stored bases are hlex-echelonized
        pivots = m.pivot_positions()
    else:
        pivots = [p for p, _ in _forward_pass(space, m.rows, key)]
    lows = [space.depth] * space.d
    for p in pivots:
        level, seat = divmod(p, space.d)
        if level < lows[seat]:
            lows[seat] = level
    return Config(lows)


def _check_work(q: int, cell_lists: Iterable[list[list[int]]], cap: int) -> None:
    """Refuse before any enumeration when the summed work exceeds cap.

    Each entry, the free cells of every generator, costs q to their count.
    Summing stops at the first partial sum past cap, so the check itself
    looks at no more than cap + 1 entries.
    """
    total = 0
    for cells in cell_lists:
        total += q ** sum(map(len, cells))
        if total > cap:
            raise FeasibilityError(f"submodules to build exceed the cap {cap}")


def _fillings(q: int, dim: int, gens: list[tuple[int, list[int]]]) -> Iterator[tuple]:
    """Per filling of all the cells from F_q, one vector per (lead, cells) of `gens`.

    A vector is 1 at its lead, the filling's values on its cells, 0 elsewhere.
    """
    for assign in itertools.product(range(q), repeat=sum(len(cells) for _, cells in gens)):
        values = iter(assign)
        vectors = []
        for lead, cells in gens:
            vec = [0] * dim
            vec[lead] = 1
            for p in cells:
                vec[p] = next(values)
            vectors.append(tuple(vec))
        yield tuple(vectors)


def _echelon_cells(space: ModuleSpace, pivots: tuple[int, ...]) -> list[list[int]]:
    """Per height-order pivot, increasing, the free positions after it."""
    pivot_set = set(pivots)
    return [[c for c in range(p + 1, space.dim) if c not in pivot_set] for p in pivots]


def enumerate_submodules(
    q: int, d: int, depth: int, cap: int = DEFAULT_CAP
) -> list[SubmoduleBasis]:
    """Every T-stable subspace of the width-d, depth-N window, canonical form.

    Only the pivot sets a T-stable subspace can carry, P(x) for levels x
    from 0 to the depth, are scanned; the tests compare against a scan of
    every pivot set.  The candidates scanned, q to the free-cell count
    summed over those sets, may not exceed `cap`.  Output is sorted.
    """
    space = ModuleSpace(q, d, depth)

    def pivot_sets() -> Iterator[tuple[int, ...]]:
        return (_stratum_pivots(x, depth) for x in itertools.product(range(depth + 1), repeat=d))

    _check_work(q, (_echelon_cells(space, pivots) for pivots in pivot_sets()), cap)
    found = []
    for pivots in pivot_sets():
        frame = _PivotFrame(space, pivots)
        gens = list(zip(pivots, _echelon_cells(space, pivots)))
        for rows in _fillings(q, space.dim, gens):
            if frame.t_stable(frame.columns(rows)):
                found.append(SubmoduleBasis(space, rows))
    found.sort(key=lambda m: (m.codim, m.rows))
    return found


def brute_strata(q: int, d: int, n: int) -> dict[Config, list[SubmoduleBasis]]:
    """The brute oracle: the scanned submodules of colength at most n, by leading module.

    A colength-n submodule contains T^n times the ambient module, so the
    window of depth n, scanned by enumerate_submodules, holds each one whole.
    """
    strata: dict[Config, list[SubmoduleBasis]] = {}
    for m in enumerate_submodules(q, d, n):
        if m.codim <= n:
            strata.setdefault(leading_module(m), []).append(m)
    return strata


@dataclass(frozen=True)
class Census:
    """The number of submodules of colength at most n in each leading-term stratum.

    `sizes[x]` counts the submodules whose leading module is x, so their
    colength is the size of x.  The two laws read off it: the totals by
    colength are the product series at numeric q, and stratum x holds
    q**W(x) submodules.
    """

    q: int
    d: int
    n: int
    sizes: dict[Config, int]

    @classmethod
    def walk(cls, q: int, d: int, n: int, cap: int = DEFAULT_CAP) -> "Census":
        """Generate every stratum of size at most n and count its checked members.

        The strata are the hlex families of the profiles that
        `_capped_profiles` passes, so their members, summed, may not exceed
        `cap`.  Stratum x is built and checked in the window of depth
        max x: each member contains T^{max x} times the module, so its image
        there determines it.
        """
        profiles = _capped_profiles(ModuleSpace(q, d, n), hlex_key, cap)
        # Each depth up to n is max x for some x, such as (depth, 0, ..., 0).
        spaces = [ModuleSpace(q, d, depth) for depth in range(n + 1)]
        sizes = {}
        for x in profiles:
            space = spaces[max(x.levels)]
            sizes[x] = _checked_size(x, space, _family(x, space, hlex_key))
        return cls(q, d, n, sizes)

    def observed(self) -> list[int]:
        """Entry k counts the submodules of colength k."""
        totals = [0] * (self.n + 1)
        for x, members in self.sizes.items():
            totals[size(x)] += members
        return totals

    def predicted(self) -> list[int]:
        """Entry k is the t^k coefficient of the product series at numeric q."""
        by_t = product_formula(self.d, self.n).eval_q(self.q)
        return [by_t.get(k, 0) for k in range(self.n + 1)]

    def stratum_rows(self, colength: int) -> list[tuple[Config, int, int, int]]:
        """(x, W(x), predicted q**W(x), observed) for each profile x of that size."""
        rows = []
        for x in configs_with_size(self.d, colength):
            w = weight(x)
            rows.append((x, w, self.q**w, self.sizes.get(x, 0)))
        return rows


def _checked_size(x: Config, space: ModuleSpace, members: list[SubmoduleBasis]) -> int:
    """The number of members of stratum x, each checked independently of the generator.

    `space` is the stratum's window, of depth at least max x; the walk
    passes the window of depth max x.  Every member must lie in `space`, be
    in reduced echelon form, be T-stable, have the pivot set
    P(x) = {a*d + (i-1) : x_i <= a < depth}, and occur once.  P(x) is worked
    out once, from x and the depth alone; the checks read only the member's
    rows.  The pivots of a T-stable subspace fill a top range of levels on
    each seat, starting at its leading level, so for a T-stable member the
    pivot test says exactly that its leading module is x and its colength
    size(x); a seat with x_i = depth has no pivot, and its leading level
    reads as the depth.  Since a reduced basis is the submodule's canonical
    form and the leading module is a function of the submodule, no
    submodule is counted twice and the strata are disjoint too.  The checks
    are planned once per stratum, in the frame of P(x), and read each
    member from one transpose of its rows.  A member whose space or pivots
    are not the stratum's has failed already; its own basis checks name the
    first fault, in the same order.  A failure raises InternalInvariantError.
    """
    pivots = _stratum_pivots(x.levels, space.depth)
    frame = _PivotFrame(space, pivots)
    for m in members:
        inside = m.space == space and m.pivot_positions() == pivots
        # Reduced form comes first: the T-stability test reads the pivot columns.
        if inside:
            columns = frame.columns(m.rows)
            reduced = frame.reduced(columns)
            stable = reduced and frame.t_stable(columns)
        else:
            reduced = m.is_reduced()
            stable = reduced and m.is_t_stable()
        if not reduced:
            raise InternalInvariantError(f"stratum {x.levels}: member {m.rows} is not reduced")
        if not stable:
            raise InternalInvariantError(f"stratum {x.levels}: member {m.rows} is not T-stable")
        if not inside:
            raise InternalInvariantError(f"stratum {x.levels}: member {m.rows} lies outside it")
    if len(set(members)) != len(members):
        raise InternalInvariantError(f"stratum {x.levels}: a member occurs twice")
    return len(members)


def _stratum_pivots(levels: tuple[int, ...], depth: int) -> tuple[int, ...]:
    """P(x) for x = levels, increasing: the flat positions a*d + i with levels[i] <= a < depth."""
    d = len(levels)
    return tuple(p for p in range(d * depth) if p // d >= levels[p % d])


def _family_cells(x: Config, key: MonomialKey) -> list[list[int]]:
    """Per seat, the flat positions of the free cells of the generator leading at level x_i.

    They are the monomials above the leading one in the order `key` that lie
    on another seat, below that seat's own leading level.  Under `hlex_key`
    they number weight(x); under `lex_key` they are the cells below the
    diagonal x of a lower-triangular generator matrix, column by column.
    """
    d = x.d
    return [
        [
            a * d + j
            for j, nj in enumerate(x.levels)
            if j != seat
            for a in range(nj)
            if key(a, j) > key(level, seat)
        ]
        for seat, level in enumerate(x.levels)
    ]


def _family(x: Config, space: ModuleSpace, key: MonomialKey) -> list[SubmoduleBasis]:
    """The submodules spanned by one generator per seat, over every filling of the free cells.

    The generators live in `space`, a window of depth at least size(x), or
    under `hlex_key` at least max x, below which lie all the free cells.
    Seat i's generator is its leading monomial (seat i, level x_i), dropped
    when the window truncates it, plus coefficients from F_q on the cells
    of `_family_cells(x, key)`.  The submodule is spanned by the T-powers of
    every generator, listed once per profile until its lead leaves the
    window.  Under `lex_key` a power whose lead has left, though a lower
    cell has not, lies in the span of the others: the lex leads of the
    powers kept are distinct and number d*depth - size(x), the member's
    dimension.
    Under `hlex_key` each power leads, with coefficient 1, at its own flat
    position, and those positions are P(x) for every member; `_closure_plan`
    sorts the powers once per profile into the order that reduces them to
    the canonical basis, so a member clears each power only where a shifted
    free cell lands on an earlier pivot.  Under `lex_key` the height-order
    leads of the powers can collide, and the rows are echelonized under
    `hlex_key`, which drops the powers a filling makes zero.
    """
    q, d, depth, dim = space.q, x.d, space.depth, space.dim
    # Per seat with a lead in the window, the flat positions of the lead and
    # of the free cells; a truncated generator is zero and spans nothing.
    gens = []
    for seat, (level, cells) in enumerate(zip(x.levels, _family_cells(x, key))):
        if level < depth:
            gens.append((level * d + seat, cells))
        elif cells:
            # Unreachable: a depth at least max x, or at least the colength
            # under lex_key, forces the cell list empty here.
            raise InternalInvariantError("free cells attached to a truncated leading monomial")
    # Each generator's T-powers, as (g, shift), until its lead leaves the window.
    powers = [(g, shift) for g, (lead, _) in enumerate(gens) for shift in range(0, dim - lead, d)]
    plan = _closure_plan(gens, powers) if key is hlex_key else None
    zeros = (0,) * dim
    found = []
    for vectors in _fillings(q, dim, gens):
        if plan is not None:
            rows: list[tuple[int, ...]] = []
            for g, shift, earlier, landing in plan:
                power = zeros[:shift] + vectors[g][: dim - shift]
                if earlier:
                    power = _reduce(q, map(rows.__getitem__, earlier), landing, power)
                rows.append(power)
            found.append(SubmoduleBasis(space, tuple(reversed(rows))))
        else:
            closure = [zeros[:shift] + vectors[g][: dim - shift] for g, shift in powers]
            found.append(SubmoduleBasis(space, echelonize(space, closure)))
    return found


def _closure_plan(
    gens: list[tuple[int, list[int]]], powers: list[tuple[int, int]]
) -> list[tuple[int, int, list[int], list[int]]]:
    """How to reduce the T-powers of hlex generators to reduced echelon rows.

    `gens` holds each generator's lead and free cells, all above the lead,
    and `powers` each nonzero power as (g, shift).  The power of generator
    g shifted by k*d leads at lead + k*d, and those leads are distinct.
    Taken from the highest lead down, each power needs clearing only at the
    earlier leads that its shifted free cells land on: the rows already
    done are zero at one another's leads and the power is zero at every
    other one.  One entry per power, in that order: (g, the shift, the
    indices in that order of the rows to clear by, their leads).
    """
    order = sorted([(gens[g][0] + shift, g, shift) for g, shift in powers], reverse=True)
    index = {pivot: i for i, (pivot, _, _) in enumerate(order)}
    plan = []
    for _, g, shift in order:
        landing = [c + shift for c in gens[g][1] if c + shift in index]
        plan.append((g, shift, [index[p] for p in landing], landing))
    return plan


def families(
    q: int, d: int, n: int, key: MonomialKey = hlex_key, cap: int = DEFAULT_CAP
) -> Iterator[tuple[Config, list[SubmoduleBasis]]]:
    """(x, family of x under `key`) for every profile x of size at most n, smallest first.

    Under `hlex_key` the family of x is the stratum of submodules with
    leading module x, of q**W(x) members; under `lex_key` it is the group of
    Hermite matrices with diagonal x: column j is the generator T^{x_j} u_j
    plus, on each seat i > j, a polynomial of degree below x_i.  Every
    family lives in the one window of depth n, built first, which validates
    q, d and n; the members are counted against `cap` by `_capped_profiles`
    before any family is built.
    """
    space = ModuleSpace(q, d, n)
    for x in _capped_profiles(space, key, cap):
        yield x, _family(x, space, key)


def _capped_profiles(space: ModuleSpace, key: MonomialKey, cap: int) -> Iterator[Config]:
    """The profiles of size at most the depth, smallest first, once their families fit `cap`.

    The members of the families under `key`, q to each family's free-cell
    count, are summed against `cap` profile by profile before this returns,
    so a refusal looks at no more than cap + 1 profiles.
    """
    d, n = space.d, space.depth

    def profiles() -> Iterator[Config]:
        return (x for k in range(n + 1) for x in configs_with_size(d, k))

    _check_work(space.q, (_family_cells(x, key) for x in profiles()), cap)
    return profiles()
