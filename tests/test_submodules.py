"""The finite-field census backend.

Independent oracles: Galois numbers (all subspaces, counted by Gaussian
binomials), complete homogeneous sums for the colength totals, the
all-pivot-sets scan `oracle.t_stable_subspaces`, and the brute scan
`brute_strata` that the stratum walk `Census.walk` is pinned against.  The
family cells and families, all in flat positions, are pinned to references
built from `oracle.Slot`, and the leading modules to the span-listing
`oracle.leading_profile`.  The column form of T-stability is pinned to the
row reduction `oracle.is_t_stable` on every reduced echelon basis of small
windows.
"""

import itertools
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from spiralshift import (
    Census,
    Config,
    FeasibilityError,
    InternalInvariantError,
    ModuleSpace,
    SubmoduleBasis,
    brute_strata,
    configs_with_size,
    echelonize,
    enumerate_submodules,
    families,
    hlex_key,
    leading_module,
    lex_key,
    size,
    weight,
)

import oracle
import spiralshift.submodules as submodules
from oracle import Slot, monomial_vector, slot_from_index, slot_index

# Each package monomial key, on (level, 0-based seat), with the reference order on slots.
KEY_ORDERS = [(hlex_key, oracle.hlex_order), (lex_key, oracle.lex_order)]


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def galois_number(n, q):
    """Total number of subspaces of an n-dimensional space over F_q."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def complete_homogeneous(n, values):
    """Sum of all degree-n monomials in the given values."""
    return sum(
        eval_product(combo)
        for combo in itertools.combinations_with_replacement(values, n)
    )


def eval_product(combo):
    out = 1
    for v in combo:
        out *= v
    return out


class TestModuleSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModuleSpace(4, 2, 2)
        with pytest.raises(ValueError):
            ModuleSpace(2, 0, 2)
        with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
            ModuleSpace(2, 2, -1)

    def test_rejects_composite_moduli(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                ModuleSpace(bad, 2, 2)

    def test_is_prime_agrees_with_a_sieve(self):
        limit = 10**4
        sieve = [False, False] + [True] * (limit - 2)
        for p in range(2, 100):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
        assert [n for n in range(limit) if submodules.is_prime(n)] == [
            n for n in range(limit) if sieve[n]
        ]

    def test_is_prime_rejects_carmichael_numbers_and_prime_squares(self):
        # 1909001 = 41 * 101 * 461 is a Carmichael number with no factor among
        # the bases; 3825123056546413051 is a strong pseudoprime to every prime
        # base up to 23.
        for n in (561, 41041, 1909001, 3825123056546413051):
            assert not submodules.is_prime(n), n
        for n in (4, 9, 37**2, 41**2, 65521**2, (2**31 - 1) ** 2):
            assert not submodules.is_prime(n), n
        for p in (41, 65521, 2**31 - 1, 2**61 - 1, 2**64 - 59):
            assert submodules.is_prime(p), p

    def test_shift_examples(self):
        space = ModuleSpace(2, 2, 3)
        u1 = monomial_vector(space, Slot(1, 0))
        assert oracle.mul_by_t(space, u1) == monomial_vector(space, Slot(1, 1))
        top = monomial_vector(space, Slot(2, 2))
        assert oracle.mul_by_t(space, top) == (0,) * space.dim
        mixed = tuple(
            a + b
            for a, b in zip(
                monomial_vector(space, Slot(1, 0)), monomial_vector(space, Slot(2, 1))
            )
        )
        shifted = oracle.mul_by_t(space, mixed)
        expected = tuple(
            a + b
            for a, b in zip(
                monomial_vector(space, Slot(1, 1)), monomial_vector(space, Slot(2, 2))
            )
        )
        assert shifted == expected


@st.composite
def echelon_inputs(draw):
    """(space, up to 6 vectors of it, key) with q in {2, 3, 5}, d <= 3 and depth <= 3."""
    q, d, depth = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    space = ModuleSpace(q, d, depth)
    entries = st.integers(0, q - 1)
    vector = st.lists(entries, min_size=space.dim, max_size=space.dim).map(tuple)
    return space, draw(st.lists(vector, max_size=6)), draw(st.sampled_from([hlex_key, lex_key]))


class TestEchelonize:
    def test_zero_gives_empty_basis(self):
        space = ModuleSpace(2, 2, 2)
        assert echelonize(space, [(0,) * space.dim]) == ()

    def test_splits_combined_generators(self):
        space = ModuleSpace(2, 2, 1)
        u1 = monomial_vector(space, Slot(1, 0))
        u1_plus_u2 = (1, 1)
        assert echelonize(space, [u1, u1_plus_u2]) == ((1, 0), (0, 1))

    @given(st.integers(0, 1000))
    def test_span_stability(self, seed):
        import random

        rng = random.Random(seed)
        space = ModuleSpace(3, 2, 2)
        vectors = [
            tuple(rng.randrange(3) for _ in range(space.dim)) for _ in range(3)
        ]
        rows = echelonize(space, vectors)
        if rows:
            coeffs = [rng.randrange(3) for _ in rows]
            extra = tuple(
                sum(c * r[k] for c, r in zip(coeffs, rows)) % 3
                for k in range(space.dim)
            )
            assert echelonize(space, list(vectors) + [extra]) == rows
        assert SubmoduleBasis(space, rows).is_reduced()

    @given(echelon_inputs())
    def test_keyed_form_is_reduced_and_canonical(self, case):
        space, vectors, key = case
        rows = echelonize(space, vectors, key)
        leads = [oracle.lead(row, space.d, key) for row in rows]
        ranks = [key(*divmod(p, space.d)) for p in leads]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))
        for i, p in enumerate(leads):
            assert [row[p] for row in rows] == [int(k == i) for k in range(len(rows))]
        assert echelonize(space, rows, key) == rows
        assert echelonize(space, rows) == echelonize(space, vectors)

    def test_reduced_form_check(self):
        space = ModuleSpace(3, 2, 2)
        u = [(1, 0, 0, 0), (0, 1, 0, 0)]

        def reduced(*rows):
            return SubmoduleBasis(space, rows).is_reduced()

        assert reduced() and reduced(u[0], (0, 1, 2, 0))
        assert not reduced(u[1], u[0])  # pivots out of order
        assert not reduced(u[0], u[0])  # a repeated pivot
        assert not reduced((2, 0, 0, 0))  # a pivot entry other than 1
        assert not reduced((1, 1, 0, 0), u[1])  # a pivot column not cleared
        assert not reduced(u[0], (0,) * 4)  # a zero row


class TestLeadingModule:
    def test_full_module_and_simple_quotients(self):
        space = ModuleSpace(2, 3, 2)
        monomials = [monomial_vector(space, slot_from_index(k, space.d)) for k in range(space.dim)]
        full = SubmoduleBasis(space, echelonize(space, monomials))
        assert leading_module(full) == Config((0, 0, 0))

        gens = [monomial_vector(space, Slot(1, 1))] + [
            monomial_vector(space, Slot(i, 0)) for i in (2, 3)
        ]
        closed = gens + [oracle.mul_by_t(space, g) for g in gens]
        m = SubmoduleBasis(space, echelonize(space, closed))
        assert leading_module(m) == Config((1, 0, 0))

    def test_hand_echelonized_mixed_generator(self):
        # Span of u1 + Tu2, Tu1 and Tu2 also contains u1; pivots are u1, Tu1,
        # Tu2, so the profile is (0, 1) with colength 1.
        space = ModuleSpace(2, 2, 2)
        vecs = [(1, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)]
        m = SubmoduleBasis(space, echelonize(space, vecs))
        assert m.codim == 1
        assert leading_module(m) == Config((0, 1))

    def test_level_one_pivots_on_both_seats(self):
        space = ModuleSpace(2, 2, 2)
        m = SubmoduleBasis(space, echelonize(space, [(0, 0, 1, 0), (0, 0, 0, 1)]))
        assert m.codim == 2
        assert leading_module(m) == Config((1, 1))

    @pytest.mark.parametrize("q,d,depth", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
    def test_pivot_profile_equals_the_span_oracle(self, q, d, depth):
        # The oracle takes leading monomials over the whole span, no echelon form.
        for m in enumerate_submodules(q, d, depth):
            if m.codim <= depth:
                for key in (hlex_key, lex_key):
                    got = leading_module(m, key).levels
                    assert got == oracle.leading_profile(m, key), (m.rows, key)

    def test_rejects_colength_beyond_depth(self):
        empty = SubmoduleBasis(ModuleSpace(2, 2, 1), ())
        with pytest.raises(ValueError, match="colength 2 exceeds window depth 1"):
            leading_module(empty)

    def test_lex_rejects_colength_beyond_depth_too(self):
        # The lex pivots come from the forward pass, after the same guard.
        space = ModuleSpace(2, 2, 2)
        m = SubmoduleBasis(space, echelonize(space, [(0, 0, 1, 0)]))
        with pytest.raises(ValueError, match="colength 3 exceeds window depth 2"):
            leading_module(m, lex_key)


class TestEnumerateSubmodules:
    def test_width_one_ideals(self):
        subs = enumerate_submodules(2, 1, 2)
        assert len(subs) == 3
        assert sorted(m.codim for m in subs) == [0, 1, 2]

    def test_depth_one_means_every_subspace(self):
        # T acts as zero, so all subspaces qualify; the total is the Galois number.
        for q, d in ((2, 2), (3, 2), (2, 3)):
            subs = enumerate_submodules(q, d, 1)
            assert len(subs) == galois_number(d, q)

    @pytest.mark.parametrize("q,d,depth", [(2, 2, 2), (3, 2, 2), (2, 1, 3), (2, 3, 1)])
    def test_pruned_matches_unpruned_oracle(self, q, d, depth):
        assert enumerate_submodules(q, d, depth) == oracle.t_stable_subspaces(
            ModuleSpace(q, d, depth)
        )

    def test_every_result_is_t_stable_and_dimension_consistent(self):
        for q, d, depth in ((2, 2, 3), (3, 2, 2), (2, 3, 2)):
            subs = enumerate_submodules(q, d, depth)
            assert len(set(subs)) == len(subs)
            for m in subs:
                assert m.is_t_stable()
                if m.codim <= depth:
                    assert sum(leading_module(m).levels) == m.codim

    def test_cap_is_enforced(self):
        with pytest.raises(FeasibilityError):
            enumerate_submodules(2, 3, 3, cap=2**8)


class TestTStability:
    @pytest.mark.parametrize("q,d,depth", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
    def test_column_form_equals_the_row_reduction(self, q, d, depth):
        # Every reduced echelon basis of the window, under every pivot set,
        # not only the profiles a T-stable subspace can carry.
        space = ModuleSpace(q, d, depth)
        seen = set()
        for rows in oracle.echelon_forms(q, space.dim):
            m = SubmoduleBasis(space, rows)
            expected = oracle.is_t_stable(m)
            assert m.is_t_stable() == expected, rows
            seen.add(expected)
        assert seen == {False, True}


def brute_census(q, d, n):
    strata = brute_strata(q, d, n)
    return Census(q, d, n, {x: len(group) for x, group in strata.items()})


def count_by_colength(q, d, depth):
    return brute_census(q, d, depth).observed()


class TestCountByColength:
    def test_literal_grids(self):
        assert count_by_colength(2, 2, 3) == [1, 3, 7, 15]
        assert count_by_colength(2, 3, 2) == [1, 7, 35]
        assert count_by_colength(3, 2, 2) == [1, 4, 13]

    @pytest.mark.parametrize("q,d,depth", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
    def test_matches_complete_homogeneous_oracle(self, q, d, depth):
        powers = [q**i for i in range(d)]
        expected = [complete_homogeneous(n, powers) for n in range(depth + 1)]
        assert count_by_colength(q, d, depth) == expected
        assert Census(q, d, depth, {}).predicted() == expected


class TestCensus:
    def test_strata_partition_the_colength_classes(self):
        q, d, depth = 2, 2, 3
        subs = enumerate_submodules(q, d, depth)
        strata = brute_strata(q, d, depth)
        grouped = [m for group in strata.values() for m in group]
        assert len(grouped) == len(set(grouped))
        assert set(grouped) == {m for m in subs if m.codim <= depth}
        for x, group in strata.items():
            assert all(m.codim == sum(x.levels) and leading_module(m) == x for m in group)

    def test_stratum_rows_pair_prediction_and_observation(self):
        census = Census.walk(2, 2, 2)
        assert census.stratum_rows(2) == [
            (Config((0, 2)), 2, 4, 4),
            (Config((1, 1)), 0, 1, 1),
            (Config((2, 0)), 1, 2, 2),
        ]

    def test_leaves_out_colengths_above_n(self):
        # The depth-1 window holds the colength-2 zero subspace, which must be left out.
        census = brute_census(2, 2, 1)
        assert census.observed() == [1, 3]
        assert census.predicted() == [1, 3]


class TestStrata:
    def test_origin_stratum_is_the_full_module(self):
        for q, d in ((2, 2), (3, 3)):
            strata = dict(families(q, d, 0))[Config.origin(d)]
            assert len(strata) == 1
            assert strata[0].codim == 0

    def test_counts_are_q_to_the_weight(self):
        assert len(dict(families(2, 2, 2))[Config((2, 0))]) == 2
        assert len(dict(families(3, 2, 2))[Config((0, 2))]) == 9

    def test_set_equals_brute_force_stratum(self):
        q, d, depth = 2, 2, 3
        subs = enumerate_submodules(q, d, depth)
        strata = dict(families(q, d, depth))
        for n in range(depth + 1):
            for x in configs_with_size(d, n):
                brute = {m for m in subs if m.codim == n and leading_module(m) == x}
                direct = strata[x]
                assert len(set(direct)) == len(direct) == q ** weight(x)
                assert set(direct) == brute

    def test_yields_every_profile_smallest_size_first(self):
        xs = [x for x, _ in families(2, 3, 2)]
        assert xs == [x for n in range(3) for x in configs_with_size(3, n)]


def hermite_members(q, d, depth, n):
    """The members of the lex families of size n in the window of `depth`, concatenated."""
    return [m for x, group in families(q, d, depth, lex_key) if size(x) == n for m in group]


class TestHermite:
    def test_colength_zero(self):
        got = hermite_members(2, 2, 0, 0)
        assert len(got) == 1
        assert got[0].codim == 0

    def test_three_matrices_at_colength_one(self):
        assert len(hermite_members(2, 2, 1, 1)) == 3

    def test_group_sizes_follow_below_diagonal_cells(self):
        for q, d, n in ((2, 2, 2), (3, 2, 2), (2, 3, 2)):
            for x, group in families(q, d, n, lex_key):
                diag = x.levels
                cells = sum(diag[i - 1] for j in range(1, d + 1) for i in range(j + 1, d + 1))
                assert len(group) == q**cells
                assert len(set(group)) == len(group)

    def test_covers_brute_force_colength_classes(self):
        for q, d, depth in ((2, 2, 3), (3, 2, 2), (2, 3, 2)):
            subs = enumerate_submodules(q, d, depth)
            for n in range(depth + 1):
                brute = {m for m in subs if m.codim == n}
                matrices = hermite_members(q, d, depth, n)
                assert len(set(matrices)) == len(matrices)
                assert set(matrices) == brute

    def test_seat_major_pivot_profile_recovers_the_diagonal(self):
        for x, group in families(2, 3, 2, lex_key):
            for m in group:
                assert leading_module(m, lex_key) == x


# Grids past the reach of the brute scan, where the two stratifications check each other.
PAST_BRUTE_GRIDS = [(2, 2, 6), (2, 3, 4), (3, 3, 3)]


class TestStratificationsAgree:
    @pytest.mark.parametrize("q,d,n", PAST_BRUTE_GRIDS)
    def test_lex_and_hlex_families_split_each_colength_class(self, q, d, n):
        hlex = dict(families(q, d, n, hlex_key))
        lex = dict(families(q, d, n, lex_key))
        totals = []
        for k in range(n + 1):
            groups = [group for x, group in lex.items() if size(x) == k]
            covered = set().union(*groups)
            assert len(covered) == sum(map(len, groups)), k
            assert covered == set().union(*(g for x, g in hlex.items() if size(x) == k)), k
            totals.append(len(covered))
        assert totals == Census.walk(q, d, n).observed()
        for x, group in lex.items():
            assert all(leading_module(m, lex_key) == x for m in group), x


def below_diagonal(diag):
    """The cells (seat i, column j, degree a) below the diagonal of a lower-triangular matrix."""
    d = len(diag)
    return [
        (i, j, a)
        for j in range(1, d + 1)
        for i in range(j + 1, d + 1)
        for a in range(diag[i - 1])
    ]


SMALL_CONFIGS = [x for d in range(1, 5) for n in range(6) for x in configs_with_size(d, n)]


class TestFamilyCells:
    def test_cells_equal_the_slot_reference(self):
        for x in SMALL_CONFIGS:
            for key, order in KEY_ORDERS:
                expected = [
                    [slot_index(cell, x.d) for cell in cells]
                    for cells in oracle.family_cells(x, order)
                ]
                assert submodules._family_cells(x, key) == expected, (x, key)

    def test_lex_cells_are_the_cells_below_the_diagonal(self):
        for x in SMALL_CONFIGS:
            cells = submodules._family_cells(x, lex_key)
            flat = [
                (slot.seat, column, slot.level)
                for column, seat_cells in enumerate(cells, start=1)
                for slot in (slot_from_index(p, x.d) for p in seat_cells)
            ]
            assert flat == below_diagonal(x.levels), x

    def test_hlex_cells_number_the_weight(self):
        # The stratum law at the cell level: stratum x has q**weight(x) members for every q.
        for x in SMALL_CONFIGS:
            assert sum(map(len, submodules._family_cells(x, hlex_key))) == weight(x), x


def echelonized_family(x, q, depth, key):
    """The family of x built the slow way from `oracle.family_cells`: every generator's
    `depth` T-powers, echelonized."""
    space = ModuleSpace(q, x.d, depth)
    gens = [
        (Slot(seat, level), cells)
        for seat, (level, cells) in enumerate(
            zip(x.levels, oracle.family_cells(x, dict(KEY_ORDERS)[key])), start=1
        )
        if level < depth
    ]
    found = []
    for assign in itertools.product(range(q), repeat=sum(len(cells) for _, cells in gens)):
        values = iter(assign)
        closure = []
        for lead, cells in gens:
            gen = list(monomial_vector(space, lead))
            for cell in cells:
                gen[slot_index(cell, x.d)] = next(values)
            gen = tuple(gen)
            for _ in range(depth):
                closure.append(gen)
                gen = oracle.mul_by_t(space, gen)
        found.append(SubmoduleBasis(space, echelonize(space, closure)))
    return sorted(found, key=lambda m: (m.codim, m.rows))


WALK_GRIDS = [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 4), (2, 3, 3)]


class TestWalk:
    @pytest.mark.parametrize("q,d,n", WALK_GRIDS)
    def test_equals_brute_oracle_per_stratum(self, monkeypatch, q, d, n):
        family = submodules._family
        walked = {}

        def recording(x, space, key):
            # Each stratum is walked in the window of depth max x, the brute
            # scan's in the window of depth n.
            assert space.depth == max(x.levels)
            members = family(x, space, key)
            walked[x] = {oracle.deepen(m, n) for m in members}
            return members

        monkeypatch.setattr(submodules, "_family", recording)
        census = Census.walk(q, d, n)
        brute = brute_strata(q, d, n)
        assert walked == {x: set(group) for x, group in brute.items()}
        assert census.sizes == {x: len(group) for x, group in brute.items()}
        assert census.observed() == brute_census(q, d, n).observed() == census.predicted()

    @pytest.mark.parametrize(
        "fault,message",
        [
            ("duplicate", "occurs twice"),
            ("not_t_stable", "is not T-stable"),
            ("wrong_stratum", "lies outside it"),
            ("swapped_levels", "lies outside it"),
            ("not_reduced", "is not reduced"),
            ("flipped_free_entry", "is not T-stable"),
            ("unordered_rows", "is not reduced"),
        ],
    )
    def test_member_guards_fire(self, monkeypatch, fault, message):
        # A member with the stratum's pivots is checked in the stratum's
        # frame (not_reduced, flipped_free_entry); any other member by its
        # own basis methods, which name the same first fault.  The faults
        # that alter rows act on stratum (0, 2), whose window of depth 2
        # holds two rows: (1, a, 0, b) and (0, 0, 1, a).
        family = submodules._family

        def faulty(x, space, key):
            if fault == "wrong_stratum":
                return family(Config.origin(x.d), space, key)
            if fault == "swapped_levels":
                # Reduced, T-stable and of the right colength: only the
                # pivot set tells stratum (0, 1) from (1, 0).
                return family(Config(x.levels[::-1]), space, key)
            members = family(x, space, key)
            if fault == "duplicate":
                return members + members[:1]
            if x != Config((0, 2)):
                return members
            q = space.q
            if fault == "not_reduced":
                # Keep the span and the pivots, with row 0 replaced by row 0 + row 1.
                rows = members[0].rows
                row = tuple((a + b) % q for a, b in zip(rows[0], rows[1]))
                return [SubmoduleBasis(space, (row,) + rows[1:])] + members[1:]
            if fault == "unordered_rows":
                # The same rows in decreasing pivot order.
                return [SubmoduleBasis(space, members[0].rows[::-1])] + members[1:]
            if fault == "flipped_free_entry":
                # Stratum (0, 2) has W = 2 and pivots u1, Tu1.  Flipping the
                # last entry keeps the pivots and the reduced form, but T·row 0
                # leaves the span.
                rows = members[0].rows
                row = rows[1][:-1] + ((rows[1][-1] + 1) % q,)
                flipped = SubmoduleBasis(space, (rows[0], row))
                assert flipped.pivot_positions() == members[0].pivot_positions()
                assert flipped.is_reduced() and not oracle.is_t_stable(flipped)
                return [flipped] + members[1:]
            # not_t_stable: the span of u1 alone, reduced, but T·u1 leaves it.
            return [SubmoduleBasis(space, echelonize(space, [monomial_vector(space, Slot(1, 0))]))]

        monkeypatch.setattr(submodules, "_family", faulty)
        with pytest.raises(InternalInvariantError, match=message):
            Census.walk(2, 2, 2)

    @pytest.mark.parametrize("q,d,n", WALK_GRIDS)
    def test_family_equals_echelonized_closure(self, q, d, n):
        # Pins the hlex back-substitution and the first-zero-power stop of both
        # keys to echelonizing every T-power.
        space = ModuleSpace(q, d, n)
        for k in range(n + 1):
            for x in configs_with_size(d, k):
                for key in (hlex_key, lex_key):
                    expected = echelonized_family(x, q, n, key)
                    got = submodules._family(x, space, key)
                    assert sorted(got, key=lambda m: (m.codim, m.rows)) == expected, (x, key)

    @pytest.mark.parametrize("q,d,n", WALK_GRIDS + PAST_BRUTE_GRIDS)
    def test_stratum_window_holds_the_depth_n_members(self, q, d, n):
        # The walk's window of depth max x loses nothing of the stratum: its
        # members, deepened, are the members built in the window of depth n.
        deep = ModuleSpace(q, d, n)
        for k in range(n + 1):
            for x in configs_with_size(d, k):
                shallow = ModuleSpace(q, d, max(x.levels))
                members = submodules._family(x, shallow, hlex_key)
                deepened = [oracle.deepen(m, n) for m in members]
                assert len(set(deepened)) == len(members), x
                assert set(deepened) == set(submodules._family(x, deep, hlex_key)), x


class TestExactCap:
    def test_walk_counts_its_members(self):
        # 1 + 7 + 35 + 155 submodules of colength at most 3 in (F_2[[T]])^3.
        with pytest.raises(FeasibilityError, match="submodules to build exceed the cap 197"):
            Census.walk(2, 3, 3, cap=197)
        assert sum(Census.walk(2, 3, 3, cap=198).observed()) == 198

    def test_stratum_counts_its_members(self):
        # The hlex families of size at most 2 in (F_3[[T]])^2 hold 1 + 4 + 13 members.
        with pytest.raises(FeasibilityError, match="cap 17"):
            dict(families(3, 2, 2, hlex_key, cap=17))
        assert sum(map(len, dict(families(3, 2, 2, hlex_key, cap=18)).values())) == 18

    def test_scan_counts_its_candidates(self):
        # Profiles of the depth-2, width-2 window and their free cells, by
        # hand: (0,2) has 3, (0,1), (1,2) and (2,0) have 1, the rest none.
        with pytest.raises(FeasibilityError):
            enumerate_submodules(2, 2, 2, cap=18)
        enumerate_submodules(2, 2, 2, cap=19)

    def test_matrices_count_their_members(self):
        # Cells below the diagonal: (0,0) none; (0,1) one, (1,0) none; (0,2),
        # (1,1), (2,0) two, one, none.  So 1 + (2 + 1) + (4 + 2 + 1) = 11 members.
        with pytest.raises(FeasibilityError, match="cap 10"):
            dict(families(2, 2, 2, lex_key, cap=10))
        assert sum(map(len, dict(families(2, 2, 2, lex_key, cap=11)).values())) == 11

    @pytest.mark.parametrize(
        "build",
        [lambda: dict(families(2, 8, 40)), lambda: Census.walk(2, 6, 26)],
        ids=["families-2-8-40", "walk-2-6-26"],
    )
    def test_refuses_at_once(self, build):
        # The profiles are counted lazily, so refusing looks at no more than
        # cap + 1 of them: (2, 8, 40) has 377,348,994.
        started = time.perf_counter()
        with pytest.raises(FeasibilityError, match="submodules to build exceed the cap 1048576"):
            build()
        assert time.perf_counter() - started < 1.0

    def test_modulus_is_checked_before_the_cap(self):
        for build in (
            lambda: Census.walk(4, 2, 2, cap=0),
            lambda: enumerate_submodules(4, 2, 2, cap=0),
            lambda: dict(families(4, 2, 1, hlex_key, cap=0)),
            lambda: dict(families(4, 2, 1, lex_key, cap=0)),
        ):
            with pytest.raises(ValueError, match="prime"):
                build()
