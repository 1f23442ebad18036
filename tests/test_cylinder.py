"""Configurations, the spiral successor, and the shifting operators.

The independent oracle for everything order-related is the exact height
level + seat/d computed with fractions; it pins the reference `oracle.Slot`
order and spiral index, which in turn pin the package's height marks.
The closed-form operator powers,
`act` and `decompose` are checked against the seat-by-seat walk in
`oracle.py` and against a full scan over exponents of the right total;
`decompose` also against the forward walk `oracle.decompose_by_walk`.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from spiralshift import (
    Config,
    InternalInvariantError,
    MultiIndex,
    act,
    compositions,
    configs_with_size,
    decompose,
    is_tight,
    shift_from,
    size,
)
from spiralshift import cylinder
import oracle
from oracle import Slot, shift_all, shift_slot, slot_from_index, slot_index, slots, sorted_slots
from strategies import config_with_exponents, config_with_rank, configs


def height(slot: Slot, d: int) -> Fraction:
    return Fraction(slot.level) + Fraction(slot.seat, d)


def slot_pair(max_d=6, max_level=6):
    return st.integers(1, max_d).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.tuples(st.integers(1, d), st.integers(0, max_level)),
            st.tuples(st.integers(1, d), st.integers(0, max_level)),
        )
    )


class TestSlot:
    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Slot(0, 1)
        with pytest.raises(ValueError):
            Slot(1, -1)

    @given(slot_pair())
    def test_order_is_the_height_order(self, data):
        d, (i1, n1), (i2, n2) = data
        s1, s2 = Slot(i1, n1), Slot(i2, n2)
        assert (s1 < s2) == (height(s1, d) < height(s2, d))

    @given(slot_pair())
    def test_linear_index_preserves_order(self, data):
        d, (i1, n1), (i2, n2) = data
        s1, s2 = Slot(i1, n1), Slot(i2, n2)
        assert (s1 < s2) == (slot_index(s1, d) < slot_index(s2, d))

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, 60))))
    def test_index_round_trip(self, data):
        d, idx = data
        assert slot_index(slot_from_index(idx, d), d) == idx


class TestShiftSlot:
    def test_wraps_from_last_seat(self):
        for d in (1, 2, 5):
            for n in (0, 3):
                assert shift_slot(Slot(d, n), 1, d) == Slot(1, n + 1)

    def test_zero_shift_is_identity(self):
        assert shift_slot(Slot(3, 2), 0, 5) == Slot(3, 2)

    def test_seven_steps_in_width_five(self):
        # Oracle: linear index 11 + 7 = 18 = 3*5 + 3.
        assert shift_slot(Slot(2, 2), 7, 5) == Slot(4, 3)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                st.just(d), st.integers(1, d), st.integers(0, 5), st.integers(0, 15)
            )
        )
    )
    def test_height_raised_by_steps_over_width(self, data):
        d, seat, level, steps = data
        s = Slot(seat, level)
        assert height(shift_slot(s, steps, d), d) == height(s, d) + Fraction(steps, d)


class TestConfig:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            Config(())
        with pytest.raises(ValueError):
            Config((1, -1))
        with pytest.raises(ValueError):
            Config.origin(0)

    def test_sorted_slots_worked_example(self):
        got = sorted_slots(Config((0, 2, 1, 0, 1)))
        assert got == (Slot(1, 0), Slot(4, 0), Slot(3, 1), Slot(5, 1), Slot(2, 2))

    def test_sorted_slots_origin(self):
        assert sorted_slots(Config.origin(4)) == tuple(Slot(i, 0) for i in range(1, 5))

    def test_sorted_slots_breaks_ties_by_seat(self):
        # Heights 3/2 and 1: the seat-2 point is lower.
        assert sorted_slots(Config((1, 0))) == (Slot(2, 0), Slot(1, 1))

    @given(configs())
    def test_sorted_slots_strictly_increasing(self, x):
        ranked = sorted_slots(x)
        assert all(a < b for a, b in zip(ranked, ranked[1:]))

    def test_marks_worked_example(self):
        assert Config((0, 2, 1, 0, 1)).marks() == (0, 11, 7, 3, 9)

    def test_marks_equal_slot_index_exhaustive(self):
        for d in range(1, 6):
            for n in range(9):
                for x in configs_with_size(d, n):
                    assert x.marks() == tuple(slot_index(s, d) for s in slots(x)), x.levels


class TestCompositions:
    def test_matches_recursive_reference_in_order(self):
        for total in range(9):
            for parts in range(1, 7):
                got = list(compositions(total, parts))
                assert got == list(oracle.compositions(total, parts)), (total, parts)
                assert len(got) == math.comb(total + parts - 1, parts - 1)

    def test_rejects_no_parts(self):
        with pytest.raises(ValueError):
            list(compositions(3, 0))


class TestShiftAll:
    def test_closed_form_examples(self):
        assert shift_all(Config((0, 2, 1, 0, 1))) == Config((2, 0, 2, 1, 0))
        assert shift_all(Config.origin(3)) == Config((1, 0, 0))
        assert shift_all(Config((4,))) == Config((5,))

    @given(configs())
    def test_moves_every_point_one_step(self, x):
        moved = {shift_slot(s, 1, x.d) for s in slots(x)}
        assert set(slots(shift_all(x))) == moved

    @given(configs())
    def test_agrees_with_rank_one_operator(self, x):
        assert shift_from(x, 1) == shift_all(x)


class TestShiftFrom:
    def test_worked_example(self):
        x = Config((0, 2, 1, 0, 1))
        assert shift_from(x, 3) == Config((0, 2, 2, 0, 1))
        assert shift_from(x, 2) == Config((0, 2, 2, 1, 0))

    def test_only_available_seat_gains_a_level(self):
        assert shift_from(Config((0, 0)), 2) == Config((0, 1))

    def test_rejects_rank_out_of_range(self):
        with pytest.raises(ValueError):
            shift_from(Config((0, 0)), 0)
        with pytest.raises(ValueError):
            shift_from(Config((0, 0)), 3)
        with pytest.raises(ValueError):
            shift_from(Config((0, 0)), 1, -1)

    @given(config_with_rank())
    def test_fixes_the_lowest_points(self, data):
        x, j = data
        assert sorted_slots(shift_from(x, j))[: j - 1] == sorted_slots(x)[: j - 1]

    @given(config_with_rank())
    def test_preserves_height_ranking(self, data):
        # Recompute each mover's landing slot from the successor rule and
        # check the movers stay in their relative order above the fixed part.
        x, j = data
        ranked = sorted_slots(x)
        moving = ranked[j - 1 :]
        seats = {s.seat for s in moving}
        images = [oracle.landing(s, seats, x.d) for s in moving]
        assert images == sorted(images)
        assert sorted_slots(shift_from(x, j)) == ranked[: j - 1] + tuple(images)

    def test_powers_match_oracle_steps_exhaustive_small(self):
        for d in range(1, 5):
            for n in range(7):
                for x in configs_with_size(d, n):
                    for j in range(1, d + 1):
                        y = x
                        for k in range(6):
                            assert shift_from(x, j, k) == y, (x.levels, j, k)
                            y = oracle.shift_from(y, j)

    def test_commutation_exhaustive_small(self):
        for d in range(1, 4):
            for n in range(5):
                for x in configs_with_size(d, n):
                    for j in range(1, d + 1):
                        for jj in range(j, d + 1):
                            assert shift_from(shift_from(x, j), jj) == shift_from(
                                shift_from(x, jj), j
                            )


class TestAct:
    def test_zero_exponents_do_nothing(self):
        x = Config((3, 1, 4))
        assert act(MultiIndex.zero(3), x) == x

    def test_two_step_examples(self):
        assert act(MultiIndex((1, 1)), Config.origin(2)) == Config((2, 0))
        assert act(MultiIndex((0, 2)), Config.origin(2)) == Config((0, 2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            act(MultiIndex((1, 0, 0)), Config.origin(2))

    def test_matches_oracle_loop_exhaustive_small(self):
        for d in range(1, 5):
            for n in range(7):
                for x in configs_with_size(d, n):
                    for total in range(4):
                        for steps in compositions(total, d):
                            a = MultiIndex(steps)
                            assert act(a, x) == oracle.act(a, x), (steps, x.levels)

    @given(config_with_exponents(max_step=2), st.data())
    @settings(deadline=None)
    def test_action_adds_exponents(self, data, extra):
        x, a = data
        b = MultiIndex(
            extra.draw(
                st.lists(st.integers(0, 2), min_size=x.d, max_size=x.d).map(tuple)
            )
        )
        assert act(a + b, x) == act(a, act(b, x))


class TestDecompose:
    def brute(self, x):
        origin = Config.origin(x.d)
        return [
            MultiIndex(s)
            for s in compositions(size(x), x.d)
            if act(MultiIndex(s), origin) == x
        ]

    def test_origin(self):
        assert decompose(Config.origin(3)) == MultiIndex.zero(3)

    def test_small_cases_match_exhaustive_scan(self):
        for levels in ((1, 1), (0, 2), (2, 0), (1, 0, 2)):
            x = Config(levels)
            hits = self.brute(x)
            assert len(hits) == 1
            assert decompose(x) == hits[0]

    @given(configs(max_d=4, max_level=4))
    @settings(deadline=None)
    def test_round_trip(self, x):
        assert act(decompose(x), Config.origin(x.d)) == x

    def test_matches_oracle_search_exhaustive_small(self):
        for d in range(1, 5):
            for n in range(7):
                found = oracle.preimages(d, n)
                assert set(found) == set(configs_with_size(d, n))
                for x, hits in found.items():
                    assert hits == [decompose(x)], x.levels

    def test_matches_forward_walk_exhaustive(self):
        for d in range(1, 8):
            for n in range(8):
                for x in configs_with_size(d, n):
                    assert decompose(x) == oracle.decompose_by_walk(x), x.levels

    @given(configs(max_d=9, max_level=10**12))
    def test_matches_forward_walk_at_huge_levels(self, x):
        assert decompose(x) == oracle.decompose_by_walk(x)

    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=6))
    def test_inverts_act_at_huge_exponents(self, steps):
        a = MultiIndex(tuple(steps))
        assert decompose(act(a, Config.origin(a.d))) == a

    def test_freeness_at_any_base_point(self):
        for d in (1, 2, 3):
            for base_total in range(3):
                for base_levels in compositions(base_total, d):
                    x = Config(base_levels)
                    seen = {}
                    for total in range(4):
                        for s in compositions(total, d):
                            y = act(MultiIndex(s), x)
                            assert y not in seen, (s, seen[y])
                            seen[y] = s


class TestTightness:
    def test_origin_is_tight_at_every_rank(self):
        for d in (2, 3, 5):
            x = Config.origin(d)
            assert all(is_tight(x, r) for r in range(2, d + 1))

    def test_detached_top_point_is_not_tight(self):
        # The seat-2 point at level 2 could sit at level 1 and still clear (1,0).
        assert not is_tight(Config((0, 2)), 2)

    def test_two_rank_one_shifts_stay_tight(self):
        x = shift_all(shift_all(Config.origin(2)))
        assert is_tight(x, 2)

    def test_rejects_rank_out_of_range(self):
        with pytest.raises(ValueError):
            is_tight(Config((0, 0)), 1)
        with pytest.raises(ValueError):
            is_tight(Config((0, 0)), 3)

    def test_matches_slot_reference_exhaustive(self):
        for d in range(2, 6):
            for n in range(9):
                for x in configs_with_size(d, n):
                    for r in range(2, d + 1):
                        assert is_tight(x, r) == oracle.is_tight(x, r), (x.levels, r)

    def test_preserved_by_lower_ranks_exhaustive_small(self):
        for d in (2, 3):
            for n in range(5):
                for x in configs_with_size(d, n):
                    for r in range(2, d + 1):
                        if is_tight(x, r):
                            for j in range(1, r):
                                assert is_tight(shift_from(x, j), r)


def test_decompose_bound_is_an_internal_defect_guard():
    # The guard cannot fire through the public API; it exists to distinguish
    # implementation bugs from bad input.
    assert issubclass(InternalInvariantError, RuntimeError)


def test_decompose_makes_no_operator_call(monkeypatch):
    def refuse(x, j, k=1):
        raise AssertionError("decompose applied an operator")

    x = Config((0, 2, 1, 0, 1))
    expected = oracle.decompose_by_walk(x)
    monkeypatch.setattr(cylinder, "shift_from", refuse)
    assert decompose(x) == expected
    assert decompose(Config((1000000000, 0))) == MultiIndex((1, 999999999))


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex((1, 0)) + MultiIndex((1, 0, 0))
    assert oracle.unit(2, 3).steps == (0, 1, 0)
    assert MultiIndex((1, 2)).total == 3
