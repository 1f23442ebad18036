"""Size, weight, and content, checked against exact fraction heights.

The pairwise distance that defines the weight is `oracle.distance`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from spiralshift import (
    Config,
    MultiIndex,
    act,
    configs_with_size,
    content,
    multiindex_content,
    shift_from,
    size,
    weight,
    weight_by_seats,
)
from oracle import Slot, distance, shift_all, slots, unit
from strategies import config_with_exponents, config_with_rank, configs


def height(slot, d):
    return Fraction(slot.level) + Fraction(slot.seat, d)


def weight_oracle(x):
    """Floor the exact fraction height gaps over all pairs."""
    heights = sorted(height(s, x.d) for s in slots(x))
    return sum(
        math.floor(hb - ha)
        for k, hb in enumerate(heights)
        for ha in heights[:k]
    )


class TestSize:
    def test_examples(self):
        assert size(Config((0, 2, 1, 0, 1))) == 4
        assert size(Config.origin(3)) == 0

    @given(config_with_rank())
    def test_rises_by_one_under_every_operator(self, data):
        x, j = data
        assert size(shift_from(x, j)) == size(x) + 1


class TestDistance:
    def test_examples(self):
        assert distance(Slot(1, 0), Slot(2, 2), 5) == 2
        assert distance(Slot(3, 1), Slot(5, 1), 5) == 0
        assert distance(Slot(4, 1), Slot(4, 3), 5) == 2

    def test_rejects_unordered_pairs(self):
        with pytest.raises(ValueError):
            distance(Slot(2, 2), Slot(1, 0), 5)
        with pytest.raises(ValueError):
            distance(Slot(1, 0), Slot(1, 0), 5)

    @given(configs(max_d=6, max_level=6))
    def test_matches_fraction_floor(self, x):
        ranked = sorted(slots(x))
        for k, upper in enumerate(ranked):
            for lower in ranked[:k]:
                expected = math.floor(height(upper, x.d) - height(lower, x.d))
                assert distance(lower, upper, x.d) == expected
        pairs = sum(distance(a, b, x.d) for k, b in enumerate(ranked) for a in ranked[:k])
        assert weight(x) == pairs


class TestWeight:
    def test_worked_example(self):
        assert weight(Config((0, 2, 1, 0, 1))) == 6
        assert weight(Config((0, 2, 2, 0, 1))) == 8
        assert weight(Config.origin(5)) == 0

    @given(configs(max_d=6, max_level=6))
    def test_matches_fraction_oracle(self, x):
        assert weight(x) == weight_oracle(x)

    def test_matches_fraction_oracle_exhaustive(self):
        for d in range(1, 6):
            for n in range(9):
                for x in configs_with_size(d, n):
                    assert weight(x) == weight_oracle(x), x.levels

    @given(config_with_rank())
    def test_rises_by_rank_minus_one(self, data):
        x, j = data
        assert weight(shift_from(x, j)) == weight(x) + j - 1

    @given(configs())
    def test_invariant_under_full_shift(self, x):
        assert weight(shift_all(x)) == weight(x)

    @given(configs())
    def test_bounded_by_box(self, x):
        assert weight(x) <= (x.d - 1) * size(x)


class TestWeightBySeats:
    def test_examples(self):
        assert weight_by_seats(Config((0, 2))) == 2
        assert weight_by_seats(Config((3, 3, 3))) == 0
        assert weight_by_seats(Config((0, 2, 1, 0, 1))) == 6

    @given(configs(max_d=6, max_level=6))
    def test_equals_pairwise_weight(self, data):
        assert weight_by_seats(data) == weight(data)

    def test_equals_pairwise_weight_exhaustive(self):
        for d in range(1, 6):
            for n in range(7):
                for x in configs_with_size(d, n):
                    assert weight(x) == weight_by_seats(x)


class TestContent:
    def test_examples(self):
        assert content(Config.origin(4)) == (0, 0)
        assert content(Config((0, 2, 1, 0, 1))) == (4, 6)
        assert content(Config((2, 0))) == (2, 1)

    def test_exponent_content_examples(self):
        assert multiindex_content(MultiIndex.zero(4)) == (0, 0)
        for d in (1, 3, 5):
            for j in range(1, d + 1):
                assert multiindex_content(unit(j, d)) == (1, j - 1)
        assert multiindex_content(MultiIndex((1, 1))) == (2, 1)

    @given(config_with_exponents())
    @settings(deadline=None)
    def test_acting_adds_content(self, data):
        x, a = data
        nx, wx = content(x)
        na, wa = multiindex_content(a)
        assert content(act(a, x)) == (nx + na, wx + wa)
