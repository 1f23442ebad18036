"""Truncated bivariate series arithmetic and the census identities."""

import itertools
import operator
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spiralshift import (
    BiPoly,
    Config,
    FeasibilityError,
    GeneratorSet,
    MultiIndex,
    NotFreeError,
    free_orbit_formula,
    gaussian_count,
    is_free_basis,
    orbit_sum,
    product_formula,
    recurrence_formula,
    semigroup_elements,
    sum_over_configs,
)
from spiralshift.series import word_count
from oracle import geometric_inverse, unit


def small_polys(t_cut=4, max_qdeg=3, max_coeff=4):
    keys = st.tuples(st.integers(0, t_cut), st.integers(0, max_qdeg))
    return st.dictionaries(keys, st.integers(-max_coeff, max_coeff), max_size=6).map(
        lambda coeffs: BiPoly(t_cut, coeffs)
    )


class TestBiPoly:
    def test_drops_zeros_and_overflowing_degrees(self):
        p = BiPoly(2, {(0, 0): 1, (1, 1): 0, (3, 0): 7})
        assert p.coeffs == {(0, 0): 1}

    def test_rejects_negative_degrees_and_cut(self):
        with pytest.raises(ValueError):
            BiPoly(-1, {})
        with pytest.raises(ValueError):
            BiPoly(2, {(-1, 0): 1})
        with pytest.raises(ValueError):
            BiPoly(2, {(0, -2): 1})

    def test_product_example(self):
        one_plus_t = BiPoly(3, {(0, 0): 1, (1, 0): 1})
        assert (one_plus_t * one_plus_t).coeffs == {(0, 0): 1, (1, 0): 2, (2, 0): 1}

    def test_rejects_truncation_mismatch(self):
        with pytest.raises(ValueError):
            BiPoly.one(2) * BiPoly.one(3)

    def test_substitution_shears_q_degree(self):
        p = BiPoly(4, {(2, 1): 5, (3, 0): 1})
        assert p.substitute_t_times_q().coeffs == {(2, 3): 5, (3, 3): 1}

    def test_eval_q(self):
        p = BiPoly(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 2): 3})
        assert p.eval_q(2) == {0: 1, 1: 3, 2: 12}

    @given(small_polys(), small_polys(), small_polys())
    @settings(deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


class TestGeometricInverse:
    """The closed-form factor `BiPoly.geometric` against the general reference inverse."""

    def test_plain_t(self):
        got = BiPoly.geometric(3, 1, 0)
        assert got.coeffs == {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1}

    def test_t_times_q(self):
        got = BiPoly.geometric(2, 1, 1)
        assert got.coeffs == {(0, 0): 1, (1, 1): 1, (2, 2): 1}

    def test_rejects_terms_without_t(self):
        for t_deg in (0, -1):
            with pytest.raises(ValueError):
                BiPoly.geometric(3, t_deg, 1)
        with pytest.raises(ValueError):
            geometric_inverse(BiPoly.monomial(3, 0, 1))

    def test_matches_the_reference_inverse(self):
        for t_cut, t_deg, q_deg in itertools.product(range(13), range(1, 5), range(5)):
            expected = geometric_inverse(BiPoly.monomial(t_cut, t_deg, q_deg))
            assert BiPoly.geometric(t_cut, t_deg, q_deg) == expected, (t_cut, t_deg, q_deg)

    @given(st.integers(0, 12), st.integers(1, 6), st.integers(0, 6))
    @settings(deadline=None)
    def test_inverts_one_minus_its_monomial(self, t_cut, t_deg, q_deg):
        one_minus = BiPoly(t_cut, {(0, 0): 1, (t_deg, q_deg): -1})
        assert one_minus * BiPoly.geometric(t_cut, t_deg, q_deg) == BiPoly.one(t_cut)

    @given(small_polys(max_coeff=2))
    @settings(deadline=None)
    def test_inverts_one_minus_p(self, p):
        # The reference inverse of a whole series, not only of a monomial.
        shifted = {(a + 1, b): c for (a, b), c in p.coeffs.items()}
        one_minus = BiPoly(p.t_cut, {(0, 0): 1, **{k: -c for k, c in shifted.items()}})
        assert one_minus * geometric_inverse(BiPoly(p.t_cut, shifted)) == BiPoly.one(p.t_cut)


class TestCensusSeries:
    def test_width_one_is_geometric(self):
        expected = {(k, 0): 1 for k in range(6)}
        assert product_formula(1, 5).coeffs == expected
        assert sum_over_configs(1, 5).coeffs == expected
        assert recurrence_formula(1, 5).coeffs == expected

    def test_width_two_truncated_at_two(self):
        expected = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1, (2, 2): 1}
        assert product_formula(2, 2).coeffs == expected
        assert sum_over_configs(2, 2).coeffs == expected

    def test_single_box_partition_coefficient(self):
        assert product_formula(3, 4).coefficient(2, 1) == 1

    def test_three_way_equality_small(self):
        for d in range(1, 5):
            for t_cut in range(7):
                assert (
                    sum_over_configs(d, t_cut)
                    == product_formula(d, t_cut)
                    == recurrence_formula(d, t_cut)
                )

    def test_coefficients_count_box_partitions(self):
        for d in (1, 2, 4):
            p = product_formula(d, 6)
            for n in range(7):
                for w in range((d - 1) * n + 1):
                    assert p.coefficient(n, w) == gaussian_count(n, d, w)

    def test_all_census_coefficients_nonnegative(self):
        for d in (1, 3, 5):
            for p in (product_formula(d, 6), recurrence_formula(d, 6)):
                assert all(c > 0 for c in p.coeffs.values())


class TestGeneratorSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, (MultiIndex((0, 0)),))
        with pytest.raises(ValueError):
            GeneratorSet(2, (MultiIndex((1, 0)), MultiIndex((1, 0))))
        with pytest.raises(ValueError):
            GeneratorSet(3, (MultiIndex((1, 0)),))

    def test_freeness_examples(self):
        assert is_free_basis(GeneratorSet(2, (MultiIndex((1, 0)), MultiIndex((0, 1)))))
        assert not is_free_basis(
            GeneratorSet(2, (MultiIndex((1, 0)), MultiIndex((2, 0))))
        )
        assert is_free_basis(
            GeneratorSet(3, (MultiIndex((1, 1, 0)), MultiIndex((0, 1, 1))))
        )
        assert is_free_basis(GeneratorSet(2, ()))


class TestOrbits:
    def test_single_unit_generator(self):
        gens = GeneratorSet(2, (MultiIndex((1, 0)),))
        got = orbit_sum(Config.origin(2), gens, 5)
        assert got.coeffs == {(k, 0): 1 for k in range(6)}

    def test_full_standard_basis_recovers_census(self):
        for d in (1, 2, 3):
            gens = GeneratorSet(d, tuple(unit(j, d) for j in range(1, d + 1)))
            assert orbit_sum(Config.origin(d), gens, 6) == product_formula(d, 6)
            assert free_orbit_formula(Config.origin(d), gens, 6) == product_formula(d, 6)

    def test_diagonal_generator_both_ways(self):
        gens = GeneratorSet(2, (MultiIndex((1, 1)),))
        expected = {(2 * k, k): 1 for k in range(5)}
        assert orbit_sum(Config.origin(2), gens, 8).coeffs == expected
        assert free_orbit_formula(Config.origin(2), gens, 8).coeffs == expected

    def test_empty_generators_leave_base_content(self):
        x0 = Config((2, 0))
        gens = GeneratorSet(2, ())
        assert free_orbit_formula(x0, gens, 5).coeffs == {(2, 1): 1}
        assert orbit_sum(x0, gens, 5).coeffs == {(2, 1): 1}

    def test_base_beyond_truncation_gives_zero(self):
        x0 = Config((3, 3))
        gens = GeneratorSet(2, (MultiIndex((1, 0)),))
        assert orbit_sum(x0, gens, 4).coeffs == {}
        assert free_orbit_formula(x0, gens, 4).coeffs == {}

    def test_closed_form_rejects_dependent_generators(self):
        gens = GeneratorSet(2, (MultiIndex((1, 0)), MultiIndex((2, 0))))
        with pytest.raises(NotFreeError):
            free_orbit_formula(Config.origin(2), gens, 5)
        # The brute-force census still works and stays deduplicated.
        got = orbit_sum(Config.origin(2), gens, 4)
        assert got.coeffs == {(k, 0): 1 for k in range(5)}

    def test_word_count_matches_a_scan_of_coefficient_vectors(self):
        sets = [(), ((1, 0),), ((1, 0), (2, 0)), ((1, 1), (0, 2), (1, 0)), ((2, 1), (1, 2))]
        for steps in sets:
            gens = GeneratorSet(2, tuple(MultiIndex(g) for g in steps))
            totals = [g.total for g in gens.generators]
            assert word_count(gens, -1, 0) == 0
            for budget in range(9):
                scan = sum(
                    1
                    for c in itertools.product(*(range(budget // t + 1) for t in totals))
                    if sum(map(operator.mul, c, totals)) <= budget
                )
                assert word_count(gens, budget, scan) == scan, (steps, budget)
                assert scan >= len(semigroup_elements(gens, budget))
                # Past the limit the count may stop early, but it reads past the limit.
                assert scan - 1 < word_count(gens, budget, scan - 1) <= scan

    def test_word_count_is_the_element_count_for_free_generators(self):
        standard = GeneratorSet(3, tuple(unit(j, 3) for j in range(1, 4)))
        assert word_count(standard, 60, 2**20) == len(semigroup_elements(standard, 60)) == 39711
        dependent = GeneratorSet(3, standard.generators + (MultiIndex((1, 1, 0)),))
        assert word_count(dependent, 60, 2**20) == 327856
        assert word_count(dependent, 100, 10**7) == 2343926

    def test_semigroup_elements_bounded_and_closed(self):
        gens = GeneratorSet(3, (MultiIndex((1, 1, 0)), MultiIndex((0, 0, 2))))
        elements = semigroup_elements(gens, 6)
        assert MultiIndex.zero(3) in elements
        assert all(a.total <= 6 for a in elements)
        expected = {
            MultiIndex((i, i, 2 * j)) for i in range(7) for j in range(4) if 2 * i + 2 * j <= 6
        }
        assert elements == expected


class TestBruteSumsRefuse:
    """The brute sums count their work and refuse past `cap` when called from the library."""

    def test_configs_past_the_default_cap_refuse_at_once(self):
        started = time.perf_counter()
        with pytest.raises(
            FeasibilityError, match="^377348994 configurations exceed the cap 1048576$"
        ):
            sum_over_configs(8, 40)
        assert time.perf_counter() - started < 1

    def test_orbit_past_the_default_cap_refuses_at_once(self):
        # 2,343,926 combinations of total at most 100.
        steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
        gens = GeneratorSet(3, tuple(MultiIndex(g) for g in steps))
        started = time.perf_counter()
        with pytest.raises(
            FeasibilityError,
            match="^the brute orbit sum would try more than --cap 1048576 generator combinations$",
        ):
            orbit_sum(Config.origin(3), gens, 100)
        assert time.perf_counter() - started < 1

    def test_configs_cap_at_the_exact_work_runs(self):
        # C(4 + 3, 3) = 35 configurations of size at most 4.
        assert sum_over_configs(3, 4, cap=35) == product_formula(3, 4)
        with pytest.raises(FeasibilityError, match="^35 configurations exceed the cap 34$"):
            sum_over_configs(3, 4, cap=34)

    @pytest.mark.parametrize(
        "steps,words",
        [
            # Independent: C(3 + 2, 2) = 10 combinations of total at most 4 - 1.
            (((1, 0), (0, 1)), 10),
            # Dependent: c1 + 2*c2 <= 3 has 6 solutions.
            (((1, 0), (2, 0)), 6),
        ],
    )
    def test_orbit_cap_at_the_exact_work_runs(self, steps, words):
        x0 = Config((1, 0))
        gens = GeneratorSet(2, tuple(MultiIndex(g) for g in steps))
        assert orbit_sum(x0, gens, 4, cap=words) == orbit_sum(x0, gens, 4)
        with pytest.raises(FeasibilityError, match=f"more than --cap {words - 1} generator"):
            orbit_sum(x0, gens, 4, cap=words - 1)
