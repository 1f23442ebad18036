"""Acceptance suite: every promised law at its promised scale.

Each test prints one pass/fail line (visible with `pytest -s`); the same
checks back the CLI's `verify --profile full`.  Stated wall-clock budgets
are asserted where a criterion carries one; actual runtimes are orders of
magnitude below the limits.
"""

import time

from spiralshift import Config, shift_from
from spiralshift.checks import (
    FULL,
    check_commutation,
    check_free_orbits,
    check_free_transitive,
    check_increments,
    check_partition_bijection,
    check_series_three_way,
    check_stratum_law,
    check_submodule_counts,
    check_tightness,
    check_weight_equivalence,
    check_worked_example,
)

from test_submodules import complete_homogeneous, count_by_colength


def report(number, result, limit=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {result.name}: {result.detail} ({result.elapsed:.2f}s)")
    assert result.passed, result.detail
    if limit is not None:
        assert result.elapsed < limit, (
            f"{result.name} took {result.elapsed:.1f}s, over the {limit}s budget"
        )


def test_criterion_01_worked_example_fidelity():
    x = Config((0, 2, 1, 0, 1))
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        ok = (
            shift_from(x, 3) == Config((0, 2, 2, 0, 1))
            and shift_from(x, 2) == Config((0, 2, 2, 1, 0))
            and shift_from(shift_from(x, 3), 2) == Config((0, 2, 2, 2, 0))
            and shift_from(shift_from(x, 2), 3) == Config((0, 2, 2, 2, 0))
        )
        timings.append(time.perf_counter() - started)
        assert ok
    assert min(timings) < 0.001
    report(1, check_worked_example(FULL))


def test_criterion_02_operators_commute():
    report(2, check_commutation(FULL), limit=60)


def test_criterion_03_free_transitive_action():
    report(3, check_free_transitive(FULL), limit=120)


def test_criterion_04_size_and_weight_increments():
    report(4, check_increments(FULL))


def test_criterion_05_weight_definition_equivalence():
    report(5, check_weight_equivalence(FULL))


def test_criterion_06_series_identity_three_ways():
    report(6, check_series_three_way(FULL))


def test_criterion_07_partition_bijection():
    report(7, check_partition_bijection(FULL))


def test_criterion_08_submodule_counts():
    # Frozen expectations, each confirmed by the complete homogeneous
    # expansion in powers 1, q, ..., q^(d-1) before comparing brute force.
    literals = {
        (2, 2, 3): [1, 3, 7, 15],
        (2, 3, 2): [1, 7, 35],
        (3, 2, 2): [1, 4, 13],
    }
    for (q, d, depth), expected in literals.items():
        oracle = [
            complete_homogeneous(n, [q**i for i in range(d)])
            for n in range(depth + 1)
        ]
        assert oracle == expected
        assert count_by_colength(q, d, depth) == expected
    report(8, check_submodule_counts(FULL), limit=300)


def test_criterion_09_stratum_law():
    report(9, check_stratum_law(FULL))


def test_criterion_10_free_orbit_formula():
    assert FULL.orbit_trials >= 50
    report(10, check_free_orbits(FULL))


def test_criterion_11_tightness_preserved():
    report(11, check_tightness(FULL))
