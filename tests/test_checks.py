"""Every `verify` law's failure branch.

Each case breaks one law through a name that `spiralshift.checks` imports
and pins the check's verdict and its first counterexample, so a law that
stops looking, or reports the wrong witness, shows up here.
"""

import pytest

import spiralshift.checks as checks
from spiralshift import (
    Census,
    Config,
    MultiIndex,
    brute_strata,
    families,
    free_orbit_formula,
    hlex_key,
    lex_key,
    product_formula,
)
from spiralshift.checks import QUICK


def overwrite_seat_one(x, j):
    """Not a shifting operator: seat 1 becomes j, so ranks do not commute."""
    return Config((j,) + x.levels[1:])


def drop_first_members(dropped_key):
    """`families`, with the first member of each family under `dropped_key` left out."""

    def faulty(q, d, n, key):
        for x, members in families(q, d, n, key):
            yield x, members[1:] if key is dropped_key else members

    return faulty


def lose_a_member(q, d, n):
    strata = brute_strata(q, d, n)
    strata[Config((0, 2))].pop()
    return strata


def add_a_stray_profile(q, d, n):
    return {**brute_strata(q, d, n), Config((9, 9)): []}


class ShortTopCount(Census):
    def observed(self):
        return super().observed()[:-1] + [0]


CASES = [
    (checks.check_worked_example, "shift_from", lambda x, j: x,
     "mismatch in the worked square"),
    (checks.check_commutation, "shift_from", overwrite_seat_one,
     "ranks 1,2 disagree at (0, 0)"),
    (checks.check_free_transitive, "act", lambda a, x: x,
     "exponent map not bijective at d=1, size 1"),
    (checks.check_free_transitive, "decompose", lambda x: MultiIndex((0,) * x.d),
     "decompose((1,)) != (1,)"),
    (checks.check_increments, "weight", lambda x: 0,
     "rank 2 at (0, 0): got (1, 0)"),
    (checks.check_weight_equivalence, "weight_by_seats", lambda x: -1,
     "(0,): 0 vs -1"),
    (checks.check_series_three_way, "recurrence_formula",
     lambda d, t_cut: product_formula(d + 1, t_cut),
     "mismatch at d=1, t_cut=1"),
    (checks.check_series_three_way, "gaussian_counts", lambda n, d: [0],
     "coefficient (0,0) at d=1 is not the box-partition count"),
    (checks.check_partition_bijection, "partition_to_config",
     lambda lam, n, d: Config.origin(d),
     "not a bijection at d=1, n=1, w=0"),
    (checks.check_submodule_counts, "Census", ShortTopCount,
     "q=2, d=2, depth=2: [1, 3, 0] vs [1, 3, 7]"),
    (checks.check_stratum_law, "brute_strata", lose_a_member,
     "stratum (0, 2) at q=2: 3 vs 4"),
    (checks.check_stratum_law, "families", drop_first_members(hlex_key),
     "generator enumeration disagrees on stratum (0, 0) at q=2"),
    (checks.check_stratum_law, "families", drop_first_members(lex_key),
     "matrix enumeration disagrees at q=2, d=2, colength 0"),
    (checks.check_stratum_law, "brute_strata", add_a_stray_profile,
     "unlabelled submodules at q=2, d=2, profiles [(9, 9)]"),
    (checks.check_free_orbits, "orbit_sum",
     lambda x0, gens, t_cut: free_orbit_formula(x0, gens, t_cut + 1),
     "trial 0: x0=(0, 2, 2), gens=[(1, 0, 1)]"),
    (checks.check_tightness, "is_tight", lambda x, r: not any(x.levels),
     "rank 1 broke 2-tightness at (0, 0)"),
    (checks.check_content_multiplicativity, "act", lambda a, x: x,
     "a=(2,) on (2,)"),
]


@pytest.mark.parametrize(
    "check,name,fault,detail",
    CASES,
    ids=[f"{check.__name__}-{name}" for check, name, _, _ in CASES],
)
def test_broken_law_fails_at_its_first_counterexample(monkeypatch, check, name, fault, detail):
    monkeypatch.setattr(checks, name, fault)
    result = check(QUICK)
    assert (result.passed, result.detail) == (False, detail)
