"""Named verification checks behind the `verify` command and the acceptance suite.

Each check exhaustively exercises one law at a configurable scale and
reports pass/fail with a short summary.  The `full` profile runs the scales
the project promises; `quick` is a fast smoke pass over smaller ranges.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from .cylinder import (
    Config,
    MultiIndex,
    act,
    compositions,
    configs_with_size,
    decompose,
    is_tight,
    shift_from,
)
from .partitions import box_partitions, gaussian_counts, partition_to_config
from .series import (
    BiPoly,
    GeneratorSet,
    free_orbit_formula,
    is_free_basis,
    orbit_sum,
    product_formula,
    recurrence_formula,
    sum_over_configs,
)
from .stats import content, multiindex_content, size, weight, weight_by_seats
from .submodules import Census, brute_strata, families, hlex_key, lex_key


@dataclass(frozen=True)
class Profile:
    operator_d: int  # widest configuration of the operator and bijection laws
    commute_n: int
    transitive_n: int
    series_d: int
    series_t: int
    module_grid: tuple[tuple[int, int, int], ...]  # (q, d, depth)
    orbit_trials: int
    orbit_t: int


QUICK = Profile(
    operator_d=3,
    commute_n=3,
    transitive_n=4,
    series_d=3,
    series_t=5,
    module_grid=((2, 2, 2),),
    orbit_trials=10,
    orbit_t=6,
)

FULL = Profile(
    operator_d=4,
    commute_n=5,
    transitive_n=6,
    series_d=5,
    series_t=8,
    module_grid=((2, 2, 3), (2, 3, 2), (3, 2, 2)),
    orbit_trials=50,
    orbit_t=8,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _law(name: str):
    """Make a law body returning (passed, detail) into the check `name`.

    The check takes the body's arguments, times the body and returns a
    `CheckResult`; it keeps the body's name, docstring and annotations, so
    bodies are annotated with the check's return type.
    """

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            started = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            return CheckResult(name, passed, detail, time.perf_counter() - started)

        return check

    return decorate


def _configs_up_to(d_max: int, n_max: int):
    for d in range(1, d_max + 1):
        for n in range(n_max + 1):
            yield from configs_with_size(d, n)


def _grids(profile: Profile) -> str:
    return ", ".join(f"q={q},d={d},N={n}" for q, d, n in profile.module_grid)


@_law("worked example (width-5 commuting square)")
def check_worked_example(profile: Profile) -> CheckResult:
    """The width-5 commuting square of ranks 2 and 3 from (0,2,1,0,1)."""
    x = Config((0, 2, 1, 0, 1))
    ok = (
        shift_from(x, 3) == Config((0, 2, 2, 0, 1))
        and shift_from(x, 2) == Config((0, 2, 2, 1, 0))
        and shift_from(shift_from(x, 3), 2) == Config((0, 2, 2, 2, 0))
        and shift_from(shift_from(x, 2), 3) == Config((0, 2, 2, 2, 0))
    )
    return ok, "4 equalities" if ok else "mismatch in the worked square"


@_law("operator commutation")
def check_commutation(profile: Profile) -> CheckResult:
    """Operators of any two ranks commute."""
    checked = 0
    for x in _configs_up_to(profile.operator_d, profile.commute_n):
        once = {j: shift_from(x, j) for j in range(1, x.d + 1)}
        for j in range(1, x.d + 1):
            for jj in range(j + 1, x.d + 1):
                if shift_from(once[j], jj) != shift_from(once[jj], j):
                    return False, f"ranks {j},{jj} disagree at {x.levels}"
                checked += 1
    return True, f"{checked} ordered pairs, d <= {profile.operator_d}, size <= {profile.commute_n}"


@_law("free transitive action")
def check_free_transitive(profile: Profile) -> CheckResult:
    """The exponent map at the origin is bijective and decompose inverts it."""
    for d in range(1, profile.operator_d + 1):
        origin = Config.origin(d)
        for n in range(profile.transitive_n + 1):
            exponents = [MultiIndex(s) for s in compositions(n, d)]
            images = [act(a, origin) for a in exponents]
            expected = set(configs_with_size(d, n))
            if len(set(images)) != len(images) or set(images) != expected:
                return False, f"exponent map not bijective at d={d}, size {n}"
            for a, image in zip(exponents, images):
                if decompose(image) != a:
                    return False, f"decompose({image.levels}) != {a.steps}"
    return True, (
        f"bijective with inverse, d <= {profile.operator_d}, size <= {profile.transitive_n}"
    )


@_law("size and weight increments")
def check_increments(profile: Profile) -> CheckResult:
    """Rank j raises the size by 1 and the weight by j - 1."""
    checked = 0
    for x in _configs_up_to(profile.operator_d, profile.transitive_n):
        n, w = size(x), weight(x)
        for j in range(1, x.d + 1):
            y = shift_from(x, j)
            if size(y) != n + 1 or weight(y) != w + j - 1:
                return False, f"rank {j} at {x.levels}: got ({size(y)}, {weight(y)})"
            checked += 1
    return True, (
        f"{checked} applications, d <= {profile.operator_d}, size <= {profile.transitive_n}"
    )


@_law("weight formula equivalence")
def check_weight_equivalence(profile: Profile) -> CheckResult:
    """The pairwise-distance weight equals the seat-pair double sum."""
    checked = 0
    for x in _configs_up_to(profile.operator_d, profile.transitive_n):
        if weight(x) != weight_by_seats(x):
            return False, f"{x.levels}: {weight(x)} vs {weight_by_seats(x)}"
        checked += 1
    return True, f"{checked} configurations"


@_law("series identity three ways")
def check_series_three_way(profile: Profile) -> CheckResult:
    """Product, brute-force and recurrence series agree; coefficients count box partitions."""
    for d in range(1, profile.series_d + 1):
        whole = sum_over_configs(d, profile.series_t)
        for t_cut in range(profile.series_t + 1):
            brute = BiPoly(t_cut, whole.coeffs)
            prod = product_formula(d, t_cut)
            rec = recurrence_formula(d, t_cut)
            if brute != prod or prod != rec:
                return False, f"mismatch at d={d}, t_cut={t_cut}"
        top = prod  # the loop's last t_cut is series_t
        for n in range(profile.series_t + 1):
            for w, count in enumerate(gaussian_counts(n, d)):
                if top.coefficient(n, w) != count:
                    return False, f"coefficient ({n},{w}) at d={d} is not the box-partition count"
    return True, f"d <= {profile.series_d}, t_cut <= {profile.series_t}, coefficients vs partitions"


@_law("box partition bijection")
def check_partition_bijection(profile: Profile) -> CheckResult:
    """Box partitions biject onto configurations of the given size and weight."""
    for d in range(1, profile.operator_d + 1):
        for n in range(profile.transitive_n + 1):
            by_weight: dict[int, set[Config]] = {}
            for x in configs_with_size(d, n):
                by_weight.setdefault(weight(x), set()).add(x)
            partitions = box_partitions(n, d - 1)
            for w in range((d - 1) * n + 1):
                source = [lam for lam in partitions if lam.size == w]
                images = [partition_to_config(lam, n, d) for lam in source]
                if len(set(images)) != len(images) or set(images) != by_weight.get(w, set()):
                    return False, f"not a bijection at d={d}, n={n}, w={w}"
    return True, f"d <= {profile.operator_d}, size <= {profile.transitive_n}, every weight"


@_law("submodule counts by colength")
def check_submodule_counts(profile: Profile) -> CheckResult:
    """The stratum walk's colength totals match the product series at numeric q."""
    for q, d, depth in profile.module_grid:
        census = Census.walk(q, d, depth)
        observed, predicted = census.observed(), census.predicted()
        if observed != predicted:
            return False, f"q={q}, d={d}, depth={depth}: {observed} vs {predicted}"
    return True, _grids(profile)


@_law("stratum law")
def check_stratum_law(profile: Profile) -> CheckResult:
    """Brute-force stratum sizes are q**weight; the generator and matrix enumerations match them."""
    for q, d, depth in profile.module_grid:
        unlabelled = brute_strata(q, d, depth)
        census = Census(q, d, depth, {x: len(group) for x, group in unlabelled.items()})
        strata = dict(families(q, d, depth, hlex_key))
        matrices = dict(families(q, d, depth, lex_key))
        for n in range(depth + 1):
            colength_class: set = set()
            for x, _, predicted, observed in census.stratum_rows(n):
                brute = set(unlabelled.pop(x, ()))
                if observed != predicted:
                    return False, f"stratum {x.levels} at q={q}: {observed} vs {predicted}"
                direct = strata[x]
                if len(set(direct)) != len(direct) or set(direct) != brute:
                    return False, f"generator enumeration disagrees on stratum {x.levels} at q={q}"
                colength_class |= brute
            groups = [group for diag, group in matrices.items() if size(diag) == n]
            covered = set().union(*groups)
            if len(covered) != sum(map(len, groups)) or covered != colength_class:
                return False, f"matrix enumeration disagrees at q={q}, d={d}, colength {n}"
        if unlabelled:
            profiles = [x.levels for x in unlabelled]
            return False, f"unlabelled submodules at q={q}, d={d}, profiles {profiles}"
    return True, _grids(profile)


# The free-orbit trials: their seed, and the largest width, generator count
# and entry of a drawn base configuration and generator set.
ORBIT_SEED = 20260810
ORBIT_D_MAX = 4
ORBIT_R_MAX = 3
ORBIT_ENTRY_MAX = 2


def random_free_generators(rng: random.Random) -> tuple[Config, GeneratorSet]:
    """A random base configuration and rationally independent generator set."""
    while True:
        d = rng.randint(1, ORBIT_D_MAX)
        r = rng.randint(1, min(ORBIT_R_MAX, d))
        gens = []
        for _ in range(r):
            steps = tuple(rng.randint(0, ORBIT_ENTRY_MAX) for _ in range(d))
            if sum(steps) == 0 or MultiIndex(steps) in gens:
                break
            gens.append(MultiIndex(steps))
        else:
            candidate = GeneratorSet(d, tuple(gens))
            if is_free_basis(candidate):
                x0 = Config(tuple(rng.randint(0, ORBIT_ENTRY_MAX) for _ in range(d)))
                return x0, candidate


@_law("free orbit product formula")
def check_free_orbits(profile: Profile) -> CheckResult:
    """Closed-form orbit series equals the brute-force orbit census."""
    rng = random.Random(ORBIT_SEED)
    for trial in range(profile.orbit_trials):
        x0, gens = random_free_generators(rng)
        closed = free_orbit_formula(x0, gens, profile.orbit_t)
        brute = orbit_sum(x0, gens, profile.orbit_t)
        if closed != brute:
            return False, (
                f"trial {trial}: x0={x0.levels}, gens={[g.steps for g in gens.generators]}"
            )
    return True, (
        f"{profile.orbit_trials} random independent generator sets, t_cut={profile.orbit_t}"
    )


@_law("tightness preservation")
def check_tightness(profile: Profile) -> CheckResult:
    """Low-rank operators preserve r-tightness."""
    checked = 0
    for x in _configs_up_to(profile.operator_d, profile.transitive_n):
        for r in range(2, x.d + 1):
            if not is_tight(x, r):
                continue
            for j in range(1, r):
                if not is_tight(shift_from(x, j), r):
                    return False, f"rank {j} broke {r}-tightness at {x.levels}"
                checked += 1
    return True, f"{checked} preserved applications"


@_law("content additivity under the action")
def check_content_multiplicativity(profile: Profile) -> CheckResult:
    """Acting adds the exponent content to the configuration content."""
    checked = 0
    for d in range(1, profile.operator_d + 1):
        for x in configs_with_size(d, min(2, profile.commute_n)):
            for steps in compositions(2, d):
                a = MultiIndex(steps)
                got = content(act(a, x))
                base = content(x)
                extra = multiindex_content(a)
                if got != (base.t_exp + extra.t_exp, base.q_exp + extra.q_exp):
                    return False, f"a={steps} on {x.levels}"
                checked += 1
    return True, f"{checked} pairs"


ALL_CHECKS = (
    check_worked_example,
    check_commutation,
    check_free_transitive,
    check_increments,
    check_weight_equivalence,
    check_series_three_way,
    check_partition_bijection,
    check_submodule_counts,
    check_stratum_law,
    check_free_orbits,
    check_tightness,
    check_content_multiplicativity,
)


def run_profile(profile: Profile) -> list[CheckResult]:
    return [check(profile) for check in ALL_CHECKS]
