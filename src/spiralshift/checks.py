"""Named verification checks behind the `verify` command and the acceptance suite.

Each check exhaustively exercises one law at a configurable scale and
reports pass/fail with a short summary.  The `full` profile runs the scales
the project promises; `quick` is a fast smoke pass over smaller ranges.
"""

from __future__ import annotations

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
from .partitions import box_partitions, gaussian_count, partition_to_config
from .series import (
    GeneratorSet,
    free_orbit_formula,
    is_free_basis,
    orbit_sum,
    product_formula,
    recurrence_formula,
    sum_over_configs,
)
from .stats import content, multiindex_content, size, weight, weight_by_seats
from .submodules import (
    DEFAULT_CAP,
    Census,
    enumerate_stratum,
    enumerate_submodules,
    hermite_enumerate,
)


@dataclass(frozen=True)
class Profile:
    commute_d: int
    commute_n: int
    transitive_d: int
    transitive_n: int
    series_d: int
    series_t: int
    bijection_d: int
    bijection_n: int
    module_grid: tuple[tuple[int, int, int], ...]  # (q, d, depth)
    orbit_trials: int
    orbit_t: int
    cap: int = DEFAULT_CAP


QUICK = Profile(
    commute_d=3,
    commute_n=3,
    transitive_d=3,
    transitive_n=4,
    series_d=3,
    series_t=5,
    bijection_d=3,
    bijection_n=4,
    module_grid=((2, 2, 2),),
    orbit_trials=10,
    orbit_t=6,
)

FULL = Profile(
    commute_d=4,
    commute_n=5,
    transitive_d=4,
    transitive_n=6,
    series_d=5,
    series_t=8,
    bijection_d=4,
    bijection_n=6,
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


def _configs_up_to(d_max: int, n_max: int):
    for d in range(1, d_max + 1):
        for n in range(n_max + 1):
            yield from configs_with_size(d, n)


def check_worked_example(profile: Profile) -> CheckResult:
    """The width-5 commuting square of ranks 2 and 3 from (0,2,1,0,1)."""
    started = time.perf_counter()
    x = Config((0, 2, 1, 0, 1))
    ok = (
        shift_from(x, 3) == Config((0, 2, 2, 0, 1))
        and shift_from(x, 2) == Config((0, 2, 2, 1, 0))
        and shift_from(shift_from(x, 3), 2) == Config((0, 2, 2, 2, 0))
        and shift_from(shift_from(x, 2), 3) == Config((0, 2, 2, 2, 0))
    )
    return CheckResult(
        "worked example (width-5 commuting square)",
        ok,
        "4 equalities" if ok else "mismatch in the worked square",
        time.perf_counter() - started,
    )


def check_commutation(profile: Profile) -> CheckResult:
    """Operators of any two ranks commute."""
    started = time.perf_counter()
    checked = 0
    for x in _configs_up_to(profile.commute_d, profile.commute_n):
        for j in range(1, x.d + 1):
            for jj in range(j + 1, x.d + 1):
                if shift_from(shift_from(x, j), jj) != shift_from(shift_from(x, jj), j):
                    return CheckResult(
                        "operator commutation",
                        False,
                        f"ranks {j},{jj} disagree at {x.levels}",
                        time.perf_counter() - started,
                    )
                checked += 1
    return CheckResult(
        "operator commutation",
        True,
        f"{checked} ordered pairs, d <= {profile.commute_d}, size <= {profile.commute_n}",
        time.perf_counter() - started,
    )


def check_free_transitive(profile: Profile) -> CheckResult:
    """The exponent map at the origin is bijective and decompose inverts it."""
    started = time.perf_counter()
    for d in range(1, profile.transitive_d + 1):
        origin = Config.origin(d)
        for n in range(profile.transitive_n + 1):
            exponents = [MultiIndex(s) for s in compositions(n, d)]
            images = [act(a, origin) for a in exponents]
            expected = set(configs_with_size(d, n))
            if len(set(images)) != len(images) or set(images) != expected:
                return CheckResult(
                    "free transitive action",
                    False,
                    f"exponent map not bijective at d={d}, size {n}",
                    time.perf_counter() - started,
                )
            for a, image in zip(exponents, images):
                if decompose(image) != a:
                    return CheckResult(
                        "free transitive action",
                        False,
                        f"decompose({image.levels}) != {a.steps}",
                        time.perf_counter() - started,
                    )
    return CheckResult(
        "free transitive action",
        True,
        f"bijective with inverse, d <= {profile.transitive_d}, size <= {profile.transitive_n}",
        time.perf_counter() - started,
    )


def check_increments(profile: Profile) -> CheckResult:
    """Rank j raises the size by 1 and the weight by j - 1."""
    started = time.perf_counter()
    checked = 0
    for x in _configs_up_to(profile.transitive_d, profile.transitive_n):
        for j in range(1, x.d + 1):
            y = shift_from(x, j)
            if size(y) != size(x) + 1 or weight(y) != weight(x) + j - 1:
                return CheckResult(
                    "size and weight increments",
                    False,
                    f"rank {j} at {x.levels}: got ({size(y)}, {weight(y)})",
                    time.perf_counter() - started,
                )
            checked += 1
    return CheckResult(
        "size and weight increments",
        True,
        f"{checked} applications, d <= {profile.transitive_d}, size <= {profile.transitive_n}",
        time.perf_counter() - started,
    )


def check_weight_equivalence(profile: Profile) -> CheckResult:
    """The pairwise-distance weight equals the seat-pair double sum."""
    started = time.perf_counter()
    checked = 0
    for x in _configs_up_to(profile.transitive_d, profile.transitive_n):
        if weight(x) != weight_by_seats(x):
            return CheckResult(
                "weight formula equivalence",
                False,
                f"{x.levels}: {weight(x)} vs {weight_by_seats(x)}",
                time.perf_counter() - started,
            )
        checked += 1
    return CheckResult(
        "weight formula equivalence",
        True,
        f"{checked} configurations",
        time.perf_counter() - started,
    )


def check_series_three_way(profile: Profile) -> CheckResult:
    """Product, brute-force and recurrence series agree; coefficients count box partitions."""
    started = time.perf_counter()
    for d in range(1, profile.series_d + 1):
        for t_cut in range(profile.series_t + 1):
            brute = sum_over_configs(d, t_cut)
            prod = product_formula(d, t_cut)
            rec = recurrence_formula(d, t_cut)
            if brute != prod or prod != rec:
                return CheckResult(
                    "series identity three ways",
                    False,
                    f"mismatch at d={d}, t_cut={t_cut}",
                    time.perf_counter() - started,
                )
        top = product_formula(d, profile.series_t)
        for n in range(profile.series_t + 1):
            for w in range((d - 1) * n + 1):
                if top.coefficient(n, w) != gaussian_count(n, d, w):
                    return CheckResult(
                        "series identity three ways",
                        False,
                        f"coefficient ({n},{w}) at d={d} is not the box-partition count",
                        time.perf_counter() - started,
                    )
    return CheckResult(
        "series identity three ways",
        True,
        f"d <= {profile.series_d}, t_cut <= {profile.series_t}, coefficients vs partitions",
        time.perf_counter() - started,
    )


def check_partition_bijection(profile: Profile) -> CheckResult:
    """Box partitions biject onto configurations of the given size and weight."""
    started = time.perf_counter()
    for d in range(1, profile.bijection_d + 1):
        for n in range(profile.bijection_n + 1):
            by_weight: dict[int, set[Config]] = {}
            for x in configs_with_size(d, n):
                by_weight.setdefault(weight(x), set()).add(x)
            partitions = box_partitions(n, d - 1)
            for w in range((d - 1) * n + 1):
                source = [lam for lam in partitions if lam.size == w]
                images = [partition_to_config(lam, n, d) for lam in source]
                if len(set(images)) != len(images) or set(images) != by_weight.get(w, set()):
                    return CheckResult(
                        "box partition bijection",
                        False,
                        f"not a bijection at d={d}, n={n}, w={w}",
                        time.perf_counter() - started,
                    )
    return CheckResult(
        "box partition bijection",
        True,
        f"d <= {profile.bijection_d}, size <= {profile.bijection_n}, every weight",
        time.perf_counter() - started,
    )


def check_submodule_counts(profile: Profile) -> CheckResult:
    """Brute-force colength totals match the product series at numeric q."""
    started = time.perf_counter()
    for q, d, depth in profile.module_grid:
        submodules = enumerate_submodules(q, d, depth, cap=profile.cap)
        census = Census.tally(q, d, depth, submodules)
        observed, predicted = census.observed(), census.predicted()
        if observed != predicted:
            return CheckResult(
                "submodule counts by colength",
                False,
                f"q={q}, d={d}, depth={depth}: {observed} vs {predicted}",
                time.perf_counter() - started,
            )
    grids = ", ".join(f"q={q},d={d},N={n}" for q, d, n in profile.module_grid)
    return CheckResult(
        "submodule counts by colength",
        True,
        grids,
        time.perf_counter() - started,
    )


def check_stratum_law(profile: Profile) -> CheckResult:
    """Stratum sizes are q**weight; the generator and matrix enumerations match brute force."""
    started = time.perf_counter()
    for q, d, depth in profile.module_grid:
        submodules = enumerate_submodules(q, d, depth, cap=profile.cap)
        census = Census.tally(q, d, depth, submodules)
        unlabelled = dict(census.strata)
        for n in range(depth + 1):
            colength_class: set = set()
            for x, _, predicted, observed in census.stratum_rows(n):
                brute = set(unlabelled.pop(x, ()))
                if observed != predicted:
                    return CheckResult(
                        "stratum law",
                        False,
                        f"stratum {x.levels} at q={q}: {observed} vs {predicted}",
                        time.perf_counter() - started,
                    )
                direct = enumerate_stratum(x, q, depth=depth, cap=profile.cap)
                if len(set(direct)) != len(direct) or set(direct) != brute:
                    return CheckResult(
                        "stratum law",
                        False,
                        f"generator enumeration disagrees on stratum {x.levels} at q={q}",
                        time.perf_counter() - started,
                    )
                colength_class |= brute
            matrices = hermite_enumerate(q, d, n, depth=depth, cap=profile.cap)
            if len(set(matrices)) != len(matrices) or set(matrices) != colength_class:
                return CheckResult(
                    "stratum law",
                    False,
                    f"matrix enumeration disagrees at q={q}, d={d}, colength {n}",
                    time.perf_counter() - started,
                )
        if unlabelled:
            return CheckResult(
                "stratum law",
                False,
                f"unlabelled submodules at q={q}, d={d}, profiles {list(unlabelled)}",
                time.perf_counter() - started,
            )
    grids = ", ".join(f"q={q},d={d},N={n}" for q, d, n in profile.module_grid)
    return CheckResult("stratum law", True, grids, time.perf_counter() - started)


def random_free_generators(
    rng: random.Random, d_max: int = 4, r_max: int = 3, entry_max: int = 2
) -> tuple[Config, GeneratorSet]:
    """A random base configuration and rationally independent generator set."""
    while True:
        d = rng.randint(1, d_max)
        r = rng.randint(1, min(r_max, d))
        gens = []
        for _ in range(r):
            steps = tuple(rng.randint(0, entry_max) for _ in range(d))
            if sum(steps) == 0 or MultiIndex(steps) in gens:
                break
            gens.append(MultiIndex(steps))
        else:
            candidate = GeneratorSet(d, tuple(gens))
            if is_free_basis(candidate):
                x0 = Config(tuple(rng.randint(0, entry_max) for _ in range(d)))
                return x0, candidate


def check_free_orbits(profile: Profile, seed: int = 20260810) -> CheckResult:
    """Closed-form orbit series equals the brute-force orbit census."""
    started = time.perf_counter()
    rng = random.Random(seed)
    for trial in range(profile.orbit_trials):
        x0, gens = random_free_generators(rng)
        closed = free_orbit_formula(x0, gens, profile.orbit_t)
        brute = orbit_sum(x0, gens, profile.orbit_t)
        if closed != brute:
            return CheckResult(
                "free orbit product formula",
                False,
                f"trial {trial}: x0={x0.levels}, gens={[g.steps for g in gens.generators]}",
                time.perf_counter() - started,
            )
    return CheckResult(
        "free orbit product formula",
        True,
        f"{profile.orbit_trials} random independent generator sets, t_cut={profile.orbit_t}",
        time.perf_counter() - started,
    )


def check_tightness(profile: Profile) -> CheckResult:
    """Low-rank operators preserve r-tightness."""
    started = time.perf_counter()
    checked = 0
    for x in _configs_up_to(profile.transitive_d, profile.transitive_n):
        for r in range(2, x.d + 1):
            if not is_tight(x, r):
                continue
            for j in range(1, r):
                if not is_tight(shift_from(x, j), r):
                    return CheckResult(
                        "tightness preservation",
                        False,
                        f"rank {j} broke {r}-tightness at {x.levels}",
                        time.perf_counter() - started,
                    )
                checked += 1
    return CheckResult(
        "tightness preservation",
        True,
        f"{checked} preserved applications",
        time.perf_counter() - started,
    )


def check_content_multiplicativity(profile: Profile) -> CheckResult:
    """Acting adds the exponent content to the configuration content."""
    started = time.perf_counter()
    checked = 0
    for d in range(1, profile.commute_d + 1):
        for x in configs_with_size(d, min(2, profile.commute_n)):
            for steps in compositions(2, d):
                a = MultiIndex(steps)
                got = content(act(a, x))
                base = content(x)
                extra = multiindex_content(a)
                if got != (base.t_exp + extra.t_exp, base.q_exp + extra.q_exp):
                    return CheckResult(
                        "content additivity under the action",
                        False,
                        f"a={steps} on {x.levels}",
                        time.perf_counter() - started,
                    )
                checked += 1
    return CheckResult(
        "content additivity under the action",
        True,
        f"{checked} pairs",
        time.perf_counter() - started,
    )


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
