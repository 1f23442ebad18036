"""Inputs at the edge of each layer's domain.

Each out-of-domain input is refused with its own message, and the
smallest census, the depth-0 window, is the zero space with its one
subspace {0}.
"""

import pytest

from spiralshift import (
    Census,
    Config,
    GeneratorSet,
    ModuleSpace,
    MultiIndex,
    SubmoduleBasis,
    box_partitions,
    brute_strata,
    echelonize,
    enumerate_submodules,
    families,
    free_orbit_formula,
    gaussian_counts,
    orbit_sum,
    product_formula,
    recurrence_formula,
)

# A width-3 generator set against a width-2 base configuration.
WIDE_GENS = GeneratorSet(3, (MultiIndex((1, 0, 0)),))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: product_formula(0, 3), "width d must be positive"),
        (lambda: recurrence_formula(0, 3), "width d must be positive"),
        (lambda: GeneratorSet(0, ()), "width d must be positive"),
        (
            lambda: orbit_sum(Config.origin(2), WIDE_GENS, 3),
            "dimension mismatch between generators and base configuration",
        ),
        (
            lambda: free_orbit_formula(Config.origin(2), WIDE_GENS, 3),
            "dimension mismatch between generators and base configuration",
        ),
        (lambda: box_partitions(-1, 2), "box dimensions must be nonnegative"),
        (lambda: box_partitions(2, -1), "box dimensions must be nonnegative"),
        (lambda: gaussian_counts(2, 0), "width d must be positive"),
        (lambda: dict(families(2, 2, -1)), "depth must be nonnegative, got -1"),
        (lambda: dict(families(4, 2, 2)), "modulus must be prime, got 4"),
        (lambda: dict(families(2, 0, 2)), "width d must be positive"),
        # The walk builds each stratum in a window of its own depth, none of
        # them n's, so it validates (q, d, n) first, as families does.
        (lambda: Census.walk(2, 2, -1), "depth must be nonnegative, got -1"),
        (lambda: Census.walk(4, 2, 2), "modulus must be prime, got 4"),
        (lambda: Census.walk(2, 0, 2), "width d must be positive"),
        (
            lambda: echelonize(ModuleSpace(2, 2, 2), [(1, 0)]),
            "vector of length 2 in a window of dimension 4",
        ),
        (
            lambda: echelonize(ModuleSpace(2, 2, 2), [(2, 0, 0, 0)]),
            "vector entries must lie in [0, 2), got (2, 0, 0, 0)",
        ),
        (
            lambda: echelonize(ModuleSpace(3, 1, 2), [(0, -1)]),
            "vector entries must lie in [0, 3), got (0, -1)",
        ),
        (
            lambda: SubmoduleBasis(ModuleSpace(2, 2, 2), ((1, 0),)),
            "row of length 2 in a window of dimension 4",
        ),
        (
            lambda: SubmoduleBasis(
                ModuleSpace(2, 2, 2), ((1, 0, 0, 5), (0, 1, 0, 0), (0, 0, 1, 0))
            ),
            "row entries must lie in [0, 2), got (1, 0, 0, 5)",
        ),
        (
            lambda: SubmoduleBasis(ModuleSpace(3, 1, 2), ((1, 0), (0, -1))),
            "row entries must lie in [0, 3), got (0, -1)",
        ),
    ],
    ids=[
        "product_formula",
        "recurrence_formula",
        "GeneratorSet",
        "orbit_sum",
        "free_orbit_formula",
        "box_partitions-rows",
        "box_partitions-cols",
        "gaussian_counts",
        "families",
        "families-modulus",
        "families-width",
        "walk-depth",
        "walk-modulus",
        "walk-width",
        "echelonize-length",
        "echelonize-entry",
        "echelonize-negative",
        "SubmoduleBasis-length",
        "SubmoduleBasis-entry",
        "SubmoduleBasis-negative",
    ],
)
def test_out_of_domain_inputs_are_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (3, 3)])
def test_depth_zero_window_is_the_zero_space(q, d):
    space = ModuleSpace(q, d, 0)
    zero = SubmoduleBasis(space, ())
    assert space.dim == 0
    assert enumerate_submodules(q, d, 0) == [zero]
    assert brute_strata(q, d, 0) == {Config.origin(d): [zero]}
    assert dict(families(q, d, 0)) == {Config.origin(d): [zero]}
    assert Census.walk(q, d, 0).observed() == [1]
