"""Step halving of the RK4 geodesic integrator.

Each study integrates the same unit-time geodesic at 4 to 256 steps and
compares each endpoint with the next finer one.  On sphere2 the differences
are truncation error and shrink by about 2**4 a halving; on the flat corpus
connections the geodesics are quadratic, RK4 integrates them exactly, and
the differences are round-off.
"""
import numpy as np
import pytest

from bornbundle import corpus
from point import geodesic_integrate

COUNTS = [4 * 2 ** e for e in range(7)]  # 4 to 256 steps


def halving_differences(spec, x0, v):
    ends = [geodesic_integrate(spec, x0, v, steps) for steps in COUNTS]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    # 2 ulps a step: one rounding of the position and velocity sums each
    bounds = [2 * steps * np.spacing(np.max(np.abs(b))) for steps, b in zip(COUNTS, ends[1:])]
    return diffs, bounds


def sphere_differences():
    return halving_differences(corpus.example("sphere2"), (1.0, 1.0), (0.35, 0.5))


def test_sphere_contracts_fourth_order():
    # the contraction falls towards 16 as the step shrinks, and the finest
    # halving reads an order of 4 to within 0.05
    diffs, _ = sphere_differences()
    ratios = [coarse / fine for coarse, fine in zip(diffs, diffs[1:])]
    assert all(later <= earlier for earlier, later in zip(ratios, ratios[1:]))
    assert abs(np.log2(ratios[-1]) - 4.0) <= 0.05


def test_sphere_contraction_is_still_checked():
    # every sphere difference is far above round-off, so the contraction band
    # of the charts test measures truncation error, not rounding
    diffs, bounds = sphere_differences()
    assert all(diff > 10 * bound for diff, bound in zip(diffs, bounds))


@pytest.mark.parametrize("spec", ["pullback-flat", "euclidean2"])
def test_flat_geodesic_converges_to_round_off(spec):
    diffs, bounds = halving_differences(corpus.example(spec), (0.0, 0.0), (0.3, 0.2))
    assert all(diff <= bound for diff, bound in zip(diffs, bounds))
