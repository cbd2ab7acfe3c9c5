"""Reflection covariance of the density and calculus constructions.

The map r(x) = 1 - x sends the open hole (a, b) to (1 - b, 1 - a), basic
dyadic intervals to basic dyadic intervals (the cylinder of a bit string to
that of its bitwise complement), lower density at z to lower density at
1 - z, and the slope of f over [a, b] to minus the slope of f o r over
[1 - b, 1 - a].  So the fat-interval cover, the density estimate and the
porosity test, run on the reflected class, must give exactly the reflected
output, and the pseudo-derivative estimates of f o r at 1 - x must be those
of f at x, negated and swapped.  The batteries compare each kernel with a
bound, which a one-sided bug can keep.
"""

from fractions import Fraction as F
from math import comb

import pytest

from densitylab.calculus import Polynomial, pseudo_derivative_estimate
from densitylab.density import low_density_open_set, lower_density_estimate
from densitylab.instances import (
    COVERING_EPSILONS,
    covering_holes,
    extension_instance,
    porosity_instance,
)
from densitylab.intervals import Interval, StagedOpenEnumeration, class_gaps
from densitylab.piecewise import PiecewiseLinear
from densitylab.porosity import porosity_test


def reflect(iv: Interval) -> Interval:
    return Interval(1 - iv.hi, 1 - iv.lo)


def reflected(intervals) -> list[Interval]:
    """The images of sorted intervals under r, sorted again."""
    return [reflect(iv) for iv in reversed(intervals)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_cover_of_the_reflected_class_is_the_reflected_cover(seed):
    # battery 1's classes at each of its thresholds
    broken = []
    for index in range(200):
        holes = covering_holes(seed, index)
        row, mirror = class_gaps(holes), class_gaps([reflect(h) for h in holes])
        for eps in COVERING_EPSILONS:
            fc, rfc = low_density_open_set(row, eps), low_density_open_set(mirror, eps)
            if list(rfc.U.parts) != reflected(fc.U.parts):
                broken.append(f"instance {index} eps {eps}: parts of U")
            if list(rfc.fat_intervals) != reflected(fc.fat_intervals):
                broken.append(f"instance {index} eps {eps}: fat intervals")
            for c, rc in zip(fc.inequalities(), rfc.inequalities()):
                if (c.lhs, c.rhs, c.ok) != (rc.lhs, rc.rhs, rc.ok):
                    broken.append(f"instance {index} eps {eps}: {c.name}")
    assert broken == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_estimate_at_z_is_the_estimate_of_the_reflected_class_at_1_minus_z(seed):
    # dyadic points take the dyadic windows on both sides of z; part
    # endpoints take the windows that end at a part
    broken, compared = [], 0
    for index in range(40):
        holes = covering_holes(seed, index)
        row, mirror = class_gaps(holes), class_gaps([reflect(h) for h in holes])
        ends = [F(x, row.den) for x in row.ends[1:-1]]
        for z in (F(1, 3), F(1, 2), F(5, 8), F(3, 4), *ends):
            want = lower_density_estimate(row, z, 6).estimate
            got = lower_density_estimate(mirror, 1 - z, 6).estimate
            compared += 1
            if got != want:
                broken.append(f"instance {index} z {z}: {got} != {want}")
    assert compared >= 160
    assert broken == []


def complement(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_porosity_test_of_the_reflected_class_is_the_reflected_test(seed):
    # battery 3's enumerations: the reflected class has the complemented
    # boxes, the same masses and the same bound rows
    broken, compared = [], 0
    for index in range(50):
        enum, c, levels = porosity_instance(seed, index)
        mirror = StagedOpenEnumeration(tuple(reflect(h) for h in enum.items))
        pt, rpt = porosity_test(enum, c, levels, 200), porosity_test(mirror, c, levels, 200)
        compared += 1
        if rpt.max_masses != pt.max_masses:
            broken.append(f"instance {index}: max_masses")
        for row, rrow in zip(pt.bound_checks(), rpt.bound_checks(), strict=True):
            compared += 1
            if (rrow.lhs, rrow.rhs) != (row.lhs, row.rhs):
                broken.append(f"instance {index}: {row.name}")
        for key, members in pt.boxes.items():
            compared += 1
            if rpt.boxes[key] != tuple(sorted(map(complement, members))):
                broken.append(f"instance {index}: B_{key}")
    assert compared >= 150
    assert broken == []


def reflected_function(f):
    """f o r: for a polynomial sum c_i x^i, the sum c_i (1 - x)^i expanded by
    the binomial theorem; for a piecewise-linear function, its breakpoints
    reversed and each x sent to 1 - x."""
    if isinstance(f, Polynomial):
        cs = f.coefficients
        return Polynomial([sum(c * comb(i, j) * (-1) ** j for i, c in enumerate(cs) if i >= j)
                           for j in range(len(cs))])
    return PiecewiseLinear([1 - x for x in reversed(f.xs)], list(reversed(f.ys)))


def test_the_pseudo_derivatives_of_the_reflected_function_are_negated_and_swapped():
    # battery 10's functions, with its staircase at seeds 1 to 3; the window
    # [x - h, x + h] and the grid are symmetric under r, so the straddling
    # pairs of x map onto those of 1 - x
    sweep = [
        ("identity", Polynomial((0, 1))),
        ("square", Polynomial((0, 0, 1))),
        ("vee", PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1, 2), F(0)))),
        *((f"staircase of seed {seed}", extension_instance(seed, 0)[0]) for seed in (1, 2, 3)),
    ]
    broken, compared = [], 0
    for label, f in sweep:
        g = reflected_function(f)
        for x in (F(1, 3), F(1, 2), F(5, 8), F(3, 4), F(1, 7)):
            for depth in (4, 6, 8):
                lo, up = pseudo_derivative_estimate(f, x, F(1, 4), depth)
                rlo, rup = pseudo_derivative_estimate(g, 1 - x, F(1, 4), depth)
                compared += 1
                if (up.value, lo.value) != (-rlo.value, -rup.value):
                    broken.append(f"{label} at {x}, depth {depth}")
    assert compared >= 90
    assert broken == []
