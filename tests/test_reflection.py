"""Reflection covariance of the density constructions.

The map r(x) = 1 - x sends the open hole (a, b) to (1 - b, 1 - a), basic
dyadic intervals to basic dyadic intervals, and lower density at z to lower
density at 1 - z.  So the fat-interval cover and the density estimate, run
on the reflected class, must give exactly the reflected output.  The
batteries compare each kernel with a bound, which a one-sided bug can keep.
"""

from fractions import Fraction as F

import pytest

from densitylab.density import low_density_open_set, lower_density_estimate
from densitylab.instances import COVERING_EPSILONS, covering_holes
from densitylab.intervals import Interval, class_gaps


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
