from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.density import (
    brute_force_low_density_oracle,
    dyadic_intervals_containing,
    low_density_open_set,
    lower_density_estimate,
)
from densitylab.errors import DomainError
from densitylab.instances import COVERING_EPSILONS
from densitylab.intervals import (
    EMPTY_SET,
    FULL_SET,
    Interval,
    IntervalSet,
    canonicalize,
    interval,
)

C_ONE_HOLE = FULL_SET.subtract_open([interval(F(1, 4), F(1, 2))])
C_SPEC = IntervalSet((interval(F(0), F(1, 4)), interval(F(1, 2), F(1))))


def test_dyadic_intervals_containing_boundary_gives_both():
    assert [i.to_json() for i in dyadic_intervals_containing(F(1, 2), 2)] == [
        ["1/4", "1/2"],
        ["1/2", "3/4"],
    ]
    assert [i.to_json() for i in dyadic_intervals_containing(F(1), 1)] == [["1/2", "1/1"]]
    assert [i.to_json() for i in dyadic_intervals_containing(F(0), 3)] == [["0/1", "1/8"]]
    assert [i.to_json() for i in dyadic_intervals_containing(F(1, 3), 1)] == [["0/1", "1/2"]]


def test_dyadic_estimate_spec_point():
    # boundary z sees the empty side: estimate 0 with witness [1/4, 1/2]
    est = lower_density_estimate(C_SPEC, F(1, 2), 3, "dyadic")
    assert est.estimate == 0
    assert est.witness.to_json() == ["1/4", "1/2"]


def test_general_estimate_never_exceeds_dyadic():
    for z in (F(1, 2), F(1, 3), F(7, 8), F(0), F(1)):
        for depth in range(5):
            gen = lower_density_estimate(C_SPEC, z, depth, "general")
            dy = lower_density_estimate(C_SPEC, z, depth, "dyadic")
            assert gen.estimate <= dy.estimate


def test_estimates_antitone_in_depth():
    for mode in ("general", "dyadic"):
        prev = None
        for depth in range(7):
            est = lower_density_estimate(C_ONE_HOLE, F(1, 3), depth, mode).estimate
            if prev is not None:
                assert est <= prev
            prev = est


def test_estimate_interior_point_of_full_set_is_one():
    est = lower_density_estimate(FULL_SET, F(1, 3), 6, "general")
    assert est.estimate == 1


def test_fat_cover_one_hole_worked_values():
    fc = low_density_open_set(C_ONE_HOLE, F(1, 3))
    assert [i.to_json() for i in fc.fat_intervals] == [["1/8", "1/2"], ["1/4", "5/8"]]
    assert [i.to_json() for i in fc.chain] == [["1/8", "1/2"], ["1/4", "5/8"]]
    assert fc.U.to_json() == [["1/8", "5/8"]]
    assert fc.overlap_measure == F(1, 4)
    assert fc.size_measure == F(1, 2)
    assert fc.holds()


def test_fat_cover_edge_classes():
    assert low_density_open_set(EMPTY_SET, F(1, 2)).U == FULL_SET
    assert low_density_open_set(FULL_SET, F(1, 2)).U == EMPTY_SET
    with pytest.raises(DomainError):
        low_density_open_set(C_ONE_HOLE, F(1))


def test_fat_cover_matches_oracle_one_hole():
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        fc = low_density_open_set(C_ONE_HOLE, eps)
        extras = [x for i in fc.fat_intervals for x in (i.lo, i.hi)]
        oracle = brute_force_low_density_oracle(C_ONE_HOLE, eps, 6, extras)
        assert oracle.drop_degenerate() == fc.U.drop_degenerate()


def test_chain_skips_one():
    fc = low_density_open_set(C_ONE_HOLE, F(1, 3))
    chain = fc.chain
    for i in range(len(chain) - 2):
        assert chain[i].intersection(chain[i + 2]) is None
    # chain covers exactly the fat union
    from densitylab.intervals import canonicalize

    assert canonicalize(chain) == fc.U


hole_lists = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(1, 8)
    ).map(lambda p: interval(F(p[0], 64), F(min(64, p[0] + p[1]), 64))),
    min_size=1,
    max_size=4,
).filter(lambda hs: all(not h.is_degenerate for h in hs))


@settings(max_examples=40, deadline=None)
@given(hole_lists, st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_fat_cover_bounds_property(holes, eps):
    c = FULL_SET.subtract_open(holes)
    fc = low_density_open_set(c, eps)
    assert fc.overlap_measure <= 2 * eps
    assert fc.size_measure <= 2 * (1 - c.measure) / (1 - eps)
    # every gap of C lies inside U
    for gap in c.gaps():
        assert fc.U.intersect_interval(gap).measure == gap.length


@settings(max_examples=25, deadline=None)
@given(hole_lists, st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_fat_cover_matches_oracle_property(holes, eps):
    c = FULL_SET.subtract_open(holes)
    fc = low_density_open_set(c, eps)
    extras = [x for i in fc.fat_intervals for x in (i.lo, i.hi)]
    oracle = brute_force_low_density_oracle(c, eps, 6, extras)
    assert oracle.drop_degenerate() == fc.U.drop_degenerate()


def reference_oracle(c, eps, grid_depth, extra_points):
    """The prefix-mass scan in Fraction arithmetic, masses measured directly."""
    points = {F(k, 1 << grid_depth) for k in range((1 << grid_depth) + 1)}
    points.update(x for p in c.parts for x in (p.lo, p.hi))
    points.update(extra_points)
    grid = sorted(points)
    masses = [c.intersect_interval(interval(0, g)).measure for g in grid]
    covered = []
    for i in range(len(grid) - 1):
        for j in range(len(grid) - 1, i, -1):
            if masses[j] - masses[i] <= eps * (grid[j] - grid[i]):
                covered.append(Interval(grid[i], grid[j]))
                break
    return canonicalize(covered)


unit_points = st.builds(
    lambda d, k: F(k % (d + 1), d), st.sampled_from([3, 5, 7, 12, 60]), st.integers(0, 60)
)
mixed_holes = st.lists(
    st.tuples(unit_points, unit_points)
    .filter(lambda p: p[0] != p[1])
    .map(lambda p: Interval(min(p), max(p))),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(st.one_of(hole_lists, mixed_holes), st.lists(unit_points, max_size=4))
def test_oracle_matches_fraction_scan(holes, extras):
    c = FULL_SET.subtract_open(holes)
    for eps in COVERING_EPSILONS:
        assert brute_force_low_density_oracle(c, eps, 4, extras) == reference_oracle(
            c, eps, 4, extras
        )
