from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitylab.density import (
    brute_force_low_density_oracle,
    low_density_open_set,
    lower_density_estimate,
)
from densitylab.errors import DomainError
from densitylab.instances import COVERING_EPSILONS
from densitylab.intervals import (
    EMPTY_SET,
    FULL_SET,
    ClassGaps,
    Interval,
    IntervalSet,
    canonicalize,
)

from helpers import interval

C_ONE_HOLE = FULL_SET.subtract_open([interval(F(1, 4), F(1, 2))])
C_SPEC = IntervalSet((interval(F(0), F(1, 4)), interval(F(1, 2), F(1))))


def dyadic_intervals_containing(z, n):
    """The basic dyadic intervals [r 2^-n, (r+1) 2^-n] containing z, two when
    z is on the grid inside (0, 1), in Fractions: the reference for the
    estimate's integer windows."""
    scaled = z * (1 << n)
    base = scaled.numerator // scaled.denominator
    indices = {min(base, (1 << n) - 1)}
    if scaled.denominator == 1 and 0 < scaled.numerator < (1 << n):
        indices.add(scaled.numerator - 1)
    step = F(1, 1 << n)
    return [Interval(i * step, (i + 1) * step) for i in sorted(indices)]


def test_dyadic_intervals_containing_boundary_gives_both():
    assert [i.to_json() for i in dyadic_intervals_containing(F(1, 2), 2)] == [
        ["1/4", "1/2"],
        ["1/2", "3/4"],
    ]
    assert [i.to_json() for i in dyadic_intervals_containing(F(1), 1)] == [["1/2", "1/1"]]
    assert [i.to_json() for i in dyadic_intervals_containing(F(0), 3)] == [["0/1", "1/8"]]
    assert [i.to_json() for i in dyadic_intervals_containing(F(1, 3), 1)] == [["0/1", "1/2"]]


def test_general_estimate_never_exceeds_dyadic():
    # the family holds the basic dyadic intervals through z
    for z in (F(1, 2), F(1, 3), F(7, 8), F(0), F(1)):
        for depth in range(5):
            gen = lower_density_estimate(ClassGaps.of(C_SPEC), z, depth)
            dy = min(C_SPEC.intersect_interval(w).measure / w.length
                     for n in range(depth + 1) for w in dyadic_intervals_containing(z, n))
            assert gen.estimate <= dy


def test_estimates_antitone_in_depth():
    prev = None
    for depth in range(7):
        est = lower_density_estimate(ClassGaps.of(C_ONE_HOLE), F(1, 3), depth).estimate
        if prev is not None:
            assert est <= prev
        prev = est


def test_estimate_interior_point_of_full_set_is_one():
    est = lower_density_estimate(ClassGaps.of(FULL_SET), F(1, 3), 6)
    assert est.estimate == 1


def test_fat_cover_one_hole_worked_values():
    fc = low_density_open_set(ClassGaps.of(C_ONE_HOLE), F(1, 3))
    assert [i.to_json() for i in fc.fat_intervals] == [["1/8", "1/2"], ["1/4", "5/8"]]
    assert [i.to_json() for i in fc.U.parts] == [["1/8", "5/8"]]
    overlap, size = fc.inequalities()
    assert (overlap.lhs, overlap.rhs, size.lhs, size.rhs) == (F(1, 4), F(2, 3), F(1, 2), F(3, 4))
    assert overlap.ok and size.ok


def test_fat_cover_edge_classes():
    assert low_density_open_set(ClassGaps.of(EMPTY_SET), F(1, 2)).U == FULL_SET
    assert low_density_open_set(ClassGaps.of(FULL_SET), F(1, 2)).U == EMPTY_SET
    with pytest.raises(DomainError):
        low_density_open_set(ClassGaps.of(C_ONE_HOLE), F(1))


def test_fat_cover_matches_oracle_one_hole():
    for eps in (F(1, 4), F(1, 2), F(3, 4)):
        fc = low_density_open_set(ClassGaps.of(C_ONE_HOLE), eps)
        extras = [x for i in fc.fat_intervals for x in (i.lo, i.hi)]
        oracle = brute_force_low_density_oracle(C_ONE_HOLE, eps, 6, extras)
        assert oracle.drop_degenerate() == fc.U.drop_degenerate()


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
    fc = low_density_open_set(ClassGaps.of(c), eps)
    assert c.intersect(fc.U).measure <= 2 * eps
    assert fc.U.measure <= 2 * (1 - c.measure) / (1 - eps)
    assert all(row.ok for row in fc.inequalities())
    # every gap of C lies inside U
    for gap in c.gaps():
        assert fc.U.intersect_interval(gap).measure == gap.length


@settings(max_examples=25, deadline=None)
@given(hole_lists, st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_fat_cover_matches_oracle_property(holes, eps):
    c = FULL_SET.subtract_open(holes)
    fc = low_density_open_set(ClassGaps.of(c), eps)
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


# The Fraction implementations the integer mass row replaced, kept as
# references: every window density and every cover segment in Fractions.
def reference_estimate(c, z, scale_depth):
    windows = []
    radii = [F(1, 1 << k) for k in range(scale_depth + 1)]
    left, right = list(radii), list(radii)
    for part in c.parts:
        for e in (part.lo, part.hi):
            if 0 < z - e <= F(1, 2):
                left.append(z - e)
            if 0 < e - z <= F(1, 2):
                right.append(e - z)
    for g in sorted(set(left)):
        for d in sorted(set(right)):
            windows.append(Interval(max(F(0), z - g), min(F(1), z + d)))
    for n in range(scale_depth + 1):
        windows.extend(dyadic_intervals_containing(z, n))
    best, witness, seen = None, None, set()
    for w in windows:
        if w.is_degenerate or (w.lo, w.hi) in seen:
            continue
        seen.add((w.lo, w.hi))
        value = c.intersect_interval(w).measure / w.length
        if best is None or value < best:
            best, witness = value, w
    return best, witness, len(seen)


def _reference_segments(c, lo, hi):
    pts = sorted({lo, hi} | {e for p in c.parts for e in (p.lo, p.hi) if lo < e < hi})
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def _reference_slope(c, u, v):
    return F(1) if c.contains_point((u + v) / 2) else F(0)


def reference_extend_left(c, b, eps):
    segs = _reference_segments(c, F(0), b)
    mass_at = {b: F(0)}
    for u, v in reversed(segs):
        mass_at[u] = mass_at[v] + _reference_slope(c, u, v) * (v - u)
    for u, v in segs:
        mv = mass_at[v]
        if _reference_slope(c, u, v) == 1:
            lo = max(u, (mv + v - eps * b) / (1 - eps))
            if lo <= v and mv + (v - lo) <= eps * (b - lo):
                return lo
        elif eps * (b - u) >= mv:
            return u
    return b


def reference_extend_right(c, a, eps):
    segs = _reference_segments(c, a, F(1))
    mass_at = {a: F(0)}
    for u, v in segs:
        mass_at[v] = mass_at[u] + _reference_slope(c, u, v) * (v - u)
    for u, v in reversed(segs):
        mu = mass_at[u]
        if _reference_slope(c, u, v) == 1:
            hi = min(v, (u - mu - eps * a) / (1 - eps))
            if hi >= u and mu + (hi - u) <= eps * (hi - a):
                return hi
        elif eps * (v - a) >= mu:
            return v
    return a


def reference_cover(c, eps):
    """(fat_intervals, U) as the Fraction route built them."""
    candidates = []
    for gap in c.gaps():
        if not gap.is_degenerate:
            candidates.append(Interval(reference_extend_left(c, gap.hi, eps), gap.hi))
            candidates.append(Interval(gap.lo, reference_extend_right(c, gap.lo, eps)))
    fats, best_hi = [], None
    for iv in sorted(candidates, key=lambda i: (i.lo, -i.hi)):
        if best_hi is None or iv.hi > best_hi:
            fats.append(iv)
            best_hi = iv.hi
    return tuple(fats), canonicalize(fats)


# classes with dyadic and non-dyadic endpoints and degenerate parts [a, a]
any_points = st.one_of(unit_points, st.integers(0, 64).map(lambda k: F(k, 64)))
classes = st.one_of(
    st.one_of(hole_lists, mixed_holes).map(FULL_SET.subtract_open),
    st.lists(
        st.one_of(
            st.tuples(any_points, any_points).map(lambda p: interval(min(p), max(p))),
            any_points.map(lambda x: interval(x, x)),
        ),
        max_size=6,
    ).map(canonicalize),
)


@settings(max_examples=40, deadline=None)
@given(classes, any_points, st.integers(0, 6))
def test_estimate_matches_fraction_windows(c, z, depth):
    ends = [x for p in c.parts for x in (p.lo, p.hi)]
    # z on part endpoints, at 0 and 1, and 1/2 from an endpoint, as well as anywhere
    halfway = [e + F(1, 2) for e in ends[:2] if e <= F(1, 2)]
    for point in [z, F(0), F(1)] + ends[:4] + halfway:
        est = lower_density_estimate(ClassGaps.of(c), point, depth)
        assert (est.estimate, est.witness, est.family_size) == reference_estimate(c, point, depth)


@settings(max_examples=40, deadline=None)
@given(classes)
def test_cover_matches_fraction_segments(c):
    for eps in COVERING_EPSILONS + (F(2, 7),):
        fc = low_density_open_set(ClassGaps.of(c), eps)
        assert (fc.fat_intervals, fc.U) == reference_cover(c, eps)
        # the masses the sweep carries to its solved ends add up to the
        # measures of the sets themselves
        overlap, size = fc.inequalities()
        assert (overlap.lhs, size.lhs) == (c.intersect(fc.U).measure, fc.U.measure)


oracle_points = st.one_of(
    st.integers(0, 64).map(lambda k: F(k, 64)),
    st.builds(lambda d, k: F(k % (d + 1), d), st.sampled_from([3, 5, 7, 12, 60]),
              st.integers(0, 60)),
)
# classes with degenerate parts: isolated points, and points between holes
point_classes = st.lists(
    st.one_of(
        st.tuples(oracle_points, oracle_points).map(lambda p: interval(min(p), max(p))),
        oracle_points.map(lambda x: interval(x, x)),
    ),
    max_size=6,
).map(canonicalize)
oracle_epsilons = st.one_of(
    st.sampled_from([F(1, 1000), F(1, 64), F(63, 64), F(999, 1000), *COVERING_EPSILONS]),
    st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda e: 0 < e < 1),
)


@settings(max_examples=80, deadline=None)
@given(point_classes, oracle_epsilons, st.integers(0, 5), st.lists(oracle_points, max_size=4))
def test_oracle_matches_the_quadratic_scan(c, eps, grid_depth, extras):
    assert brute_force_low_density_oracle(c, eps, grid_depth, extras) == reference_oracle(
        c, eps, grid_depth, extras
    )


def test_oracle_edge_cases_match_the_quadratic_scan():
    isolated = FULL_SET.subtract_open([interval(F(1, 4), F(1, 3)), interval(F(1, 3), F(1, 2))])
    for c in (EMPTY_SET, FULL_SET, C_ONE_HOLE, isolated):
        for eps in (F(1, 10**6), F(1, 2), F(10**6 - 1, 10**6)):
            for grid_depth in (0, 1, 3):
                for extras in ([], [F(1, 3), F(2, 7)], [F(3, 8)]):
                    assert brute_force_low_density_oracle(
                        c, eps, grid_depth, extras
                    ) == reference_oracle(c, eps, grid_depth, extras)


def test_oracle_rejects_a_negative_grid_depth():
    with pytest.raises(DomainError):
        brute_force_low_density_oracle(C_ONE_HOLE, F(1, 2), -1)


@settings(max_examples=60, deadline=None)
@given(point_classes, oracle_epsilons)
@example(FULL_SET, F(1, 2))  # U is empty: both sides of the size row are 0
@example(EMPTY_SET, F(1, 3))  # U is [0, 1], and the size bound is 3
def test_overlap_measure_matches_the_intersection(c, eps):
    # both rows, decided on the cover's integer pairs, against the definitions:
    # IntervalSet intersection and measure, and the Fraction comparison
    fc = low_density_open_set(ClassGaps.of(c), eps)
    overlap, size = fc.inequalities()
    measure = c.intersect(fc.U).measure
    assert (overlap.lhs, overlap.rhs, overlap.ok) == (measure, 2 * eps, measure <= 2 * eps)
    size_bound = 2 * (1 - c.measure) / (1 - eps)
    assert (size.lhs, size.rhs, size.ok) == (fc.U.measure, size_bound,
                                             fc.U.measure <= size_bound)
