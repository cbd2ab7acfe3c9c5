"""Exact functions, pseudo-derivatives, extrema, monotone extension."""

import time
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import calculus
from densitylab.calculus import (
    MonotoneExtension,
    Polynomial,
    _at_most,
    _crossings,
    _drops,
    _flip,
    _grid_step,
    _lower,
    _pq,
    _straddling_candidates,
    _sweep_max,
    extension_grid_check,
    extension_grid_depth,
    interval_extremum,
    pseudo_derivative_estimate,
)
from densitylab.counterexample import build_counterexample, default_enumeration
from densitylab.errors import DomainError, InvariantError
from densitylab.instances import extension_instance
from densitylab.intervals import StagedOpenEnumeration
from densitylab.piecewise import PiecewiseLinear

from helpers import enumeration

VEE = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(1, 2), F(0), F(1, 2)))  # |x - 1/2|
IDENTITY = Polynomial((0, 1))
LINE = PiecewiseLinear((F(0), F(1)), (F(0), F(1)))  # the identity, piecewise-linear


def test_pseudo_derivative_identity():
    f = IDENTITY
    for side in ("upper", "lower"):
        est = pseudo_derivative_estimate(f, F(1, 3), F(1, 8), 6, side)
        assert est.value == 1


def test_pseudo_derivative_vee_spec_example():
    f = VEE
    up = pseudo_derivative_estimate(f, F(1, 2), F(1, 4), 6, "upper")
    lo = pseudo_derivative_estimate(f, F(1, 2), F(1, 4), 6, "lower")
    assert up.value == 1
    assert lo.value == -1
    # the extremes need a pair with one endpoint at the kink itself
    assert F(1, 2) in up.witness
    assert F(1, 2) in lo.witness
    # the symmetric pair has slope exactly 0
    a, b = F(1, 2) - F(1, 16), F(1, 2) + F(1, 16)
    assert (f.exact(b) - f.exact(a)) / (b - a) == 0


def test_pseudo_derivative_requires_straddling_pair():
    # the 2^-1 grid has no point within 1/8 of 1/3, so x pairs with nothing
    with pytest.raises(DomainError):
        pseudo_derivative_estimate(IDENTITY, F(1, 3), F(1, 8), 1, "upper")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=63),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=2, max_value=5),
)
def test_pseudo_derivative_order_and_depth_monotonicity(num, depth, k):
    f = VEE
    depth = max(depth, k)  # grid must resolve the scale
    x, h = F(num, 64), F(1, 1 << k)
    up = pseudo_derivative_estimate(f, x, h, depth, "upper").value
    lo = pseudo_derivative_estimate(f, x, h, depth, "lower").value
    assert up >= lo
    up2 = pseudo_derivative_estimate(f, x, h, depth + 1, "upper").value
    lo2 = pseudo_derivative_estimate(f, x, h, depth + 1, "lower").value
    assert up2 >= up and lo2 <= lo


def test_nondecreasing_oracle_lower_estimate_nonnegative():
    for f in (IDENTITY, Polynomial([F(1, 3), F(1, 2), F(1, 4)])):
        est = pseudo_derivative_estimate(f, F(3, 8), F(1, 4), 5, "lower")
        assert est.value >= 0


def test_interval_extremum_golden_cases():
    n = 8
    tol = F(1, 1 << n)
    # p(x) = x(1-x): sup 1/4 at 1/2
    assert abs(interval_extremum(Polynomial([0, 1, -1]), F(0), F(1), n, "sup") - F(1, 4)) <= tol
    assert abs(interval_extremum(IDENTITY, F(1, 8), F(3, 4), n, "inf") - F(1, 8)) <= tol
    assert interval_extremum(Polynomial([F(2, 3)]), F(0), F(1), n, "sup") == F(2, 3)


def test_monotone_extension_trivial_class():
    ext = MonotoneExtension(LINE, enumeration(), 8)
    for k in range(0, 17):
        x = F(k, 16)
        assert abs(ext.value(x) - x) <= F(1, 1 << 7)


def test_monotone_extension_one_hole_identity():
    n = 8
    enum = enumeration((F(1, 4), F(1, 2)))
    ext = MonotoneExtension(LINE, enum, n)
    grid = [F(k, 1 << 10) for k in range(0, (1 << 10) + 1)]
    vals = [ext.value(x) for x in grid]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    c_set = enum.final_class()
    tol = 2 * F(1, 1 << n)
    for x, v in zip(grid, vals):
        if c_set.contains_point(x):
            assert abs(v - x) <= tol
    inside = ext.value(F(3, 8))
    assert F(1, 4) - tol <= inside <= F(1, 2) + tol


def test_monotone_extension_two_plateau():
    n = 8
    steps = PiecewiseLinear(
        (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
        (F(0), F(0), F(1, 2), F(1, 2), F(1)),
    )
    enum = enumeration((F(1, 8), F(1, 4)), (F(5, 8), F(3, 4)))
    ext = MonotoneExtension(steps, enum, n)
    grid = [F(k, 1 << 9) for k in range(0, (1 << 9) + 1)]
    vals = [ext.value(x) for x in grid]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    c_set = enum.final_class()
    tol = 2 * F(1, 1 << n)
    for x, v in zip(grid, vals):
        if c_set.contains_point(x):
            assert abs(v - steps.value(x)) <= tol


def test_monotone_extension_rejects_decreasing_h():
    with pytest.raises(DomainError):
        MonotoneExtension(VEE, enumeration(), 6)


# h dips by the tolerance 1/8 from 1/2 to 5/8 and climbs with slope 3 to 1
DIP_BY_THE_TOLERANCE = PiecewiseLinear((F(0), F(1, 2), F(5, 8), F(1)),
                                       (F(0), F(1, 8), F(0), F(9, 8)))


@pytest.mark.parametrize("h, holes, n, depth, index", [
    (LINE, [(F(1, 4), F(1, 2))], 8, 4, 0),
    (DIP_BY_THE_TOLERANCE, [], 0, 3, 4),
])
def test_a_gap_that_never_closes_below_2_to_the_minus_n_is_a_broken_invariant(
        monkeypatch, h, holes, n, depth, index):
    # below the depth extension_grid_depth sets, the margin lip 2^-depth +
    # 2^-(n+4) is wide enough that F - G stays at 2^-n or more: on the 2^-4
    # grid at n = 8 at every index of the class, and on the 2^-3 grid at
    # n = 0 where the dip adds 1/8 to 2 (3/8 + 1/16), from index 4 on
    MonotoneExtension(h, enumeration(*holes), n)
    monkeypatch.setattr(calculus, "extension_grid_depth", lambda lip, n: depth)
    with pytest.raises(InvariantError,
                       match=rf"at internal grid index {index} never closed below 2\^-{n}$"):
        MonotoneExtension(h, enumeration(*holes), n)


# Holes with denominators 3, 5 and 10 put part endpoints off the internal
# 2^-10 grid.  The values were computed with the Fraction-row implementation
# that the integer rows replaced; they pin the extension exactly.
OFF_GRID_H = PiecewiseLinear(
    (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
    (F(0), F(1, 8), F(1, 8), F(5, 8), F(3, 4)),
)
OFF_GRID_ENUM = enumeration((F(1, 3), F(2, 5)), (F(3, 5), F(2, 3)), (F(1, 10), F(1, 6)))


def test_monotone_extension_off_grid_endpoints_pinned():
    ext = MonotoneExtension(OFF_GRID_H, OFF_GRID_ENUM, 6)
    assert (ext.grid_depth, ext.stages) == (10, [1, 2, 3])
    expected = {
        F(0): F(3, 1024),
        F(1, 10): F(27, 512),
        F(1, 7): F(18475, 262144),
        F(1, 6): F(21007, 262144),
        F(1, 3): F(131, 1024),
        F(7, 20): F(131, 1024),
        F(2, 5): F(131, 1024),
        F(3, 5): F(335, 1024),
        F(5, 8): F(1539, 4096),
        F(2, 3): F(119055, 262144),
        F(1): F(771, 1024),
    }
    assert {x: ext.value(x) for x in expected} == expected
    first = MonotoneExtension(OFF_GRID_H, StagedOpenEnumeration(OFF_GRID_ENUM.items[:1]), 6)
    assert first.value(F(1, 7)) == F(19, 256)
    assert first.value(F(2, 3)) == F(471, 1024)


def progression_row(pieces) -> list[int]:
    """The row of a ``grid_progressions`` piece list written out: start +
    step (k - first) at each k from first to last, piece by piece."""
    row: list[int] = []
    for first, last, start, step in pieces:
        row += [start + step * (k - first) for k in range(first, last + 1)]
    return row


def grid_row(g: PiecewiseLinear, depth: int) -> tuple[int, list[int]]:
    """(d, nums) with nums[k] / d == g(k / 2^depth) for k = 0..2^depth."""
    den, pieces = g.grid_progressions(depth)
    return den, progression_row(pieces)


def written_values(runs, size):
    """The (p, q) of value runs (first, last, p0, p1, p2, q0, q1) index by
    index, (p0 + p1 m + p2 m^2, q0 + q1 m) at m = k - first; None where no
    run lies."""
    out = [None] * size
    for first, last, p0, p1, p2, q0, q1 in runs:
        for k in range(first, last + 1):
            m = k - first
            out[k] = (p0 + p1 * m + p2 * m * m, q0 + q1 * m)
    return out


def rows_of(ext):
    """The build's runs written out as (ps, qs, hs) rows over its denominator:
    p / q the value at each internal grid index, and h's sample there."""
    k = 0
    for first, last, *_ in ext._runs:
        assert first == k  # the runs cover the grid in order
        k = last + 1
    assert k == (1 << ext.grid_depth) + 1
    ps, qs = (list(row) for row in zip(*written_values(ext._runs, k)))
    row_den, row = grid_row(ext.h, ext.grid_depth)
    return ps, qs, [v * (ext._den // row_den) for v in row]


def plant(ext, i, p, q):
    """Put the value p / q at internal grid index i, as a one-index run."""
    runs = []
    for run in ext._runs:
        first, last, p0, p1, p2, q0, q1 = run
        if not first <= i <= last:
            runs.append(run)
            continue
        if first < i:
            runs.append((first, i - 1, p0, p1, p2, q0, q1))
        runs.append((i, i, p, 0, 0, q, 0))
        if i < last:
            p_d, q_d = _pq(run, i + 1)  # the same polynomials from m = i + 1 - first
            runs.append((i + 1, last, p_d, p1 + 2 * p2 * (i + 1 - first), p2, q_d, q1))
    ext._runs = runs


def per_point_values(ext, depth):
    """One value query per point of the 2^-depth grid."""
    return [ext.value(F(k, 1 << depth)) for k in range((1 << depth) + 1)]


def per_point_grid_check(ext, depth):
    """The reference for extension_grid_check: per-point queries, a
    contains_point scan and Fraction arithmetic."""
    vals = per_point_values(ext, depth)
    drops = sum(1 for a, b in zip(vals, vals[1:]) if a > b)
    cls = ext.enum.final_class()
    worst = F(0)
    for k, v in enumerate(vals):
        x = F(k, 1 << depth)
        if cls.contains_point(x):
            worst = max(worst, abs(v - ext.h.exact(x)))
    return drops, worst


def test_grid_check_matches_per_point_loop_on_battery_instances():
    for index in range(20):
        h, enum = extension_instance(1, index)
        got = extension_grid_check(MonotoneExtension(h, enum, 10), 12)
        assert got == per_point_grid_check(MonotoneExtension(h, enum, 10), 12)


def test_grid_check_matches_per_point_loop_on_extend_documents():
    # the first extension_instance(1, i) with 2, 4 and 6 holes, checked on
    # the 2^-16 grid as the extend command does
    found = {}
    index = 0
    while len(found) < 3:
        h, enum = extension_instance(1, index)
        if len(enum.items) in (2, 4, 6):
            found.setdefault(len(enum.items), (h, enum))
        index += 1
    for h, enum in found.values():
        got = extension_grid_check(MonotoneExtension(h, enum, 10), 16)
        assert got == per_point_grid_check(MonotoneExtension(h, enum, 10), 16)


def test_grid_check_needs_a_piecewise_h():
    # the build samples h from its grid_progressions, so h must cover [0,1]
    with pytest.raises(DomainError):
        MonotoneExtension(PiecewiseLinear((F(0), F(3, 4)), (F(0), F(3, 4))), enumeration(), 6)
    ext = MonotoneExtension(LINE, enumeration((F(1, 4), F(1, 2))), 6)
    assert extension_grid_check(ext, 8) == per_point_grid_check(ext, 8)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 50), st.integers(0, 19), st.integers(2, 10), st.integers(-4, 4))
def test_grid_check_matches_per_point_loop(seed, index, n, offset):
    # offsets below 0 take the strided path, 0 and above the run path
    h, enum = extension_instance(seed, index)
    ext = MonotoneExtension(h, enum, n)
    depth = max(ext.grid_depth + offset, 0)
    assert extension_grid_check(ext, depth) == per_point_grid_check(
        MonotoneExtension(h, enum, n), depth)


@pytest.mark.parametrize("offset", [-2, 0, 3])
def test_grid_check_counts_a_planted_dip_like_the_per_point_loop(offset):
    # a built extension never decreases and stays above h along each run of
    # query points, so plant into the solved rows one internal index whose
    # value sits 1/8 below h: the check must count the drop into it and take
    # the worst at the run's right end, as the per-point loop does
    h, enum = extension_instance(1, 0)
    ext = MonotoneExtension(h, enum, 10)
    gd = ext.grid_depth
    i = next(i for i in range(1 << (gd - 1), 1 << gd, 1 << 4)
             if enum.final_class().contains_point(F(i + 1, 1 << gd)))
    dip = h.exact(F(i, 1 << gd)) - F(1, 8)
    plant(ext, i, dip.numerator, dip.denominator)
    depth = gd + offset
    drops, worst = extension_grid_check(ext, depth)
    assert (drops, worst) == per_point_grid_check(ext, depth)
    assert drops == 1 and worst >= F(1, 8)


@pytest.mark.parametrize("offset", [-2, 0, 1, 3])
def test_grid_check_reads_a_dip_over_the_builds_denominator_like_the_per_point_loop(offset):
    # the same kind of dip, held over the build's own denominator inside a
    # part of the class, between runs of the same denominator: the worst is at
    # the right end of its query points once they are more than one
    h, enum = extension_instance(1, 0)
    ext = MonotoneExtension(h, enum, 10)
    gd, cls = ext.grid_depth, enum.final_class()
    i = next(i for i in range(1 << (gd - 1), 1 << gd, 1 << 4)
             if all(cls.contains_point(F(i + d, 1 << gd)) for d in (-1, 0, 1, 2)))
    _, qs, hs = rows_of(ext)
    assert ext._den % 8 == 0 and qs[i] == ext._den
    plant(ext, i, hs[i] - ext._den // 8, ext._den)
    depth = gd + offset
    drops, worst = extension_grid_check(ext, depth)
    assert (drops, worst) == per_point_grid_check(ext, depth)
    assert drops == 1
    assert worst > F(1, 8) if offset > 0 else worst == F(1, 8)


# Points k/3, k/5 and k/7 never lie on a dyadic grid, so a breakpoint there sits
# strictly inside a run of query points whenever the check's grid is finer
# than the internal one.
ODD_POINTS = sorted({F(k, d) for d in (3, 5, 7) for k in range(1, d)})


@st.composite
def kinked_extensions(draw):
    """(h, enum, n): holes between points of ODD_POINTS in any stage order, and
    an h with breakpoints there.  On the class h rises, or dips by less than
    the build's tolerance 2^-(n+3); inside a hole it takes any value."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.sampled_from(ODD_POINTS), min_size=2, max_size=6, unique=True))
    ends = sorted(ends)[: len(ends) // 2 * 2]
    holes = draw(st.permutations(list(zip(ends[::2], ends[1::2]))))
    xs = sorted({F(0), F(1), *ends,
                 *draw(st.lists(st.sampled_from(ODD_POINTS), max_size=6, unique=True))})
    unit = F(1, 1 << (n + 5))  # a quarter of the tolerance
    ys, peak = [], F(0)
    for x in xs:
        if any(lo < x < hi for lo, hi in holes):
            ys.append(draw(st.integers(0, 8)) * F(1, 32))
        else:
            y = max(peak + draw(st.integers(-3, 8)) * unit, peak - 3 * unit)
            ys.append(y)
            peak = max(peak, y)
    return PiecewiseLinear(xs, ys), enumeration(*holes), n


@settings(max_examples=25, deadline=None)
@given(kinked_extensions(), st.integers(1, 4))
def test_grid_check_reads_breakpoints_inside_runs_like_the_per_point_loop(case, offset):
    h, enum, n = case
    ext = MonotoneExtension(h, enum, n)
    depth = ext.grid_depth + offset
    assert extension_grid_check(ext, depth) == per_point_grid_check(
        MonotoneExtension(h, enum, n), depth)


@st.composite
def runs_over(draw, end, width=4, edges=()):
    """A row over 0..end: runs (first, last, start, step, *extra) with
    `width` fields, at random cuts and at the given edges, starts and
    steps."""
    cuts = sorted(draw(st.sets(st.integers(1, end), max_size=6)) | set(edges)) if end else []
    runs = []
    for first, stop in zip([0, *cuts], [*cuts, end + 1]):
        run = (first, stop - 1, draw(st.integers(-40, 40)), draw(st.integers(-5, 5)))
        runs.append(run + tuple(draw(st.integers(0, 3)) for _ in range(width - 4)))
    return runs


def written(runs, size=None):
    """The values of runs (first, last, start, step, ...) index by index,
    with any fields past the step alongside; None where no run lies."""
    out = [None] * (size or max(r[1] for r in runs) + 1)
    for first, last, start, step, *extra in runs:
        for k in range(first, last + 1):
            v = start + step * (k - first)
            out[k] = (v, *extra) if extra else v
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-6, 6), st.integers(0, 5), st.integers(0, 12))
def test_at_most_matches_an_index_scan(d0, ds, lo, length):
    hi = lo + length
    want = [k for k in range(lo, hi + 1) if d0 + ds * (k - lo) <= 0]
    a, b = _at_most(d0, ds, lo, hi)
    assert list(range(a, b + 1)) == want
    assert (a, b) == (hi + 1, hi) if not want else a <= b


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30).flatmap(lambda end: st.tuples(
    st.just(end), runs_over(end), runs_over(end), runs_over(end), runs_over(end))))
def test_row_kernels_match_index_by_index(case):
    end, a, b, c, d = case
    wa, wb, wc, wd = (written(r) for r in (a, b, c, d))
    assert written(_lower(a, b)) == [min(x, y) for x, y in zip(wa, wb)]
    assert written(_flip(a, end)) == [-x for x in reversed(wa)]
    # pieces in index order from the runs of b, where some neighbours share
    # an index, swept from a run of -10
    pieces = []
    for first, last, start, step in b:
        if pieces and (start + first) % 2 and pieces[-1][1] + 1 == first:
            first, start = first - 1, start - step
        pieces.append((first, last, start, step))
    best = [-10] * (end + 1)
    for first, last, start, step in pieces:
        for k in range(first, last + 1):
            best[k] = max(best[k], start + step * (k - first))
    assert written(_sweep_max(pieces, end, -10)) == list(accumulate(best, max))
    # the indices where F_(t-1) = a > G_(t-1) = b and F_t = c <= G_t = d, with
    # the linear crossing p / q, q = rise * den
    want = [None] * (end + 1)
    for k, (pf, pg, nf, ng) in enumerate(zip(wa, wb, wc, wd)):
        if pf > pg and nf <= ng:
            gap = pf - pg
            rise = gap + ng - nf
            want[k] = (pf * rise + gap * (nf - pf), rise * 3)
    got = _crossings(a, b, c, d, 3)
    assert written_values(got, end + 1) == want
    assert got == sorted(got)


@st.composite
def planted_runs(draw):
    """(ext, depth): an extension with h kinked off every dyadic grid and its
    values replaced by any runs: rising, flat or falling, over a few
    denominators.  A run whose indices hold no grid point of the final
    class, as a crossing run's never do, may also be quadratic over
    linear.  The runs are cut at random and where the class
    begins or ends on the grid, so that some lie inside a hole."""
    h, enum, n = draw(kinked_extensions())
    ext = MonotoneExtension(h, enum, n)
    den, gd = ext._den, ext.grid_depth
    cls = enum.final_class()
    in_class = [cls.contains_point(F(k, 1 << gd)) for k in range((1 << gd) + 1)]
    edges = {k for k in range(1, 1 << gd) if in_class[k] != in_class[k - 1]}
    # steps of up to 5/32 an index, or of the order of h's own
    unit = den // 64 if draw(st.booleans()) else den >> gd
    runs = []
    for first, last, start, step, q, c2, c1 in draw(runs_over(1 << gd, 7, edges)):
        q0 = (q or 1) * den // 2
        if any(in_class[first:last + 1]):
            c2 = c1 = 1  # the run is linear
        # q stays above q0 / 2 along the run
        runs.append((first, last, start * den // 4, step * unit,
                     (c2 - 1) * max(unit >> gd, 1), q0, (c1 - 1) * (den >> (gd + 2))))
    ext._runs = runs
    return ext, gd + draw(st.integers(-3, 4))


@settings(max_examples=100, deadline=None)
@given(planted_runs())
def test_grid_check_reads_any_runs_like_the_per_point_loop(case):
    ext, depth = case
    assert extension_grid_check(ext, depth) == per_point_grid_check(ext, depth)


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-20, 20), st.integers(-6, 6), st.integers(1, 40),
       st.integers(-3, 8), st.integers(0, 6), st.integers(0, 12), st.sampled_from([1, 2, 4]))
def test_drops_match_a_step_by_step_count(p0, p1, p2, q0, q1, i0, count, s):
    # quadratic over linear runs with q > 0 at every index they reach
    last = i0 + count * s
    run = (0, last, p0, p1, p2, q0 + max(-q1, 0) * last, q1)
    values = [F(*_pq(run, i0 + j * s)) for j in range(count + 1)]
    assert _drops(run, i0, count, s) == sum(a > b for a, b in zip(values, values[1:]))


def test_grid_check_refuses_a_crossing_run_over_class_indices():
    # a quadratic run over internal indices whose grid points lie in the
    # class, which no build writes: its worst would need more than the ends
    ext = MonotoneExtension(LINE, enumeration((F(1, 4), F(1, 2))), 2)
    gd, den = ext.grid_depth, ext._den
    ext._runs = [(0, 1 << gd, 0, den >> gd, 1, den, 0)]
    with pytest.raises(InvariantError, match="of the class span a crossing run"):
        extension_grid_check(ext, gd)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_grid_check_finds_the_worst_next_to_a_block_edge(s):
    # one rising run over the whole grid, against an h that rises faster per
    # block of 2^s query points but slower per point: |value - h| peaks at a
    # block's first point, which at h's kink off the grid is not an end of
    # the overlap
    h = PiecewiseLinear((F(0), F(3, 7), F(1)), (F(0), F(3, 28), F(1)))
    ext = MonotoneExtension(h, enumeration(), 2)
    gd, den = ext.grid_depth, ext._den
    for num in range(1, 13):
        ext._runs = [(0, 1 << gd, 0, num * den >> (gd + 3), 0, den, 0)]
        assert extension_grid_check(ext, gd + s) == per_point_grid_check(ext, gd + s)


def full_sweep_values(h, enum, n):
    """(grid depth, values): the extension at every internal grid index with
    every stage swept in full over the whole grid, in Fractions, from the
    MonotoneExtension docstring's recipe."""
    lip = h.lipschitz_bound()
    gd = extension_grid_depth(lip, n)
    scale = 1 << gd
    grid = [F(i, scale) for i in range(scale + 1)]
    margin = lip / scale + F(1, 1 << (n + 4))
    mid = h.value(F(1, 2))
    hi_bound, lo_bound = mid + lip + 1, mid - lip - 1
    final = len(enum)
    stages = sorted({1 << e for e in range(final.bit_length()) if 1 << e < final} | {final})
    f_env, g_env = [hi_bound] * len(grid), [lo_bound] * len(grid)
    solved = {}
    for t in stages:
        # a candidate enters F at its ceiling index and G at its floor index
        f_best, g_best = [lo_bound] * len(grid), [hi_bound] * len(grid)
        for part in enum.stage_class(t).parts:
            inside = [(i, x) for i, x in enumerate(grid) if part.lo < x < part.hi]
            for i, x in inside + [(None, part.lo), (None, part.hi)]:
                y = h.value(x)
                up = i if i is not None else -(-x.numerator * scale // x.denominator)
                down = i if i is not None else x.numerator * scale // x.denominator
                f_best[up] = max(f_best[up], y + margin)
                g_best[down] = min(g_best[down], y - margin)
        # F_t = min(F_(t-1), the running max of stage t's candidates); G mirrored
        f_new = [min(a, b) for a, b in zip(f_env, accumulate(f_best, max))]
        g_new = [max(a, b) for a, b in zip(g_env, list(accumulate(g_best[::-1], min))[::-1])]
        for i in range(len(grid)):
            if i not in solved and f_new[i] <= g_new[i]:
                # the linear crossing between stage t and the one before
                gap = f_env[i] - g_env[i]
                solved[i] = f_env[i] + gap * (f_new[i] - f_env[i]) / (gap + g_new[i] - f_new[i])
        f_env, g_env = f_new, g_new
    return gd, [solved.get(i, f) for i, f in enumerate(f_env)]


# hole ends and breakpoints: the 2^-3 grid, and points off every dyadic grid
STAGE_POINTS = sorted({F(k, 8) for k in range(9)} | {F(k, d) for d in (3, 5) for k in range(1, d)})


@st.composite
def staged_extensions(draw):
    """(h, enum, n), mostly at internal grid depth 3 to 7.  Holes overlap,
    share ends or sit off the grid.  h is nondecreasing on the class the build
    checks, and rises across the holes so that envelopes cross at every
    stage; inside a hole it may peak above h to its right, so that the
    running max must be swept past the window of the stage that removes the
    peak.  Some enumerations stop short of the holes h is drawn for.  h's
    steps are multiples of a unit 2^-(n+4) to 2^-(n+8), so that its slopes,
    and with them the grid depth, vary at each n."""
    n = draw(st.integers(0, 4))
    ends = st.sampled_from(STAGE_POINTS)
    holes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = holes[-1][1] if holes and draw(st.booleans()) else draw(ends)
        hi = draw(ends.filter(lambda x: x > lo)) if lo < 1 else F(1)
        holes.append((min(lo, hi), hi))
    enum = enumeration(*holes[:draw(st.none() | st.integers(0, len(holes)))])
    checked = enum.final_class()
    xs = sorted({F(0), F(1), *(x for hole in holes for x in hole),
                 *((lo + hi) / 2 for lo, hi in holes), *draw(st.lists(ends, max_size=4))})
    unit = F(1, 1 << (n + draw(st.integers(4, 8))))
    ys, peak = [], F(0)
    for x in xs:
        if checked.contains_point(x):
            peak += draw(st.integers(0, 8)) * unit
            ys.append(peak)
        else:
            ys.append(peak + draw(st.integers(-2, 4)) * unit)
    return PiecewiseLinear(xs, ys), enum, n


@settings(max_examples=60, deadline=None)
@given(staged_extensions())
def test_build_matches_a_full_sweep_of_every_stage(case):
    h, enum, n = case
    ext = MonotoneExtension(h, enum, n)
    gd, want = full_sweep_values(h, enum, n)
    assert ext.grid_depth == gd
    ps, qs, _ = rows_of(ext)
    assert [F(p, q) for p, q in zip(ps, qs)] == want


def _floor_ceil(x, scale):
    """Floor and ceiling of x * scale, through Fraction's own."""
    return floor(x * scale), ceil(x * scale)


def _inner_grid(part, scale):
    """Indices k with part.lo < k / scale < part.hi."""
    return range(_floor_ceil(part.lo, scale)[0] + 1, _floor_ceil(part.hi, scale)[1])


def _on_grid(part, depth):
    """Both endpoints of the part lie on the 2^-depth grid."""
    return all((1 << depth) % x.denominator == 0 for x in (part.lo, part.hi))


def _refined_grid(lo, hi, max_step):
    """The fewest equal steps of at most max_step from lo to hi, as points."""
    if lo == hi:
        return [lo]
    count, delta = _grid_step(lo, hi, max_step)
    return [lo + k * delta for k in range(count + 1)]


def per_index_build(h, enum, n):
    """The reference for the build's integer rows: (ps, qs, hs) over the
    build's denominator, with each stage's candidates placed index by index
    and its running max and min swept index by index over the whole grid,
    and h's monotonicity checked point by point.  Raises the build's
    DomainError.  Every index that never closes has its gap F - G within
    3/4 2^-n, as the MonotoneExtension docstring shows."""
    lip = h.lipschitz_bound()
    gd = extension_grid_depth(lip, n)
    scale = 1 << gd
    size = scale + 1
    row_den, row = grid_row(h, gd)
    margin = lip / scale + F(1, 1 << (n + 4))
    mid = h.value(F(1, 2))
    hi_bound, lo_bound = mid + lip + 1, mid - lip - 1
    final = len(enum)
    stages = sorted({1 << e for e in range(final.bit_length()) if 1 << e < final} | {final})
    classes = [enum.stage_class(t).parts for t in stages]
    off = {x: h.value(x) for c_set in classes for part in c_set for x in (part.lo, part.hi)
           if scale % x.denominator}
    refined = {part: _refined_grid(part.lo, part.hi, F(1, scale))
               for part in classes[-1] if not _on_grid(part, gd)}
    off.update((q, h.value(q)) for qs in refined.values() for q in qs)
    den = lcm(row_den, margin.denominator, hi_bound.denominator, lo_bound.denominator,
              *(v.denominator for v in off.values()))

    def over_den(v):
        return v.numerator * (den // v.denominator)

    hs = [v * (den // row_den) for v in row]
    samples = []  # (point, h numerator) along the final class
    for part in classes[-1]:
        if part in refined:
            samples += [(q, over_den(off[q])) for q in refined[part]]
        else:
            ks = range(_floor_ceil(part.lo, scale)[0], _floor_ceil(part.hi, scale)[0] + 1)
            samples += [(F(k, scale), hs[k]) for k in ks]
    tol = den >> (n + 3)
    peak = top = None
    for x, v in samples:
        if peak is not None and peak - v > tol:
            raise DomainError(f"h is not nondecreasing on the class: h({top}) > h({x})")
        if peak is None or v > peak:
            peak, top = v, x
    margin, hi_bound, lo_bound = over_den(margin), over_den(hi_bound), over_den(lo_bound)
    f_env, g_env = [hi_bound] * size, [lo_bound] * size
    solved = {}
    for c_set in classes:
        f_best, g_best = [lo_bound] * size, [hi_bound] * size
        for part in c_set:
            for k in _inner_grid(part, scale):
                f_best[k], g_best[k] = hs[k] + margin, hs[k] - margin
        for part in c_set:
            for x in (part.lo, part.hi):
                k, up = _floor_ceil(x, scale)
                v = hs[k] if k == up else over_den(off[x])
                f_best[up] = max(f_best[up], v + margin)
                g_best[k] = min(g_best[k], v - margin)
        rm, run = [], lo_bound
        for v in f_best:
            run = max(run, v)
            rm.append(run)
        rmin, run = [], hi_bound
        for v in reversed(g_best):
            run = min(run, v)
            rmin.append(run)
        rmin.reverse()
        f_new = [min(f, r) for f, r in zip(f_env, rm)]
        g_new = [max(g, r) for g, r in zip(g_env, rmin)]
        for i in range(size):
            if i not in solved and f_new[i] <= g_new[i]:
                gap = f_env[i] - g_env[i]
                rise = gap + g_new[i] - f_new[i]
                solved[i] = (f_env[i] * rise + gap * (f_new[i] - f_env[i]), rise * den)
        f_env, g_env = f_new, g_new
    ps, qs = [], []
    for i in range(size):
        if i not in solved:
            assert (f_env[i] - g_env[i]) << (n + 2) <= 3 * den
        p, q = solved.get(i, (f_env[i], den))
        ps.append(p)
        qs.append(q)
    return ps, qs, hs


# the 2^-3 grid and points off every dyadic grid
BUILD_POINTS = sorted(set(STAGE_POINTS) | set(ODD_POINTS))


@st.composite
def build_cases(draw):
    """(h, enum, n) at internal grid depth 3 to 7.  Hole ends and h's
    breakpoints lie on the 2^-3 grid or off every dyadic grid; holes overlap,
    share ends, or leave a single point of the class.  Each step of h rises
    by up to four units of 2^-(n+4) to 2^-(n+6), stays flat, or falls by a
    quarter, a half, one or two times the build's tolerance 2^-(n+3), so
    that some h stay within the tolerance on the class and others fail the
    build.  Over the 1/56 between the closest points, no step is steeper
    than 14 2^-n, which puts the grid depth at n + 3 to 7."""
    n = draw(st.integers(0, 4))
    unit, tol = F(1, 1 << (n + draw(st.integers(4, 6)))), F(1, 1 << (n + 3))
    ends = st.sampled_from(BUILD_POINTS)
    holes = []
    for _ in range(draw(st.integers(0, 5))):
        lo = holes[-1][1] if holes and draw(st.booleans()) else draw(ends)
        if lo == 1:
            lo = draw(ends.filter(lambda x: x < 1))
        holes.append((lo, draw(ends.filter(lambda x: x > lo))))
    stop = draw(st.none() | st.integers(0, len(holes)))
    xs = sorted({F(0), F(1), *draw(st.lists(ends, max_size=6)),
                 *draw(st.lists(st.sampled_from([x for hole in holes for x in hole] or [F(0)]),
                                max_size=4))})
    steps = st.integers(0, 4).map(lambda k: k * unit) | st.sampled_from(
        [-tol / 4, -tol / 2, -tol, -2 * tol])
    ys = [draw(st.integers(0, 8)) * F(1, 16)]
    for _ in xs[1:]:
        ys.append(ys[-1] + draw(steps))
    return PiecewiseLinear(xs, ys), enumeration(*holes[:stop]), n


def build_outcome(h, enum, n):
    """The build's rows, or the text of the DomainError it stopped with."""
    try:
        ext = MonotoneExtension(h, enum, n)
    except DomainError as exc:
        return str(exc)
    return rows_of(ext)


@settings(max_examples=150, deadline=None)
@given(build_cases())
def test_build_matches_the_per_index_reference(case):
    try:
        want = per_index_build(*case)
    except DomainError as exc:
        want = str(exc)
    assert build_outcome(*case) == want


def test_monotone_error_names_where_the_peak_was_first_reached():
    # h falls by half the tolerance 1/8 after 1/4, climbs back to the same
    # peak at 1/2, then falls beyond the tolerance; its Lipschitz bound 4 puts
    # the grid depth at 5 for n = 0
    h = PiecewiseLinear((F(0), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(1)),
                        (F(0), F(1, 2), F(7, 16), F(1, 2), F(0), F(1)))
    case = (h, enumeration(), 0)
    with pytest.raises(DomainError) as err:
        per_index_build(*case)
    assert str(err.value) == build_outcome(*case) == (
        "h is not nondecreasing on the class: h(1/4) > h(9/16)")


def first_extension_instance_with_holes(count):
    index = 0
    while True:
        h, enum = extension_instance(1, index)
        if len(enum.items) == count:
            return h, enum
        index += 1


def test_grid_check_cost_does_not_grow_with_depth_above_the_internal_grid(monkeypatch):
    # on a finer grid the check reads h as one progression per segment, so
    # neither its memory nor the pieces it asks of h grow with depth
    pieces = {}
    grid_progressions = PiecewiseLinear.grid_progressions

    def spy(self, depth):
        den, got = grid_progressions(self, depth)
        pieces[depth] = len(got)
        return den, got

    monkeypatch.setattr(PiecewiseLinear, "grid_progressions", spy)
    h, enum = first_extension_instance_with_holes(6)
    ext = MonotoneExtension(h, enum, 10)

    def peak_bytes(depth):
        tracemalloc.start()
        try:
            extension_grid_check(ext, depth)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(ext.grid_depth + 7) <= 2 * peak_bytes(ext.grid_depth + 1)
    assert pieces[ext.grid_depth + 7] == pieces[ext.grid_depth + 1] == len(h.xs) - 1


def test_build_and_check_at_grid_depth_24_hold_no_row_of_the_grid():
    # the six-hole extend-query document at n = 21 builds on the 2^-24 grid,
    # where one list of 2^24 entries alone is 128 MB
    h, enum = first_extension_instance_with_holes(6)
    tracemalloc.start()
    try:
        ext = MonotoneExtension(h, enum, 21)
        extension_grid_check(ext, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ext.grid_depth == 24
    assert peak < 4 << 20


def test_off_grid_parts_evaluate_h_as_often_at_any_grid_depth(monkeypatch):
    # h on an off-grid part is read as progressions along its refined grid,
    # so only the part ends off the grid, and h(1/2), are evaluated one by one
    calls = []
    value = PiecewiseLinear.value

    def spy(self, x):
        calls.append(x)
        return value(self, x)

    monkeypatch.setattr(PiecewiseLinear, "value", spy)
    h = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1, 4), F(1, 2)))
    enum = enumeration((F(1, 3), F(1, 2)), (F(5, 7), F(3, 4)))
    counts = []
    for gd in (10, 16):
        calls.clear()
        ext = MonotoneExtension(h, enum, gd - 3)
        assert ext.grid_depth == gd
        drops, _ = extension_grid_check(ext, gd)
        assert drops == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


# h peaks at 1/4, dips and climbs back to the peak at 1/2, so on the first
# stage's class F holds the peak while G follows h up from 3/8, and the second
# stage's hole closes over a gap that varies along it
DIP_H = PiecewiseLinear((F(0), F(1, 4), F(3, 8), F(5, 8), F(1)),
                        (F(0), F(1, 2), F(1, 4), F(3, 4), F(1)))
DIP_ENUM = enumeration((F(3, 4), F(7, 8)), (F(1, 4), F(9, 16)))


def test_a_long_run_of_dipping_crossings_builds_in_closed_form():
    # each such run is one quadratic over linear run, at any depth
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ext = MonotoneExtension(DIP_H, DIP_ENUM, 57)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert len(ext._runs) < 1 << 8
    assert any(run[4] or run[6] for run in ext._runs)
    ext = MonotoneExtension(DIP_H, DIP_ENUM, 10)
    assert extension_grid_check(ext, 12) == per_point_grid_check(ext, 12) == (0, F(3, 16384))


@st.composite
def dipping_extensions(draw):
    """(h, enum, n) after DIP_H and DIP_ENUM: h rises to a peak at a hole's
    left end a, dips inside the hole and climbs past the peak by its right
    end b, then keeps rising.  Hole ends lie on the grid or off every dyadic
    grid.  The dipping hole never comes first, and one or two other holes lie
    left of a or right of b, in any order around it, so that a stage before
    it holds the dip in its class and the gap closes along a varying run."""
    n = draw(st.integers(1, 3))
    a = draw(st.sampled_from([F(3, 16), F(1, 4), F(1, 3), F(5, 16)]))
    b = draw(st.sampled_from([F(9, 16), F(4, 7), F(3, 5), F(5, 8)]))
    dip = a + (b - a) * draw(st.sampled_from([F(1, 3), F(1, 2)]))
    peak = draw(st.sampled_from([F(3, 8), F(1, 2), F(5, 8)]))
    low = peak - draw(st.sampled_from([F(1, 8), F(1, 4), F(3, 8)]))
    top = peak + draw(st.sampled_from([F(1, 4), F(3, 8)]))
    h = PiecewiseLinear((F(0), a, dip, b, F(1)),
                        (F(0), peak, low, top, top + draw(st.integers(0, 2)) * F(1, 8)))
    others = draw(st.lists(st.sampled_from([(F(1, 16), F(1, 8)), (F(1, 10), F(1, 7)),
                                            (F(2, 3), F(5, 7)), (F(3, 4), F(7, 8)),
                                            (F(13, 16), F(15, 16))]),
                           min_size=1, max_size=2, unique=True))
    holes = [others[0], *draw(st.permutations([(a, b), *others[1:]]))]
    return h, enumeration(*holes), n


@settings(max_examples=40, deadline=None)
@given(dipping_extensions())
def test_dipping_h_builds_crossing_runs_like_the_per_index_reference(case):
    h, enum, n = case
    ext = MonotoneExtension(h, enum, n)
    assert any(run[4] or run[6] for run in ext._runs)  # p2 or q1 nonzero
    assert rows_of(ext) == per_index_build(h, enum, n)
    for offset in range(-3, 4):
        depth = ext.grid_depth + offset
        assert extension_grid_check(ext, depth) == per_point_grid_check(ext, depth)


def per_point_extremum(p, a, b, n, which):
    """interval_extremum evaluating the refined grid point by point."""
    step = F(1, 1 << n) / p.lipschitz_bound()
    steps = (b - a) / step
    count = steps.numerator // steps.denominator
    if count * step < b - a:
        count += 1
    delta = (b - a) / count
    values = [p.exact(a + k * delta) for k in range(count + 1)]
    return max(values) if which == "sup" else min(values)


coefficients = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=2, max_size=5
).filter(lambda cs: any(cs[1:]))
windows = st.tuples(
    st.fractions(min_value=-1, max_value=2, max_denominator=24),
    st.fractions(min_value=-1, max_value=2, max_denominator=24),
).filter(lambda w: w[0] != w[1]).map(sorted)


@settings(max_examples=60, deadline=None)
@given(coefficients, windows, st.integers(0, 6), st.sampled_from(["sup", "inf"]))
def test_polynomial_extremum_matches_point_sampling(cs, window, n, which):
    a, b = window
    p = Polynomial(cs)
    assert p.coefficients == tuple(F(c) for c in cs)
    assert interval_extremum(p, a, b, n, which) == per_point_extremum(p, a, b, n, which)


def per_pair_estimate(f, x, h, grid_depth, side):
    """pseudo_derivative_estimate as a loop over every (left, right) pair,
    each slope from two evaluations of its own."""
    cands = _straddling_candidates(x, h, grid_depth)
    best = witness = None
    for a in [a for a in cands if a <= x]:
        for b in [b for b in cands if b >= x]:
            if not 0 < b - a <= h:
                continue
            v = (f.exact(a) - f.exact(b)) / (a - b)
            if best is None or (v > best if side == "upper" else v < best):
                best, witness = v, (a, b)
    return best, witness


ESTIMATE_FUNCTIONS = {
    "square": Polynomial([0, 0, 1]),
    "vee": VEE,
    "staircase": extension_instance(1, 0)[0],
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ESTIMATE_FUNCTIONS)),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.integers(1, 5),
    st.integers(2, 6),
    st.sampled_from(["upper", "lower"]),
)
def test_pseudo_derivative_matches_the_per_pair_loop(label, x, k, depth, side):
    f, h = ESTIMATE_FUNCTIONS[label], F(1, 1 << k)
    want = per_pair_estimate(f, x, h, depth, side)
    if want[0] is None:  # no straddling pair on the grid
        with pytest.raises(DomainError):
            pseudo_derivative_estimate(f, x, h, depth, side)
    else:
        est = pseudo_derivative_estimate(f, x, h, depth, side)
        assert (est.value, est.witness) == want


def test_pseudo_derivative_matches_the_per_pair_loop_on_quad_values():
    f, trace = build_counterexample(default_enumeration())
    for x in (trace.final, F(1, 2), F(3, 4)):
        for side in ("upper", "lower"):
            est = pseudo_derivative_estimate(f, x, F(1, 4), 5, side)
            assert (est.value, est.witness) == per_pair_estimate(f, x, F(1, 4), 5, side)
