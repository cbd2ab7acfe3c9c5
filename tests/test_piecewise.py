"""PiecewiseLinear against a Fraction bisect reference."""

from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.errors import DomainError
from densitylab.piecewise import PiecewiseLinear, overlaps


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


def reference_value(xs, ys, x):
    """Linear interpolation by a bisect over the Fraction breakpoints."""
    if not xs[0] <= x <= xs[-1]:
        raise DomainError(f"{x} outside domain")
    i = bisect_right(xs, x)
    if i == len(xs):
        return ys[-1]
    if xs[i - 1] == x:
        return ys[i - 1]
    x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


denominators = st.sampled_from([1, 2, 3, 5, 7, 12, 16, 30, 1024])
rationals = st.builds(F, st.integers(-60, 60), denominators)
positive = st.builds(F, st.integers(1, 20), denominators)


@st.composite
def functions(draw):
    if draw(st.booleans()):  # uniform breakpoints
        start, step = draw(rationals), draw(positive)
        xs = [start + k * step for k in range(draw(st.integers(2, 12)))]
    else:
        xs = sorted(set(draw(st.lists(rationals, min_size=2, max_size=12))))
        if len(xs) < 2:
            xs.append(xs[0] + 1)
    ys = draw(st.lists(rationals, min_size=len(xs), max_size=len(xs)))
    return tuple(xs), tuple(ys)


@settings(max_examples=200, deadline=None)
@given(functions(), st.lists(rationals, max_size=10))
def test_value_matches_fraction_bisect(fn, extra):
    xs, ys = fn
    g = PiecewiseLinear(xs, ys)
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    thirds = [a + (b - a) / 3 for a, b in zip(xs, xs[1:])]
    queries = list(xs) + mids + thirds + [x for x in extra if xs[0] <= x <= xs[-1]]
    for x in queries:
        got = g.value(x)
        assert got == reference_value(xs, ys, x)
        assert isinstance(got, F)
    for x in [xs[0] - F(1, 7), xs[-1] + F(1, 1024)] + [
        x for x in extra if not xs[0] <= x <= xs[-1]
    ]:
        with pytest.raises(DomainError):
            g.value(x)


def test_value_on_and_off_breakpoints():
    g = PiecewiseLinear((F(0), F(1, 3), F(3, 5), F(1)), (F(1, 2), F(-1, 7), F(2), F(2)))
    assert g.value(F(0)) == F(1, 2)
    assert g.value(F(1)) == 2
    assert g.value(F(1, 3)) == F(-1, 7)
    assert g.value(F(1, 6)) == (F(1, 2) + F(-1, 7)) / 2
    assert g.value(F(7, 15)) == F(-1, 7) + (2 + F(1, 7)) / 2
    assert g.value(F(4, 5)) == 2
    for x in (F(-1, 3), F(16, 15), F(-1, 1 << 40), 1 + F(1, 1 << 40)):
        with pytest.raises(DomainError):
            g.value(x)


def test_rejects_unsorted_or_short_breakpoints():
    with pytest.raises(DomainError):
        PiecewiseLinear((F(0), F(1, 3), F(1, 3)), (F(0), F(1), F(2)))
    with pytest.raises(DomainError):
        PiecewiseLinear((F(1, 2), F(1, 3)), (F(0), F(1)))
    with pytest.raises(DomainError):
        PiecewiseLinear((F(0),), (F(0),))
    with pytest.raises(DomainError):
        PiecewiseLinear.from_numerators(3, [0, 1, 1], 7, [0, 1, 2])
    with pytest.raises(DomainError):
        PiecewiseLinear.from_numerators(3, [0, 1], 7, [0, 1, 2])


def test_from_numerators_matches_the_fraction_constructor():
    rows = PiecewiseLinear.from_numerators(6, [-2, 1, 3, 6], 14, [7, -2, 28, 28])
    fractions = PiecewiseLinear((F(-1, 3), F(1, 6), F(1, 2), F(1)),
                                (F(1, 2), F(-1, 7), F(2), F(2)))
    assert rows.xs == fractions.xs and rows.ys == fractions.ys
    for x in (F(-1, 3), F(0), F(1, 6), F(2, 7), F(1, 2), F(1)):
        assert rows.value(x) == fractions.value(x)
    assert grid_row(rows, 3) == grid_row(fractions, 3)


@settings(max_examples=200, deadline=None)
@given(functions(), st.integers(0, 6))
def test_grid_progressions_match_value(fn, depth):
    xs, ys = fn
    g = PiecewiseLinear(xs, ys)
    scale = 1 << depth
    try:
        expected = [g.value(F(k, scale)) for k in range(scale + 1)]
    except DomainError as exc:
        # a domain short of [0,1]: the first grid point outside it is named
        with pytest.raises(DomainError) as err:
            g.grid_progressions(depth)
        assert str(err.value) == str(exc)
        return
    den, nums = grid_row(g, depth)
    assert [F(v, den) for v in nums] == expected


@settings(max_examples=200, deadline=None)
@given(functions())
def test_lipschitz_bound_is_the_steepest_segment(fn):
    xs, ys = fn
    expected = max(abs(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
    got = PiecewiseLinear(xs, ys).lipschitz_bound()
    assert type(got) is F and got == expected


def test_grid_progressions_dyadic_and_non_dyadic_breakpoints():
    thirds = PiecewiseLinear((F(-1, 3), F(1, 3), F(5, 7), F(4, 3)),
                             (F(1, 2), F(-1, 7), F(2), F(3, 5)))
    dyadic = PiecewiseLinear(tuple(F(k, 8) for k in range(9)),
                             tuple(F(k * k, 64) for k in range(9)))
    for g in (thirds, dyadic):
        for depth in (0, 3, 9):
            den, nums = grid_row(g, depth)
            assert [F(v, den) for v in nums] == [
                g.value(F(k, 1 << depth)) for k in range((1 << depth) + 1)
            ]
    short = PiecewiseLinear((F(0), F(3, 5)), (F(0), F(1)))
    with pytest.raises(DomainError, match="5/8 outside domain"):
        short.grid_progressions(3)
    with pytest.raises(DomainError, match="^0 outside domain"):
        PiecewiseLinear((F(1, 9), F(1)), (F(0), F(1))).grid_progressions(3)


@settings(max_examples=200, deadline=None)
@given(functions(), rationals, positive, st.integers(0, 40))
def test_progressions_match_value_on_any_arithmetic_grid(fn, lo, delta, count):
    xs, ys = fn
    g = PiecewiseLinear(xs, ys)
    delta /= 8
    points = [lo + k * delta for k in range(count + 1)]
    try:
        expected = [g.value(x) for x in points]
    except DomainError as exc:
        # the first point outside the domain is named
        with pytest.raises(DomainError) as err:
            g.progressions(lo, delta, count)
        assert str(err.value) == str(exc)
        return
    den, pieces = g.progressions(lo, delta, count)
    assert [p[0] for p in pieces] == [0, *(p[1] + 1 for p in pieces[:-1])]
    assert pieces[-1][1] == count
    assert [F(v, den) for v in progression_row(pieces)] == expected


@st.composite
def run_rows(draw, end):
    """Disjoint runs (first, last, tag) in index order over part of 0..end,
    at random cuts; a run with tag 0 is left out, so a row may leave indices
    uncovered, as a class's grid ranges do."""
    cuts = sorted(draw(st.sets(st.integers(1, end), max_size=8))) if end else []
    runs = [(first, stop - 1, draw(st.integers(0, 3)))
            for first, stop in zip([0, *cuts], [*cuts, end + 1])]
    return [run for run in runs if run[2]]


def stretches(rows, end):
    """(lo, hi, runs) for each maximal stretch of 0..end on which every row
    has a run, and the same one all along, read index by index."""
    at = []
    for row in rows:
        cover = [None] * (end + 1)
        for run in row:
            cover[run[0]:run[1] + 1] = [run] * (run[1] + 1 - run[0])
        at.append(cover)
    out = []
    for k in range(end + 1):
        runs = tuple(cover[k] for cover in at)
        if None in runs:
            continue
        if out and out[-1][1] == k - 1 and out[-1][2] == runs:
            out[-1] = (out[-1][0], k, runs)
        else:
            out.append((k, k, runs))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda end: st.tuples(
    st.just(end), *(run_rows(end) for _ in range(4)))))
def test_overlaps_and_their_compositions_match_index_by_index(case):
    end, a, b, c, d = case
    assert [(lo, hi, (ra, rb)) for lo, hi, ra, rb in overlaps(a, b)] == stretches((a, b), end)
    assert [(lo, hi, (ra, rb, rc)) for lo, hi, (_, _, ra, rb), rc
            in overlaps(list(overlaps(a, b)), c)] == stretches((a, b, c), end)
    four = overlaps(list(overlaps(a, b)), list(overlaps(c, d)))
    assert [(lo, hi, (ra, rb, rc, rd)) for lo, hi, (_, _, ra, rb), (_, _, rc, rd)
            in four] == stretches((a, b, c, d), end)
