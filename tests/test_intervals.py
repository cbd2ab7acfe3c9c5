from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from densitylab.bits import require_unit
from densitylab.errors import DomainError, StageError
from densitylab.intervals import (
    EMPTY_SET,
    FULL_SET,
    Interval,
    IntervalSet,
    StagedOpenEnumeration,
    canonicalize,
    enumeration,
    interval,
)

endpoints = st.builds(lambda n, d: F(n, d), st.integers(0, 64), st.integers(1, 64)).filter(
    lambda q: 0 <= q <= 1
)
raw_intervals = st.tuples(endpoints, endpoints).map(
    lambda p: interval(min(p), max(p))
)
interval_lists = st.lists(raw_intervals, max_size=8)
sets = interval_lists.map(canonicalize)


def test_interval_validation():
    with pytest.raises(DomainError):
        interval(F(1, 2), F(1, 4))
    with pytest.raises(DomainError):
        interval(F(-1, 4), F(1, 2))


def reference_interval_error(lo, hi) -> str | None:
    """The endpoint checks as Fraction comparisons, the way Interval made them
    before it validated in integers; the error it raises, or None."""
    try:
        if not isinstance(lo, F) or not isinstance(hi, F):
            raise DomainError("interval endpoints must be Fractions")
        require_unit(lo, "interval lo")
        require_unit(hi, "interval hi")
        if lo > hi:
            raise DomainError(f"interval lo {lo} exceeds hi {hi}")
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def interval_error(lo, hi) -> str | None:
    try:
        Interval(lo, hi)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class Half(F):
    """A Fraction subclass, which Interval must accept as an endpoint."""


@pytest.mark.parametrize("lo, hi", [
    (0, F(1)), (F(0), 1), (0.5, F(1)), (F(0), 0.25), (True, F(1)), (F(0), False),
    (F(-1, 4), F(1, 2)), (F(1, 4), F(5, 4)), (F(-1, 4), F(5, 4)), (F(5, 4), F(3, 2)),
    (F(-1, 2), F(-1, 4)), (F(1, 2), F(1, 4)), (F(1), F(0)), (F(1, 3), F(1, 3)),
    (F(0), F(1)), (Half(1, 2), F(1)), (F(0), Half(1, 2)), (Half(3, 4), Half(1, 2)),
    (Half(3, 2), F(1)),
])
def test_interval_errors_match_the_fraction_checks(lo, hi):
    assert interval_error(lo, hi) == reference_interval_error(lo, hi)


@given(
    st.builds(F, st.integers(-9, 40), st.integers(1, 32)),
    st.builds(F, st.integers(-9, 40), st.integers(1, 32)),
)
def test_interval_validation_matches_the_fraction_checks(lo, hi):
    assert interval_error(lo, hi) == reference_interval_error(lo, hi)


def test_interval_accepts_fraction_subclass_endpoints():
    part = Interval(Half(1, 4), Half(1, 2))
    assert part.length == F(1, 4)
    assert part == interval(F(1, 4), F(1, 2))


def test_canonical_merges_touching_keeps_degenerate():
    s = canonicalize([interval(F(0), F(0)), interval(F(1, 4), F(1, 2)), interval(F(1, 2), F(1))])
    assert s.to_json() == [["0/1", "0/1"], ["1/4", "1/1"]]
    assert s.measure == F(3, 4)


def test_intervalset_rejects_non_canonical():
    with pytest.raises(DomainError):
        IntervalSet((interval(F(0), F(1, 2)), interval(F(1, 2), F(1))))


def test_subtract_open_retains_endpoints():
    c = FULL_SET.subtract_open([interval(F(0), F(1, 8)), interval(F(1, 2), F(3, 4))])
    assert c.to_json() == [["0/1", "0/1"], ["1/8", "1/2"], ["3/4", "1/1"]]
    assert c.measure == F(5, 8)
    assert c.contains_point(F(0)) and c.contains_point(F(1, 2))
    assert not c.contains_point(F(1, 16))
    assert not c.meets_open(F(0), F(1, 8))
    assert not c.meets_open(F(1, 2), F(3, 4))
    assert c.meets_open(F(1, 2), F(25, 32))


def test_gaps_are_closures_of_complement():
    c = FULL_SET.subtract_open([interval(F(0), F(1, 8)), interval(F(1, 2), F(3, 4))])
    assert [g.to_json() for g in c.gaps()] == [["0/1", "1/8"], ["1/2", "3/4"]]
    assert [g.to_json() for g in EMPTY_SET.gaps()] == [["0/1", "1/1"]]
    assert FULL_SET.gaps() == []


@given(interval_lists)
def test_canonicalize_idempotent_and_order_free(items):
    s = canonicalize(items)
    assert canonicalize(list(s.parts)) == s
    assert canonicalize(list(reversed(items))) == s


@given(sets, sets)
def test_measure_modularity(a, b):
    union = a.union(b)
    inter = a.intersect(b)
    assert union.measure + inter.measure == a.measure + b.measure


@given(sets)
def test_complement_measure(a):
    assert a.measure + a.complement().measure == 1
    assert a.intersect(a.complement()).measure == 0


@given(sets, sets)
def test_intersection_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(sets)
def test_subtract_self_is_null(a):
    diff = a.subtract(a)
    assert diff.measure == 0


def relative_measure(s, window):
    """lambda(S cap I) / lambda(I) in Fractions, the reference the density
    windows once used; the window must be nondegenerate."""
    if window.is_degenerate:
        raise DomainError(f"window {window} has zero length")
    return s.intersect_interval(window).measure / window.length


def test_relative_measure():
    c = IntervalSet((interval(F(0), F(1, 4)), interval(F(1, 2), F(1))))
    assert relative_measure(c, interval(F(1, 4), F(1, 2))) == 0
    assert relative_measure(c, interval(F(0), F(1))) == F(3, 4)
    with pytest.raises(DomainError):
        relative_measure(c, interval(F(1, 3), F(1, 3)))


def test_staged_enumeration_stages():
    w = enumeration((F(0), F(1, 8)), (F(1, 2), F(3, 4)))
    assert w.stage_class(0) == FULL_SET
    s1 = w.stage_class(1)
    assert s1.to_json() == [["0/1", "0/1"], ["1/8", "1/1"]]
    assert w.stage_class(2).measure == F(5, 8)
    assert w.union_at(2).measure == F(3, 8)
    with pytest.raises(StageError):
        w.stage_class(3)


def test_staged_enumeration_json_roundtrip():
    w = enumeration((F(0), F(1, 8)), (F(1, 2), F(3, 4)))
    again = StagedOpenEnumeration.from_json(w.to_json())
    assert again == w


@given(st.lists(raw_intervals.filter(lambda i: not i.is_degenerate), max_size=6))
def test_stage_classes_are_nested(holes):
    w = StagedOpenEnumeration(tuple(holes))
    prev = FULL_SET
    for t in range(len(holes) + 1):
        cur = w.stage_class(t)
        assert cur.intersect(prev) == cur  # antitone chain
        prev = cur
    assert prev.measure + w.union_at(len(holes)).measure == 1


# degenerate parts [a, a] arise as retained hole endpoints
parts_with_points = st.lists(
    st.one_of(raw_intervals, endpoints.map(lambda q: interval(q, q))), max_size=8
).map(canonicalize)


@given(parts_with_points, st.lists(endpoints, max_size=6))
def test_contains_point_matches_a_scan_of_the_parts(s, extra):
    ends = [x for p in s.parts for x in (p.lo, p.hi)]
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for x in ends + mids + extra + [F(0), F(1)]:
        assert s.contains_point(x) == any(p.lo <= x <= p.hi for p in s.parts)


@given(parts_with_points, st.integers(0, 8))
def test_grid_ranges_are_the_grid_points_inside(s, depth):
    scale = 1 << depth
    ranges = s.grid_ranges(depth)
    assert len(ranges) == len(s.parts)
    got = [k for r in ranges for k in r]
    assert got == [k for k in range(scale + 1) if s.contains_point(F(k, scale))]


@given(parts_with_points, st.lists(endpoints, min_size=2, max_size=6))
def test_meets_open_matches_a_scan_of_the_parts(s, extra):
    ends = [x for p in s.parts for x in (p.lo, p.hi)]
    points = ends + extra + [F(0), F(1)]
    for u in points:
        for v in points:  # u >= v included: the open interval is empty
            scan = u < v and any(p.lo < v and p.hi > u for p in s.parts)
            assert s.meets_open(u, v) == scan
