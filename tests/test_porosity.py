import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.bits import all_strings, cylinder_bounds, is_antichain
from densitylab.errors import DomainError
from densitylab.instances import porosity_instance
from densitylab.intervals import (
    FULL_SET,
    StagedOpenEnumeration,
    canonicalize,
    enumeration,
    interval,
)
from densitylab.porosity import (
    ClassGaps,
    PorousExtensions,
    _merge_ranges,
    _subtract_ranges,
    cylinder_meets_class,
    minimal_porous_extensions,
    porosity_test,
    porosity_witness,
)

ONE_HOLE = enumeration((F(1, 2), F(3, 4)))


def test_open_cylinder_emptiness_at_removed_hole():
    c1 = ONE_HOLE.stage_class(1)
    # the hole's endpoints stay in the class but the open cylinder is vacated
    assert c1.contains_point(F(1, 2)) and c1.contains_point(F(3, 4))
    gaps = ClassGaps(c1)
    assert not cylinder_meets_class(gaps, "10")
    assert cylinder_meets_class(gaps, "1")
    assert cylinder_meets_class(gaps, "0")


def test_minimal_extensions_one_hole():
    c1 = ONE_HOLE.stage_class(1)
    ext = minimal_porous_extensions(ClassGaps(c1), "", 1)
    assert ext.elements == ("00", "01", "10", "11")
    assert ext.completion_depth == 3
    # a subtree with no gap overlap is a dead end
    assert minimal_porous_extensions(ClassGaps(c1), "00", 1).elements == ()
    # an empty cylinder is its own minimal extension
    assert minimal_porous_extensions(ClassGaps(c1), "10", 1).elements == ("10",)


def test_minimal_extensions_rejects_negative_constant():
    with pytest.raises(DomainError):
        minimal_porous_extensions(ClassGaps(FULL_SET), "", -1)


def test_porosity_test_one_hole_boxes():
    tst = porosity_test(ONE_HOLE, 1, 3, 5)
    assert tst.stages == 1  # clamped to enumeration length
    assert tst.boxes[(1, 1)] == ("00", "01", "10", "11")
    assert tst.boxes[(2, 1)] == ("10",)
    assert tst.boxes[(3, 1)] == ("10",)
    # the most that levels 1 and 2 meet of a stage class: 3/4 at stage 1, and 0
    assert [row[1] for row in tst.bound_checks()[1:3]] == [F(3, 4), 0]
    assert all(ok for *_, ok in tst.bound_checks())
    assert all(ok for *_, ok in tst.nodes)


def test_porosity_witness_found_and_absent():
    c1 = ONE_HOLE.stage_class(1)
    wit = porosity_witness(c1, "", 1, 4)
    assert wit is not None
    assert (wit.rho, wit.tau, wit.level) == ("00", "10", 2)
    assert porosity_witness(FULL_SET, "", 3, 5) is None
    assert porosity_witness(c1, "0", 1, 6) is None  # hole out of subtree reach


def test_component_measures_decay():
    w = enumeration((F(1, 8), F(1, 4)), (F(1, 2), F(9, 16)), (F(3, 4), F(7, 8)))
    tst = porosity_test(w, 2, 4, 3)
    final = w.stage_class(3)
    for n in range(5):
        lhs = union_of_cylinders(tst.boxes[(n, 3)]).intersect(final).measure
        assert lhs <= tst.decay**n


def union_of_cylinders(rhos):
    return canonicalize([interval(*cylinder_bounds(rho)) for rho in rhos])


def check_against_definitions(tst):
    """Every node row and bound row of tst, recomputed in Fractions from the
    definitions: cylinder_meets_class hits, IntervalSet intersection and
    measure, and the Fraction comparison of the two sides."""
    decay = tst.decay
    rows = []
    for t in range(tst.stages + 1):
        gaps = ClassGaps(tst.enum.stage_class(t))
        for name, lhs, rhs, ok in map(tst.node_row, tst.nodes):
            if name.startswith(f"node t={t} "):
                sigma = name.split("sigma=")[1][1:-1]
                ext = minimal_porous_extensions(gaps, sigma, tst.constant)
                want = sum((F(1, 1 << len(rho)) for rho in ext.elements
                            if cylinder_meets_class(gaps, rho)), F(0))
                bound = decay * F(1, 1 << len(sigma))
                assert (lhs, rhs, ok) == (want, bound, want <= bound)
                rows.append((name, lhs, rhs, ok))
    assert len(rows) == len(tst.nodes)
    tightest = max(map(tst.node_row, tst.nodes), key=lambda r: r[1] / r[2], default=None)
    assert tst.node_row(tst.tightest_node()) == tightest if tst.nodes else tightest is None

    final = tst.enum.stage_class(tst.stages)
    checks = tst.bound_checks()
    for n in range(tst.levels + 1):
        bound = decay**n
        worst = max(
            sum((F(1, 1 << len(rho)) for rho in tst.boxes[(n, t)]
                 if cylinder_meets_class(ClassGaps(tst.enum.stage_class(t)), rho)), F(0))
            for t in range(tst.stages + 1)
        )
        assert checks[n][1:] == (worst, bound, worst <= bound)
        lhs = union_of_cylinders(tst.boxes[(n, tst.stages)]).intersect(final).measure
        assert checks[tst.levels + 1 + n][1:] == (lhs, bound, lhs <= bound)
    assert len(checks) == 2 * (tst.levels + 1)


def test_rows_match_the_definitions_on_battery_instances():
    for index in (0, 1, 2, 3, 7):
        enum, c, levels = porosity_instance(1, index)
        check_against_definitions(porosity_test(enum, c, levels, 200))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([3, 5, 12, 64]), st.integers(0, 64), st.integers(1, 20)),
             min_size=1, max_size=5),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(0, 5),
)
def test_rows_match_the_definitions_on_any_holes(raw, c, levels, stages):
    # holes over denominators that are not powers of 2 make C_final's mass
    # non-dyadic
    holes = [interval(F(min(a, d), d), F(min(a + w, d), d)) for d, a, w in raw]
    enum = StagedOpenEnumeration(tuple(h for h in holes if not h.is_degenerate))
    check_against_definitions(porosity_test(enum, c, levels, stages))


hole_strategy = st.tuples(st.integers(0, 62), st.integers(1, 12)).map(
    lambda p: interval(F(p[0], 64), F(min(64, p[0] + p[1]), 64))
)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(hole_strategy, min_size=1, max_size=6),
    st.integers(1, 3),
    st.integers(1, 4),
)
def test_porosity_test_invariants_random(holes, c, levels):
    w = StagedOpenEnumeration(tuple(holes))
    tst = porosity_test(w, c, levels, 200)
    for n in range(levels + 1):
        for t in range(tst.stages + 1):
            assert is_antichain(tst.boxes[(n, t)])
    assert all(ok for *_, ok in tst.bound_checks())
    assert all(ok for *_, ok in tst.nodes)


@settings(max_examples=15, deadline=None)
@given(st.lists(hole_strategy, min_size=1, max_size=5), st.integers(1, 3))
def test_minimal_extensions_are_minimal_antichains(holes, c):
    cls = FULL_SET.subtract_open(holes)
    ext = minimal_porous_extensions(ClassGaps(cls), "", c)
    assert is_antichain(ext.elements)
    # rerunning below any member finds the member itself as qualifying root
    for rho in ext.elements[:4]:
        sub = minimal_porous_extensions(ClassGaps(cls), rho, c)
        assert sub.elements == (rho,) or rho not in sub.elements


def reference_extensions(class_set, sigma, c):
    """The scan in Fractions, gaps and their ceil/floor taken per call."""
    s_len = len(sigma)
    s_idx = int(sigma, 2) if sigma else 0
    slo, shi = cylinder_bounds(sigma)
    gaps = [g for g in class_set.gaps()
            if not g.is_degenerate and g.lo < shi and g.hi > slo]
    if not gaps:
        return PorousExtensions(sigma, c, (), s_len)

    def inner(g, level):
        lo_idx = s_idx << (level - s_len)
        hi_idx = ((s_idx + 1) << (level - s_len)) - 1
        scale = 1 << level
        return (max(math.ceil(g.lo * scale), lo_idx),
                min(math.floor(g.hi * scale) - 1, hi_idx), lo_idx, hi_idx)

    activations = []
    for g in gaps:
        level = s_len
        while inner(g, level)[0] > inner(g, level)[1]:
            level += 1
        activations.append(level)
    completion = max(activations) + 1
    reach, covered, found = 1 << c, [], []
    for level in range(s_len, completion + 1):
        if level > s_len:
            covered = [(2 * a, 2 * b + 1) for a, b in covered]
        qualifying = []
        for g in gaps:
            e1, e2, lo_idx, hi_idx = inner(g, level)
            if e1 <= e2:
                qualifying.append((max(e1 - reach, lo_idx), min(e2 + reach, hi_idx)))
        fresh = _subtract_ranges(_merge_ranges(qualifying), covered)
        found.extend(format(j, f"0{level}b") if level else ""
                     for a, b in fresh for j in range(a, b + 1))
        covered = _merge_ranges(covered + fresh)
    return PorousExtensions(sigma, c, tuple(sorted(found)), completion)


# dyadic and non-dyadic endpoints, degenerate parts [a, a]
class_points = st.one_of(
    st.integers(0, 64).map(lambda k: F(k, 64)),
    st.builds(lambda d, k: F(k % (d + 1), d), st.sampled_from([3, 5, 7, 12]),
              st.integers(0, 12)),
)
mixed_classes = st.lists(
    st.one_of(
        st.tuples(class_points, class_points).map(lambda p: interval(min(p), max(p))),
        class_points.map(lambda x: interval(x, x)),
    ),
    max_size=6,
).map(canonicalize)


@settings(max_examples=40, deadline=None)
@given(mixed_classes, st.integers(0, 2))
def test_minimal_extensions_match_fraction_scan(cls, c):
    gaps = ClassGaps(cls)
    for sigma in [s for n in range(4) for s in all_strings(n)]:
        assert minimal_porous_extensions(gaps, sigma, c) == reference_extensions(cls, sigma, c)


@settings(max_examples=60, deadline=None)
@given(mixed_classes)
def test_cylinder_test_from_gaps_matches_meets_open(cls):
    gaps = ClassGaps(cls)
    for tau in [s for n in range(6) for s in all_strings(n)]:
        assert cylinder_meets_class(gaps, tau) == cls.meets_open(*cylinder_bounds(tau))


def test_a_point_isolated_between_two_holes_meets_its_cylinder():
    cls = enumeration((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))).stage_class(2)
    assert cls.contains_point(F(1, 2))
    gaps = ClassGaps(cls)
    assert cylinder_meets_class(gaps, "")
    assert not cylinder_meets_class(gaps, "01")
    assert not cylinder_meets_class(gaps, "10")
    assert cylinder_meets_class(gaps, "00")
