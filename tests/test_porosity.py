import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import porosity
from densitylab.bits import all_strings, cylinder_bounds, is_antichain
from densitylab.calculus import MonotoneExtension, extension_grid_check
from densitylab.density import low_density_open_set, lower_density_estimate
from densitylab.errors import DomainError
from densitylab.instances import extension_instance, porosity_instance
from densitylab.intervals import (
    FULL_SET,
    ClassGaps,
    Interval,
    IntervalSet,
    StagedOpenEnumeration,
    canonicalize,
    class_gaps,
    stage_gaps,
)
from densitylab.porosity import (
    PorousExtensions,
    _subtract_ranges,
    cylinder_meets_class,
    minimal_porous_extensions,
    porosity_test,
    porosity_witness,
)
from densitylab.randomness import CylinderDifferenceTest, density_difference_test
from densitylab.report import Check

from helpers import enumeration, interval

ONE_HOLE = enumeration((F(1, 2), F(3, 4)))


def test_open_cylinder_emptiness_at_removed_hole():
    c1 = ONE_HOLE.stage_class(1)
    # the hole's endpoints stay in the class but the open cylinder is vacated
    assert c1.contains_point(F(1, 2)) and c1.contains_point(F(3, 4))
    gaps = ClassGaps.of(c1)
    assert not cylinder_meets_class(gaps, "10")
    assert cylinder_meets_class(gaps, "1")
    assert cylinder_meets_class(gaps, "0")


def test_minimal_extensions_one_hole():
    c1 = ONE_HOLE.stage_class(1)
    ext = minimal_porous_extensions(ClassGaps.of(c1), "", 1)
    assert ext.elements == ("00", "01", "10", "11")
    assert ext.completion_depth == 3
    # a subtree with no gap overlap is a dead end
    assert minimal_porous_extensions(ClassGaps.of(c1), "00", 1).elements == ()
    # an empty cylinder is its own minimal extension
    assert minimal_porous_extensions(ClassGaps.of(c1), "10", 1).elements == ("10",)


def test_minimal_extensions_rejects_negative_constant():
    with pytest.raises(DomainError):
        minimal_porous_extensions(ClassGaps.of(FULL_SET), "", -1)


def test_porosity_test_one_hole_boxes():
    tst = porosity_test(ONE_HOLE, 1, 3, 5)
    assert tst.stages == 1  # clamped to enumeration length
    assert tst.boxes[(1, 1)] == ("00", "01", "10", "11")
    assert tst.boxes[(2, 1)] == ("10",)
    assert tst.boxes[(3, 1)] == ("10",)
    # the most that levels 1 and 2 meet of a stage class: 3/4 at stage 1, and 0
    assert [row.lhs for row in tst.bound_checks()[1:3]] == [F(3, 4), 0]
    assert all(row.ok for row in tst.bound_checks())
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
        gaps = ClassGaps.of(tst.enum.stage_class(t))
        for row in map(tst.node_row, tst.nodes):
            if row.name.startswith(f"node t={t} "):
                sigma = row.name.split("sigma=")[1][1:-1]
                ext = minimal_porous_extensions(gaps, sigma, tst.constant)
                want = sum((F(1, 1 << len(rho)) for rho in ext.elements
                            if cylinder_meets_class(gaps, rho)), F(0))
                bound = decay * F(1, 1 << len(sigma))
                assert (row.lhs, row.rhs, row.ok) == (want, bound, want <= bound)
                rows.append(row)
    assert len(rows) == len(tst.nodes)
    tightest = max(map(tst.node_row, tst.nodes), key=lambda r: r.lhs / r.rhs, default=None)
    assert tst.node_row(tst.tightest_node()) == tightest if tst.nodes else tightest is None

    final = tst.enum.stage_class(tst.stages)
    checks = tst.bound_checks()
    for n in range(tst.levels + 1):
        bound = decay**n
        worst = max(
            sum((F(1, 1 << len(rho)) for rho in tst.boxes[(n, t)]
                 if cylinder_meets_class(ClassGaps.of(tst.enum.stage_class(t)), rho)), F(0))
            for t in range(tst.stages + 1)
        )
        assert (checks[n].lhs, checks[n].rhs, checks[n].ok) == (worst, bound, worst <= bound)
        lhs = union_of_cylinders(tst.boxes[(n, tst.stages)]).intersect(final).measure
        final_row = checks[tst.levels + 1 + n]
        assert (final_row.lhs, final_row.rhs, final_row.ok) == (lhs, bound, lhs <= bound)
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


# holes with both ends on one small grid of dyadic and non-dyadic points:
# degenerate, touching, nested and overlapping holes are all common
grid_points = sorted({F(k, 8) for k in range(9)} | {F(k, 6) for k in range(7)})
grid_holes = st.lists(
    st.tuples(st.sampled_from(grid_points), st.sampled_from(grid_points)).map(
        lambda p: interval(min(p), max(p))),
    max_size=7,
)


@settings(max_examples=40, deadline=None)
@given(grid_holes, st.integers(0, 3), st.integers(0, 4), st.integers(0, 8))
def test_rows_match_the_definitions_with_degenerate_and_touching_holes(holes, c, levels, stages):
    check_against_definitions(porosity_test(StagedOpenEnumeration(tuple(holes)), c, levels, stages))


def gap_fractions(gaps):
    return [(F(lo, gaps.den), F(hi, gaps.den)) for lo, hi in zip(gaps.los, gaps.his)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    grid_holes,
    st.lists(st.tuples(st.sampled_from([3, 5, 12, 64]), st.integers(0, 64), st.integers(0, 20)).map(
        lambda p: interval(F(min(p[1], p[0]), p[0]), F(min(p[1] + p[2], p[0]), p[0]))), max_size=8),
))
def test_stage_gaps_are_the_gaps_of_each_stage_class(holes):
    enum = StagedOpenEnumeration(tuple(holes))
    rows = list(stage_gaps(enum.items))
    assert len(rows) == len(holes) + 1
    for t, gaps in enumerate(rows):
        assert gap_fractions(gaps) == gap_fractions(ClassGaps.of(enum.stage_class(t)))


@settings(max_examples=80, deadline=None)
@given(grid_holes)
def test_class_gaps_is_the_last_stage_row(holes):
    # class_gaps inserts every hole into one row, with no row per stage
    *_, last = stage_gaps(holes)
    row = class_gaps(holes)
    assert (row.den, row.los, row.his) == (last.den, last.los, last.his)


def test_stage_gaps_keep_a_point_between_touching_holes_until_a_hole_covers_it():
    holes = enumeration((F(1, 4), F(1, 2)), (F(1, 3), F(1, 3)), (F(1, 2), F(3, 4)),
                        (F(5, 16), F(3, 8)), (F(3, 8), F(5, 8))).items
    assert [gap_fractions(g) for g in stage_gaps(holes)] == [
        [],
        [(F(1, 4), F(1, 2))],
        [(F(1, 4), F(1, 2))],
        [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))],
        [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))],
        [(F(1, 4), F(3, 4))],
    ]


def test_gaps_of_every_stage_of_400_holes_build_within_a_tenth_of_a_second():
    rng = random.Random(14)
    holes = []
    for _ in range(400):
        p, w = rng.randrange(1 << 12), rng.randint(1, 8)
        holes.append(Interval(F(p, 1 << 12), F(min(p + w, 1 << 12), 1 << 12)))
    start = time.perf_counter()
    rows = list(stage_gaps(holes))
    assert time.perf_counter() - start <= 0.1
    assert len(rows) == 401


def last_meeting_stage(enum, t, sigma):
    """1 + the index of the last of the first t holes that meets the open
    cylinder of sigma, or 0 if none does."""
    u, v = cylinder_bounds(sigma)
    return max((i + 1 for i, h in enumerate(enum.items[:t])
                if not h.is_degenerate and h.lo < v and h.hi > u), default=0)


def forbidden(*args):
    raise AssertionError("a stage class was rebuilt")


def forbid_stage_classes(monkeypatch):
    monkeypatch.setattr(IntervalSet, "subtract_open", forbidden)
    monkeypatch.setattr(StagedOpenEnumeration, "stage_class", forbidden)


def test_extensions_run_once_per_sigma_until_a_hole_meets_its_cylinder(monkeypatch):
    # N_t(sigma) depends only on the class inside the open cylinder of
    # sigma, which changes only where a hole that meets the cylinder goes in
    calls = []
    run = porosity.minimal_porous_extensions
    monkeypatch.setattr(porosity, "minimal_porous_extensions",
                        lambda gaps, sigma, c: calls.append(sigma) or run(gaps, sigma, c))
    forbid_stage_classes(monkeypatch)
    touching = enumeration((F(1, 4), F(1, 2)), (F(1, 3), F(1, 3)), (F(1, 2), F(3, 4)),
                           (F(5, 16), F(3, 8)), (F(1, 8), F(3, 16)), (F(3, 8), F(5, 8)))
    counts = []
    for enum, c, levels in [(touching, 1, 3)] + [porosity_instance(1, i) for i in range(50)]:
        calls.clear()
        pt = porosity_test(enum, c, levels, 200)
        want, seen = [], set()
        for t, sigma, *_ in pt.nodes:
            key = last_meeting_stage(enum, t, sigma), sigma
            if key not in seen:
                seen.add(key)
                want.append(sigma)
        assert calls == want
        assert pt.nodes[0][:2] == (0, "") and calls[0] == ""
        counts.append((len(pt.nodes), len(calls)))
    # the degenerate hole at stage 2 reruns nothing; battery 3 at seed 1
    # reruns 2,014 of its 5,414 nodes
    assert counts[0] == (39, 19)
    assert tuple(map(sum, zip(*counts[1:]))) == (5414, 2014)


# The extension, the cover, the estimate and both difference tests read their
# classes as integer rows built from the holes, and rebuild no stage class
def test_the_extension_and_its_grid_check_build_no_stage_class(monkeypatch):
    cases = [extension_instance(1, index) for index in range(6)]
    forbid_stage_classes(monkeypatch)
    for h, enum in cases:
        drops, worst = extension_grid_check(MonotoneExtension(h, enum, 10), 12)
        assert drops == 0 and worst <= F(2, 1 << 10)


def test_the_cover_and_the_estimate_read_a_row_built_from_holes(monkeypatch):
    holes = [interval(F(1, 4), F(1, 2)), interval(F(1, 2), F(5, 8)), interval(F(0), F(1, 16)),
             interval(F(2, 3), F(7, 8))]
    c = FULL_SET.subtract_open(holes)
    want = [(fc.fat_intervals, fc.U, fc.inequalities())
            for fc in (low_density_open_set(ClassGaps.of(c), eps) for eps in (F(1, 4), F(1, 3)))]
    estimates = [lower_density_estimate(ClassGaps.of(c), z, 6) for z in (F(1, 2), F(1, 3))]
    forbid_stage_classes(monkeypatch)
    row = class_gaps(holes)
    assert [(fc.fat_intervals, fc.U, fc.inequalities())
            for fc in (low_density_open_set(row, eps) for eps in (F(1, 4), F(1, 3)))] == want
    assert [lower_density_estimate(row, z, 6) for z in (F(1, 2), F(1, 3))] == estimates


def test_density_difference_test_builds_no_stage_class(monkeypatch):
    enum = enumeration((F(1, 4), F(1, 2)), (F(5, 8), F(3, 4)), (F(1, 2), F(5, 8)))
    forbid_stage_classes(monkeypatch)
    fam = density_difference_test(enum, 2)
    monkeypatch.undo()
    # each component enumerates the growth of the stage classes' covers
    for n, component in enumerate(fam.components):
        covers = [low_density_open_set(ClassGaps.of(enum.stage_class(t)), F(1, 2 << n)).U
                  for t in range(4)]
        assert component.items == tuple(
            part for prev, cover in zip([IntervalSet(())] + covers, covers)
            for part in cover.subtract(prev).drop_degenerate().parts)
    assert all(row.ok for row in fam.measure_records())


def test_cylinder_difference_test_certifies_on_a_row_from_holes(monkeypatch):
    enum = enumeration((F(1, 4), F(1, 2)), (F(1, 2), F(9, 16)))
    forbid_stage_classes(monkeypatch)
    dt = CylinderDifferenceTest(enum, {0: ("0",), 1: ("01", "100")}.get)
    for n in (0, 1):
        dt.component_strings(n)
    # each cylinder's length less its overlap with the holes (1/4, 9/16)
    assert dt.certify() == [
        Check("lambda(V_0 cap C_final)", F(1, 4), F(1), True),
        Check("lambda(V_1 cap C_final)", F(1, 16), F(1, 2), True),
    ]


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
    assert all(row.ok for row in tst.bound_checks())
    assert all(ok for *_, ok in tst.nodes)


@settings(max_examples=15, deadline=None)
@given(st.lists(hole_strategy, min_size=1, max_size=5), st.integers(1, 3))
def test_minimal_extensions_are_minimal_antichains(holes, c):
    cls = FULL_SET.subtract_open(holes)
    ext = minimal_porous_extensions(ClassGaps.of(cls), "", c)
    assert is_antichain(ext.elements)
    # rerunning below any member finds the member itself as qualifying root
    for rho in ext.elements[:4]:
        sub = minimal_porous_extensions(ClassGaps.of(cls), rho, c)
        assert sub.elements == (rho,) or rho not in sub.elements


def reference_extensions(class_set, sigma, c):
    """The scan in Fractions, gaps and their ceil/floor taken per call, and
    strings kept as sets of indices, not ranges."""
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
    # the covered and qualifying strings of each level as sets of indices
    reach, covered, found = 1 << c, set(), []
    for level in range(s_len, completion + 1):
        if level > s_len:
            covered = {2 * j + bit for j in covered for bit in (0, 1)}
        qualifying = set()
        for g in gaps:
            e1, e2, lo_idx, hi_idx = inner(g, level)
            if e1 <= e2:
                qualifying.update(range(max(e1 - reach, lo_idx), min(e2 + reach, hi_idx) + 1))
        fresh = qualifying - covered
        found.extend(format(j, f"0{level}b") if level else "" for j in fresh)
        covered |= fresh
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
    gaps = ClassGaps.of(cls)
    for sigma in [s for n in range(4) for s in all_strings(n)]:
        assert minimal_porous_extensions(gaps, sigma, c) == reference_extensions(cls, sigma, c)


@settings(max_examples=60, deadline=None)
@given(mixed_classes)
def test_cylinder_test_from_gaps_matches_a_scan_of_the_parts(cls):
    gaps = ClassGaps.of(cls)
    for tau in [s for n in range(6) for s in all_strings(n)]:
        u, v = cylinder_bounds(tau)
        # the open cylinder (u, v) meets a closed part [lo, hi] iff lo < v and hi > u
        assert cylinder_meets_class(gaps, tau) == any(p.lo < v and p.hi > u for p in cls.parts)


def test_a_point_isolated_between_two_holes_meets_its_cylinder():
    cls = enumeration((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))).stage_class(2)
    assert cls.contains_point(F(1, 2))
    gaps = ClassGaps.of(cls)
    assert cylinder_meets_class(gaps, "")
    assert not cylinder_meets_class(gaps, "01")
    assert not cylinder_meets_class(gaps, "10")
    assert cylinder_meets_class(gaps, "00")


def runs(points) -> list[tuple[int, int]]:
    """The maximal runs of consecutive integers in points, in order."""
    out = []
    for j in sorted(points):
        if out and out[-1][1] == j - 1:
            out[-1] = (out[-1][0], j)
        else:
            out.append((j, j))
    return out


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
def test_subtract_ranges_is_a_set_difference(points, covered):
    assert _subtract_ranges(runs(points), runs(covered)) == runs(points - covered)
