from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitylab.bits import all_strings, cylinder_bounds
from densitylab.errors import BudgetExhausted, DomainError, EnumerationOverlapError
from densitylab.intervals import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    StagedOpenEnumeration,
    canonicalize,
)
from densitylab.porosity import porosity_test
from densitylab.randomness import (
    CylinderDifferenceTest,
    DominationScenario,
    TestFamily,
    build_domination_tests,
    build_escape_sets,
    capture_check,
    cylinder_items,
    density_difference_test,
    difference_test_from_porosity,
    least_density_drop,
    least_drop_h,
)
from densitylab.report import Check

from helpers import enumeration, interval

PINCH = enumeration((F(1, 4), F(1, 3)), (F(1, 3), F(1, 2)))


def test_cylinder_items_decomposition():
    s = IntervalSet((interval(F(1, 8), F(3, 4)),))
    assert cylinder_items(s) == ["001", "01", "10"]
    assert cylinder_items(IntervalSet(())) == []
    with pytest.raises(DomainError):
        cylinder_items(IntervalSet((interval(F(1, 3), F(1, 2)),)))


def test_density_difference_test_bounds_and_marks():
    w = enumeration((F(1, 4), F(1, 2)))
    fam = density_difference_test(w, 3)
    recs = fam.measure_records()
    assert [(str(row.lhs), str(row.rhs), row.ok) for row in recs] == [
        ("1/2", "1", True),
        ("1/6", "1/2", True),
        ("1/14", "1/4", True),
        ("1/30", "1/8", True),
    ]
    assert fam.stage_marks == ((0, 1), (0, 1), (0, 1), (0, 1))
    assert all(row.ok for row in recs)


def test_capture_check_difference():
    w = enumeration((F(1, 4), F(1, 2)))
    fam = density_difference_test(w, 2)
    # 1/4 is a hole endpoint kept in the class and lies in every covered set
    rep = capture_check(fam, F(1, 4))
    assert rep.captured
    rep = capture_check(fam, F(3, 8))  # not in the class
    assert not rep.captured


def test_test_family_validation():
    # a difference test cannot be built without its closed part
    with pytest.raises(TypeError):
        TestFamily(components=(), stage_marks=())


def cylinder_mass(strings):
    """The measure of the union of the cylinders of an antichain."""
    return sum((F(1, 1 << len(s)) for s in strings), F(0))


def _certificate_components(n):
    if n == 3:
        return ("0101",)
    if n == 7:
        return ("010100", "010111", "010110", "010101")
    return ()


def test_escape_sets_certificate_verdict():
    dt = CylinderDifferenceTest(PINCH, _certificate_components)
    esc = build_escape_sets(dt, 2, 3, F(1, 3))
    assert esc.verdict == "certificate"
    assert esc.escape_level == 2
    assert esc.witness_sigma == "0101"
    assert esc.boxes == (("",), ("0101",), ("010100", "010110", "010111"), ())
    assert cylinder_mass(esc.boxes[1]) == F(1, 16)
    assert cylinder_mass(esc.boxes[2]) == F(3, 64)
    assert all(row.ok for row in esc.records)
    # the overflow and class-thinness records are exact
    names = [row.name for row in esc.records]
    assert "slice of V_7 in '0101' overflows the budget" in names
    assert dt.certify() and all(row.ok for row in dt.certify())


def test_escape_sets_uncaptured_verdict():
    def comps(n):
        if n == 3:
            return ("0101",)
        if n == 7:
            return ("010100",)
        return ()

    esc = build_escape_sets(CylinderDifferenceTest(PINCH, comps), 2, 3, F(1, 3))
    assert esc.verdict == "uncaptured"
    assert esc.escape_level == 2
    assert all(row.ok for row in esc.records)


def test_escape_sets_shrink_bound_every_level():
    dt = CylinderDifferenceTest(PINCH, _certificate_components)
    esc = build_escape_sets(dt, 2, 3, F(1, 3))
    shrink = 1 - F(1, 8)  # 1 - 2^-(r+1) at r = 2
    for m, box in enumerate(esc.boxes):
        assert cylinder_mass(box) <= shrink**m


def cylinder(sigma: str) -> IntervalSet:
    return IntervalSet((Interval(*cylinder_bounds(sigma)),))


def antichain(strings) -> tuple[str, ...]:
    """strings in order, less each one equal to, above or below a kept one."""
    kept: list[str] = []
    for s in strings:
        if not any(s.startswith(k) or k.startswith(s) for k in kept):
            kept.append(s)
    return tuple(kept)


@st.composite
def escape_cases(draw):
    """A class with up to three holes, dyadic or not; component tables of
    strings of 8 bits or fewer, drawn from the short strings and the prefixes
    of a few paths, so that items fall at, above and below the boxes and
    overflow their budgets; r, m_max and a point z."""
    ends = st.builds(F, st.integers(0, 48), st.sampled_from([3, 8, 12, 16, 32, 48]))
    holes = draw(st.lists(st.tuples(ends, ends).map(sorted).filter(lambda p: p[1] <= 1),
                          max_size=3))
    enum = StagedOpenEnumeration(tuple(interval(a, b) for a, b in holes))
    paths = draw(st.lists(st.text("01", min_size=8, max_size=8), min_size=1, max_size=3))
    pool = sorted({p[:k] for p in paths for k in range(1, 9)} | set(all_strings(2))
                  | set(all_strings(3)))
    table = {
        n: antichain(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
        for n in range(12)
    }
    z = draw(st.one_of(
        st.just(F(2 * int(paths[0], 2) + 1, 512)),
        st.builds(F, st.integers(0, 48), st.sampled_from([3, 5, 48, 256])).filter(
            lambda x: x <= 1),
    ))
    return enum, table, draw(st.integers(0, 2)), draw(st.integers(0, 3)), z


def reference_boxes(dt: CylinderDifferenceTest, r: int, m_max: int) -> list:
    """The truncation by its definition: replay each component inside sigma
    and keep an item when the union of the kept pieces, an item at or above
    sigma counting as Cyl(sigma), stays within the budget."""
    shrink = 1 - F(1, 1 << (r + 1))
    boxes = [("",)]
    for m in range(m_max):
        new = []
        for sigma in boxes[m]:
            budget = F(1, 1 << len(sigma)) * shrink
            union = EMPTY_SET
            for tau in dt.component_strings(len(sigma) + r + 1):
                if tau.startswith(sigma) or sigma.startswith(tau):
                    cand = union.union(cylinder(max(sigma, tau, key=len)))
                    if cand.measure <= budget:
                        new.append(tau)
                        union = cand
        boxes.append(tuple(sorted(set(new))))
    return boxes


def holds(z: F, sigma: str) -> bool:
    """z in Cyl(sigma), half open and closed at 1, so the cylinders of a
    level partition [0, 1]."""
    lo, hi = cylinder_bounds(sigma)
    return lo <= z < hi or z == hi == 1


def reference_certificate(dt: CylinderDifferenceTest, r: int, z: F, sigma: str):
    """The verdict and rows where z leaves the boxes from sigma, by their
    definitions: z's covering item is truncated when an item at or above
    sigma, or one below it holding z, meets Cyl(sigma); the slice is the
    measure of the union of the pieces those items cut from Cyl(sigma)."""
    n = len(sigma) + r + 1
    meeting = [tau for tau in dt.component_strings(n)
               if tau.startswith(sigma) or sigma.startswith(tau)]
    if not any(sigma.startswith(tau) or holds(z, tau) for tau in meeting):
        return "uncaptured", []
    width = F(1, 1 << len(sigma))
    slice_ = canonicalize(
        Interval(*cylinder_bounds(max(sigma, tau, key=len))) for tau in meeting
    ).measure
    budget = width * (1 - F(1, 1 << (r + 1)))
    rel = dt.closed_enum.final_class().intersect(cylinder(sigma)).measure / width
    return "certificate", [
        Check(f"slice of V_{n} in {sigma!r} overflows the budget", slice_, budget,
              slice_ > budget),
        Check(f"relative class measure in {sigma!r}", rel, F(1, 1 << r), rel <= F(1, 1 << r)),
    ]


@settings(max_examples=150, deadline=None)
@given(escape_cases())
@example((PINCH, {n: _certificate_components(n) for n in (3, 7)}, 2, 3, F(1, 3)))
# "1" overflows the budget 1/2 at the root and covers z; a non-dyadic hole
# leaves the class 14/15 of [0, 1]
@example((enumeration((F(1, 3), F(2, 5))), {1: ("0", "1")}, 0, 1, F(3, 4)))
# the item "" lies strictly above the box "0", so it covers Cyl("0")
@example((enumeration(), {1: ("0",), 2: ("",)}, 0, 2, F(1, 8)))
def test_escape_sets_and_caps_match_the_interval_definitions(case):
    enum, table, r, m_max, z = case
    dt = CylinderDifferenceTest(enum, lambda n: table.get(n, ()))
    esc = build_escape_sets(dt, r, m_max, z)
    boxes = reference_boxes(dt, r, m_max)
    assert list(esc.boxes) == boxes
    masses = [canonicalize(Interval(*cylinder_bounds(s)) for s in box).measure for box in boxes]
    assert [row.lhs for row in esc.records[: len(boxes)]] == masses
    holders = [next((s for s in box if holds(z, s)), None) for box in boxes]
    if None in holders:
        level = holders.index(None)
        sigma = holders[level - 1]
        assert (esc.escape_level, esc.witness_sigma) == (level, sigma)
        verdict, rows = reference_certificate(dt, r, z, sigma)
    else:
        verdict, rows = "captured", []
    assert (esc.verdict, list(esc.records[len(boxes):])) == (verdict, rows)
    final = enum.final_class()
    for row in dt.certify():
        n = int(row.name[len("lambda(V_"):].split(" ")[0])
        union = canonicalize(Interval(*cylinder_bounds(s)) for s in dt.component_strings(n))
        want = union.intersect(final).measure
        assert (row.lhs, row.rhs, row.ok) == (want, F(1, 1 << n), want <= F(1, 1 << n))


def test_difference_test_from_porosity_reindexes():
    pt = porosity_test(enumeration((F(1, 2), F(3, 4))), 1, 10, 1)
    dt = difference_test_from_porosity(pt)
    assert dt.component_strings(1) == ("10",)
    recs = dt.certify()
    assert all(row.ok for row in recs)
    with pytest.raises(BudgetExhausted) as err:
        dt.component_strings(50)  # needs more porosity levels than built
    # the search gives up at level levels + 1, reporting the exact bound there
    assert type(err.value.achieved) is F
    assert err.value.achieved == pt.decay ** (pt.levels + 1)


WORDS = ("0100", "011", "010100", "01011", "01010100", "0101011",
         "0101010100", "010101011")


def test_domination_scenario_validation():
    with pytest.raises(EnumerationOverlapError):
        DominationScenario(("01", "010"), F(1, 3), F(1, 4), 4)
    with pytest.raises(DomainError):
        DominationScenario(WORDS, F(1, 3), F(1), 4)


def test_least_density_drop_values():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    assert least_density_drop(sc, 0) == 3
    assert least_density_drop(sc, 2) == 5
    with pytest.raises(BudgetExhausted):
        least_density_drop(
            DominationScenario(("0100", "011"), F(1, 3), F(1, 64), 6), 0
        )


@pytest.mark.parametrize("case", [1, 2])
def test_least_density_drop_estimates_each_window_once(monkeypatch, case):
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    seen = []
    density_at = DominationScenario.density_at
    monkeypatch.setattr(
        DominationScenario, "density_at",
        lambda self, s, t: seen.append((s, t)) or density_at(self, s, t),
    )
    dom = build_domination_tests(sc, least_drop_h(sc, case, 1), case, 1)
    assert seen and len(seen) == len(set(seen))
    assert all(row.ok for row in dom.records)
    # the memo is no part of the scenario's value
    fresh = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)


def test_domination_case1_capture_and_budget():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    dom = build_domination_tests(sc, lambda m: min(m + 4, len(WORDS)), 1, 1)
    assert dom.blocks == ((4, 8),)
    assert dom.captured == (True,)
    assert dom.expected_capture == (True,)
    assert all(row.ok for row in dom.records)
    # the used-cylinder budget scales the measure of the blocks' cylinders
    used = canonicalize(Interval(*cylinder_bounds(w)) for w in WORDS[4:8]).measure
    row = next(r for r in dom.records if r.name == "sum against used-cylinder budget")
    assert row.rhs == 2 * used / (1 - F(1, 4)) == F(5, 128)


def test_domination_case2_budget_identity():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    dom = build_domination_tests(sc, lambda i: min(4 * i, len(WORDS)), 2, 2)
    assert dom.blocks == ((0, 4), (4, 8))
    assert dom.captured == (True, True)
    total = sum((c.U.measure for c in dom.covers), F(0))
    assert total == F(51, 128)
    assert all(row.ok for row in dom.records)
    names = {r.name: r for r in dom.records}
    identity = names["prefix-free decomposition identity"]
    assert identity.lhs == identity.rhs == F(255, 1024) and identity.ok
    # the used-cylinder budget scales the measure of both blocks' cylinders
    used = canonicalize(Interval(*cylinder_bounds(w)) for w in WORDS).measure
    assert names["sum against used-cylinder budget"].rhs == 2 * used / (1 - F(1, 4))


def test_domination_rejects_bad_h():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    with pytest.raises(DomainError):
        build_domination_tests(sc, lambda m: 0, 1, 2)
    with pytest.raises(DomainError):
        build_domination_tests(sc, lambda m: 99, 2, 2)
