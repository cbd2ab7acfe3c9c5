from fractions import Fraction as F

import pytest

from densitylab.errors import BudgetExhausted, DomainError, EnumerationOverlapError
from densitylab.intervals import IntervalSet, StagedOpenEnumeration, enumeration, interval
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
    assert [(str(l), str(r), ok) for _n, l, r, ok in recs] == [
        ("1/2", "1", True),
        ("1/6", "1/2", True),
        ("1/14", "1/4", True),
        ("1/30", "1/8", True),
    ]
    assert fam.stage_marks == ((0, 1), (0, 1), (0, 1), (0, 1))
    assert all(ok for *_, ok in recs)


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
    assert all(ok for *_, ok in esc.records)
    # the overflow and class-thinness records are exact
    names = [r[0] for r in esc.records]
    assert "slice of V_7 in '0101' overflows the budget" in names
    assert dt.certify() and all(ok for *_r, ok in dt.certify())


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
    assert all(ok for *_, ok in esc.records)


def test_escape_sets_shrink_bound_every_level():
    dt = CylinderDifferenceTest(PINCH, _certificate_components)
    esc = build_escape_sets(dt, 2, 3, F(1, 3))
    shrink = 1 - F(1, 8)  # 1 - 2^-(r+1) at r = 2
    for m, box in enumerate(esc.boxes):
        assert cylinder_mass(box) <= shrink**m


def test_difference_test_from_porosity_reindexes():
    pt = porosity_test(enumeration((F(1, 2), F(3, 4))), 1, 10, 1)
    dt = difference_test_from_porosity(pt)
    assert dt.component_strings(1) == ("10",)
    recs = dt.certify()
    assert all(ok for *_r, ok in recs)
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
    assert all(ok for *_, ok in dom.records)
    # the memo is no part of the scenario's value
    fresh = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    assert sc == fresh and hash(sc) == hash(fresh) and repr(sc) == repr(fresh)


def test_domination_case1_capture_and_budget():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    dom = build_domination_tests(sc, lambda m: min(m + 4, len(WORDS)), 1, 1)
    assert dom.blocks == ((4, 8),)
    assert dom.captured == (True,)
    assert dom.expected_capture == (True,)
    assert all(ok for *_, ok in dom.records)


def test_domination_case2_budget_identity():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    dom = build_domination_tests(sc, lambda i: min(4 * i, len(WORDS)), 2, 2)
    assert dom.blocks == ((0, 4), (4, 8))
    assert dom.captured == (True, True)
    total = sum((c.U.measure for c in dom.covers), F(0))
    assert total == F(51, 128)
    assert all(ok for *_, ok in dom.records)
    names = {r[0]: (r[1], r[2], r[3]) for r in dom.records}
    lhs, rhs, ok = names["prefix-free decomposition identity"]
    assert lhs == rhs == F(255, 1024) and ok


def test_domination_rejects_bad_h():
    sc = DominationScenario(WORDS, F(1, 3), F(1, 4), 6)
    with pytest.raises(DomainError):
        build_domination_tests(sc, lambda m: 0, 1, 2)
    with pytest.raises(DomainError):
        build_domination_tests(sc, lambda m: 99, 2, 2)
