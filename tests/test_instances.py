from fractions import Fraction as F

import pytest

from densitylab import instances
from densitylab.errors import BudgetExhausted, InvariantError, SchemaError
from densitylab.instances import (
    COVERING_EPSILONS,
    EscapeInstance,
    battery_rng,
    bits_of_point,
    claim5_instance,
    covering_holes,
    covering_instance,
    domination_instance,
    escape_instance,
    extension_instance,
    forcing_instance,
    golden_extremum_cases,
    normalized_fair_table,
    oracle_match_instance,
    porosity_instance,
    random_fair_table,
)
from densitylab.intervals import ClassGaps, class_gaps
from densitylab.martingales import fairness_violations
from densitylab.randomness import (
    CylinderDifferenceTest,
    build_escape_sets,
    least_density_drop,
)


def max_denominator(c_set) -> int:
    return max(
        (x.denominator for iv in c_set.parts for x in (iv.lo, iv.hi)), default=1
    )


def test_battery_rng_is_reproducible():
    a = battery_rng(5, "x", 3)
    b = battery_rng(5, "x", 3)
    assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]
    assert battery_rng(5, "x", 3).getrandbits(32) != battery_rng(5, "x", 4).getrandbits(32)


def test_covering_instances_fit_the_stated_caps():
    for index in range(0, 200, 17):
        c = covering_instance(1, index)
        assert len(c.gaps()) <= 12
        assert max_denominator(c) <= 1 << 16
    assert covering_instance(1, 7) == covering_instance(1, 7)
    assert COVERING_EPSILONS == (F(1, 4), F(1, 2), F(3, 4))


def test_covering_rows_built_from_the_holes_are_the_classes_rows():
    # battery 1 reads its classes hole by hole; the gaps are those of the
    # class that subtract_open builds, whatever the two denominators
    def gap_fractions(row):
        return [(F(lo, row.den), F(hi, row.den)) for lo, hi in zip(row.los, row.his)]

    for seed in (1, 2, 3):
        for index in range(200):
            assert gap_fractions(class_gaps(covering_holes(seed, index))) == gap_fractions(
                ClassGaps.of(covering_instance(seed, index)))


def test_oracle_match_instances_fit_the_stated_caps():
    for index in range(0, 50, 7):
        c, eps = oracle_match_instance(1, index)
        assert max_denominator(c) <= 1 << 8
        assert 0 < eps < 1


def test_porosity_instances_fit_the_stated_caps():
    for index in range(0, 50, 5):
        enum, c, levels = porosity_instance(1, index)
        assert len(enum.items) <= 20
        assert 1 <= c <= 3
        assert 1 <= levels <= 8


def test_bits_of_point_doubles_exactly():
    assert bits_of_point(F(1, 4), 4) == "0100"
    assert bits_of_point(F(5, 8), 3) == "101"
    assert bits_of_point(F(1, 3), 6) == "010101"


def test_escape_instance_flavors_realize_their_verdicts():
    seen = set()
    for index in range(9):
        inst = escape_instance(1, index)
        assert inst.r <= 3 and inst.m_max <= 6
        dt = CylinderDifferenceTest(inst.enum, inst.component_fn())
        esc = build_escape_sets(dt, inst.r, inst.m_max, inst.z)
        assert esc.verdict == inst.flavor
        seen.add(inst.flavor)
    assert seen == {"captured", "certificate", "uncaptured"}


def test_escape_instance_round_trips_through_json():
    inst = escape_instance(3, 4)
    again = EscapeInstance.from_json(inst.to_json())
    assert again == inst
    with pytest.raises(SchemaError):
        EscapeInstance.from_json({"holes": []})


@pytest.mark.parametrize("key", ["01", "1_0", "-1", "+1", " 1", "1.0", "\u0661", "1" * 5000],
                         ids=["leading-zero", "underscore", "negative", "plus", "space",
                              "point", "arabic-digit", "too-many-digits"])
def test_escape_component_keys_are_canonical_decimals(key):
    # "01" and "1" would name one component and drop the other
    doc = {"components": {"1": ["0"], key: ["1"]}, "r": 0, "m_max": 1, "z": "1/3"}
    with pytest.raises(SchemaError, match="canonical decimal"):
        EscapeInstance.from_json(doc)
    doc["components"] = {"0": ["0"], "10": ["1"]}
    assert EscapeInstance.from_json(doc).components == {0: ("0",), 10: ("1",)}


def test_domination_instance_drops_density_in_every_block():
    for index in range(4):
        scenario, case, n_blocks = domination_instance(1, index)
        assert case in (1, 2)
        s = 0
        for _ in range(n_blocks + 1):
            t = least_density_drop(scenario, s)
            assert scenario.density_at(s, t) < scenario.eps
            s = t


def test_fair_tables_are_fair_and_normalizable():
    m = random_fair_table(battery_rng(9, "t"), 4)
    assert fairness_violations(m, 6) == []
    n = normalized_fair_table(battery_rng(9, "n"), 3)
    assert n.value("") == 1
    assert fairness_violations(n, 5) == []


def test_claim5_and_forcing_instances_build():
    cond, eps, ext = claim5_instance(1, 2)
    assert cond.martingale.value(cond.sigma) < cond.q
    assert len(ext.tau) <= 10
    assert ext.r < ext.s < cond.q
    _, steps, chain = forcing_instance(1, 2)
    assert len(chain) == len(steps)
    assert all(step.extends_ok for step in chain)


@pytest.mark.parametrize("search, make", [
    ("savings_extension", claim5_instance),
    ("forcing_chain", forcing_instance),
])
def test_instances_with_no_viable_draw_raise_invariant_error(monkeypatch, search, make):
    def starved(*args):
        raise BudgetExhausted("no room")

    monkeypatch.setattr(instances, search, starved)
    with pytest.raises(InvariantError, match="no viable"):
        make(1, 2)


def test_extension_instances_stay_inside_the_budget_margin():
    for index in range(3):
        h, enum = extension_instance(1, index)
        assert h.lipschitz_bound() <= 1
        assert len(enum.items) <= 6


def test_golden_extremum_cases_are_exact():
    cases = golden_extremum_cases()
    assert len(cases) == 3
    for p, a, b, which, value in cases:
        grid = [a + (b - a) * F(k, 256) for k in range(257)]
        sampled = [p.exact(x) for x in grid]
        slack = p.lipschitz_bound() * (b - a) / 256
        if which == "sup":
            assert value - slack <= max(sampled) <= value
        else:
            assert value <= min(sampled) <= value + slack
