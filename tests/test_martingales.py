"""Martingale algebra: slopes, integration, strategies, conditions, forcing."""

from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitylab import suite
from densitylab.bits import all_strings, cylinder_bounds, over_common_denominator
from densitylab.errors import BudgetExhausted, DomainError
from densitylab.martingales import (
    Condition,
    Martingale,
    SavingsExtension,
    TableMartingale,
    anti_debt_strategy,
    cap_at,
    claim5_density_records,
    combine_scaled,
    condition_extends,
    condition_extension_violations,
    diagonalize_against,
    fairness_violations,
    forcing_chain,
    martingale_to_function,
    negativity_witnesses,
    savings_extension,
    slope_martingale,
    threshold_cylinders,
    with_floor_adapter,
)
from densitylab.piecewise import PiecewiseLinear


def per_string(fn):
    """The rows kernel of the martingale whose value at tau is fn(tau)."""
    return lambda base, k: over_common_denominator([F(fn(base + s)) for s in all_strings(k)])


def interpolated(fn, depth: int) -> PiecewiseLinear:
    """The PiecewiseLinear through fn on the 2^-depth grid; to depth its
    slope martingale is fn's."""
    xs = [F(i, 1 << depth) for i in range((1 << depth) + 1)]
    return PiecewiseLinear(xs, [fn(x) for x in xs])


def approximant(m: Martingale, tau: str, n: int) -> F:
    """M(tau)_n, the index-n approximant of m at tau."""
    e, (num,) = m.approx_level(tau, 0, n)
    return F(num, e)


def table_from_leaves(leaves: dict[str, F]) -> TableMartingale:
    """Fill a fair table upward from its deepest level."""
    depth = max(len(s) for s in leaves)
    table = dict(leaves)
    for k in range(depth - 1, -1, -1):
        for s in all_strings(k):
            table[s] = (table[s + "0"] + table[s + "1"]) / 2
    return TableMartingale(table, depth)


# the worked savings instance used across several tests:
# leaf values at depth 3, q = 2; "10" reaches 5/2 >= q and walls off its subtree
SAVINGS_LEAVES = {
    "000": F(1, 8),
    "001": F(3, 8),
    "010": F(3, 4),
    "011": F(3, 4),
    "100": F(5, 2),
    "101": F(5, 2),
    "110": F(0),
    "111": F(1),
}


def savings_instance() -> TableMartingale:
    return table_from_leaves(SAVINGS_LEAVES)


def test_identity_slope_martingale_is_constant_one():
    m = slope_martingale(interpolated(lambda x: x, 6), 6)
    for tau in ("", "0", "01", "110", "0101"):
        assert m(tau) == 1
    assert not fairness_violations(m, 4)


def test_square_slope_martingale_closed_form():
    m = slope_martingale(interpolated(lambda x: x * x, 6), 6)
    # slope over Cyl tau is (hi^2 - lo^2)/(hi - lo) = lo + hi = 2*0.tau + 2^-|tau|
    assert m("") == 1
    assert m("01") == F(3, 4)
    assert m("111") == 2 * F(7, 8) + F(1, 8)
    assert not fairness_violations(m, 5)
    with pytest.raises(DomainError):
        m("0101010")


def test_slope_martingale_allows_negative_values():
    m = slope_martingale(interpolated(lambda x: x * (1 - x), 5), 5)
    assert m("1") == F(-1, 2)
    assert not fairness_violations(m, 4)
    assert "1" in negativity_witnesses(m, 1)


def test_slope_martingale_accepts_piecewise_linear():
    g = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1), F(1)))
    m = slope_martingale(g, 8)
    assert m("0") == 2
    assert m("1") == 0
    assert m("") == 1


def test_slope_martingale_needs_a_piecewise_linear_on_the_unit_interval():
    with pytest.raises(DomainError, match="covering"):
        slope_martingale(lambda x: x, 4)
    with pytest.raises(DomainError, match="covering"):
        slope_martingale(PiecewiseLinear((F(0), F(1, 2)), (F(0), F(1))), 4)


def test_integration_of_constant_one_is_shifted_identity():
    m = Martingale(per_string(lambda tau: F(1)))
    f = martingale_to_function(m, "01", 4)
    assert f.exact(F(1, 4)) == 0
    assert f.exact(F(3, 8)) == F(1, 8)
    assert f.exact(F(1, 2)) == F(1, 4)


def test_integration_table_example():
    m = table_from_leaves({"0": F(2), "1": F(0)})
    f = martingale_to_function(m, "", 3)
    assert f.exact(F(0)) == 0
    assert f.exact(F(1, 2)) == 1
    assert f.exact(F(1)) == 1
    assert f.exact(F(1, 4)) == F(1, 2)
    assert all(y0 <= y1 for y0, y1 in zip(f.ys, f.ys[1:]))


def test_integration_rejects_negative_values():
    m = slope_martingale(interpolated(lambda x: x * (1 - x), 5), 5)
    with pytest.raises(DomainError):
        martingale_to_function(m, "1", 3)
    with pytest.raises(DomainError):
        martingale_to_function(m, "011", 2)


@st.composite
def fair_tables(draw, depth: int = 3, least: int = 0):
    leaves = {
        s: F(draw(st.integers(min_value=least, max_value=64)), 16)
        for s in all_strings(depth)
    }
    return table_from_leaves(leaves)


@settings(max_examples=40, deadline=None)
@given(fair_tables())
def test_round_trip_is_identity_even_past_table_depth(m):
    f = martingale_to_function(m, "", m.depth)
    back = slope_martingale(f, m.depth + 2)
    for k in range(m.depth + 3):
        for s in all_strings(k):
            assert back(s) == m(s)


def test_combine_scaled_values_and_fairness():
    m = savings_instance()
    n = table_from_leaves({"0": F(1, 2), "1": F(3, 2)})
    c = combine_scaled(m, n, "00", F(2, 5))
    scale = F(1, 4) * F(2, 5)
    for tau in ("", "0", "00", "101", "110"):
        assert c(tau) == m(tau) + scale * n(tau)
    assert not fairness_violations(c, 4)


def test_combine_scaled_preconditions():
    m = savings_instance()
    good = table_from_leaves({"0": F(1), "1": F(1)})
    with pytest.raises(DomainError):
        combine_scaled(m, good, "0", F(0))
    bad_start = table_from_leaves({"0": F(1), "1": F(2)})
    with pytest.raises(DomainError):
        combine_scaled(m, bad_start, "0", F(1, 2))


def test_diagonalize_doubling_on_ones_goes_all_zeros():
    # doubles on 1-bits, wiped out by any 0-bit; fair by construction
    m = Martingale(per_string(lambda tau: F(1 << len(tau)) if tau == "1" * len(tau) else F(0)))
    assert not fairness_violations(m, 4)
    assert diagonalize_against(m, "", F(2), 5) == "00000"


def test_diagonalize_requires_valid_start():
    m = savings_instance()
    with pytest.raises(DomainError):
        diagonalize_against(m, "10", F(2), 4)


@settings(max_examples=40, deadline=None)
@given(fair_tables(), st.integers(min_value=0, max_value=6))
def test_diagonalize_replay(m, extra):
    q = m("") + 1
    tau = diagonalize_against(m, "", q, extra)
    assert len(tau) == extra
    for i in range(len(tau)):
        rho = tau[:i]
        assert m(tau[: i + 1]) == min(m(rho + "0"), m(rho + "1"))
        assert m(tau[: i + 1]) < q


def test_cap_freezes_at_first_exceed_and_stays_fair():
    m = table_from_leaves({"00": F(5), "01": F(2), "10": F(1, 2), "11": F(1, 2)})
    capped = cap_at(m, F(2))  # threshold q+1 = 3; M("0") = 7/2 trips it
    assert m("0") == F(7, 2)
    assert capped("0") == F(7, 2)
    assert capped("00") == F(7, 2) == capped("01")
    assert capped("000") == F(7, 2)
    assert capped("1") == m("1")
    assert capped("10") == m("10")
    assert not fairness_violations(capped, 4)
    # frozen subtree never exceeds the freeze value
    for s in all_strings(3):
        if s.startswith("0"):
            assert capped(s) == capped("0")


def test_savings_extension_frozen_instance():
    m = savings_instance()
    cond = Condition("", m, F(2))
    ext = savings_extension(cond, F(1, 2), 3)
    assert isinstance(ext, SavingsExtension)
    assert ext.tau == "110"
    assert ext.d_hat == 0
    assert ext.reachable_min == 0
    assert ext.r == F(1, 3)
    assert ext.s == F(2, 3)
    assert ext.s - ext.d_hat <= F(1, 2) * (F(2) - ext.d_hat)
    assert ext.condition.sigma == "110"
    assert ext.condition.q == F(1, 3)
    assert condition_extends(ext.condition, cond, 5)


def test_savings_extension_constant_martingale():
    m = Martingale(per_string(lambda tau: F(3, 4)))
    cond = Condition("01", m, F(1))
    ext = savings_extension(cond, F(1, 4), 6)
    assert ext.tau == "01"
    assert ext.d_hat == F(3, 4)
    assert F(3, 4) < ext.r < ext.s
    assert ext.s - ext.d_hat <= F(1, 4) * (F(1) - ext.d_hat)


def test_savings_extension_reports_walled_minimum():
    # the only small values sit behind a q-wall at "1"
    m = table_from_leaves({"00": F(1, 2), "01": F(1, 2), "10": F(0), "11": F(2)})
    cond = Condition("", m, F(1))
    with pytest.raises(BudgetExhausted) as err:
        savings_extension(cond, F(1, 4), 2)
    assert err.value.achieved == F(1, 2)


def test_condition_extends_reflexive_and_claim3():
    m = savings_instance()
    c = Condition("00", m, F(2))
    assert condition_extends(c, c, 6)
    n = table_from_leaves({"0": F(1), "1": F(1)})
    combined = combine_scaled(m, n, "00", F(7, 10))
    c2 = Condition("00", combined, F(2))
    # combined >= m pointwise, so the implication bullet holds
    assert condition_extends(c2, c, 6)


def test_condition_extends_detects_violations():
    m = savings_instance()
    c1 = Condition("", m, F(2))
    # raising q' above q must be flagged
    c_bigger = Condition("0", m, F(3))
    problems = condition_extension_violations(c_bigger, c1, 4)
    assert any("exceeds" in p for p in problems)
    # q' small enough that M' < q' no longer forces M < q: use disjoint scales
    m2 = table_from_leaves({"00": F(5), "01": F(2), "10": F(1, 2), "11": F(1, 2)})
    c_base = Condition("0", m2, F(4))
    c_shrunk = Condition("00", Martingale(per_string(lambda t: F(0))), F(1))
    problems = condition_extension_violations(c_shrunk, c_base, 3)
    assert any("implication fails" in p for p in problems)
    assert not condition_extends(c_shrunk, c_base, 3)


def anti_debt_case1_oracle() -> Martingale:
    # slopes: "00" -> 4, "01" -> 1/2 (the low child), "10" = "11" -> 3
    g = PiecewiseLinear(
        (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
        (F(0), F(1), F(9, 8), F(15, 8), F(21, 8)),
    )
    return slope_martingale(g, 6)


def test_anti_debt_case1_doubles_once():
    sg = anti_debt_case1_oracle()
    m = anti_debt_strategy(sg, "", 1, 2)
    assert m("") == 1
    assert m("0") == 1
    assert m("1") == 1
    assert m("00") == 2
    assert m("01") == 0
    assert m("000") == 2 and m("001") == 2
    assert m("010") == 0
    assert not fairness_violations(m, 4)
    assert not negativity_witnesses(m, 4)


def test_anti_debt_case2_copies_the_slope_martingale():
    sg = with_floor_adapter(slope_martingale(interpolated(lambda x: 3 * x, 8), 8))
    m = anti_debt_strategy(sg, "", 2, 3)
    for k in range(4):
        for s in all_strings(k):
            assert m(s) == sg(s) == 3
    assert m("0000") == sg("000")  # frozen past depth
    assert not fairness_violations(m, 5)


def test_a_floored_approximant_of_one_makes_a_low_child():
    # every cylinder's slope is 3/2: above 1, but its index-0 floor is 1
    sg = slope_martingale(interpolated(lambda x: 3 * x / 2, 4), 4)
    assert anti_debt_strategy(sg, "", 2, 3)("010") == F(3, 2)
    floored = with_floor_adapter(sg)
    assert approximant(floored, "01", 0) == 1
    assert approximant(floored, "01", 3) == floored("01") == F(3, 2)
    # the low child is always "0", so everything rides on "111"
    m = anti_debt_strategy(floored, "", 1, 3)
    assert [m(s) for s in all_strings(3)] == [0] * 7 + [8]


def test_an_adapter_beyond_its_error_bound_is_refused():
    def off_by(units):
        # approximants 1 + units 2^-n of the constant 1
        return lambda base, k, n: (1 << n, [(1 << n) + units] * (1 << k))

    one = per_string(lambda tau: F(1))
    assert approximant(Martingale(one, off_by(1)), "01", 3) == F(9, 8)  # on the bound
    with pytest.raises(DomainError, match=r"2\^-3 error bound at '01'"):
        approximant(Martingale(one, off_by(2)), "01", 3)


def test_anti_debt_mode_mismatch_reported():
    sg = anti_debt_case1_oracle()
    with pytest.raises(DomainError):
        anti_debt_strategy(sg, "", 2, 2)
    with pytest.raises(DomainError):
        anti_debt_strategy(sg, "1", 1, 2)


def test_anti_debt_off_subtree_keeps_global_fairness():
    sg = anti_debt_case1_oracle()
    m = anti_debt_strategy(sg, "0", 1, 3)
    assert m("1") == 1 and m("11") == 1 and m("") == 1
    assert not fairness_violations(m, 4)


def test_table_and_condition_serialization_roundtrip():
    m = savings_instance()
    again = TableMartingale.from_json(m.to_json())
    for k in range(4):
        for s in all_strings(k):
            assert again(s) == m(s)
    c2 = Condition("01", again, F(7, 8))
    assert c2.martingale("010") == m("010")


def test_table_validation_rejects_holes_and_unfairness():
    with pytest.raises(DomainError):
        TableMartingale({"": F(1), "0": F(1)}, 1)
    with pytest.raises(DomainError):
        TableMartingale({"": F(1), "0": F(1), "1": F(2)}, 1)


@pytest.mark.parametrize("stray", ["x", "00", "2", " "])
def test_table_refuses_keys_that_are_not_its_strings(stray):
    table = {"": F(1), "0": F(1, 2), "1": F(3, 2), stray: F(1)}
    with pytest.raises(DomainError, match=f"{stray!r} is not a bit string of length at most 1"):
        TableMartingale(table, 1)


def test_threshold_cylinders_and_claim5_records():
    m = savings_instance()
    assert threshold_cylinders(m, "", F(2), 3) == ("10",)
    records = claim5_density_records(
        m, "", q=F(2), s=F(2, 3), eps=F(1, 2), depth=3
    )
    # every window overlapping D = Cyl "10" has slope >= s, so all checked
    # windows carry zero relative D-measure
    assert len(records) == 6
    assert all(ok for (_, _, _, ok) in records)
    assert all(rel == 0 for (_, rel, _, ok) in records)


def test_forcing_chain_meets_targets_with_verified_extensions():
    m = savings_instance()
    start = Condition("", m, F(2))
    n = table_from_leaves({"0": F(1), "1": F(1)})
    chain = forcing_chain(
        start,
        [("length", 2), ("claim3", n), ("savings", F(1, 2), 3)],
        check_depth=5,
    )
    kinds = [step.kind for step in chain]
    assert kinds == ["length", "claim3", "savings"]
    assert chain[0].condition.sigma == "00"
    assert chain[1].payload["delta"] == F(7, 10)
    assert chain[2].condition.sigma == "000"
    assert chain[2].payload["d_hat"] == F(3, 10)
    assert chain[2].payload["r"] == F(7, 12)
    assert chain[2].payload["s"] == F(13, 15)
    assert all(step.extends_ok for step in chain)


def test_fairness_violation_reporting():
    lumpy = Martingale(per_string(lambda tau: F(len(tau) + 1)))
    assert fairness_violations(lumpy, 2) == ["", "0", "1"]


def test_fairness_flags_unfair_node_with_mixed_signs_and_denominators():
    table = {
        "": F(-1, 3),
        "0": F(1, 5), "1": F(-13, 15),  # fair: 1/5 - 13/15 = -2/3
        "00": F(2, 7), "01": F(3, 35),  # unfair: 2 (1/5) = 14/35, not 13/35
        "10": F(-7, 6), "11": F(-17, 30),  # fair: -35/30 - 17/30 = -26/15
    }
    m = Martingale(per_string(lambda tau: table[tau[:2]]))
    assert fairness_violations(m, 4) == ["0"]
    assert fairness_violations(m, 0) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 9, 16])),
        min_size=15,
        max_size=15,
    )
)
def test_fairness_matches_fraction_identity(values):
    strings = [s for k in range(4) for s in all_strings(k)]
    table = dict(zip(strings, values))
    m = Martingale(per_string(lambda tau: table[tau[:3]]))
    expected = [
        s for s in strings[:7] if 2 * table[s] != table[s + "0"] + table[s + "1"]
    ]
    assert fairness_violations(m, 4) == expected


# Level rows against each construction's definition, string by string.


def per_string_row(m: Martingale, base: str, k: int) -> list[F]:
    return [m.value(base + s) for s in all_strings(k)]


def level_row(m: Martingale, base: str, k: int) -> list[F]:
    den, nums = m.level(base, k)
    assert den > 0
    return [F(v, den) for v in nums]


def outcome(row, m, base, k):
    try:
        return row(m, base, k)
    except DomainError as exc:
        return f"DomainError: {exc}"


def definition_row(definition, base: str, k: int) -> list[F]:
    return [F(definition(base + s)) for s in all_strings(k)]


def prefixes(tau: str) -> list[str]:
    return [tau[:i] for i in range(len(tau) + 1)]


def capped(m: Martingale, q: F):
    """cap_at(m, q) and its definition: M frozen at the first prefix above q + 1."""
    return cap_at(m, q), lambda tau: next((v for v in map(m, prefixes(tau)) if v > q + 1), m(tau))


def slope_definition(g: PiecewiseLinear, depth: int):
    """(g(hi) - g(lo)) 2^|tau| over Cyl tau = [lo, hi], to depth."""

    def value(tau: str) -> F:
        if len(tau) > depth:
            raise DomainError(f"slope oracle only certified to depth {depth}")
        lo, hi = cylinder_bounds(tau)
        return (g.value(hi) - g.value(lo)) * (1 << len(tau))

    return value


def anti_debt_definition(sg: Martingale, sigma: str, mode: int, depth: int):
    """The anti-debt strategies walked down each string.  Case 1 doubles on
    the sibling of a node's low child (its first child whose index-0
    approximant is at most 1) and drops to 0 in it; case 2 copies S_g while
    both children's approximants stay above 1.  Both stop at depth."""

    def low_child(tau: str) -> str | None:
        return next((b for b in "01" if approximant(sg, tau + b, 0) <= 1), None)

    def value(rho: str) -> F:
        val = F(1) if mode == 1 else sg(sigma)
        if not rho.startswith(sigma):
            return val
        for i in range(len(sigma), min(len(rho), depth)):
            tau = rho[:i]
            if mode == 1:
                low = low_child(tau)
                if low == rho[i]:
                    return F(0)
                if low is not None:
                    val *= 2
            elif approximant(sg, tau + "0", 0) > 1 and approximant(sg, tau + "1", 0) > 1:
                val = sg(rho[: i + 1])
            else:
                break
        return val

    return value


@st.composite
def unit_tables(draw, depth: int = 2):
    """Fair tables with starting capital 1, as combine_scaled needs."""
    leaves = [draw(st.integers(1, 64)) for _ in range(1 << depth)]
    mean = F(sum(leaves), len(leaves))
    return table_from_leaves({s: v / mean for s, v in zip(all_strings(depth), leaves)})


@st.composite
def piecewise_on_unit_interval(draw, steep: bool = False):
    """Breakpoints 0, 1 and a few non-dyadic ones; values of either sign,
    or, when steep, rising with every slope at least 3."""
    inner = draw(st.sets(st.builds(F, st.integers(1, 20), st.just(21)), max_size=5))
    xs = [F(0), *sorted(inner), F(1)]
    ys = [draw(st.builds(F, st.integers(-40, 40), st.sampled_from([1, 3, 5, 7])))
          for _ in xs]
    if steep:
        rises = [(b - a) * draw(st.builds(F, st.integers(3, 40), st.sampled_from([1, 3])))
                 for a, b in zip(xs, xs[1:])]
        ys = [ys[0], *(ys[0] + r for r in accumulate(rises))]
    return PiecewiseLinear(xs, ys)


@st.composite
def defined_martingales(draw):
    """A construction and its definition, a function of one string."""
    kind = draw(st.sampled_from(["table", "combine", "cap", "slope", "anti-debt"]))
    if kind == "table":
        m = draw(fair_tables())
        return m, lambda tau: m.table[tau[: m.depth]]
    if kind == "combine":
        sigma = draw(st.text("01", max_size=3))
        delta = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
        m, n = draw(fair_tables()), draw(unit_tables())
        scale = F(1, 1 << len(sigma)) * delta
        return combine_scaled(m, n, sigma, delta), lambda tau: m(tau) + scale * n(tau)
    if kind == "cap":
        m = draw(fair_tables())
        # q + 1 below M("") freezes the root; otherwise nodes freeze deeper
        q = draw(st.one_of(st.just(m("") - 2), st.builds(F, st.integers(-16, 64), st.just(16))))
        return capped(m, q)
    if kind == "slope":
        g, depth = draw(piecewise_on_unit_interval()), draw(st.integers(0, 6))
        return slope_martingale(g, depth), slope_definition(g, depth)
    # steep g has no low child anywhere (case 2); others mostly have one
    sg = slope_martingale(draw(piecewise_on_unit_interval(draw(st.booleans()))), 6)
    if draw(st.booleans()):
        sg = with_floor_adapter(sg)
    sigma = draw(st.text("01", max_size=2))
    depth = draw(st.integers(len(sigma) + 1, 6))
    try:
        m, mode = anti_debt_strategy(sg, sigma, 1, depth), 1
    except DomainError:  # no low child within depth
        m, mode = anti_debt_strategy(sg, sigma, 2, depth), 2
    return m, anti_debt_definition(sg, sigma, mode, depth)


def anti_debt(sg: Martingale, sigma: str, mode: int, depth: int):
    return anti_debt_strategy(sg, sigma, mode, depth), anti_debt_definition(sg, sigma, mode, depth)


# slopes 3 and 6 meet at 1/3, so the cylinders around 1/3 differ at every depth
STEEP = PiecewiseLinear((F(0), F(1, 3), F(1)), (F(0), F(1), F(5)))


@settings(max_examples=200, deadline=None)
@given(defined_martingales(), st.text("01", max_size=4), st.integers(0, 4))
@example(anti_debt(anti_debt_case1_oracle(), "", 1, 3), "1", 2)  # one bit below sigma
@example(anti_debt(anti_debt_case1_oracle(), "01", 1, 3), "", 4)  # sigma inside the row
@example(anti_debt(slope_martingale(STEEP, 6), "0", 2, 3), "", 5)  # frozen past depth
@example(capped(savings_instance(), F(-1)), "", 4)  # frozen at the root
@example(capped(savings_instance(), F(0)), "", 4)  # frozen at "1"
@example(capped(savings_instance(), F(1)), "1", 3)  # frozen at "10"
@example(capped(savings_instance(), F(1)), "100", 2)  # below "10"
def test_level_rows_match_the_per_string_values(defined, base, k):
    m, definition = defined
    assert outcome(level_row, m, base, k) == outcome(definition_row, definition, base, k)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(defined_martingales().map(lambda pair: pair[0]), fair_tables(least=-64)),
    st.text("01", max_size=3),
    st.integers(0, 3),
)
@example(slope_martingale(interpolated(lambda x: x * (1 - x), 5), 5), "1", 3)
def test_negativity_witnesses_match_a_per_string_scan(m, base, depth):
    def scan(m, base, depth):
        return [base + s for k in range(depth + 1) for s in all_strings(k) if m(base + s) < 0]

    def read(m, base, depth):
        return negativity_witnesses(m, depth, base)

    assert outcome(read, m, base, depth) == outcome(scan, m, base, depth)


def test_level_past_the_certified_depth_raises_the_evaluators_error():
    g = PiecewiseLinear((F(0), F(1, 3), F(1)), (F(0), F(-1), F(2)))
    m = slope_martingale(g, 4)
    assert level_row(m, "01", 2) == per_string_row(m, "01", 2)
    with pytest.raises(DomainError) as one:
        m.value("01010")
    with pytest.raises(DomainError) as whole:
        m.level("01", 3)
    assert str(whole.value) == str(one.value) == "slope oracle only certified to depth 4"
    with pytest.raises(DomainError, match="certified to depth 4"):
        fairness_violations(m, 5)


def reference_fairness(m: Martingale, depth: int) -> list[str]:
    """Fairness checked string by string on Fractions."""
    return [
        s
        for k in range(depth)
        for s in all_strings(k)
        if 2 * m(s) != m(s + "0") + m(s + "1")
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 9, 16])),
        min_size=15,
        max_size=15,
    ),
    unit_tables(),
    st.builds(F, st.integers(-8, 40), st.just(8)),
)
def test_fairness_of_unfair_constructions_matches_per_string_reference(values, n, q):
    strings = [s for k in range(4) for s in all_strings(k)]
    table = dict(zip(strings, values))
    unfair = Martingale(per_string(lambda tau: table[tau[:3]]))
    for m in (unfair, combine_scaled(unfair, n, "0", F(1, 3)), cap_at(unfair, q)):
        assert fairness_violations(m, 5) == reference_fairness(m, 5)


def test_round_trip_count_sees_a_perturbed_integral(monkeypatch):
    m = savings_instance()
    assert suite._roundtrip_mismatches(m, 6) == 0
    integrate = suite.martingale_to_function

    def bumped(m, tau0, depth):
        g = integrate(m, tau0, depth)
        ys = list(g.ys)
        ys[4] += F(1, 1 << 20)  # g(4/64) moves: two slopes each at depths 6, 5 and 4
        return PiecewiseLinear(g.xs, ys)

    monkeypatch.setattr(suite, "martingale_to_function", bumped)
    assert suite._roundtrip_mismatches(m, 6) == 6


# The forcing certificate and the savings search against the string-by-string
# Fraction scans they replace.


def reference_extension_violations(c2: Condition, c1: Condition, depth: int) -> list[str]:
    problems = []
    if not c2.sigma.startswith(c1.sigma):
        return [f"{c2.sigma!r} does not extend {c1.sigma!r}"]
    if c2.q > c1.q:
        problems.append(f"q' = {c2.q} exceeds q = {c1.q}")
    for i in range(len(c1.sigma), len(c2.sigma) + 1):
        rho = c2.sigma[:i]
        if c1.martingale.value(rho) >= c1.q:
            problems.append(f"base martingale reaches q on the chain at {rho!r}")
    for k in range(depth - len(c2.sigma) + 1):
        for s in all_strings(k):
            tau = c2.sigma + s
            if c2.martingale.value(tau) < c2.q and c1.martingale.value(tau) >= c1.q:
                problems.append(f"implication fails at {tau!r}")
                return problems
    return problems


def reference_savings(cond: Condition, eps: F, search_depth: int) -> SavingsExtension:
    m, q, sigma = cond.martingale, cond.q, cond.sigma
    values = [m.value(sigma + s) for k in range(search_depth - len(sigma) + 1)
              for s in all_strings(k)]
    d_hat = min(values)
    reach_min = best_tau = None
    frontier = [sigma] if m.value(sigma) < q else []
    while frontier:
        nxt = []
        for tau in frontier:
            v = m.value(tau)
            if reach_min is None or v < reach_min:
                reach_min, best_tau = v, tau
            if len(tau) < search_depth:
                nxt.extend(tau + b for b in "01" if m.value(tau + b) < q)
        frontier = nxt
    if reach_min is None:
        raise BudgetExhausted(f"no extension of {sigma!r} stays below q = {q}", achieved=None)
    cap = d_hat + eps * (q - d_hat)
    if reach_min >= cap:
        raise BudgetExhausted(
            f"no qualifying tau within depth {search_depth}: reachable minimum "
            f"{reach_min} is not below d_hat + eps (q - d_hat) = {cap}",
            achieved=reach_min,
        )
    gap = cap - reach_min
    r, s = reach_min + gap / 3, reach_min + 2 * gap / 3
    return SavingsExtension(best_tau, r, s, d_hat, reach_min, search_depth,
                            Condition(best_tau, m, r))


def savings_outcome(search, cond, eps, search_depth):
    try:
        ext = search(cond, eps, search_depth)
    except BudgetExhausted as exc:
        return ("BudgetExhausted", str(exc), exc.achieved)
    assert ext.condition.martingale is cond.martingale
    return (ext.tau, ext.r, ext.s, ext.d_hat, ext.reachable_min, ext.search_depth,
            ext.condition.sigma, ext.condition.q)


@st.composite
def forcing_martingales(draw):
    """The constructions battery 7 chains: fair tables, capital injection, caps."""
    kind = draw(st.sampled_from(["table", "combine", "cap"]))
    m = draw(fair_tables())
    if kind == "combine":
        delta = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
        return combine_scaled(m, draw(unit_tables()), draw(st.text("01", max_size=3)), delta)
    if kind == "cap":
        return cap_at(m, draw(st.builds(F, st.integers(0, 64), st.just(16))))
    return m


@st.composite
def conditions(draw, m, sigma):
    """A valid condition <sigma, m, q>: q above M(sigma), often a value M
    takes a few levels further down, so that M(tau) = q ties occur."""
    v = m(sigma)
    higher = sorted({m(sigma + s) for k in range(1, 4) for s in all_strings(k)} - {v})
    higher = [w for w in higher if w > v]
    if higher and draw(st.booleans()):
        return Condition(sigma, m, draw(st.sampled_from(higher)))
    return Condition(sigma, m, v + draw(st.builds(F, st.integers(1, 48), st.just(16))))


@st.composite
def condition_pairs(draw):
    sigma1 = draw(st.text("01", max_size=2))
    m1 = draw(forcing_martingales())
    c1 = draw(conditions(m1, sigma1))
    if draw(st.booleans()):
        sigma2 = sigma1 + draw(st.text("01", max_size=3))
    else:
        sigma2 = draw(st.text("01", max_size=4))  # often not an extension
    kind = draw(st.sampled_from(["same", "combine", "cap", "other"]))
    if kind == "combine":
        m2 = combine_scaled(m1, draw(unit_tables()), sigma2,
                            draw(st.builds(F, st.integers(1, 9), st.integers(1, 9))))
    elif kind == "cap":
        m2 = cap_at(m1, draw(st.builds(F, st.integers(0, 64), st.just(16))))
    elif kind == "same":
        m2 = m1
    else:  # an unrelated martingale, where the implication often fails
        m2 = draw(forcing_martingales())
    return draw(conditions(m2, sigma2)), c1


@settings(max_examples=200, deadline=None)
@given(condition_pairs(), st.integers(0, 8))
def test_extension_violations_match_the_per_string_reference(pair, depth):
    c2, c1 = pair
    got = condition_extension_violations(c2, c1, depth)
    assert got == reference_extension_violations(c2, c1, depth)


def test_extension_violations_name_the_first_failing_string():
    m = savings_instance()
    c1 = Condition("", m, F(2))
    # M2 < 3 everywhere below "1", M1 first reaches 2 at "10"
    c2 = Condition("1", Martingale(per_string(lambda tau: F(1))), F(3))
    expected = ["q' = 3 exceeds q = 2", "implication fails at '10'"]
    assert condition_extension_violations(c2, c1, 4) == expected
    assert reference_extension_violations(c2, c1, 4) == expected
    # depth below |sigma2|: no level is read
    assert condition_extension_violations(c2, c1, 0) == expected[:1]


@st.composite
def walled_tables(draw):
    """Depth-3 fair tables whose one zero leaf lies below "1", a child worth
    at least 3/2, while every leaf below "0" is at least 1/2: with q between
    M("") and M("1") the least value hides behind a q-wall."""
    left = [F(draw(st.integers(8, 16)), 16) for _ in range(4)]
    right = draw(st.permutations([F(0), *(F(draw(st.integers(2, 4))) for _ in range(3))]))
    return table_from_leaves(dict(zip(all_strings(3), left + right)))


@settings(max_examples=250, deadline=None)
@given(
    st.one_of(st.tuples(forcing_martingales(), st.text("01", max_size=3)),
              st.tuples(walled_tables(), st.just(""))),
    st.builds(F, st.integers(1, 16), st.just(16)),
    st.builds(F, st.integers(1, 15), st.just(16)),
    st.integers(0, 5),
)
@example((savings_instance(), ""), F(1, 2), F(1, 2), 3)
@example((table_from_leaves({"00": F(1, 2), "01": F(1, 2), "10": F(0), "11": F(2)}), ""),
         F(1), F(1, 4), 2)  # the walled minimum
def test_savings_matches_the_per_string_reference(start, frac, eps, extra):
    m, sigma = start
    # q at a fraction of the way from M(sigma) to its higher child walls
    # that child off whenever the two differ
    v, hi = m(sigma), max(m(sigma + "0"), m(sigma + "1"))
    cond = Condition(sigma, m, v + (hi - v) * frac if hi > v else v + frac)
    depth = len(sigma) + extra
    got = savings_outcome(savings_extension, cond, eps, depth)
    assert got == savings_outcome(reference_savings, cond, eps, depth)


def test_savings_reports_a_start_at_q_like_the_reference():
    # only a condition whose q was lowered after validation starts at q
    m = savings_instance()
    cond = Condition("0", m, F(2))
    object.__setattr__(cond, "q", m("0"))
    got = savings_outcome(savings_extension, cond, F(1, 2), 3)
    assert got == savings_outcome(reference_savings, cond, F(1, 2), 3)
    assert got == ("BudgetExhausted", f"no extension of '0' stays below q = {m('0')}", None)

