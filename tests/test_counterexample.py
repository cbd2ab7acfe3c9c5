"""Spike-plan construction and Denjoy-failure verification.

Expected traces, exponents, and certificate slopes are frozen from
independent oracles: a raw-tuple interval merge for the alpha trace and a
brute-force dyadic scan for the height rule.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.calculus import pseudo_derivative_estimate
from densitylab.counterexample import (
    AlphaTrace,
    SpikePlan,
    SpikeStage,
    build_counterexample,
    default_enumeration,
    largest_dyadic_multiple,
    smallest_dyadic_exponent,
    verify_denjoy_failure,
)
from densitylab.errors import DomainError, EnumerationOverlapError
from densitylab.intervals import interval
from densitylab.report import Report, to_json_bytes
from densitylab.roottwo import QuadValue, half_power, sqrt2_power
from densitylab.suite import denjoy_check_rows


def naive_alpha(pairs) -> F:
    """Independent leftmost-uncovered oracle over raw (lo, hi) tuples."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    if not merged or merged[0][0] > 0:
        return F(0)
    return merged[0][1]


def naive_minexp(lo: F, hi: F):
    """Independent smallest-scale oracle: scan positive multiples k/2^n."""
    n = 0
    while True:
        k = 1
        while F(k, 1 << n) <= hi:
            if F(k, 1 << n) >= lo:
                return n, F(k, 1 << n)
            k += 1
        n += 1


def stages(pairs):
    """The stage intervals of (lo, hi) pairs."""
    return [interval(lo, hi) for lo, hi in pairs]


DELTA = F(1, 1024)
E246 = [
    (F(0), F(1, 4) + DELTA),
    (F(1, 4) + DELTA, F(5, 16) + DELTA),
    (F(5, 16) + DELTA, F(21, 64) + DELTA),
    (F(21, 64) + DELTA, F(21, 64) + 2 * DELTA),
]


def test_height_rule_on_spec_single_interval():
    plan, trace = build_counterexample([interval(0, F(1, 2))])
    assert trace.alphas == (F(0), F(1, 2))
    (stage,) = plan.stages
    assert stage.kind == "spike"
    assert stage.height_exponent == 1  # smallest positive multiple is 1/2 itself
    assert stage.anchor == F(1, 2)
    assert stage.source == interval(0, F(1, 2))
    assert naive_minexp(F(0), F(1, 2)) == (1, F(1, 2))
    assert plan.exact(F(1, 4)) == half_power(1)  # midpoint carries the full height
    assert plan.exact(F(0)) == 0 and plan.exact(F(1, 2)) == 0


def test_flat_stage_keeps_alpha_and_zero_values():
    plan, trace = build_counterexample([interval(F(1, 4), F(1, 2))])
    assert trace.alphas == (F(0), F(0))
    assert plan.stages[0].kind == "flat"
    for q in (F(1, 4), F(3, 8), F(1, 2), F(7, 8)):
        assert plan.exact(q) == 0


def test_smallest_dyadic_exponent_excludes_zero_multiple():
    # [0, 1/2]: 0 is not a qualifying multiple, so n = 1 via 1/2, not n = 0
    assert smallest_dyadic_exponent(F(0), F(1, 2)) == (1, F(1, 2))
    assert smallest_dyadic_exponent(F(0), F(1)) == (0, F(1))
    assert smallest_dyadic_exponent(F(1, 3), F(2, 3)) == (1, F(1, 2))
    assert smallest_dyadic_exponent(F(5, 16), F(5, 16)) == (4, F(5, 16))


@given(
    lo=st.fractions(min_value=0, max_value=1, max_denominator=64),
    width=st.fractions(min_value=F(1, 512), max_value=F(1, 2), max_denominator=512),
)
@settings(max_examples=60, deadline=None)
def test_smallest_dyadic_exponent_matches_naive(lo, width):
    hi = min(lo + width, F(1))
    if hi <= lo:
        return  # lo = 1 leaves no room; the unit test covers degenerate dyadics
    assert smallest_dyadic_exponent(lo, hi) == naive_minexp(lo, hi)


def test_largest_dyadic_multiple():
    assert largest_dyadic_multiple(F(0), F(9, 16), 1) == F(1, 2)
    assert largest_dyadic_multiple(F(1, 3), F(2, 5), 3) == F(3, 8)
    assert largest_dyadic_multiple(F(1, 5), F(1, 4), 1) is None


def test_e246_exponents_and_trace():
    plan, trace = build_counterexample(stages(E246))
    assert [s.kind for s in plan.stages] == ["spike"] * 4
    assert [s.height_exponent for s in plan.stages] == [2, 2, 4, 6]
    assert trace.alphas == (
        F(0), F(257, 1024), F(321, 1024), F(337, 1024), F(169, 512),
    )
    # cross-module trace check against the independent merge oracle
    for s in range(len(E246) + 1):
        assert trace.alphas[s] == naive_alpha(E246[:s])


def test_e246_certificates_frozen():
    plan, trace = build_counterexample(stages(E246))
    report = verify_denjoy_failure(plan, trace, k_max=6)
    assert report.unrealized == (1, 3, 5)
    by_k = {c.k: c for c in report.certificates}
    assert set(by_k) == {2, 4, 6}
    assert all(c.holds for c in report.certificates)
    assert by_k[2].slope == F(-64, 17) and by_k[2].slope <= -2
    assert by_k[4].slope == F(-8) and by_k[4].slope <= -4
    assert by_k[6].slope == F(-256, 15) and by_k[6].slope <= -8
    assert by_k[4].x_k == F(329, 1024) and by_k[4].q == F(361, 1024)
    assert by_k[4].b_k == F(5, 16)
    assert all(row.ok for row in denjoy_check_rows(report))


def test_flat_only_report_states_zero_estimates():
    plan, trace = build_counterexample([interval(F(1, 4), F(1, 2))])
    report = verify_denjoy_failure(plan, trace, k_max=3)
    assert report.certificates == ()
    assert report.unrealized == (1, 2, 3)
    assert report.upper_estimate == 0
    assert report.lower_estimate == 0
    assert report.straddle_ok
    assert all(w.slope_is_zero for w in report.zero_witnesses)


def test_overlap_reject_raises():
    with pytest.raises(EnumerationOverlapError):
        build_counterexample([interval(0, F(1, 2)), interval(F(1, 4), F(3, 4))])


def test_overlap_split_clips_to_uncovered():
    plan, trace = build_counterexample(
        [interval(0, F(1, 2)), interval(F(1, 4), F(3, 4))], overlap_policy="split"
    )
    assert [ (s.interval.lo, s.interval.hi) for s in plan.stages ] == [
        (F(0), F(1, 2)), (F(1, 2), F(3, 4)),
    ]
    assert trace.final == F(3, 4)
    # a fully covered interval vanishes instead of becoming a stage
    plan2, _ = build_counterexample(
        [interval(0, F(1, 2)), interval(F(1, 8), F(1, 4))], overlap_policy="split"
    )
    assert len(plan2.stages) == 1


def test_touching_endpoints_are_not_overlap():
    plan, trace = build_counterexample([interval(0, F(1, 4)), interval(F(1, 4), F(1, 2))])
    assert len(plan.stages) == 2
    assert trace.final == F(1, 2)


def test_default_enumeration_shape_and_heights():
    enum = default_enumeration()
    assert len(enum) == 18
    assert enum[0].lo == 0
    for a, b in zip(enum, enum[1:]):
        assert a.hi == b.lo
    plan, trace = build_counterexample(enum)
    assert all(s.kind == "spike" for s in plan.stages)
    assert [s.height_exponent for s in plan.stages] == [1] + list(range(1, 17)) + [17]
    assert trace.final == F((1 << 18) - 1, 1 << 18)
    for s in range(len(enum) + 1):
        pairs = [(iv.lo, iv.hi) for iv in enum[:s]]
        assert trace.alphas[s] == naive_alpha(pairs)


def test_default_enumeration_certificates_all_even_k():
    plan, trace = build_counterexample(default_enumeration())
    report = verify_denjoy_failure(plan, trace, k_max=16)
    assert report.unrealized == ()
    assert len(report.certificates) == 16
    assert all(c.holds for c in report.certificates)
    by_k = {c.k: c for c in report.certificates}
    for k in range(2, 17, 2):
        assert by_k[k].slope <= -sqrt2_power(k)
    # frozen spot checks
    assert by_k[16].x_k == F((1 << 21) - 21, 1 << 21)
    assert by_k[16].q == F((1 << 19) - 1, 1 << 19)
    assert by_k[16].slope == F(-8192, 17)
    assert by_k[2].x_k == F(107, 128)
    assert by_k[2].slope == F(-262144, 86015)
    assert by_k[1].slope == QuadValue(0, F(-262144, 172031))
    assert all(row.ok for row in denjoy_check_rows(report))
    assert report.straddle_max == 0 and report.straddle_ok
    assert all(w.slope_is_zero for w in report.zero_witnesses)
    assert len(report.zero_witnesses) == 16


def test_default_report_makes_no_limit_claim():
    plan, trace = build_counterexample(default_enumeration())
    report = verify_denjoy_failure(plan, trace, k_max=4)
    dump = to_json_bytes(Report("counterexample", 1, denjoy_check_rows(report))).decode()
    assert "infinity" not in dump and "-inf" not in dump.lower()
    assert "no claim about the limit" in report.limit_claim


def test_tail_bounds_hold_on_default_plan():
    plan, trace = build_counterexample(default_enumeration())
    report = verify_denjoy_failure(plan, trace, k_max=4)
    assert report.groups[0] == (1, 2)  # exponent 1 realized twice
    assert all(t.holds for t in report.tail_bounds)
    assert len(report.tail_bounds) == len(report.groups) + 1
    # first tail bound is the full M-test series bound 1 + sqrt(2)
    assert report.tail_bounds[0].series_bound == QuadValue(F(1), F(1))


def test_spike_slopes_and_lipschitz():
    plan, _ = build_counterexample(stages(E246))
    for s in plan.spike_stages:
        iv = s.interval
        mid = (iv.lo + iv.hi) / 2
        v = s.height
        left_slope = (plan.exact(mid) - plan.exact(iv.lo)) / (mid - iv.lo)
        assert left_slope == 2 * (QuadValue(F(0), F(0)) + v) / iv.length


def test_calculus_estimate_sees_the_blowup():
    plan, trace = build_counterexample(default_enumeration())
    est = pseudo_derivative_estimate(
        plan, trace.final, F(1, 4), grid_depth=7, side="lower"
    )
    assert est.value <= -2  # -2^(k/2) at k = 2


@st.composite
def touching_chains(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cuts = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=n + 1, max_size=n + 1, unique=True,
        )
    )
    cuts.sort()
    start = draw(st.integers(min_value=0, max_value=1))
    if start:
        cuts[0] = F(0)
    return [(a, b) for a, b in zip(cuts, cuts[1:])]


@given(touching_chains())
@settings(max_examples=60, deadline=None)
def test_trace_matches_naive_oracle(pairs):
    plan, trace = build_counterexample(stages(pairs))
    for s in range(len(pairs) + 1):
        assert trace.alphas[s] == naive_alpha(pairs[:s])
    for st_, a, b in zip(plan.stages, trace.alphas, trace.alphas[1:]):
        assert (st_.kind == "spike") == (b > a)


@given(touching_chains())
@settings(max_examples=40, deadline=None)
def test_spike_geometry_properties(pairs):
    plan, trace = build_counterexample(stages(pairs))
    for s in plan.stages:
        iv = s.interval
        assert plan.exact(iv.lo) >= 0
        if s.kind == "spike":
            assert plan.exact((iv.lo + iv.hi) / 2) == s.height
            assert plan.exact(iv.lo) == 0
            assert plan.exact(iv.hi) == 0


def test_alpha_trace_rejects_decrease():
    with pytest.raises(DomainError):
        AlphaTrace((F(0), F(1, 2), F(1, 4)))


def test_bad_overlap_policy():
    with pytest.raises(DomainError):
        build_counterexample([interval(0, F(1, 2))], overlap_policy="ignore")


def scanned_value(plan, q):
    """The reference for SpikePlan.exact: a scan of every stage in stage
    order, the first spike whose interval holds q answering."""
    for s in plan.stages:
        iv = s.interval
        if iv.lo <= q <= iv.hi and s.kind == "spike" and not iv.is_degenerate:
            mid = (iv.lo + iv.hi) / 2
            if q <= mid:
                return s.height * ((q - iv.lo) / (mid - iv.lo))
            return s.height * ((iv.hi - q) / (iv.hi - mid))
    return F(0)


def assert_exact_matches_the_scan(plan):
    # each stage's ends, midpoint and quarter points, and points just beside
    # its ends; two stages may share an end
    points = {F(0), F(1)}
    for s in plan.stages:
        lo, hi = s.interval.lo, s.interval.hi
        points.update((lo, hi, (lo + hi) / 2, (3 * lo + hi) / 4, (lo + 3 * hi) / 4,
                       lo - F(1, 1 << 20), hi + F(1, 1 << 20)))
    for q in sorted(points):
        got, want = plan.exact(q), scanned_value(plan, q)
        assert got == want and type(got) is type(want), q


def test_exact_matches_the_stage_scan_on_default_prefixes():
    items = default_enumeration()
    for k in range(len(items) + 1):
        assert_exact_matches_the_scan(build_counterexample(items[:k])[0])


@given(touching_chains().flatmap(st.permutations))
@settings(max_examples=60, deadline=None)
def test_exact_matches_the_stage_scan_on_touching_chains(pairs):
    # in any stage order, so that a later stage may lie left of an earlier one
    assert_exact_matches_the_scan(build_counterexample(stages(pairs))[0])


@given(st.lists(st.tuples(st.fractions(0, 1, max_denominator=32),
                          st.fractions(0, 1, max_denominator=32)).map(sorted),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_exact_matches_the_stage_scan_on_split_plans(pairs):
    # overlapping intervals, clipped into stages that share at most their ends
    assert_exact_matches_the_scan(build_counterexample(stages(pairs), overlap_policy="split")[0])


def test_hand_built_spike_plans():
    def spike(lo, hi, k):
        return SpikeStage(interval(lo, hi), "spike", k, interval(0, hi), F(1, 2))

    # a later stage left of an earlier one, with heights of different types:
    # on their shared end the earlier stage answers, as in the scan
    assert_exact_matches_the_scan(SpikePlan((spike(F(1, 2), F(3, 4), 1),
                                             spike(F(0), F(1, 2), 2))))
    with pytest.raises(DomainError):
        SpikePlan((spike(F(0), F(1, 2), 1), spike(F(1, 4), F(3, 4), 1)))
