from fractions import Fraction as F

from densitylab.counterexample import (
    build_counterexample,
    default_enumeration,
    verify_denjoy_failure,
)
from densitylab.report import Check, check_rows
from densitylab.suite import CRITERIA, CriterionOutcome, denjoy_check_rows, run_criterion


def test_criteria_table_covers_all_ten():
    assert [num for num, _, _ in CRITERIA] == list(range(1, 11))
    titles = [title for _, title, _ in CRITERIA]
    assert len(set(titles)) == 10


def test_outcome_accumulates_tuples_and_checks():
    out = CriterionOutcome(1, "demo")
    out.checks.extend(check_rows([("a <= b", F(1), F(2), True)]))
    out.checks.extend(
        check_rows([Check("c <= d", F(3), F(2), False, note="tight")], prefix="inner")
    )
    assert not out.passed
    assert out.checks[1] == Check("inner: c <= d", F(3), F(2), False, note="tight")
    assert [c.name for c in out.violations()] == ["inner: c <= d"]
    assert out.checks[0].name == "a <= b"


def test_denjoy_rows_split_irrational_thresholds():
    plan, trace = build_counterexample(default_enumeration())
    rows = denjoy_check_rows(verify_denjoy_failure(plan, trace, 9))
    names = [r.name for r in rows]
    assert any("sqrt2 coefficient" in n for n in names)
    assert any("squared comparison" in n for n in names)
    assert any("lower estimate" in n for n in names)
    limit = next(r for r in rows if "limit" in r.name)
    assert limit.ok and "no claim" in limit.note
    assert all(isinstance(r, Check) for r in rows)


def test_run_criterion_times_and_labels_the_battery():
    out = run_criterion(10)
    assert out.number == 10
    assert out.title == "calculus sanity"
    assert out.passed
    assert out.seconds >= 0
