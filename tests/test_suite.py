import json
import os
import time
from fractions import Fraction as F

import pytest

from densitylab import counterexample, suite
from densitylab.cli import main
from densitylab.counterexample import (
    build_counterexample,
    default_enumeration,
    verify_denjoy_failure,
)
from densitylab.errors import (
    BudgetExhausted,
    DomainError,
    InvariantError,
    VerifierError,
)
from densitylab.report import Check, Report
from densitylab.suite import CRITERIA, run_all, run_criterion


def assert_no_child_process():
    # waitpid(-1) raises only when this process has no child, running or
    # exited and not yet reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fields(reports: list[Report]) -> list[tuple]:
    """Every field of each report, which two runs must agree on."""
    return [tuple(getattr(r, name) for name in Report.__slots__) for r in reports]


def test_criteria_table_covers_all_ten():
    assert [num for num, _, _ in CRITERIA] == list(range(1, 11))
    titles = [title for _, title, _ in CRITERIA]
    assert len(set(titles)) == 10


def test_outcome_accumulates_prefixed_checks():
    # a report headed "[1]" lays rows out under "[1]" or "[1]: prefix", as
    # one without a head does when given those prefixes
    a, c = Check("a <= b", F(1), F(2), True), Check("c <= d", F(3), F(2), False, note="tight")
    for as_csv in (True, False):
        out, rep = Report("demo", 1, as_csv, "[1]"), Report("demo", 1, as_csv)
        out.add([a])
        out.add([c], prefix="inner")
        rep.add([a], "[1]")
        rep.add([c], "[1]: inner")
        assert (out.rows, out.failed, out.budget_exhausted) == (rep.rows, 1, [])
    assert [(r["name"], r["ok"], r["note"]) for r in map(json.loads, out.rows)] == [
        ("[1]: a <= b", True, ""), ("[1]: inner: c <= d", False, "tight")]


def test_denjoy_rows_split_irrational_thresholds():
    plan, trace = build_counterexample(default_enumeration())
    rows = verify_denjoy_failure(plan, trace, 9).rows
    names = [r.name for r in rows]
    assert any("sqrt2 coefficient" in n for n in names)
    assert any("squared comparison" in n for n in names)
    assert any("lower estimate" in n for n in names)
    limit = next(r for r in rows if "limit" in r.name)
    assert limit.ok and "no claim" in limit.note
    assert all(isinstance(r, Check) for r in rows)


def test_run_criterion_labels_the_battery():
    out = run_criterion(10)
    assert (out.head, out.command, out.as_csv) == ("[10]", "calculus sanity", False)
    assert out.rows and out.failed == 0 and out.budget_exhausted == []
    assert all(json.loads(row)["name"].startswith("[10]: ") for row in out.rows)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_childrens_outcomes_equal_the_serial_ones(seed):
    # the children's records, in JSON and in CSV, against each battery's
    # record from this process
    for as_csv in (False, True):
        want = [run_criterion(num, seed, as_csv) for num, _t, _f in CRITERIA]
        assert fields(run_all(seed, as_csv)) == fields(want)
        assert_no_child_process()


def _raising(message, delay=0.0, kind=DomainError):
    def battery(seed, out):
        time.sleep(delay)
        raise kind(message)
    return battery


def _with_batteries(monkeypatch, replacements):
    # the children are forked, so they see the patched table
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        (num, title, replacements.get(num, fn)) for num, title, fn in CRITERIA
    ))


def _verify_all_rows(capfd, number):
    """verify-all's exit status, its JSON report and the report's rows of
    battery number; stderr must stay empty."""
    code = main(["verify-all", "--json", "--seed", "1"])
    out, err = capfd.readouterr()
    assert err == ""
    report = json.loads(out)
    return code, report, [row for row in report["checks"]
                          if row["name"].startswith(f"[{number}]:")]


def _aborted_row(number, message):
    return {"name": f"[{number}]: battery aborted: {message}",
            "lhs": "0/1", "rhs": "1/1", "ok": False, "note": ""}


def _failed_criteria(report):
    return [c["number"] for c in report["meta"]["criteria"] if not c["passed"]]


@pytest.mark.parametrize("kind", [DomainError, TypeError, InvariantError])
def test_a_raising_battery_is_a_failed_row(monkeypatch, capfd, kind):
    # a battery reads no user input, so what it raises is a bug: exit 1, not 2
    batteries = {num: lambda seed, out: None for num, _t, _f in CRITERIA}
    _with_batteries(monkeypatch, {**batteries, 4: _raising("battery 4 broke", kind=kind)})
    code, report, rows = _verify_all_rows(capfd, 4)
    assert code == 1
    assert rows == [_aborted_row(4, "battery 4 broke")]
    assert report["all_hold"] is False
    assert report["budget_exhausted"] == []
    assert _failed_criteria(report) == [4]
    assert_no_child_process()


def test_each_raising_battery_is_its_own_failed_row(monkeypatch, capfd):
    # with two children or more, battery 2 raises while battery 1 still sleeps
    batteries = {num: lambda seed, out: None for num, _t, _f in CRITERIA}
    _with_batteries(monkeypatch, {
        **batteries,
        1: _raising("battery 1 broke", delay=0.5),
        2: _raising("battery 2 broke"),
    })
    code, report, rows = _verify_all_rows(capfd, 1)
    assert code == 1
    assert rows == [_aborted_row(1, "battery 1 broke")]
    assert [row for row in report["checks"] if row["name"].startswith("[2]:")] == [
        _aborted_row(2, "battery 2 broke")]
    assert _failed_criteria(report) == [1, 2]
    assert_no_child_process()


def test_a_worker_that_dies_leaves_failed_rows(monkeypatch, capfd):
    # the child that died loses every battery it took, 6 among them; which
    # others it took depends on the CPU count, and each is a failed row
    _with_batteries(monkeypatch, {6: lambda seed, out: os._exit(3)})
    code, report, rows = _verify_all_rows(capfd, 6)
    assert code == 1
    assert rows == [_aborted_row(6, "its child process ended without a result")]
    assert 6 in _failed_criteria(report)
    assert len(report["meta"]["criteria"]) == 10
    assert_no_child_process()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_row_no_report_can_hold_fails_only_its_battery(monkeypatch, capfd, cpus):
    # a float side cannot be laid out; the battery with it is one failed row,
    # without the rows it added before, and the other batteries its child
    # took keep their rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def holding(num):
        return lambda seed, out: out.add([Check(f"battery {num} holds", F(num), F(num), True)])

    def floating(seed, out):
        out.add([Check("battery 5 holds so far", F(5), F(5), True)])
        out.add([Check("a float side", 0.5, 1, True)])

    batteries = {num: holding(num) for num, _t, _f in CRITERIA}
    _with_batteries(monkeypatch, {**batteries, 5: floating})
    code, report, rows = _verify_all_rows(capfd, 5)
    assert code == 1
    assert rows == [_aborted_row(5, "cannot serialize report value 0.5")]
    assert _failed_criteria(report) == [5]
    assert [row["name"] for row in report["checks"] if row["name"].startswith("[")] == [
        f"[{num}]: battery {num} holds" if num != 5 else rows[0]["name"]
        for num, _t, _f in CRITERIA]
    assert_no_child_process()


def test_a_record_larger_than_a_pipe_waits_for_the_parent(monkeypatch):
    # battery 2's child fills its pipe while the parent may still be reading
    # the pipe of battery 1's sleeping child; every record still arrives
    def sleeping(seed, out):
        time.sleep(0.3)

    def many_rows(seed, out):
        out.add([Check(f"row {i} of many", F(i), F(i), True) for i in range(5000)])

    batteries = {num: lambda seed, out: None for num, _t, _f in CRITERIA}
    _with_batteries(monkeypatch, {**batteries, 1: sleeping, 2: many_rows})
    want = [run_criterion(num) for num, _t, _f in CRITERIA]
    assert sum(len(row) for row in want[1].rows) > 1 << 16
    assert fields(run_all()) == fields(want)
    assert_no_child_process()


def test_without_an_affinity_mask_the_children_are_counted_from_the_cpu_count(monkeypatch):
    asked = []
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: asked.append(1) or 1)
    _with_batteries(monkeypatch, {num: lambda seed, out: None for num, _t, _f in CRITERIA})
    assert [(o.head, o.command) for o in run_all()] == [
        (f"[{num}]", title) for num, title, _f in CRITERIA]
    assert asked == [1]
    assert_no_child_process()


def test_a_broken_invariant_is_a_failed_row_not_a_crash(monkeypatch, capfd):
    def broken(*args):
        raise InvariantError("B_(0,0) is not an antichain")

    # the children are forked, so they see the patched module attribute
    monkeypatch.setattr(suite, "porosity_test", broken)
    code, report, rows = _verify_all_rows(capfd, 3)
    assert code == 1
    assert report["all_hold"] is False
    assert rows == [_aborted_row(3, "B_(0,0) is not an antichain")]
    # a bug is no exhausted search budget
    assert report["budget_exhausted"] == []
    assert _failed_criteria(report) == [3]
    assert_no_child_process()


def test_a_spike_without_a_dyadic_anchor_breaks_battery_8(monkeypatch):
    # the exponent rule chose each spike's k for a multiple of 2^-k in its
    # source, so a certificate without one is a bug: a failed row, no guess
    monkeypatch.setattr(counterexample, "largest_dyadic_multiple", lambda lo, hi, n: None)
    out = run_criterion(8)
    assert [json.loads(row) for row in out.rows] == [_aborted_row(
        8, "no positive multiple of 2^-1 in the source of spike k = 1")]
    assert out.failed == 1
    assert out.budget_exhausted == []


def test_an_exhausted_budget_is_a_failed_row_and_listed_as_exhausted(monkeypatch, capfd):
    def exhausted(seed, out):
        raise BudgetExhausted("no qualifying tau within depth 12", achieved=F(1, 2))

    batteries = {num: lambda seed, out: None for num, _t, _f in CRITERIA}
    _with_batteries(monkeypatch, {**batteries, 7: exhausted})
    code, report, rows = _verify_all_rows(capfd, 7)
    assert code == 1
    assert rows == [_aborted_row(7, "no qualifying tau within depth 12")]
    assert report["budget_exhausted"] == ["criterion 7: no qualifying tau within depth 12"]
    assert_no_child_process()


def test_an_invariant_error_is_no_verdict_on_the_input():
    # exit 2 is kept for VerifierErrors: bad input, never a bug of our own
    assert issubclass(InvariantError, RuntimeError)
    assert not issubclass(InvariantError, VerifierError)
