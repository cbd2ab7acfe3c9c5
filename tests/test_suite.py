import json
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction as F

import pytest

from densitylab import suite
from densitylab.cli import main
from densitylab.counterexample import (
    build_counterexample,
    default_enumeration,
    verify_denjoy_failure,
)
from densitylab.errors import DomainError
from densitylab.report import SCHEMA_VERSION, Check, check_rows
from densitylab.suite import (
    CRITERIA,
    CriterionOutcome,
    denjoy_check_rows,
    run_all,
    run_criterion,
)


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


@pytest.mark.parametrize("seed", [1, 2])
def test_pooled_outcomes_equal_the_serial_ones(seed):
    def fields(outcome):
        return outcome.number, outcome.title, outcome.checks, outcome.notes

    serial = [run_criterion(num, seed) for num, _t, _f in CRITERIA]
    assert [fields(o) for o in run_all(seed)] == [fields(o) for o in serial]
    assert multiprocessing.active_children() == []


def _raising(message, delay=0.0):
    def battery(seed):
        time.sleep(delay)
        raise DomainError(message)
    return battery


def _with_batteries(monkeypatch, replacements):
    # the pool forks, so its workers see the patched table
    monkeypatch.setattr(suite, "CRITERIA", tuple(
        (num, title, replacements.get(num, fn)) for num, title, fn in CRITERIA
    ))


def test_a_raising_battery_exits_2_with_the_usual_error(monkeypatch, capfd):
    _with_batteries(monkeypatch, {4: _raising("battery 4 broke")})
    assert main(["verify-all"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-all",
        "error": "battery 4 broke",
        "kind": "DomainError",
    }
    assert multiprocessing.active_children() == []


def test_the_lowest_numbered_raising_battery_wins(monkeypatch, capfd):
    # with two workers or more, battery 2 raises while battery 1 still sleeps
    _with_batteries(monkeypatch, {
        1: _raising("battery 1 broke", delay=0.5),
        2: _raising("battery 2 broke"),
    })
    assert main(["verify-all"]) == 2
    assert json.loads(capfd.readouterr().err)["error"] == "battery 1 broke"


def test_a_worker_that_dies_breaks_the_run(monkeypatch, capfd):
    _with_batteries(monkeypatch, {6: lambda seed: os._exit(3)})
    with pytest.raises(BrokenProcessPool):
        main(["verify-all"])
    assert capfd.readouterr().out == ""
    assert multiprocessing.active_children() == []


def test_without_an_affinity_mask_the_pool_is_sized_from_the_cpu_count(monkeypatch):
    asked = []
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: asked.append(1) or 1)
    _with_batteries(monkeypatch, {num: lambda seed: [] for num, _t, _f in CRITERIA})
    assert [o.number for o in run_all()] == [num for num, _t, _f in CRITERIA]
    assert asked == [1]
    assert multiprocessing.active_children() == []
