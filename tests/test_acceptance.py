"""Acceptance gate: the ten verification batteries at their stated scales.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion.  Every inequality inside a battery is exact rational (or
exact quadratic) arithmetic; there are no tolerances beyond the ones the
criteria themselves state.
"""

import json
import time

import pytest

from densitylab.report import Report
from densitylab.suite import CRITERIA, DEFAULT_SEED, run_criterion

# Scale pins, each battery's row count at seed 1: a battery that silently
# shrank is a bug even if green.
MIN_CHECKS = {1: 1200, 2: 50, 3: 620, 4: 317, 5: 132, 6: 7, 7: 1360, 8: 63, 9: 40, 10: 33}

_cache: dict[int, tuple[Report, float]] = {}


def outcome_for(number: int) -> tuple[Report, float]:
    """Battery number's record at the default seed, and the seconds its
    first run took."""
    if number not in _cache:
        start = time.perf_counter()
        out = run_criterion(number, DEFAULT_SEED)
        _cache[number] = out, time.perf_counter() - start
    return _cache[number]


@pytest.mark.parametrize(
    "number,title",
    [(n, t) for n, t, _ in CRITERIA],
    ids=[f"{n:02d}-{t.replace(' ', '-')}" for n, t, _ in CRITERIA],
)
def test_criterion(number, title):
    out, _seconds = outcome_for(number)
    violations = [row for row in map(json.loads, out.rows) if row["ok"] is False]
    verdict = "FAIL" if violations else "PASS"
    print(f"criterion {number} ({title}): {verdict}")
    for bad in violations[:10]:
        print(f"  violated: {bad['name']}: lhs={bad['lhs']} rhs={bad['rhs']}")
    for note in out.budget_exhausted:
        print(f"  budget: {note}")
    assert len(out.rows) >= MIN_CHECKS[number]
    assert len(violations) == out.failed
    assert not violations, (
        f"criterion {number} ({title}): {len(violations)} violated "
        "inequalities"
    )


def test_covering_battery_finishes_inside_a_minute():
    assert outcome_for(1)[1] < 60
