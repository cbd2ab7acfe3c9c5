"""Acceptance gate: the ten verification batteries at their stated scales.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion.  Every inequality inside a battery is exact rational (or
exact quadratic) arithmetic; there are no tolerances beyond the ones the
criteria themselves state.
"""

import pytest

from densitylab.suite import CRITERIA, DEFAULT_SEED, run_criterion

# Scale pins, each battery's row count at seed 1: a battery that silently
# shrank is a bug even if green.
MIN_CHECKS = {1: 1200, 2: 50, 3: 620, 4: 317, 5: 132, 6: 7, 7: 1360, 8: 63, 9: 40, 10: 33}

_cache: dict[int, object] = {}


def outcome_for(number: int):
    if number not in _cache:
        _cache[number] = run_criterion(number, DEFAULT_SEED)
    return _cache[number]


@pytest.mark.parametrize(
    "number,title",
    [(n, t) for n, t, _ in CRITERIA],
    ids=[f"{n:02d}-{t.replace(' ', '-')}" for n, t, _ in CRITERIA],
)
def test_criterion(number, title):
    out = outcome_for(number)
    violations = [c for c in out.checks if not c.ok]
    verdict = "FAIL" if violations else "PASS"
    print(f"criterion {number} ({title}): {verdict}")
    for bad in violations[:10]:
        print(f"  violated: {bad.name}: lhs={bad.lhs} rhs={bad.rhs}")
    for note in out.notes:
        print(f"  budget: {note}")
    assert len(out.checks) >= MIN_CHECKS[number]
    assert not violations, (
        f"criterion {number} ({title}): {len(violations)} violated "
        "inequalities"
    )


def test_covering_battery_finishes_inside_a_minute():
    assert outcome_for(1).seconds < 60
