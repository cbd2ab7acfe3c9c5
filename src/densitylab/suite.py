"""The ten-battery verification suite over seeded instance batches.

Each battery checks one family of inequalities at its stated tolerance;
"exact" batteries compare rationals with no slack anywhere.  Outcomes carry
the full check list so reports can show both sides of every inequality.
Wall-clock seconds are tracked for the runtime budget line only and never
enter serialized reports.

The checks of one instance that a CLI command also reports are stated once,
in the per-instance functions below; they return unprefixed rows, and the
battery and the command each put their own prefix before them.

``run_criterion`` runs one battery in process and returns its Checks; a
battery that raises is one failed row.  ``run_all`` runs every battery in
forked children, which send back only the report text of each battery's
rows (``BatteryRows``), laid out where the battery ran; each child sends all
of its batteries at once, when none is left to take.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import ONE, ZERO
from .calculus import (
    MonotoneExtension,
    Polynomial,
    extension_grid_check,
    interval_extremum,
    pseudo_derivative_estimate,
)
from .counterexample import (
    build_counterexample,
    default_enumeration,
    verify_denjoy_failure,
)
from .density import (
    brute_force_low_density_oracle,
    low_density_open_set,
    oracle_difference,
)
from .errors import BudgetExhausted
from .instances import (
    COVERING_EPSILONS,
    EscapeInstance,
    battery_rng,
    claim5_instance,
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
from .intervals import FULL_SET, ClassGaps, StagedOpenEnumeration
from .martingales import (
    Condition,
    Martingale,
    SavingsExtension,
    cap_at,
    claim5_density_records,
    combine_scaled,
    condition_extends,
    fairness_violations,
    martingale_to_function,
    slope_martingale,
)
from .piecewise import PiecewiseLinear, overlaps
from .porosity import porosity_test
from .randomness import (
    CylinderDifferenceTest,
    DominationScenario,
    DominationTests,
    build_domination_tests,
    build_escape_sets,
    least_drop_h,
)
from .report import Check, check_rows, lay_out
from .roottwo import QuadValue

DEFAULT_SEED = 1


@dataclass
class CriterionOutcome:
    number: int
    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class BatteryRows:
    """A battery's outcome as it reaches the report: its check rows laid out
    under the prefix "[number]", one text per check, and how many of them
    fail."""

    number: int
    title: str
    failed: int
    notes: list[str]
    rows: list[str]


def _count_check(name: str, count: int) -> Check:
    return Check(f"{name} == 0", Fraction(count), ZERO, count == 0)


def flag_check(name: str, ok: bool) -> Check:
    """A yes/no check as a row: lhs 1 if it holds, else 0, against rhs 1."""
    return Check(name, Fraction(int(ok)), ONE, ok)


# porosity_test raises InvariantError if a level fails to be an antichain or
# a stage fails to nest in the one before, and run_criterion reports that as
# a failed row, so every test it returns carries this row
NESTING_ROW = Check("antichain and stage-nesting verified during construction",
                    ONE, ONE, True)


def escape_rows(inst: EscapeInstance) -> tuple[str, list[Check]]:
    """The escape verdict of one difference-test instance, and its rows: box
    decay and escape certificates, then the component caps."""
    dt = CylinderDifferenceTest(inst.enum, inst.component_fn())
    esc = build_escape_sets(dt, inst.r, inst.m_max, inst.z)
    return esc.verdict, [*esc.records, *check_rows(dt.certify(), "component cap")]


def domination_tests(scenario: DominationScenario, case: int,
                     n_blocks: int) -> DominationTests:
    """The domination tests of one scenario at its least dropping h; their
    ``records`` are the rows."""
    h = least_drop_h(scenario, case, n_blocks)
    return build_domination_tests(scenario, h, case, n_blocks)


def fairness_row(m: Martingale, depth: int) -> Check:
    """The count of strings up to depth where m is not fair."""
    return _count_check(f"fairness violations to depth {depth}",
                        len(fairness_violations(m, depth)))


def _gap_row(s: Fraction, d_hat: Fraction, eps: Fraction, q: Fraction) -> Check:
    lhs, rhs = s - d_hat, eps * (q - d_hat)
    return Check("s - d_hat <= eps (q - d_hat)", lhs, rhs, lhs <= rhs)


def savings_rows(cond: Condition, eps: Fraction, ext: SavingsExtension) -> list[Check]:
    """The savings gap of a savings extension of cond at eps, and M(tau) < r."""
    v = cond.martingale.value(ext.tau)
    return [_gap_row(ext.s, ext.d_hat, eps, cond.q), Check("M(tau) < r", v, ext.r, v < ext.r)]


def window_rows(cond: Condition, ext: SavingsExtension, depth: int) -> list[Check]:
    """Claim 5's window records below a savings extension's tau, to depth:
    windows of slope < s have relative D-measure below
    (s - reachable_min)/(q - reachable_min)."""
    q = cond.q
    eps_claim = (ext.s - ext.reachable_min) / (q - ext.reachable_min)
    return claim5_density_records(cond.martingale, ext.tau, q, ext.s, eps_claim, depth)


def extension_rows(h, enum: StagedOpenEnumeration, n: int, grid_depth: int) -> list[Check]:
    """The monotone extension of h from enum's class, on the 2^-grid_depth
    grid: no decrease, and within 2 2^-n of h on the class's grid points."""
    drops, worst = extension_grid_check(MonotoneExtension(h, enum, n), grid_depth)
    tol = 2 * Fraction(1, 1 << n)
    return [
        _count_check(f"decreases across the 2^-{grid_depth} grid", drops),
        Check(f"worst disagreement with h on class grid points <= 2 2^-{n}",
              worst, tol, worst <= tol),
    ]


def criterion_covering(seed: int) -> list[Check]:
    """200 instances x 3 thresholds: both covering bounds, exact."""
    checks: list[Check] = []
    for index in range(200):
        row = ClassGaps.of(covering_instance(seed, index))
        for eps in COVERING_EPSILONS:
            fc = low_density_open_set(row, eps)
            checks.extend(check_rows(fc.inequalities(), f"instance {index} eps {eps}"))
    return checks


def criterion_oracle_match(seed: int) -> list[Check]:
    """50 instances: fat-interval U equals the prefix-mass oracle exactly."""
    checks: list[Check] = []
    for index in range(50):
        c, eps = oracle_match_instance(seed, index)
        diff, equal = oracle_difference(c, low_density_open_set(ClassGaps.of(c), eps), 8)
        checks.append(
            Check(
                f"instance {index}: U equals the oracle after boundary "
                f"normalization (eps {eps}), symmetric difference",
                diff,
                ZERO,
                equal,
            )
        )
    return checks


def criterion_porosity(seed: int) -> list[Check]:
    """50 enumerations: per-node and per-level decay bounds, exact."""
    checks: list[Check] = []
    for index in range(50):
        enum, c, levels = porosity_instance(seed, index)
        pt = porosity_test(enum, c, levels, 200)
        prefix = f"instance {index} (c={c}, levels={levels})"
        checks.extend(check_rows(pt.bound_checks(), prefix))
        bad = sum(not ok for *_, ok in pt.nodes)
        checks.append(Check(f"{prefix}: all {len(pt.nodes)} per-node bounds hold, violations",
                            Fraction(bad), ZERO, not bad))
        if pt.nodes:
            checks.extend(check_rows([pt.node_row(pt.tightest_node())],
                                     f"{prefix}: tightest node"))
        checks.extend(check_rows([NESTING_ROW], prefix))
    return checks


def criterion_escape(seed: int) -> list[Check]:
    """30 difference tests: box decay, escape certificates, component caps."""
    checks: list[Check] = []
    for index in range(30):
        inst = escape_instance(seed, index)
        verdict, rows = escape_rows(inst)
        prefix = f"instance {index} (r={inst.r}, m_max={inst.m_max})"
        checks.extend(check_rows(rows, prefix))
        checks.append(flag_check(
            f"{prefix}: verdict matches the constructed dynamics ({inst.flavor})",
            verdict == inst.flavor,
        ))
    return checks


def criterion_domination(seed: int) -> list[Check]:
    """12 scenarios: Solovay budget plus independently recomputed captures."""
    checks: list[Check] = []
    for index in range(12):
        scenario, case, n_blocks = domination_instance(seed, index)
        dom = domination_tests(scenario, case, n_blocks)
        prefix = f"instance {index} (case {case})"
        checks.extend(check_rows(dom.records, prefix))
        for i, (block, want, got) in enumerate(
            zip(dom.blocks, dom.expected_capture, dom.captured)
        ):
            if not want:
                continue
            # the oracle, the cover's independent reference, reads an interval set
            cls = FULL_SET.subtract_open(scenario.word_holes(*block))
            extras = [x for iv in dom.covers[i].fat_intervals for x in (iv.lo, iv.hi)]
            member = brute_force_low_density_oracle(
                cls, scenario.eps, 6, [*extras, scenario.z]).contains_point(scenario.z)
            checks.append(
                flag_check(f"{prefix}: block {i} capture recomputed from prefix masses", member)
            )
            checks.append(
                Check(
                    f"{prefix}: block {i} driver flag agrees with recomputation",
                    Fraction(int(got)),
                    Fraction(int(member)),
                    got == member,
                )
            )
    return checks


def _roundtrip_mismatches(m, depth: int) -> int:
    """The strings of length at most depth where the slope martingale of
    m's integral differs from m, counted over the overlaps of their runs."""
    g = martingale_to_function(m, "", depth)
    sm = slope_martingale(g, depth)
    mismatches = 0
    for k in range(depth + 1):
        (d, back), (e, orig) = sm.runs("", k), m.runs("", k)
        mismatches += sum(last + 1 - first
                          for first, last, (_, _, x), (_, _, y) in overlaps(back, orig)
                          if x * e != y * d)
    return mismatches


def criterion_martingale_algebra(seed: int) -> list[Check]:
    """Fairness, round-trip identity, and closure under combine/cap; depth 16."""
    checks: list[Check] = []
    t3 = random_fair_table(battery_rng(seed, "martingale-table", 0), 3)
    t4 = random_fair_table(battery_rng(seed, "martingale-table", 1), 4)
    t5 = random_fair_table(battery_rng(seed, "martingale-table", 2), 5)
    n1 = normalized_fair_table(battery_rng(seed, "martingale-aux", 0), 3)
    combined = combine_scaled(t4, n1, "01", Fraction(1, 3))
    capped = cap_at(t5, t5.value(""))
    constructed = [
        ("random table depth 3", t3),
        ("random table depth 4", t4),
        ("random table depth 5", t5),
        ("capital injection combine_scaled(t4, n1, '01', 1/3)", combined),
        ("cap_at(t5, t5(''))", capped),
    ]
    for label, m in constructed:
        checks.extend(check_rows([fairness_row(m, 16)], label))
    for label, m in (("random table depth 3", t3), ("random table depth 4", t4)):
        checks.append(_count_check(
            f"{label}: round-trip slope(integral) mismatches to depth 16",
            _roundtrip_mismatches(m, 16),
        ))
    return checks


def criterion_forcing(seed: int) -> list[Check]:
    """Forcing chains extend at depth 12; savings gap and window density exact."""
    checks: list[Check] = []
    for index in range(10):
        cond, steps, chain = forcing_instance(seed, index)
        prefix = f"chain {index}"
        for step in chain:
            checks.append(flag_check(
                f"{prefix}: {step.kind} step extends its predecessor (depth 12)",
                step.extends_ok,
            ))
            if step.kind == "savings":
                gap = _gap_row(step.payload["s"], step.payload["d_hat"], steps[-1][1],
                               cond.q)
                checks.extend(check_rows([gap], prefix))
    for index in range(10):
        cond, eps0, ext = claim5_instance(seed, index)
        prefix = f"savings {index}"
        checks.append(flag_check(
            f"{prefix}: extension is a forcing extension (depth 12)",
            condition_extends(ext.condition, cond, 12),
        ))
        checks.extend(check_rows(savings_rows(cond, eps0, ext), prefix))
        checks.append(
            Check(f"{prefix}: r < s < q", ext.r, ext.s, ext.r < ext.s < cond.q)
        )
        # the table depth sits below the search depth, so the reachable
        # minimum bounds every deeper leaf as well
        recs = window_rows(cond, ext, 10)
        checks.append(
            Check(
                f"{prefix}: low-slope windows examined (depth <= 10)",
                Fraction(len(recs)),
                ONE,
                len(recs) >= 1,
            )
        )
        checks.extend(check_rows(recs, prefix))
    return checks


def denjoy_check_rows(rep) -> list[Check]:
    """Check rows for a spike-plan failure report; irrational-threshold
    certificates are split into sign and squared comparisons so every row
    carries plain rational sides."""
    rows: list[Check] = []
    for cert in rep.certificates:
        slope = QuadValue(ZERO, ZERO) + cert.slope
        name = f"scale k={cert.k}: certified slope <= -2^(k/2)"
        if slope.b == 0:
            rows.append(
                Check(name, slope.a, -Fraction(1 << (cert.k // 2)), cert.holds)
            )
        elif slope.a == 0:
            rows.append(
                Check(f"{name} (sqrt2 coefficient < 0)", slope.b, ZERO,
                      slope.b < 0)
            )
            rows.append(
                Check(
                    f"{name} (squared comparison)",
                    Fraction(1 << cert.k),
                    2 * slope.b * slope.b,
                    cert.holds,
                )
            )
        else:  # mixed components never arise from triangular spikes
            rows.append(Check(name, slope, cert.threshold, cert.holds))
    for w in rep.zero_witnesses:
        rows.append(
            Check(
                f"scale k={w.k}: upper-side zero-slope witness on "
                f"[{w.a},{w.b}]",
                ZERO,
                ZERO,
                w.slope_is_zero,
            )
        )
    rows.append(
        Check(
            "straddling pairs above alpha never exceed the declared bound",
            rep.straddle_max,
            rep.straddle_bound,
            rep.straddle_max <= rep.straddle_bound,
        )
    )
    rows.append(
        Check("upper estimate over flat stretches is exactly 0",
              rep.upper_estimate, ZERO, rep.upper_estimate == 0)
    )
    # The lower estimate is the steepest certified slope, so it must sit at
    # or below the deepest even-scale threshold; it is finite by design.
    even_ks = [c.k for c in rep.certificates if c.k % 2 == 0 and c.holds]
    if even_ks:
        steepest = -Fraction(1 << (max(even_ks) // 2))
        rows.append(
            Check(
                f"lower estimate <= -2^{max(even_ks) // 2} "
                "(steepest certified even scale)",
                rep.lower_estimate, steepest, rep.lower_estimate <= steepest,
            )
        )
    for tb in rep.tail_bounds:
        rows.append(
            Check(
                f"tail of heights past exponent {tb.prefix_groups} stays below "
                "the geometric bound (sup)",
                tb.tail_sup,
                tb.series_bound,
                tb.holds,
            )
        )
    claims_limit = "no claim" not in rep.limit_claim
    rows.append(
        Check(
            "the report does not claim the limit derivative",
            Fraction(int(claims_limit)),
            ZERO,
            not claims_limit,
            note=rep.limit_claim,
        )
    )
    return rows


def criterion_counterexample(seed: int) -> list[Check]:
    """Default spike plan: per-scale slope certificates, no limit claim."""
    plan, trace = build_counterexample(default_enumeration())
    rep = verify_denjoy_failure(plan, trace, 16)
    missing = sum(k % 2 == 0 for k in rep.unrealized)
    return [
        _count_check("even scales k <= 16 missing a certificate", missing),
        *denjoy_check_rows(rep),
    ]


def criterion_extension(seed: int) -> list[Check]:
    """20 instances: monotone on the 2^-12 grid, close to h on the class."""
    checks: list[Check] = []
    for index in range(20):
        h, enum = extension_instance(seed, index)
        checks.extend(check_rows(extension_rows(h, enum, 10, 12), f"instance {index}"))
    return checks


def criterion_calculus(seed: int) -> list[Check]:
    """Golden extrema; for four functions, the lower pseudo-derivative
    estimate at or below the upper one, both from one kernel call per
    (function, point, depth), and at or above 0 on the nondecreasing ones."""
    checks: list[Check] = []
    for i, (p, a, b, which, target) in enumerate(golden_extremum_cases()):
        v = interval_extremum(p, a, b, 10, which)
        err = abs(v - target)
        checks.append(
            Check(
                f"golden case {i}: {which} over [{a},{b}] within 2^-10 of "
                f"{target}",
                err,
                Fraction(1, 1 << 10),
                err <= Fraction(1, 1 << 10),
            )
        )
    vee = PiecewiseLinear((ZERO, Fraction(1, 2), ONE), (ZERO, Fraction(1, 2), ZERO))
    staircase, _enum = extension_instance(seed, 0)
    identity, square = Polynomial((0, 1)), Polynomial((0, 0, 1))
    sweep = (
        ("identity", identity),
        ("square", square),
        ("vee", vee),
        ("staircase", staircase),
    )
    lowers = {}  # the lower estimates, by (label, x, depth)
    for label, f in sweep:
        for x in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 8)):
            for depth in (4, 6):
                lo, up = pseudo_derivative_estimate(f, x, Fraction(1, 4), depth)
                lowers[label, x, depth] = lo.value
                checks.append(
                    Check(
                        f"{label} at {x}, grid depth {depth}: lower estimate "
                        "<= upper estimate",
                        lo.value,
                        up.value,
                        lo.value <= up.value,
                    )
                )
    for label in ("identity", "square", "staircase"):
        for x in (Fraction(1, 3), Fraction(5, 8)):
            lo = lowers[label, x, 6]
            checks.append(
                Check(
                    f"nondecreasing {label} at {x}: lower estimate >= 0",
                    ZERO,
                    lo,
                    lo >= 0,
                )
            )
    return checks


CRITERIA = (
    (1, "covering bounds", criterion_covering),
    (2, "U-oracle equivalence", criterion_oracle_match),
    (3, "porosity bounds", criterion_porosity),
    (4, "escape sets", criterion_escape),
    (5, "domination tests", criterion_domination),
    (6, "martingale algebra", criterion_martingale_algebra),
    (7, "forcing mechanics", criterion_forcing),
    (8, "counterexample certificates", criterion_counterexample),
    (9, "monotone extension", criterion_extension),
    (10, "calculus sanity", criterion_calculus),
)


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionOutcome:
    """Battery number, run in process.  A battery reads no user input, so
    whatever it raises is one failed "battery aborted" row with its message;
    an exhausted budget is also noted."""
    for num, title, fn in CRITERIA:
        if num == number:
            out = CriterionOutcome(num, title)
            start = time.perf_counter()
            try:
                out.checks = fn(seed)
            except Exception as exc:  # a battery cut short is a failed row, never a crash
                out.checks = [Check(f"battery aborted: {exc}", ZERO, ONE, False)]
                if isinstance(exc, BudgetExhausted):
                    out.notes.append(str(exc))
            out.seconds = time.perf_counter() - start
            return out
    raise ValueError(f"no criterion numbered {number}")


def _battery_child(tasks: int, out: int, seed: int, as_csv: bool) -> None:
    """A forked child's whole life: take battery numbers from the pipe tasks,
    one byte each, until it is empty; run each battery and keep its rows laid
    out under the prefix "[number]" as its BatteryRows; then write all it
    kept to the pipe out once, as one pickled {number: BatteryRows}.  The
    child ends with os._exit whatever happens, so no parent code runs in it
    after its work; if it fails before it writes, it writes nothing."""
    from pickle import dumps  # loaded by run_all before the fork

    code = 1
    try:
        records = {}
        while task := os.read(tasks, 1):
            number = task[0]
            outcome = run_criterion(number, seed)
            texts, failed = lay_out(outcome.checks, f"[{number}]", as_csv)
            records[number] = BatteryRows(number, outcome.title, failed, outcome.notes, texts)
        with open(out, "wb") as sink:
            sink.write(dumps(records))
        code = 0
    finally:
        os._exit(code)


def run_all(seed: int = DEFAULT_SEED, as_csv: bool = False) -> list[BatteryRows]:
    """Every battery's laid-out rows, in CRITERIA order, from forked children.

    The batteries are independent, so they run side by side in one child per
    usable CPU, up to one per battery.  The battery numbers wait in one pipe,
    and each child takes the next one when it is free.  A child keeps each
    battery's rows already laid out (``report.lay_out``, JSON or, with
    as_csv, CSV), so only text crosses between processes, and sends them all
    at once when no battery is left.  The records do not depend on how many
    children there are.  A battery that raises is a failed row already, as
    run_criterion makes it.  A child that ends without sending its records
    (killed, say) loses every battery it took, and each of those is one
    failed "battery aborted" row, laid out here.  So every battery has its
    rows, and nothing is raised for one.  Every child has been reaped when
    this returns.
    """
    # imported here: loading it would add to every CLI command's start-up
    import pickle

    numbers = [num for num, _t, _f in CRITERIA]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS has fork but no affinity mask
        cpus = os.cpu_count() or 1
    tasks, queue = os.pipe()
    os.write(queue, bytes(numbers))  # ten bytes, well inside a pipe's buffer
    os.close(queue)
    results = {}
    sources, pids = [], []
    try:
        for _ in range(min(len(numbers), cpus)):
            r, w = os.pipe()
            sources.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _battery_child(tasks, w, seed, as_csv)
            finally:
                os.close(w)
            pids.append(pid)
        # a child writes only once the task pipe is empty, so while the parent
        # reads another pipe a full one holds back that child's exit, never a
        # battery: the pipes can be read one after another
        for source in sources:
            try:
                results.update(pickle.load(source))
            except (EOFError, pickle.UnpicklingError):
                pass  # a child ended before or while writing; its batteries are lost
    finally:
        os.close(tasks)
        for source in sources:
            source.close()
        for pid in pids:
            os.waitpid(pid, 0)
    lost = [Check("battery aborted: its child process ended without a result", ZERO, ONE, False)]
    for num, title, _fn in CRITERIA:
        if num not in results:
            texts, failed = lay_out(lost, f"[{num}]", as_csv)
            results[num] = BatteryRows(num, title, failed, [], texts)
    return [results[num] for num in numbers]
