"""Batch command surface over the analysis modules.

Each subcommand loads a JSON instance (or generates a seeded default batch),
runs the module's checks, and emits a JSON or CSV report on stdout or to
--output.  Reports are deterministic for fixed (instance, seed): no
wall-clock, environment, or ordering nondeterminism enters them.

Exit status: 0 when every asserted inequality holds (budget-exhausted
analyses are reported separately and do not fail the run), 1 when a check is
violated (the report carries the violation records), 2 on schema errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bits import ONE, ZERO, parse_rational
from .calculus import MonotoneExtension, extension_grid_check, piecewise_linear_oracle
from .counterexample import build_counterexample, default_enumeration, verify_denjoy_failure
from .density import low_density_open_set, oracle_difference
from .errors import BudgetExhausted, DomainError, SchemaError
from .instances import (
    COVERING_EPSILONS,
    EscapeInstance,
    battery_rng,
    covering_instance,
    domination_instance,
    escape_instance,
    extension_instance,
    oracle_match_instance,
    porosity_instance,
    random_fair_table,
)
from .intervals import FULL_SET, Interval, StagedOpenEnumeration
from .martingales import (
    Condition,
    TableMartingale,
    claim5_density_records,
    condition_extends,
    fairness_violations,
    savings_extension,
)
from .piecewise import PiecewiseLinear
from .porosity import porosity_test
from .randomness import (
    CylinderDifferenceTest,
    DominationScenario,
    build_domination_tests,
    build_escape_sets,
    least_drop_h,
)
from .report import SCHEMA_VERSION, Check, Report, check_rows, to_csv_bytes, to_json_bytes
from .suite import DEFAULT_SEED, denjoy_check_rows, run_all


def _holes(doc, key: str = "holes") -> tuple[Interval, ...]:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"'{key}' must be a list of [lo, hi] pairs")
    return tuple(Interval.from_json(i) for i in items)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"instance is missing required field '{key}'")
    return doc[key]


def _int_field(doc: dict, key: str, default: int) -> int:
    """An optional field that must be a JSON integer >= 0; strings, floats
    and booleans are refused, not coerced."""
    v = doc.get(key, default)
    if type(v) is not int or v < 0:
        raise SchemaError(f"'{key}' must be a non-negative integer, got {v!r}")
    return v


def _as_docs(payload) -> list[dict]:
    if isinstance(payload, dict):
        return [payload]
    if isinstance(payload, list) and all(isinstance(d, dict) for d in payload):
        return payload
    raise SchemaError("instance file must hold an object or a list of objects")


def run_covering(args, doc) -> Report:
    rep = Report("covering", args.seed)
    if doc is None:
        docs = []
        for index in range(10):
            c = covering_instance(args.seed, index)
            docs.append({
                "holes": [g.to_json() for g in c.gaps()],
                "epsilons": [f"{e.numerator}/{e.denominator}" for e in COVERING_EPSILONS],
            })
    else:
        docs = _as_docs(doc)
    for i, d in enumerate(docs):
        c = FULL_SET.subtract_open(_holes(d))
        eps_list = d.get("epsilons")
        if eps_list is None:
            eps_list = [d.get("epsilon", "1/2")]
        for e_text in eps_list:
            eps = parse_rational(e_text)
            fc = low_density_open_set(c, eps)
            rep.checks.extend(check_rows(fc.inequalities(), f"instance {i} eps {eps}"))
    return rep


def run_density(args, doc) -> Report:
    rep = Report("density", args.seed)
    if doc is None:
        c, eps = oracle_match_instance(args.seed, 0)
        docs = [{
            "holes": [g.to_json() for g in c.gaps()],
            "epsilon": f"{eps.numerator}/{eps.denominator}",
        }]
    else:
        docs = _as_docs(doc)
    grid_depth = args.depth if args.depth is not None else 8
    if grid_depth < 0:
        raise SchemaError(f"--depth must be at least 0, got {grid_depth}")
    rep.meta["grid_depth"] = grid_depth
    for i, d in enumerate(docs):
        c = FULL_SET.subtract_open(_holes(d))
        eps = parse_rational(d.get("epsilon", "1/2"))
        fc = low_density_open_set(c, eps)
        prefix = f"instance {i}"
        rep.checks.extend(check_rows(fc.inequalities(), prefix))
        diff, equal = oracle_difference(fc, grid_depth)
        rep.checks.append(Check(
            f"{prefix}: U equals the prefix-mass oracle after boundary "
            "normalization, symmetric difference",
            diff, ZERO, equal,
        ))
    return rep


def run_porosity(args, doc) -> Report:
    rep = Report("porosity", args.seed)
    if doc is None:
        enum, c, levels = porosity_instance(args.seed, 3)
        docs = [{"holes": [i.to_json() for i in enum.items], "constant": c,
                 "levels": levels, "stages": 200}]
    else:
        docs = _as_docs(doc)
    for i, d in enumerate(docs):
        enum = StagedOpenEnumeration(_holes(d))
        c = int(d.get("constant", 1))
        levels = args.depth if args.depth is not None else _int_field(d, "levels", 3)
        stages = args.stages if args.stages is not None else _int_field(d, "stages", 200)
        pt = porosity_test(enum, c, levels, stages)
        prefix = f"instance {i} (c={c}, levels={levels})"
        rep.checks.extend(check_rows(pt.node_records, f"{prefix}: node"))
        rep.checks.extend(check_rows(pt.bound_checks(), prefix))
        rep.checks.append(Check(
            f"{prefix}: antichain and stage-nesting verified during construction",
            ONE, ONE, True,
        ))
    return rep


def _domination_doc(scenario: DominationScenario, case: int, n_blocks: int) -> dict:
    return {
        "words": list(scenario.words),
        "z": f"{scenario.z.numerator}/{scenario.z.denominator}",
        "eps": f"{scenario.eps.numerator}/{scenario.eps.denominator}",
        "depth": scenario.depth,
        "case": case,
        "n_blocks": n_blocks,
    }


def run_tests(args, doc) -> Report:
    rep = Report("tests", args.seed)
    if doc is None:
        doc = {
            "escape": [escape_instance(args.seed, i).to_json() for i in range(3)],
            "domination": [
                _domination_doc(*domination_instance(args.seed, i))
                for i in range(2)
            ],
        }
    if not isinstance(doc, dict):
        raise SchemaError("tests instance must be an object with 'escape' "
                          "and/or 'domination' lists")
    for i, d in enumerate(doc.get("escape", [])):
        inst = EscapeInstance.from_json(d)
        dt = CylinderDifferenceTest(inst.enum, inst.component_fn())
        esc = build_escape_sets(dt, inst.r, inst.m_max, inst.z)
        prefix = f"escape {i} (r={inst.r}, m_max={inst.m_max}, verdict {esc.verdict})"
        rep.checks.extend(check_rows(esc.records, prefix))
        rep.checks.extend(check_rows(dt.certify(), f"{prefix}: component cap"))
    for i, d in enumerate(doc.get("domination", [])):
        words = tuple(str(w) for w in _require(d, "words"))
        scenario = DominationScenario(
            words, parse_rational(_require(d, "z")),
            parse_rational(_require(d, "eps")), _int_field(d, "depth", 12),
        )
        case = _int_field(d, "case", 1)
        n_blocks = _int_field(d, "n_blocks", 2)
        prefix = f"domination {i} (case {case})"
        try:
            h = least_drop_h(scenario, case, n_blocks)
            dom = build_domination_tests(scenario, h, case, n_blocks)
        except BudgetExhausted as exc:
            rep.budget_exhausted.append(f"{prefix}: {exc}")
            continue
        rep.checks.extend(check_rows(dom.records, prefix))
    return rep


def run_martingale(args, doc) -> Report:
    rep = Report("martingale", args.seed)
    if doc is None:
        m = random_fair_table(battery_rng(args.seed, "cli-martingale", 0), 4)
        doc = {"martingale": m.to_json(),
               "q": f"{m.value('') + Fraction(1, 2)}", "eps": "1/2"}
    if not isinstance(doc, dict):
        raise SchemaError("martingale instance must be an object")
    m = TableMartingale.from_json(_require(doc, "martingale"))
    depth = args.depth if args.depth is not None else 12
    rep.meta["depth"] = depth
    bad = fairness_violations(m, depth)
    rep.checks.append(Check(
        f"fairness violations to depth {depth} == 0", Fraction(len(bad)), ZERO,
        not bad,
    ))
    q = parse_rational(_require(doc, "q"))
    eps = parse_rational(doc.get("eps", "1/2"))
    sigma = str(doc.get("sigma", ""))
    cond = Condition(sigma, m, q)
    try:
        ext = savings_extension(cond, eps, depth)
    except BudgetExhausted as exc:
        rep.budget_exhausted.append(f"savings extension: {exc}")
        return rep
    ok = condition_extends(ext.condition, cond, depth)
    rep.checks.append(Check(
        f"savings extension is a forcing extension (depth {depth})",
        Fraction(int(ok)), ONE, ok,
    ))
    lhs, rhs = ext.s - ext.d_hat, eps * (q - ext.d_hat)
    rep.checks.append(Check("s - d_hat <= eps (q - d_hat)", lhs, rhs, lhs <= rhs))
    v = m.value(ext.tau)
    rep.checks.append(Check("M(tau) < r", v, ext.r, v < ext.r))
    window_depth = min(10, depth)
    if len(ext.tau) <= window_depth:
        eps_claim = (ext.s - ext.reachable_min) / (q - ext.reachable_min)
        recs = claim5_density_records(m, ext.tau, q, ext.s, eps_claim,
                                      window_depth, window_depth)
        rep.checks.extend(check_rows(recs, "window"))
    return rep


def run_extend(args, doc) -> Report:
    rep = Report("extend", args.seed)
    if doc is None:
        h, enum = extension_instance(args.seed, 0)
        pl = PiecewiseLinear(
            tuple(Fraction(k, 8) for k in range(9)),
            tuple(h.exact(Fraction(k, 8)) for k in range(9)),
        )
        doc = {"holes": [i.to_json() for i in enum.items], "h": pl.to_json(),
               "n": 10}
    if not isinstance(doc, dict):
        raise SchemaError("extend instance must be an object")
    enum = StagedOpenEnumeration(_holes(doc))
    h = piecewise_linear_oracle(PiecewiseLinear.from_json(_require(doc, "h")))
    n = _int_field(doc, "n", 10)
    grid_depth = args.depth if args.depth is not None else 12
    if grid_depth < 0:
        raise SchemaError(f"--depth must be at least 0, got {grid_depth}")
    rep.meta["n"] = n
    rep.meta["grid_depth"] = grid_depth
    ext = MonotoneExtension(h, enum, n)
    try:
        drops, worst = extension_grid_check(ext, grid_depth)
    except BudgetExhausted as exc:
        rep.budget_exhausted.append(f"extension query: {exc}")
        return rep
    rep.checks.append(Check(
        f"decreases across the 2^-{grid_depth} grid == 0", Fraction(drops),
        ZERO, drops == 0,
    ))
    tol = 2 * Fraction(1, 1 << n)
    rep.checks.append(Check(
        f"worst disagreement with h on class grid points <= 2 2^-{n}",
        worst, tol, worst <= tol,
    ))
    return rep


def run_counterexample(args, doc) -> Report:
    rep = Report("counterexample", args.seed)
    if doc is None:
        doc = {"intervals": [i.to_json() for i in default_enumeration()],
               "overlap_policy": "reject"}
    if not isinstance(doc, dict):
        raise SchemaError("counterexample instance must be an object")
    _require(doc, "intervals")
    items = _holes(doc, "intervals")
    if args.stages is not None:
        items = items[: args.stages]
    policy = str(doc.get("overlap_policy", "reject"))
    k_max = args.depth if args.depth is not None else _int_field(doc, "k_max", 16)
    plan, trace, oracle = build_counterexample(items, policy)
    failure = verify_denjoy_failure(plan, trace, oracle, k_max)
    rep.meta["plan"] = plan.to_json()
    rep.meta["trace"] = trace.to_json()
    rep.meta["k_max"] = k_max
    rep.checks.extend(denjoy_check_rows(failure))
    return rep


def run_verify_all(args, doc) -> Report:
    if doc is not None:
        raise SchemaError("verify-all takes no instance document")
    rep = Report("verify-all", args.seed)
    summary = []
    for outcome in run_all(args.seed):
        failures = len(outcome.violations())
        rep.checks.append(Check(
            f"criterion {outcome.number}: {outcome.title}, violations",
            Fraction(failures), ZERO, outcome.passed,
        ))
        rep.checks.extend(check_rows(outcome.checks, f"[{outcome.number}]"))
        rep.budget_exhausted.extend(
            f"criterion {outcome.number}: {note}" for note in outcome.notes
        )
        summary.append({
            "number": outcome.number,
            "title": outcome.title,
            "checks": len(outcome.checks),
            "passed": outcome.passed,
        })
    rep.meta["criteria"] = summary
    return rep


RUNNERS = {
    "density": run_density,
    "porosity": run_porosity,
    "covering": run_covering,
    "tests": run_tests,
    "martingale": run_martingale,
    "extend": run_extend,
    "counterexample": run_counterexample,
    "verify-all": run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densitylab",
        description="Exact-rational verification of density, porosity, "
        "randomness-test, martingale, and derivative inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("density", "covering bounds plus the brute-force oracle comparison"),
        ("porosity", "staged porosity test decay bounds"),
        ("covering", "fat-interval covering bounds over instance batches"),
        ("tests", "escape-set and domination randomness tests"),
        ("martingale", "fairness, savings extensions, and window density"),
        ("extend", "monotone extension from a closed class"),
        ("counterexample", "spike plan and per-scale slope certificates"),
        ("verify-all", "run the full ten-battery verification suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--instance",
                       help="JSON instance document (file path, '-' for stdin)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for generated default instances")
        p.add_argument("--depth", type=int, default=None,
                       help="depth override (grid, search, or k_max)")
        p.add_argument("--stages", type=int, default=None,
                       help="stage count override where applicable")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="emit a JSON report (default)")
        fmt.add_argument("--csv", action="store_true", help="emit a CSV report")
        p.add_argument("--output", default="-",
                       help="output path, '-' for stdout (default)")
    return parser


def _load_doc(args):
    if not args.instance:
        return None
    try:
        if args.instance == "-":
            return json.load(sys.stdin)
        with open(args.instance, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"instance file is not valid JSON: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = RUNNERS[args.command](args, _load_doc(args))
    except (SchemaError, DomainError) as exc:
        error = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": str(exc),
            "kind": type(exc).__name__,
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2
    payload = to_csv_bytes(report) if args.csv else to_json_bytes(report)
    if args.output == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    return 0 if report.all_hold() else 1


if __name__ == "__main__":
    sys.exit(main())
