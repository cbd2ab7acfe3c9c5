"""Batch command surface over the analysis modules.

Each command loads a JSON instance (or generates a seeded default batch),
runs the module's checks, and emits a JSON or CSV report on stdout or to
--output.  Reports are deterministic for fixed (instance, seed): no
wall-clock, environment, or ordering nondeterminism enters them.

Exit status: 0 when every asserted inequality holds (budget-exhausted
analyses are reported separately and do not fail the run), 1 when a check is
violated (the report carries the violation records), 2 on bad input: a bad
command line, or, each as one JSON object on stderr, a schema error, a
DomainError, an unreadable instance or an unwritable --output path.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .bits import (
    ZERO,
    denominator_lcm_bits,
    format_rational,
    parse_nonnegative_int,
    parse_rational,
)
from .calculus import extension_grid_depth
from .counterexample import (
    MAX_HEIGHT_EXPONENT,
    build_counterexample,
    default_enumeration,
    verify_denjoy_failure,
)
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
from .intervals import FULL_SET, Interval, StagedOpenEnumeration, class_gaps
from .martingales import Condition, TableMartingale, condition_extends, savings_extension
from .piecewise import PiecewiseLinear
from .porosity import porosity_test
from .randomness import DominationScenario
from .report import SCHEMA_VERSION, Check, Report, to_csv_bytes, to_json_bytes
from .suite import (
    DEFAULT_SEED,
    NESTING_ROW,
    domination_tests,
    escape_rows,
    extension_rows,
    fairness_row,
    flag_check,
    run_all,
    savings_rows,
    window_rows,
)


def _list(items, key: str, what: str) -> list:
    """items, the value of field key, which must be a JSON list of what."""
    if not isinstance(items, list):
        raise SchemaError(f"'{key}' must be a list of {what}")
    return items


def _holes(doc, key: str = "holes") -> tuple[Interval, ...]:
    holes = tuple(Interval.from_json(i) for i in _list(doc.get(key, []), key, "[lo, hi] pairs"))
    _small_denominators((x for h in holes for x in (h.lo, h.hi)),
                        f"the lcm of the '{key}' endpoints' denominators")
    return holes


def _epsilon(text) -> Fraction:
    eps = parse_rational(text)
    _small_denominators([eps], "the denominator of epsilon")
    return eps


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"instance is missing required field '{key}'")
    return doc[key]


def _int_field(doc: dict, key: str, default: int) -> int:
    """An optional field that must be a JSON integer >= 0."""
    return parse_nonnegative_int(doc.get(key, default), f"'{key}'")


def _override(args, flag: str, default: int, doc: dict | None = None, key: str = "") -> int:
    """The --flag override if given, else the document's integer field key,
    else default; a negative override is a SchemaError."""
    value = getattr(args, flag)
    if value is None:
        return default if doc is None else _int_field(doc, key, default)
    if value < 0:
        raise SchemaError(f"--{flag} must be at least 0, got {value}")
    return value


# The largest --depth of density and martingale.  density's prefix-mass
# oracle sweeps the 2^-depth grid: at 20, on a 2-vCPU host, about 1.5 s and
# 138 MB in process, against 0.08 s and 25 MB at 16.  martingale keeps its
# rows as runs and takes about 0.01 s at 20; it shares the cap.
ROW_MAX_DEPTH = 20
# The largest extend --depth, and the largest internal grid depth of extend.
# The extension keeps its rows as runs, its crossings where h dips inside a
# hole included, so neither its time nor its memory grows with either depth:
# on a 2-vCPU host, once the parser is built, a six-hole document takes about
# 1 ms and 19 MB in process at n = 10 and --depth 16 and at the cap alike,
# where n = 57, and one whose h dips inside its second hole about 0.5 ms at
# n = 17 and at n = 56.
EXTEND_MAX_DEPTH = 60
# The largest escape 'r' and 'm_max' of tests: box m's bound (1 - 2^-(r+1))^m
# has about m (r + 1) bits.  In process on a 2-vCPU host, 63 nonempty boxes
# take about 0.015 s and 19 MB at both caps; the box rows alone take 1.2 s
# and 46 MB with both at 256, and 36 s and 211 MB with both at 512.
ESCAPE_MAX_R = ESCAPE_MAX_ROUNDS = 64
# The largest domination 'depth' of tests, each density estimate's scale depth:
# an eight-word scenario takes about 0.025 s in process on a 2-vCPU host at 64,
# 0.12 s at 128 and 0.7 s at 256.
DOMINATION_MAX_DEPTH = 64

# The largest porosity 'constant' c and 'levels' (or --depth) n: N(sigma)
# holds up to 2^(c+1) strings per gap, over n levels.  On a 2-vCPU host, in
# process, a 60-hole, 60-stage document on the 2^-12 grid takes 3 s and 92 MB
# at both caps.  They do not bound a hole of long binary period: [1/D, 2/D],
# D = 2^2040 - 1, at c = 8 takes 2.4 s and 161 MB at n = 8, and 49 s and
# 2.1 GB at n = 32.
POROSITY_MAX_CONSTANT = 8
POROSITY_MAX_LEVELS = 256


# The largest bit length of the lcm of a document's hole (or interval)
# denominators, and of an epsilon's denominator.  Reported sides are built over
# their products; a covering or density document at the cap takes under 0.01 s
# and 19 MB in process on a 2-vCPU host (0.02 s at 14,000 bits), and porosity's
# scan, which follows a hole's binary expansion, far more (see above).  The
# default, benchmark and test documents have at most 421 bits.
DENOMINATOR_MAX_BITS = 2048


def _small_denominators(values, what: str) -> None:
    """Refuse values whose denominators' lcm has more than
    DENOMINATOR_MAX_BITS bits."""
    if denominator_lcm_bits(values, DENOMINATOR_MAX_BITS) > DENOMINATOR_MAX_BITS:
        raise SchemaError(f"{what} must have at most {DENOMINATOR_MAX_BITS} bits")


def _at_most(value: int, cap: int, what: str) -> int:
    """value, which must not exceed cap; checked before anything is built."""
    if value > cap:
        raise SchemaError(f"{what} must be at most {cap}, got {value}")
    return value


def _as_docs(payload) -> list[dict]:
    if isinstance(payload, dict):
        return [payload]
    if isinstance(payload, list) and all(isinstance(d, dict) for d in payload):
        return payload
    raise SchemaError("instance file must hold an object or a list of objects")


def run_covering(args, doc, rep: Report) -> None:
    if doc is None:
        docs = []
        for index in range(10):
            c = covering_instance(args.seed, index)
            docs.append({
                "holes": [g.to_json() for g in c.gaps()],
                "epsilons": [format_rational(e) for e in COVERING_EPSILONS],
            })
    else:
        docs = _as_docs(doc)
    for i, d in enumerate(docs):
        row = class_gaps(_holes(d))
        eps_list = d.get("epsilons")
        if eps_list is None:
            eps_list = [d.get("epsilon", "1/2")]
        for e_text in _list(eps_list, "epsilons", "rationals"):
            eps = _epsilon(e_text)
            fc = low_density_open_set(row, eps)
            rep.add(fc.inequalities(), f"instance {i} eps {eps}")


def run_density(args, doc, rep: Report) -> None:
    grid_depth = rep.meta["grid_depth"] = _at_most(_override(args, "depth", 8), ROW_MAX_DEPTH,
                                                   "--depth")
    if doc is None:
        c, eps = oracle_match_instance(args.seed, 0)
        docs = [{
            "holes": [g.to_json() for g in c.gaps()],
            "epsilon": format_rational(eps),
        }]
    else:
        docs = _as_docs(doc)
    for i, d in enumerate(docs):
        holes = _holes(d)
        eps = _epsilon(d.get("epsilon", "1/2"))
        fc = low_density_open_set(class_gaps(holes), eps)
        prefix = f"instance {i}"
        rep.add(fc.inequalities(), prefix)
        diff, equal = oracle_difference(FULL_SET.subtract_open(holes), fc, grid_depth)
        rep.add([Check(f"{prefix}: U equals the prefix-mass oracle after boundary "
                       "normalization, symmetric difference", diff, ZERO, equal)])


def run_porosity(args, doc, rep: Report) -> None:
    if doc is None:
        enum, c, levels = porosity_instance(args.seed, 3)
        docs = [{"holes": [i.to_json() for i in enum.items], "constant": c,
                 "levels": levels, "stages": 200}]
    else:
        docs = _as_docs(doc)
    for i, d in enumerate(docs):
        enum = StagedOpenEnumeration(_holes(d))
        c = _at_most(int(d.get("constant", 1)), POROSITY_MAX_CONSTANT, "porosity 'constant'")
        levels = _at_most(_override(args, "depth", 3, d, "levels"), POROSITY_MAX_LEVELS,
                          "porosity 'levels' (or --depth)")
        pt = porosity_test(enum, c, levels, _override(args, "stages", 200, d, "stages"))
        prefix = f"instance {i} (c={c}, levels={levels})"
        rep.add(map(pt.node_row, pt.nodes), f"{prefix}: node")
        rep.add([*pt.bound_checks(), NESTING_ROW], prefix)


def _domination_doc(scenario: DominationScenario, case: int, n_blocks: int) -> dict:
    return {
        "words": list(scenario.words),
        "z": format_rational(scenario.z),
        "eps": format_rational(scenario.eps),
        "depth": scenario.depth,
        "case": case,
        "n_blocks": n_blocks,
    }


def run_tests(args, doc, rep: Report) -> None:
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
    for i, d in enumerate(_list(doc.get("escape", []), "escape", "objects")):
        inst = EscapeInstance.from_json(d)
        _small_denominators((x for h in inst.enum.items for x in (h.lo, h.hi)),
                            "the lcm of the escape 'holes' endpoints' denominators")
        _at_most(inst.r, ESCAPE_MAX_R, "escape 'r'")
        _at_most(inst.m_max, ESCAPE_MAX_ROUNDS, "escape 'm_max'")
        verdict, records, caps = escape_rows(inst)
        prefix = f"escape {i} (r={inst.r}, m_max={inst.m_max}, verdict {verdict})"
        rep.add(records, prefix)
        rep.add(caps, f"{prefix}: component cap")
    for i, d in enumerate(_list(doc.get("domination", []), "domination", "objects")):
        if not isinstance(d, dict):
            raise SchemaError(f"domination entry {i} must be an object, got {d!r}")
        words = tuple(_list(_require(d, "words"), "words", "bit strings"))
        scenario = DominationScenario(
            words, parse_rational(_require(d, "z")),
            parse_rational(_require(d, "eps")),
            _at_most(_int_field(d, "depth", 12), DOMINATION_MAX_DEPTH, "domination 'depth'"),
        )
        case = _int_field(d, "case", 1)
        n_blocks = _int_field(d, "n_blocks", 2)
        prefix = f"domination {i} (case {case})"
        try:
            dom = domination_tests(scenario, case, n_blocks)
            rep.add(dom.records, prefix)
        except BudgetExhausted as exc:
            rep.budget_exhausted.append(f"{prefix}: {exc}")


def run_martingale(args, doc, rep: Report) -> None:
    if doc is None:
        m = random_fair_table(battery_rng(args.seed, "cli-martingale", 0), 4)
        doc = {"martingale": m.to_json(),
               "q": format_rational(m.value("") + Fraction(1, 2)), "eps": "1/2"}
    if not isinstance(doc, dict):
        raise SchemaError("martingale instance must be an object")
    m = TableMartingale.from_json(_require(doc, "martingale"))
    depth = rep.meta["depth"] = _at_most(_override(args, "depth", 12), ROW_MAX_DEPTH, "--depth")
    rep.add([fairness_row(m, depth)])
    q = parse_rational(_require(doc, "q"))
    eps = parse_rational(doc.get("eps", "1/2"))
    sigma = doc.get("sigma", "")
    cond = Condition(sigma, m, q)
    try:
        ext = savings_extension(cond, eps, depth)
    except BudgetExhausted as exc:
        rep.budget_exhausted.append(f"savings extension: {exc}")
        return
    rep.add([flag_check(f"savings extension is a forcing extension (depth {depth})",
                        condition_extends(ext.condition, cond, depth)),
             *savings_rows(cond, eps, ext)])
    window_depth = min(10, depth)
    if len(ext.tau) <= window_depth:
        rep.add(window_rows(cond, ext, window_depth), "window")


def run_extend(args, doc, rep: Report) -> None:
    if doc is None:
        h, enum = extension_instance(args.seed, 0)
        doc = {"holes": [i.to_json() for i in enum.items], "h": h.to_json(),
               "n": 10}
    if not isinstance(doc, dict):
        raise SchemaError("extend instance must be an object")
    enum = StagedOpenEnumeration(_holes(doc))
    h = PiecewiseLinear.from_json(_require(doc, "h"))
    n = rep.meta["n"] = _int_field(doc, "n", 10)
    _at_most(extension_grid_depth(h.lipschitz_bound(), n), EXTEND_MAX_DEPTH,
             "the internal grid depth (n + 3, raised by h's Lipschitz bound)")
    grid_depth = rep.meta["grid_depth"] = _at_most(_override(args, "depth", 12),
                                                   EXTEND_MAX_DEPTH, "--depth")
    rep.add(extension_rows(h, enum, n, grid_depth))


def run_counterexample(args, doc, rep: Report) -> None:
    if doc is None:
        doc = {"intervals": [i.to_json() for i in default_enumeration()],
               "overlap_policy": "reject"}
    if not isinstance(doc, dict):
        raise SchemaError("counterexample instance must be an object")
    _require(doc, "intervals")
    items = _holes(doc, "intervals")
    items = items[: _override(args, "stages", len(items))]
    policy = str(doc.get("overlap_policy", "reject"))
    # no spike height exponent above MAX_HEIGHT_EXPONENT can be realized
    k_max = _at_most(_override(args, "depth", 16, doc, "k_max"), MAX_HEIGHT_EXPONENT,
                     "k_max (--depth)")
    plan, trace = build_counterexample(items, policy)
    rep.meta.update(plan=plan.to_json(), trace=trace.to_json(), k_max=k_max)
    rep.add(verify_denjoy_failure(plan, trace, k_max).rows)


def run_verify_all(args, doc, rep: Report) -> None:
    if doc is not None:
        raise SchemaError("verify-all takes no instance document")
    summary = []
    for battery in run_all(args.seed, rep.as_csv):
        passed = not battery.failed
        rep.add([Check(f"criterion {battery.number}: {battery.title}, violations",
                       Fraction(battery.failed), ZERO, passed)])
        rep.add_laid_out(battery.rows, battery.failed)
        rep.budget_exhausted.extend(
            f"criterion {battery.number}: {note}" for note in battery.notes
        )
        summary.append({
            "number": battery.number,
            "title": battery.title,
            "checks": len(battery.rows),
            "passed": passed,
        })
    rep.meta["criteria"] = summary


COMMANDS = (
    ("density", run_density, "covering bounds plus the brute-force oracle comparison"),
    ("porosity", run_porosity, "staged porosity test decay bounds"),
    ("covering", run_covering, "fat-interval covering bounds over instance batches"),
    ("tests", run_tests, "escape-set and domination randomness tests"),
    ("martingale", run_martingale, "fairness, savings extensions, and window density"),
    ("extend", run_extend, "monotone extension from a closed class"),
    ("counterexample", run_counterexample, "spike plan and per-scale slope certificates"),
    ("verify-all", run_verify_all, "run the full ten-battery verification suite"),
)
RUNNERS = {name: run for name, run, _help in COMMANDS}


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the commands share one option set.  It
    is built once per process and shared, so callers only parse with it;
    each parse makes a fresh namespace, and usage errors and help go to the
    sys.stderr and sys.stdout of that call."""
    parser = argparse.ArgumentParser(
        prog="densitylab",
        description="Exact-rational verification of density, porosity,\n"
        "randomness-test, martingale, and derivative inequalities.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<16}{helptext}" for name, _run, helptext in COMMANDS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=RUNNERS, metavar="command",
                        help="the check to run, one of the commands below")
    parser.add_argument("--instance",
                        help="JSON instance document (file path, '-' for stdin)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for generated default instances")
    parser.add_argument("--depth", type=int, default=None,
                        help="depth override (grid, search, or k_max)")
    parser.add_argument("--stages", type=int, default=None,
                        help="stage count override where applicable")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report (default)")
    fmt.add_argument("--csv", action="store_true", help="emit a CSV report")
    parser.add_argument("--output", default="-",
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
    except UnicodeDecodeError as exc:
        raise SchemaError(f"instance file is not UTF-8: {exc}") from None


def _write_report(output: str, payload: bytes) -> None:
    if output == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    try:
        with open(output, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise SchemaError(f"cannot write report file: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.command, args.seed, args.csv)
    try:
        RUNNERS[args.command](args, _load_doc(args), report)
        _write_report(args.output, to_csv_bytes(report) if args.csv else to_json_bytes(report))
    except (SchemaError, DomainError) as exc:
        error = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": str(exc),
            "kind": type(exc).__name__,
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2
    return 0 if report.all_hold() else 1


if __name__ == "__main__":
    sys.exit(main())
