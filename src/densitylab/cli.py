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

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
    CRITERIA,
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


# Caps on the integers a command reads, each checked before anything is
# built; README's size limits give the time and memory each one bounds.
# The largest --depth of density, whose prefix-mass oracle sweeps the
# 2^-depth grid, and of martingale.
ROW_MAX_DEPTH = 20
# The largest extend --depth and internal grid depth; extend keeps its rows
# as runs, so its time and memory grow with neither.
EXTEND_MAX_DEPTH = 60
# The largest escape 'r' and 'm_max' of tests: box m's bound
# (1 - 2^-(r+1))^m has about m (r + 1) bits.
ESCAPE_MAX_R = ESCAPE_MAX_ROUNDS = 64
# The largest domination 'depth' of tests, each density estimate's scale depth.
DOMINATION_MAX_DEPTH = 64
# The largest porosity 'constant' c and 'levels' (or --depth) n: N(sigma)
# holds up to 2^(c+1) strings per gap, over n levels.  They do not bound a
# hole of long binary period.
POROSITY_MAX_CONSTANT = 8
POROSITY_MAX_LEVELS = 256
# The largest bit length of the lcm of a document's hole (or interval)
# denominators, and of an epsilon's denominator: reported sides are built
# over their products.
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
        doc = [{"holes": [g.to_json() for g in covering_instance(args.seed, i).gaps()],
                "epsilons": [format_rational(e) for e in COVERING_EPSILONS]} for i in range(10)]
    for i, d in enumerate(_as_docs(doc)):
        row = class_gaps(_holes(d))
        eps_list = d.get("epsilons")
        if eps_list is None:
            eps_list = [d.get("epsilon", "1/2")]
        for e_text in _list(eps_list, "epsilons", "rationals"):
            eps = _epsilon(e_text)
            rep.add(low_density_open_set(row, eps).inequalities(), f"instance {i} eps {eps}")


def run_density(args, doc, rep: Report) -> None:
    grid_depth = rep.meta["grid_depth"] = _at_most(_override(args, "depth", 8), ROW_MAX_DEPTH,
                                                   "--depth")
    if doc is None:
        c, eps = oracle_match_instance(args.seed, 0)
        doc = {"holes": [g.to_json() for g in c.gaps()], "epsilon": format_rational(eps)}
    for i, d in enumerate(_as_docs(doc)):
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
        doc = {"holes": [i.to_json() for i in enum.items], "constant": c, "levels": levels,
               "stages": 200}
    for i, d in enumerate(_as_docs(doc)):
        enum = StagedOpenEnumeration(_holes(d))
        c = _at_most(int(d.get("constant", 1)), POROSITY_MAX_CONSTANT, "porosity 'constant'")
        levels = _at_most(_override(args, "depth", 3, d, "levels"), POROSITY_MAX_LEVELS,
                          "porosity 'levels' (or --depth)")
        pt = porosity_test(enum, c, levels, _override(args, "stages", 200, d, "stages"))
        prefix = f"instance {i} (c={c}, levels={levels})"
        rep.add(map(pt.node_row, pt.nodes), f"{prefix}: node")
        rep.add([*pt.bound_checks(), NESTING_ROW], prefix)


def run_tests(args, doc, rep: Report) -> None:
    if doc is None:
        domination = [domination_instance(args.seed, i) for i in range(2)]
        doc = {"escape": [escape_instance(args.seed, i).to_json() for i in range(3)],
               "domination": [{"words": list(s.words), "z": format_rational(s.z),
                               "eps": format_rational(s.eps), "depth": s.depth, "case": case,
                               "n_blocks": n_blocks} for s, case, n_blocks in domination]}
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
            words, parse_rational(_require(d, "z")), parse_rational(_require(d, "eps")),
            _at_most(_int_field(d, "depth", 12), DOMINATION_MAX_DEPTH, "domination 'depth'"))
        case = _int_field(d, "case", 1)
        n_blocks = _int_field(d, "n_blocks", 2)
        prefix = f"domination {i} (case {case})"
        try:
            rep.add(domination_tests(scenario, case, n_blocks).records, prefix)
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
        doc = {"holes": [i.to_json() for i in enum.items], "h": h.to_json(), "n": 10}
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
    for (number, title, _fn), battery in zip(CRITERIA, run_all(args.seed, rep.as_csv)):
        passed = not battery.failed
        rep.add([Check(f"criterion {number}: {title}, violations",
                       Fraction(battery.failed), ZERO, passed)])
        rep.rows += battery.rows
        rep.failed += battery.failed
        rep.budget_exhausted.extend(f"criterion {number}: {note}"
                                    for note in battery.budget_exhausted)
        summary.append({"number": number, "title": title,
                        "checks": len(battery.rows), "passed": passed})
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


# The one option set every command takes: name -> (type, metavar, default,
# help).  The two flags, which have no metavar, pick the report format and
# exclude each other.
OPTIONS = {
    "instance": (str, "FILE", None, "JSON instance document (file path, '-' for stdin)"),
    "seed": (int, "N", DEFAULT_SEED, "seed for generated default instances"),
    "depth": (int, "N", None, "depth override (grid, search, or k_max)"),
    "stages": (int, "N", None, "stage count override where applicable"),
    "output": (str, "PATH", "-", "output path, '-' for stdout (default)"),
    "json": (bool, None, False, "emit a JSON report (default)"),
    "csv": (bool, None, False, "emit a CSV report"),
}
USAGE = "usage: densitylab [-h] {} [--json | --csv] command\n".format(
    " ".join(f"[--{name} {spec[1]}]" for name, spec in OPTIONS.items() if spec[1]))


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}densitylab: error: {message}\n")
    raise SystemExit(2)


def _option(arg: str):
    """(name, the value joined by '=' or None) of the option arg names, or
    (arg, None) if it names none; None if arg is a command or a value."""
    if arg[:2] == "--":
        head, eq, value = arg.partition("=")
        names = [name for name in (*OPTIONS, "help") if f"--{name}".startswith(head)]
        if len(names) > 1:
            _usage_error(f"ambiguous option: {head} could match --{', --'.join(names)}")
        if names:
            return names[0], value if eq else None
    elif arg[:2] == "-h":  # -hh... and -h=h... also mean -h
        value = arg[3:] if arg[2:3] == "=" else arg[2:]
        return "help", None if arg == "-h" or value and not value.strip("h") else value
    if arg[:1] != "-" or arg == "-" or " " in arg or re.match(r"-\d+$|-\d*\.\d+$", arg):
        return None
    return arg, None


def parse_args(argv) -> SimpleNamespace:
    """The command and OPTIONS of argv, read in order as argparse read them:
    a unique prefix names a long option, a value follows its option or joins
    it by '=', a later repeat wins, and the words after a '--' are positional.
    -h exits 0; a usage error writes to stderr and raises SystemExit(2)."""
    argv = list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    # an argv without a "--" gets one after its last word, so a last option has no value
    kinds = [*map(_option, argv[:cut]), ("--", None), *[None] * (len(argv) - cut - 1)]
    values = {name: spec[2] for name, spec in OPTIONS.items()}
    command = after = None
    extras, i = [], 0
    while i < len(argv):
        arg, (name, value) = argv[i], kinds[i] or ("", None)
        i += 1
        if not name and command is None:
            if arg not in RUNNERS:
                _usage_error(f"invalid command {arg!r}")
            command, after = arg, i
        elif name == "help" and value is None:
            print(USAGE, "Exact-rational verification of density, porosity, randomness-test,",
                  "martingale, and derivative inequalities.\n\noptions:",
                  f"  {'-h, --help':<18}show this help message and exit",
                  *(f"  {'--' + name + ' ' + (spec[1] or ''):<18}{spec[3]}"
                    for name, spec in OPTIONS.items()),
                  "\ncommands:", *(f"  {name:<16}{text}" for name, _, text in COMMANDS), sep="\n")
            raise SystemExit(0)
        elif name not in OPTIONS and name != "help":
            # a second word or an unknown option; argparse drops a "--" by the command
            if name != "--" or not (after == i - 1 or command is None and i < len(argv)):
                extras.append(arg)
        elif name == "help" or OPTIONS[name][1] is None:
            if value is not None:
                _usage_error(f"--{name} takes no value")
            if values["csv" if name == "json" else "json"]:
                _usage_error("--json and --csv exclude each other")
            values[name] = True
        else:
            if value is None:
                if kinds[i] is not None:
                    _usage_error(f"--{name} expects one argument")
                value, i = argv[i], i + 1
            try:
                values[name] = OPTIONS[name][0](value)
            except ValueError:
                _usage_error(f"--{name} expects {OPTIONS[name][0].__name__}, got {value!r}")
    if command is None or extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}" if command
                     else "the command is missing")
    return SimpleNamespace(command=command, **values)


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    report = Report(args.command, args.seed, args.csv)
    try:
        RUNNERS[args.command](args, _load_doc(args), report)
        _write_report(args.output, to_csv_bytes(report) if args.csv else to_json_bytes(report))
    except (SchemaError, DomainError) as exc:
        error = {"schema_version": SCHEMA_VERSION, "command": args.command,
                 "error": str(exc), "kind": type(exc).__name__}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
