"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import densitylab
import densitylab.suite
from reach import NOT_YET_WIRED

SOURCES = sorted(Path(densitylab.__file__).parent.glob("*.py"))


def test_no_check_lives_in_an_assert():
    # python -O strips asserts, so an invariant must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _names_in(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]


def test_every_public_name_is_used_by_the_library():
    # a top-level name no library code reads is one of ROADMAP item 2's
    # NOT_YET_WIRED constructions; tests/test_reach.py finds, by running the
    # batteries and the commands, the functions nothing enters
    defined, used = set(), set()
    for tree in _trees():
        for node in tree.body:
            names = _names_in(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
                # a reference from inside its own definition does not count
                names.discard(node.name)
            used |= names
    assert NOT_YET_WIRED <= defined
    assert sorted(defined - used) == sorted(NOT_YET_WIRED)


# Defaulted parameters no library call passes, as (callee, parameter); a
# class's __init__ is called through the class name.  A call tracer cannot
# see a default that no call passes, so this stays a scan of the source.
UNPASSED_DEFAULTS = frozenset({
    ("main", "argv"),  # the entry point the tests and the benchmark call
    ("negativity_witnesses", "base"),  # NOT_YET_WIRED
})


def _functions(body, cls: str | None = None):
    """(enclosing class name or None, def) for every function in body, nested
    ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node.name)
        elif isinstance(node, ast.FunctionDef):
            yield cls, node
            yield from _functions(node.body)


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Does call pass the parameter called name, by keyword or, unless it is
    keyword-only (position None), at its position after self?  A * or **
    argument may pass anything."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_defaulted_parameter_is_passed_by_the_library():
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, (ast.Name, ast.Attribute)):
                    calls.setdefault(f.id if isinstance(f, ast.Name) else f.attr, []).append(node)
    unpassed = set()
    for tree in trees:
        for cls, fn in _functions(tree.body):
            positional = fn.args.posonlyargs + fn.args.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            positional = positional[1:] if bound else positional
            defaulted = [
                (i, arg.arg)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(fn.args.defaults)
            ] + [
                (None, arg.arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            callee = cls if fn.name == "__init__" else fn.name
            unpassed |= {
                (callee, name)
                for position, name in defaulted
                if not any(_passes(call, position, name) for call in calls.get(callee, ()))
            }
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


# the checks the batteries and the CLI share; suite.py states each once
BATTERY_CHECKS = frozenset({
    "extension_grid_check",
    "fairness_violations",
    "claim5_density_records",
    "build_escape_sets",
    "CylinderDifferenceTest",
    "build_domination_tests",
    "least_drop_h",
})


def test_cli_states_no_battery_check():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(cli.read_text(), filename=str(cli))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted((_names_in(tree) | imported) & BATTERY_CHECKS) == []


def test_cli_builds_one_parser():
    # the commands share one option set, so one parser reads it from one
    # table, without argparse, and no command reads an option of its own
    cli = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(cli.read_text(), filename=str(cli))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "argparse" not in imported
    tables = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and all(isinstance(value, ast.Tuple) for value in node.value.values)
    ]
    assert [ast.unparse(node.targets[0]) for node in tables] == ["OPTIONS"]
    options = {key.value for key in tables[0].value.keys}
    # args.name, and the name in a call such as _override(args, "depth", ...)
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args"
    } | {
        node.args[1].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and len(node.args) > 1
        and ast.unparse(node.args[0]) == "args" and isinstance(node.args[1], ast.Constant)
    }
    assert "depth" in read and sorted(read - options) == ["command"]


def _imported_modules() -> set[str]:
    """Every module a library module imports, by import or from-import."""
    return {
        alias.name
        for tree in _trees()
        for node in ast.walk(tree)
        for alias in (node.names if isinstance(node, ast.Import) else ())
    } | {
        node.module
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }


def test_importing_the_cli_loads_no_process_pool():
    # verify-all forks its children itself and imports what it sends their
    # records with when it runs; every command would pay for these imports
    assert sorted(m for m in _imported_modules()
                  if m.split(".")[0] in ("multiprocessing", "concurrent")) == []
    probe = (
        "import sys; import densitylab.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'pickle', 'select') "
        "if m in sys.modules))"
    )
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_a_command_loads_no_argparse_gettext_or_locale():
    # argparse imported gettext, and gettext locale: on a 2-vCPU host they and
    # the parser took about 2.2 ms of a fresh process's first command
    probe = (
        "import os, sys; import densitylab.cli; "
        "code = densitylab.cli.main(['covering', '--output', os.devnull]); "
        "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert loaded.stdout.strip() == "0 []"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # the records are plain classes: building 26 dataclasses and importing
    # dataclasses, with inspect, dis, ast and tokenize behind it, took about
    # two thirds of a fresh import of the cli from a bytecode cache
    assert "dataclasses" not in _imported_modules()
    # only what the import itself adds counts, not what site loaded before it
    probe = (
        "import sys; before = set(sys.modules); import densitylab.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') "
        "if m in sys.modules and m not in before))"
    )
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_importing_the_report_loads_only_its_leaf_modules():
    # every kernel builds its rows as report.Checks, so report must not
    # import the kernels back
    probe = (
        "import sys; import densitylab.report; "
        "print(sorted(m for m in sys.modules if m.startswith('densitylab.')))"
    )
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert loaded.stdout.strip() == str(
        ["densitylab.bits", "densitylab.errors", "densitylab.report", "densitylab.roottwo"])


def test_martingales_define_values_once():
    # a martingale is its rows(base, k) kernel; no construction states its
    # values a second time, string by string
    source = next(path for path in SOURCES if path.name == "martingales.py")
    tree = ast.parse(source.read_text(), filename=str(source))
    init = next(
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "Martingale"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    assert "evaluator" not in {arg.arg for arg in init.args.args + init.args.kwonlyargs}
    assert [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "evaluator"
    ] == []


def test_batteries_write_their_rows_where_commands_do():
    # a battery adds its rows to the report.Report it is given, as a command
    # adds them to its own, so no second row record, renaming helper or
    # second way in stands between a battery and its report
    assert [
        node.name
        for tree in _trees()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("check_rows", "CriterionOutcome", "BatteryRows")
    ] == []
    report = next(path for path in SOURCES if path.name == "report.py")
    record = next(
        node for node in ast.parse(report.read_text(), filename=str(report)).body
        if isinstance(node, ast.ClassDef) and node.name == "Report"
    )
    assert [node.name for node in record.body if isinstance(node, ast.FunctionDef)] == [
        "__init__", "add"]
    suite = next(path for path in SOURCES if path.name == "suite.py")
    suite_tree = ast.parse(suite.read_text(), filename=str(suite))
    imported = {
        alias.name
        for node in suite_tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "Report" in imported and "lay_out" not in imported
    batteries = {fn.__name__ for _number, _title, fn in densitylab.suite.CRITERIA}
    defs = {
        node.name: node
        for node in suite_tree.body
        if isinstance(node, ast.FunctionDef) and node.name in batteries
    }
    assert sorted(defs) == sorted(batteries)
    assert sorted(
        f"{name}:{node.lineno}"
        for name, fn in defs.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and node.value is not None
    ) == []


def test_the_only_catch_all_handler_is_the_batterys():
    # run_criterion turns whatever a battery raises into a failed row; any
    # other handler that catches everything would hide a bug as a verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or _names_in(node.type) & {"Exception", "BaseException"})
    ]
    suite = next(path for path in SOURCES if path.name == "suite.py")
    run_criterion = next(
        node for node in ast.parse(suite.read_text(), filename=str(suite)).body
        if isinstance(node, ast.FunctionDef) and node.name == "run_criterion"
    )
    handler = next(n for n in ast.walk(run_criterion) if isinstance(n, ast.ExceptHandler))
    assert found == [f"suite.py:{handler.lineno}"]
