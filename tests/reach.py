"""Reachability audit: which library functions do the batteries and commands enter?

The audit runs, in this process and under a call-event tracer, every battery
of ``suite.CRITERIA`` at the default seed, every command's default report in
JSON and in CSV, and one ``verify-all --json`` report, and records each
``src/densitylab`` function whose code starts running.  A function it never
enters runs for no battery and no command.  ``verify-all`` runs its batteries
in forked children, whose calls the tracer does not see; the batteries run
in this process as well.

Run as a script, it prints the never-entered functions by module::

    PYTHONPATH=src python tests/reach.py

Stdlib only.  ``tests/test_reach.py`` holds the list of the functions that
may stay never entered, each with a tag and a reason.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import densitylab
from densitylab import cli
from densitylab.suite import CRITERIA, DEFAULT_SEED, run_criterion

PACKAGE = Path(densitylab.__file__).parent  # as the code objects name their files

# ROADMAP item 2: constructions that back the difference tests from
# non-density and from porosity and the anti-debt dichotomy, which no battery
# checks yet.  No battery or command calls them, and no other library code
# names them.
NOT_YET_WIRED = frozenset({
    "density_difference_test",
    "capture_check",
    "difference_test_from_porosity",
    "porosity_witness",
    "anti_debt_strategy",
    "with_floor_adapter",
    "negativity_witnesses",
})


def library_functions() -> dict[tuple[str, int], str]:
    """(source file, first line of its code) -> "module:qualname" for every
    function in the package, methods and nested functions included.  A
    decorated function's code starts at its first decorator."""
    found = {}

    def walk(body, filename: str, module: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, filename, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found[(filename, first)] = f"{module}:{prefix}{node.name}"
                walk(node.body, filename, module, f"{prefix}{node.name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)).body, str(path), path.stem, "")
    return found


def _inputs() -> None:
    """Every battery, every command's default report in JSON and CSV, and one
    verify-all JSON report, with the reports written to the null device."""
    for number, _title, _fn in CRITERIA:
        run_criterion(number, DEFAULT_SEED)
    for name, _run, _help in cli.COMMANDS:
        formats = ("--json",) if name == "verify-all" else ("--json", "--csv")
        for fmt in formats:
            cli.main([name, fmt, "--output", os.devnull])


def never_entered() -> set[str]:
    """The "module:qualname" of every library function that _inputs does
    not enter."""
    functions = library_functions()
    codes: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        codes.add((code.co_filename, code.co_firstlineno))
        # no per-line events: the call event alone says the function ran

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        _inputs()
    finally:
        sys.settrace(previous)
    return {name for key, name in functions.items() if key not in codes}


def main() -> None:
    missed = sorted(never_entered())
    by_module: dict[str, list[str]] = {}
    for key in missed:
        module, qualname = key.split(":")
        by_module.setdefault(module, []).append(qualname)
    total = len(library_functions())
    print(f"{len(missed)} of {total} library functions never entered")
    for module, names in by_module.items():
        print(f"{module}:")
        for name in names:
            print(f"    {name}")


if __name__ == "__main__":
    main()
