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

import importlib
import os
import pkgutil
import sys
from pathlib import Path
from types import CodeType, FunctionType

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


def _functions(obj):
    """The plain functions obj stands for: itself, or the function of a
    static or class method, cached function, cached property or property."""
    inner = (getattr(obj, name, None) for name in ("__func__", "__wrapped__", "func", "fget"))
    return [f for f in (obj, *inner) if isinstance(f, FunctionType)]


def library_functions() -> dict[tuple[str, int], str]:
    """(source file, first line of its code) -> "module:qualname" for every
    function in the package, methods and nested functions included.  Both
    come from the imported code objects, which the tracer sees, so an edit
    to a source file after import changes neither.  A decorated function's
    code starts at its first decorator."""
    found = {}

    def add(code: CodeType, module: str, qualname: str) -> None:
        found[(code.co_filename, code.co_firstlineno)] = f"{module}:{qualname}"
        for inner in code.co_consts:
            # lambdas and comprehensions are named <lambda>, <genexpr>, ...
            if isinstance(inner, CodeType) and not inner.co_name.startswith("<"):
                add(inner, module, f"{qualname}.<locals>.{inner.co_name}")

    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"densitylab.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for f in (f for member in members for f in _functions(member)):
                # imported functions have other files
                if f.__code__.co_filename == module.__file__:
                    add(f.__code__, info.name, f.__qualname__)
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
