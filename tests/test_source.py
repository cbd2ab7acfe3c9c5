"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import densitylab

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


# ROADMAP item 3: a library function that no command or battery reaches
# either backs a check the paper supports or is deleted.  These back the
# difference tests from non-density and from porosity and the anti-debt
# dichotomy, which no battery checks yet.
NOT_YET_WIRED = frozenset({
    "density_difference_test",
    "capture_check",
    "difference_test_from_porosity",
    "porosity_witness",
    "anti_debt_strategy",
    "with_floor_adapter",
    "negativity_witnesses",
})


def _names_in(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_name_is_used_by_the_library():
    defined, used = set(), set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _names_in(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
                # a reference from inside its own definition does not count
                names.discard(node.name)
            used |= names
    assert NOT_YET_WIRED <= defined
    assert sorted(defined - used) == sorted(NOT_YET_WIRED)


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


def test_importing_the_cli_loads_no_process_pool():
    # verify-all imports its pool when it runs; every command pays the import
    probe = (
        "import sys; import densitylab.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
    )
    assert loaded.stdout.strip() == "[]"
