"""Checks on the library source itself."""

import ast
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
