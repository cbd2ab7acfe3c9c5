from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitylab.bits import (
    all_strings,
    cylinder_bounds,
    format_rational,
    is_antichain,
    is_dyadic,
    parse_rational,
    validate_bits,
)
from densitylab.errors import SchemaError


def test_parse_format_roundtrip():
    for text in ["1/3", "0", "7/16", "355/113"]:
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q


def test_parse_rejects_junk():
    for bad in ["", "one", "1/0", "--2", "1.5e3x"]:
        with pytest.raises(SchemaError):
            parse_rational(bad)


def test_is_dyadic():
    assert is_dyadic(F(3, 8)) and is_dyadic(F(0)) and is_dyadic(F(1))
    assert not is_dyadic(F(1, 3)) and not is_dyadic(F(5, 6))


def test_bit_value_and_bounds():
    assert cylinder_bounds("") == (F(0), F(1))
    assert cylinder_bounds("10") == (F(1, 2), F(3, 4))
    assert cylinder_bounds("101") == (F(5, 8), F(3, 4))


def test_validate_bits():
    assert validate_bits("0101") == "0101"
    with pytest.raises(SchemaError):
        validate_bits("01201")


def test_all_strings():
    assert all_strings(0) == [""]
    assert all_strings(2) == ["00", "01", "10", "11"]


def test_is_antichain():
    assert is_antichain(["00", "01", "1"])
    assert not is_antichain(["0", "01"])
    assert is_antichain([])


def all_pairs_antichain(strings):
    """The definition: no member is a proper prefix of another, over all pairs."""
    return not any(s != t and t.startswith(s) for s in strings for t in strings)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("01", max_size=6), max_size=12))
@example(["0", "00", "1"])  # an extension right after its prefix
@example(["00", "01", "1", "10"])  # the last pair is the only one
@example(["0", "10", "11"])  # siblings and cousins
@example(["", "1"])  # the root extends to everything
@example(["01", "01"])  # a repeat is no proper prefix
def test_is_antichain_matches_all_pairs(strings):
    assert is_antichain(strings) == all_pairs_antichain(strings)
