"""Exact Q(sqrt 2) arithmetic: signs, ordering, powers, approximation."""

from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.errors import DomainError
from densitylab.roottwo import SQRT2, QuadValue, half_power, sign, sqrt2_power

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=32)


def test_sign_cases():
    assert QuadValue(F(3), F(-2)).sign() == 1  # 9 > 8
    assert QuadValue(F(1), F(-1)).sign() == -1  # 1 < 2
    assert QuadValue(F(-3), F(2)).sign() == -1
    assert QuadValue(F(-1), F(1)).sign() == 1
    assert QuadValue(F(0), F(0)).sign() == 0
    assert QuadValue(F(5), F(1)).sign() == 1
    assert QuadValue(F(-5), F(-1)).sign() == -1


def reference_sign(p, q):
    """The sign of p + q sqrt(2) from integer square roots: for q != 0,
    |q| sqrt(2) lies strictly between r = isqrt(2 q^2) and r + 1, so p + q
    sqrt(2) is positive for q > 0 iff p >= -r, and for q < 0 iff p > r."""
    if q == 0:
        return (p > 0) - (p < 0)
    r = isqrt(2 * q * q)
    return 1 if (p >= -r if q > 0 else p > r) else -1


# Pell pairs, p^2 - 2 q^2 = +-1: p is the integer nearest |q| sqrt(2), so
# p - q sqrt(2) is as close to 0 as any pair of their size can bring it
PELL = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (239, 169), (577, 408),
        (1393, 985), (3363, 2378), (8119, 5741), (19601, 13860)]


@pytest.mark.parametrize("p, q", PELL)
def test_sign_on_pell_pairs_at_every_sign_combination(p, q):
    assert abs(p * p - 2 * q * q) == 1
    for sp in (1, -1):
        for sq in (1, -1):
            want = reference_sign(sp * p, sq * q)
            assert sign(sp * p, sq * q) == want
            # over any positive denominators the sign is that of the integers
            assert QuadValue(F(sp * p, 3), F(sq * q, 3)).sign() == want
    assert sign(p, -q) == (1 if p * p > 2 * q * q else -1)
    assert {sign(p, -q), sign(-p, q)} == {1, -1}


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_sign_matches_the_integer_square_root_reference(p, q):
    assert sign(p, q) == reference_sign(p, q)
    assert sign(p, 0) == (p > 0) - (p < 0) and sign(0, q) == (q > 0) - (q < 0)


def test_ordering_against_rationals():
    assert 1 < SQRT2 < F(3, 2)
    assert SQRT2 > F(7, 5) and SQRT2 < F(17, 12)
    assert -SQRT2 < -F(7, 5)


def test_arithmetic_identities():
    assert (1 + SQRT2) * (SQRT2 - 1) == 1
    assert SQRT2 * SQRT2 == QuadValue(F(2), F(0))
    assert QuadValue(F(1), F(0)) / (1 + SQRT2) == SQRT2 - 1
    assert (3 - 2 * SQRT2) + (2 * SQRT2 - 3) == 0


def test_division_by_zero_quad():
    with pytest.raises(ZeroDivisionError):
        SQRT2 / QuadValue(F(0), F(0))


def test_powers():
    assert sqrt2_power(0) == F(1)
    assert sqrt2_power(2) == F(2)
    assert sqrt2_power(-2) == F(1, 2)
    assert sqrt2_power(1) == SQRT2
    assert sqrt2_power(3) == QuadValue(F(0), F(2))
    assert sqrt2_power(-1) == QuadValue(F(0), F(1, 2))
    assert half_power(0) == F(1)
    assert half_power(2) == F(1, 2)
    assert half_power(4) == F(1, 4)
    assert half_power(1) == QuadValue(F(0), F(1, 2))
    with pytest.raises(DomainError):
        half_power(-1)


@given(n=st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_half_power_squares_exactly(n):
    v = QuadValue(F(0), F(0)) + half_power(n)
    assert v * v == F(1, 1 << n)
    assert v.sign() == 1


@given(a=rationals, b=rationals)
@settings(max_examples=80, deadline=None)
def test_sign_agrees_with_squared_comparison(a, b):
    v = QuadValue(a, b)
    s = v.sign()
    # (a + b sqrt2) and (a - b sqrt2) multiply to a^2 - 2 b^2
    conj = QuadValue(a, -b)
    prod = v * conj
    assert prod.b == 0
    prod = prod.a
    if s == 0:
        assert a == 0 and b == 0
    else:
        assert (v * v).sign() == 1
        assert conj.sign() * s == ((prod > 0) - (prod < 0))


def test_to_json_writes_both_coordinates():
    assert QuadValue(F(1, 3), F(-2, 7)).to_json() == {"a": "1/3", "b": "-2/7"}


def test_a_rational_quad_value_equals_and_hashes_as_its_fraction():
    half = QuadValue(F(1, 2), F(0))
    assert half == F(1, 2) and F(1, 2) == half
    assert hash(half) == hash(F(1, 2))
    assert half in {F(1, 2)} and F(1, 2) in {half}
    assert QuadValue(F(3), F(0)) in {3} and QuadValue(F(3), F(0)) == 3
    assert len({half, F(1, 2), QuadValue(F(1, 2), F(0))}) == 1
    assert SQRT2 not in {F(0), F(1)} and hash(SQRT2) == hash(QuadValue(F(0), F(1)))


def test_comparing_with_a_non_number_is_unequal_not_an_error():
    q = QuadValue(F(1, 2), F(0))
    assert (q == None) is False and q != None  # noqa: E711
    assert (q == "x") is False and q != "x"
    assert (q == 0.5) is False  # a float is not a value of Q(sqrt 2)


@pytest.mark.parametrize("op", [
    lambda q: q + 0.5, lambda q: 0.5 + q, lambda q: q - 0.5, lambda q: 0.5 - q,
    lambda q: q * 0.5, lambda q: 0.5 * q, lambda q: q / 0.5, lambda q: 0.5 / q,
    lambda q: q < 0.5, lambda q: q >= 0.5, lambda q: QuadValue(0.5, F(0)),
    lambda q: QuadValue(F(0), 0.5), lambda q: q + None, lambda q: q < "x",
])
def test_no_float_or_other_type_enters_the_arithmetic(op):
    with pytest.raises(TypeError):
        op(SQRT2 + 1)


@given(a=rationals, b=rationals, r=rationals.filter(lambda r: r != 0))
@settings(max_examples=80, deadline=None)
def test_division_by_a_rational_divides_each_coordinate(a, b, r):
    x = QuadValue(a, b)
    assert x / r == QuadValue(a / r, b / r)
    assert x / QuadValue(r, F(0)) == QuadValue(a / r, b / r)
    # the same quotient as through the norm of a general divisor
    assert (x / r) * r == x and (x / (r * SQRT2)) * (r * SQRT2) == x


def test_division_by_a_zero_rational():
    with pytest.raises(ZeroDivisionError):
        SQRT2 / F(0)
    with pytest.raises(ZeroDivisionError):
        SQRT2 / 0
