"""Exact rationals, dyadic points, and finite bit strings.

Rationals are stdlib ``fractions.Fraction`` and serialize as ``"p/q"``.
Bit strings are plain ASCII strings over ``'0'``/``'1'``; the empty string is
the root.  ``cylinder_bounds`` ties a string sigma to the closed interval
[0.sigma, 0.sigma + 2^-|sigma|].  The strings of one length k are numbered in
lexicographic order, 0 to 2^k - 1, the empty string being 0:
``string_at(i, k)`` is the i-th and ``string_index`` its inverse.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .errors import DomainError, SchemaError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact Fraction; reject junk loudly.  The
    error echoes a bad text of up to 64 characters, and gives a longer one's
    length and first 32 characters."""
    if not isinstance(text, str):
        raise SchemaError(f"rational must be a string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        if len(text) > 64:
            raise SchemaError(f"bad rational of {len(text)} characters, "
                              f"starting {text[:32]!r}") from None
        raise SchemaError(f"bad rational {text!r}: {exc}") from None


def parse_nonnegative_int(value, what: str) -> int:
    """value, which must be a JSON integer >= 0; strings, floats and booleans
    are refused, not coerced.  what names the field in the error."""
    if type(value) is not int or value < 0:
        raise SchemaError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def format_rational(q: Fraction) -> str:
    """Serialize exactly, always with an explicit denominator.

    An int longer than the interpreter's limit on decimal digits (4,300 by
    default) raises ValueError when printed; such a side is printed again
    with the limit lifted for that one conversion.
    """
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return f"{q.numerator}/{q.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(d, nums) with values[i] == nums[i] / d, d the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def denominator_lcm_bits(values, cap: int) -> int:
    """The bit length of the lcm of the values' denominators, built one value
    at a time and no further once it has more than cap bits, so that the
    work stays bounded when the lcm is large."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
        if den.bit_length() > cap:
            break
    return den.bit_length()


def require_unit(q: Fraction, what: str = "value") -> Fraction:
    if not ZERO <= q <= ONE:
        raise DomainError(f"{what} {q} outside [0,1]")
    return q


def is_dyadic(q: Fraction) -> bool:
    """True iff q = a * 2^-b for integers a, b >= 0."""
    d = q.denominator
    return d & (d - 1) == 0


def validate_bits(sigma: str) -> str:
    if not isinstance(sigma, str) or sigma.strip("01"):
        raise SchemaError(f"bit string must consist of '0'/'1', got {sigma!r}")
    return sigma


def is_prefix(sigma: str, tau: str) -> bool:
    """sigma is an initial segment of tau (improper prefixes count)."""
    return tau.startswith(sigma)


def string_at(i: int, k: int) -> str:
    """The i-th bit string of length k, 0 <= i < 2^k, in lexicographic order."""
    return format(i, f"0{k}b") if k else ""


def string_index(sigma: str) -> int:
    """sigma's place among the strings of its length: string_at's inverse."""
    return int(sigma, 2) if sigma else 0


def cylinder_bounds(sigma: str) -> tuple[Fraction, Fraction]:
    k, scale = string_index(sigma), 1 << len(sigma)
    return Fraction(k, scale), Fraction(k + 1, scale)


def all_strings(length: int) -> list[str]:
    """All bit strings of the exact given length, lexicographic."""
    if length < 0:
        raise DomainError(f"negative length {length}")
    return [string_at(i, length) for i in range(1 << length)]


def is_antichain(strings) -> bool:
    """No member is a proper prefix of another.  In lexicographic order every
    extension of s sorts after s and before any string that does not extend
    it, so when some member extends s, the next member does."""
    items = sorted(set(strings))
    return not any(t.startswith(s) for s, t in zip(items, items[1:]))
