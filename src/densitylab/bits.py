"""Exact rationals, dyadic points, and finite bit strings.

Rationals are stdlib ``fractions.Fraction`` and serialize as ``"p/q"``.
Bit strings are plain ASCII strings over ``'0'``/``'1'``; the empty string is
the root.  ``cylinder_interval`` ties a string sigma to the closed interval
[0.sigma, 0.sigma + 2^-|sigma|].
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError, SchemaError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact Fraction; reject junk loudly."""
    if not isinstance(text, str):
        raise SchemaError(f"rational must be a string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Serialize exactly, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(d, nums) with values[i] == nums[i] / d, d the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


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


def cylinder_bounds(sigma: str) -> tuple[Fraction, Fraction]:
    k, scale = (int(sigma, 2) if sigma else 0), 1 << len(sigma)
    return Fraction(k, scale), Fraction(k + 1, scale)


def all_strings(length: int) -> list[str]:
    """All bit strings of the exact given length, lexicographic."""
    if length < 0:
        raise DomainError(f"negative length {length}")
    return [format(i, f"0{length}b") if length else "" for i in range(1 << length)]


def is_antichain(strings) -> bool:
    """No member is a proper prefix of another.  In lexicographic order every
    extension of s sorts after s and before any string that does not extend
    it, so when some member extends s, the next member does."""
    items = sorted(set(strings))
    return not any(t.startswith(s) for s, t in zip(items, items[1:]))
