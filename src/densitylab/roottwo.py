"""Exact arithmetic in Q(sqrt 2) for the irrational spike heights 2^(-n/2).

A QuadValue is a + b sqrt(2) with rational a, b.  Heights with odd exponent
are sqrt(2)-multiples.  One integer function, ``sign(p, q)``, gives the
exact sign of p + q sqrt(2) by comparing squares; QuadValue comparisons and
``calculus.slope_extremes`` both go through it, so no floating point enters
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import format_rational
from .errors import DomainError


def _rational(x) -> Fraction:
    """x as a Fraction; only ints and Fractions are exact rationals here, so a
    float never enters Q(sqrt 2) arithmetic."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"Q(sqrt 2) takes ints and Fractions, not {type(x).__name__}")
    return x if type(x) is Fraction else Fraction(x)


def sign(p: int, q: int) -> int:
    """Exact sign of p + q sqrt(2) for integers p and q: the sign they share
    unless they are opposite, else the sign of the larger of p^2 and 2 q^2,
    which are never equal then, sqrt(2) being irrational."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > 2 * q * q else sq


@dataclass(frozen=True)
class QuadValue:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _rational(self.a))
        object.__setattr__(self, "b", _rational(self.b))

    def sign(self) -> int:
        """Exact sign of a + b sqrt(2), from the integers it becomes when
        multiplied by the denominators of a and b."""
        a, b = self.a, self.b
        return sign(a.numerator * b.denominator, b.numerator * a.denominator)

    def __add__(self, other):
        if isinstance(other, QuadValue):
            return QuadValue(self.a + other.a, self.b + other.b)
        return QuadValue(self.a + _rational(other), self.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, QuadValue):
            r = _rational(other)
            return QuadValue(self.a * r, self.b * r)
        return QuadValue(self.a * other.a + 2 * self.b * other.b,
                         self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadValue) and other.b:
            # multiply by the conjugate over the norm a^2 - 2 b^2, nonzero
            # for rational a, b not both zero
            norm = other.a * other.a - 2 * other.b * other.b
            return self * QuadValue(other.a / norm, -other.b / norm)
        r = other.a if isinstance(other, QuadValue) else _rational(other)
        if r == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QuadValue(self.a / r, self.b / r)

    def __eq__(self, other):
        if isinstance(other, QuadValue):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as its Fraction, which it equals
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def to_json(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}


SQRT2 = QuadValue(Fraction(0), Fraction(1))


def _two_power(e: int) -> Fraction:
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def sqrt2_power(k: int) -> "QuadValue | Fraction":
    """2^(k/2) for any integer k: rational for even k, sqrt(2)-multiple for odd."""
    if k % 2 == 0:
        return _two_power(k // 2)
    return QuadValue(Fraction(0), _two_power((k - 1) // 2))


def half_power(n: int) -> "QuadValue | Fraction":
    """2^(-n/2): exact rational for even n, a sqrt(2)-multiple for odd n."""
    if n < 0:
        raise DomainError("height exponent must be nonnegative")
    return sqrt2_power(-n)
