"""Exact arithmetic in Q(sqrt 2) for the irrational spike heights 2^(-n/2).

A QuadValue is a + b sqrt(2) with rational a, b.  Heights with odd exponent
are sqrt(2)-multiples; comparisons go through exact sign evaluation on
squares, so no floating point enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import format_rational, parse_rational
from .errors import DomainError


def _coerce(x) -> "QuadValue":
    if isinstance(x, QuadValue):
        return x
    return QuadValue(Fraction(x), Fraction(0))


@dataclass(frozen=True)
class QuadValue:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def sign(self) -> int:
        """Exact sign of a + b sqrt(2) via squared comparison."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2, the larger magnitude wins
        lhs, rhs = a * a, 2 * b * b
        if lhs == rhs:
            return 0  # impossible for rational nonzero a, b; kept for safety
        bigger_is_rational = lhs > rhs
        return (a > 0) - (a < 0) if bigger_is_rational else (b > 0) - (b < 0)

    def __add__(self, other):
        o = _coerce(other)
        return QuadValue(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        return QuadValue(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadValue")
        inv = QuadValue(o.a / norm, -o.b / norm)
        return self * inv

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = _coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __repr__(self):
        return f"QuadValue({self.a} + {self.b}*sqrt2)"

    def to_json(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    @classmethod
    def from_json(cls, payload: dict) -> "QuadValue":
        return cls(parse_rational(payload["a"]), parse_rational(payload["b"]))


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
