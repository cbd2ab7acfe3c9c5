"""Exact piecewise-linear functions on a rational breakpoint grid.

Breakpoints and values are kept as integer numerators over one shared
denominator each, so a lookup is an integer bisect and an interpolation
builds a single Fraction; a whole arithmetic grid, dyadic or not, is
evaluated segment by segment in integers.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import lcm

from .bits import format_rational, over_common_denominator, parse_rational
from .errors import DomainError, SchemaError


def overlaps(a: list, b: list):
    """(lo, hi, ra, rb) for each maximal index range lo..hi that lies in one
    run ra of a and one run rb of b, in index order.  A run is any tuple that
    starts with its first and last index, and the runs of a row are disjoint
    and in index order; the rows need not cover the same indices.  A yielded
    tuple starts with lo, hi, so it is a run itself, and walks of more rows
    compose: overlaps(list(overlaps(a, b)), c)."""
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ra, rb = a[i], b[j]
        fa, la = ra[0], ra[1]
        fb, lb = rb[0], rb[1]
        lo = fa if fa > fb else fb
        if la <= lb:
            i += 1
            j += la == lb
            if lo <= la:
                yield lo, la, ra, rb
        else:
            j += 1
            if lo <= lb:
                yield lo, lb, ra, rb


class PiecewiseLinear:
    """Breakpoints with values, linearly interpolated in between, exact.

    Kept as integer rows: xs[i] == ks[i] / xden and ys[i] == js[i] / yden.
    """

    def __init__(self, xs, ys):
        self._set_rows(*over_common_denominator(xs), *over_common_denominator(ys))

    @classmethod
    def from_numerators(
        cls, xden: int, ks: list[int], yden: int, js: list[int]
    ) -> "PiecewiseLinear":
        """The function with breakpoints ks[i] / xden and values js[i] / yden.

        Denominators must be positive; no Fraction is built until xs or ys
        is read.
        """
        g = cls.__new__(cls)
        g._set_rows(xden, ks, yden, js)
        return g

    def _set_rows(self, xden: int, ks: list[int], yden: int, js: list[int]) -> None:
        if len(ks) != len(js) or len(ks) < 2:
            raise DomainError("need at least two breakpoints with matching values")
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        self._xden, self._ks, self._yden, self._js = xden, ks, yden, js

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self._xden) for k in self._ks)

    @cached_property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self._yden) for j in self._js)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._ks[0], self._xden)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._ks[-1], self._xden)

    def value(self, x: Fraction) -> Fraction:
        ks = self._ks
        # x * xden == q + r / x.denominator with 0 <= r < x.denominator
        scaled = x.numerator * self._xden
        q, r = divmod(scaled, x.denominator)
        if q < ks[0] or q > ks[-1] or (q == ks[-1] and r):
            raise self._outside(x)
        i = bisect_right(ks, q)
        if ks[i - 1] == q and not r:
            return self.ys[i - 1]
        k0, j0 = ks[i - 1], self._js[i - 1]
        span = (ks[i] - k0) * x.denominator
        return Fraction(
            j0 * span + (self._js[i] - j0) * (scaled - k0 * x.denominator),
            self._yden * span,
        )

    def grid_progressions(self, depth: int) -> tuple[int, list[tuple[int, int, int, int]]]:
        """``progressions`` along the 2^-depth grid of [0,1]: value(k / 2^depth)
        for k = 0..2^depth, over d = yden * 2^depth * lcm of the breakpoint
        gaps.  A domain short of [0,1] raises the DomainError ``value`` raises
        at the first grid point outside it."""
        scale = 1 << depth
        return self.progressions(Fraction(0), Fraction(1, scale), scale)

    def progressions(
        self, lo: Fraction, delta: Fraction, count: int
    ) -> tuple[int, list[tuple[int, int, int, int]]]:
        """(d, pieces) with value(lo + k delta) * d == start + step (k - first)
        for first <= k <= last, one piece (first, last, start, step) per
        segment that holds grid points not already on the piece before it.
        The pieces cover k = 0..count in order, for delta > 0; with e the lcm
        of lo's and delta's denominators, d is yden * e * lcm of the
        breakpoint gaps.  A grid reaching outside the domain raises the
        DomainError ``value`` raises at its first point outside it.
        """
        ks, js, xden = self._ks, self._js, self._xden
        e = lcm(lo.denominator, delta.denominator)
        lo_e = lo.numerator * (e // lo.denominator)
        delta_e = delta.numerator * (e // delta.denominator)

        def last_at(b: int) -> int:
            """The last k with lo + k delta <= b / xden."""
            return (b * e - lo_e * xden) // (delta_e * xden)

        if lo_e * xden < ks[0] * e:
            raise self._outside(lo)
        if last_at(ks[-1]) < count:
            raise self._outside(lo + max(last_at(ks[-1]) + 1, 0) * delta)
        gaps = [k1 - k0 for k0, k1 in zip(ks, ks[1:])]
        den = self._yden * e * lcm(*gaps)
        pieces = []
        first = 0
        for i, gap in enumerate(gaps):
            if first > count:
                break
            last = min(last_at(ks[i + 1]), count)
            if last < first:
                continue
            # value(x) * den == (j0 e gap + dj (x e xden - k0 e)) m at
            # x e == lo_e + delta_e k, with m = den / (yden e gap): a
            # progression in k
            m = den // (self._yden * e * gap)
            k0, j0, dj = ks[i], js[i], js[i + 1] - js[i]
            start = (j0 * e * gap + dj * ((lo_e + delta_e * first) * xden - k0 * e)) * m
            pieces.append((first, last, start, dj * delta_e * xden * m))
            first = last + 1
        return den, pieces

    def exact(self, x: Fraction) -> Fraction:
        """f(x), the function protocol of ``calculus``."""
        return self.value(x)

    def _outside(self, x: Fraction) -> DomainError:
        return DomainError(f"{x} outside domain [{self.lo}, {self.hi}]")

    def lipschitz_bound(self) -> Fraction:
        """The steepest segment's |slope|: the largest |dj| / dk over the
        segments, found by cross-multiplication, times xden / yden."""
        rise, run = 0, 1
        for k0, k1, j0, j1 in zip(self._ks, self._ks[1:], self._js, self._js[1:]):
            dj, dk = abs(j1 - j0), k1 - k0
            if dj * run > rise * dk:
                rise, run = dj, dk
        return Fraction(rise * self._xden, run * self._yden)

    def to_json(self) -> dict:
        return {
            "xs": [format_rational(x) for x in self.xs],
            "ys": [format_rational(y) for y in self.ys],
        }

    @classmethod
    def from_json(cls, payload) -> "PiecewiseLinear":
        if not isinstance(payload, dict) or not all(
            isinstance(payload.get(key), list) for key in ("xs", "ys")
        ):
            raise SchemaError(
                "piecewise-linear function must be an object with lists 'xs' and 'ys'"
            )
        return cls(
            tuple(parse_rational(x) for x in payload["xs"]),
            tuple(parse_rational(y) for y in payload["ys"]),
        )
