"""Canonical finite unions of closed rational subintervals of [0,1].

A set is kept as sorted, pairwise disjoint parts with strictly positive gaps
between consecutive parts; touching parts are merged.  Degenerate parts [a,a]
are legal and carry zero measure: they show up as retained hole endpoints when
open intervals are subtracted.  Open sets are represented by their closures
with the openness documented at the operation that produced them; all measure
arithmetic is exact, so null boundaries never change a verdict.

Point queries bisect the sorted part starts to the one part that can answer:
``contains_point`` to the last part starting at or before x, ``meets_open``
to the last part starting before v, so neither scans the parts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .bits import ONE, ZERO, format_rational, parse_rational, require_unit
from .errors import DomainError, SchemaError, StageError


@dataclass(frozen=True, order=True)
class Interval:
    """Closed rational interval [lo, hi] inside [0,1]; lo == hi is a point.

    The endpoints are validated on their numerators and denominators
    (0 <= n <= d, and lo n * hi d <= hi n * lo d), with no Fraction
    comparison; Fraction subclasses are accepted.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if not (type(lo) is Fraction or isinstance(lo, Fraction)) or not (
            type(hi) is Fraction or isinstance(hi, Fraction)
        ):
            raise DomainError("interval endpoints must be Fractions")
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        if not 0 <= ln <= ld:
            require_unit(lo, "interval lo")
        if not 0 <= hn <= hd:
            require_unit(hi, "interval hi")
        if ln * hd > hn * ld:
            raise DomainError(f"interval lo {lo} exceeds hi {hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def to_json(self) -> list[str]:
        return [format_rational(self.lo), format_rational(self.hi)]

    @staticmethod
    def from_json(obj) -> "Interval":
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise SchemaError(f"interval must be a [lo, hi] pair, got {obj!r}")
        return Interval(parse_rational(obj[0]), parse_rational(obj[1]))


def interval(lo, hi) -> Interval:
    """Convenience constructor accepting ints/strings/Fractions."""
    return Interval(Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of closed intervals; equality is part-list equality."""

    parts: tuple[Interval, ...]

    def __post_init__(self) -> None:
        prev: Interval | None = None
        for part in self.parts:
            if prev is not None and part.lo <= prev.hi:
                raise DomainError(
                    f"parts not canonical: {prev} then {part} (gap must be positive)"
                )
            prev = part
        # sorted part starts, for bisecting a point into its one candidate part
        object.__setattr__(self, "_los", tuple(p.lo for p in self.parts))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def measure(self) -> Fraction:
        return sum((p.length for p in self.parts), ZERO)

    def contains_point(self, x: Fraction) -> bool:
        i = bisect_right(self._los, x)
        return i > 0 and x <= self.parts[i - 1].hi

    def grid_ranges(self, depth: int) -> list[range]:
        """Per part, the indices k with k / 2^depth in the part:
        ceil(lo 2^depth) .. floor(hi 2^depth), empty when none is."""
        scale = 1 << depth
        return [
            range(-(-p.lo.numerator * scale // p.lo.denominator),
                  p.hi.numerator * scale // p.hi.denominator + 1)
            for p in self.parts
        ]

    def meets_open(self, u: Fraction, v: Fraction) -> bool:
        """Does the set intersect the open interval (u,v)?  Only the last part
        starting before v can: the parts' right ends increase with their
        starts, so it has the largest right end of all parts with lo < v."""
        if u >= v:
            return False
        i = bisect_left(self._los, v)
        return i > 0 and self.parts[i - 1].hi > u

    def complement(self) -> "IntervalSet":
        """Closed representation of [0,1] minus the set (boundaries are null);
        canonicalize merges two gaps that touch at a degenerate part."""
        return canonicalize(self.gaps())

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for a in self.parts:
            for b in other.parts:
                if b.lo > a.hi:
                    break
                cut = a.intersection(b)
                if cut is not None:
                    pieces.append(cut)
        return canonicalize(pieces)

    def intersect_interval(self, window: Interval) -> "IntervalSet":
        pieces = []
        for p in self.parts:
            if p.lo > window.hi:
                break
            cut = p.intersection(window)
            if cut is not None:
                pieces.append(cut)
        return canonicalize(pieces)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return canonicalize(list(self.parts) + list(other.parts))

    def subtract_open(self, holes: Sequence[Interval]) -> "IntervalSet":
        """Remove open intervals (a,b), keeping their endpoints as points."""
        parts = list(self.parts)
        for hole in holes:
            if hole.is_degenerate:
                continue  # an open (a,a) is empty
            a, b = hole.lo, hole.hi
            next_parts: list[Interval] = []
            for p in parts:
                if b <= p.lo or a >= p.hi:
                    next_parts.append(p)
                    continue
                if p.lo <= a:
                    next_parts.append(Interval(p.lo, a))
                if b <= p.hi:
                    next_parts.append(Interval(b, p.hi))
            parts = next_parts
        return canonicalize(parts)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Closed-representation set difference (boundary points retained)."""
        return self.subtract_open(other.parts)

    def gaps(self) -> list[Interval]:
        """Closures of the maximal open intervals of [0,1] minus the set."""
        out: list[Interval] = []
        cursor = ZERO
        for part in self.parts:
            if part.lo > cursor:
                out.append(Interval(cursor, part.lo))
            cursor = max(cursor, part.hi)
        if cursor < ONE:
            out.append(Interval(cursor, ONE))
        return out

    def drop_degenerate(self) -> "IntervalSet":
        return IntervalSet(tuple(p for p in self.parts if not p.is_degenerate))

    def to_json(self) -> list[list[str]]:
        return [p.to_json() for p in self.parts]


EMPTY_SET = IntervalSet(())
FULL_SET = IntervalSet((Interval(ZERO, ONE),))


def canonicalize(raw: Iterable[Interval]) -> IntervalSet:
    """Sort, merge overlapping or touching intervals, keep isolated points."""
    items = sorted(raw)
    merged: list[Interval] = []
    for item in items:
        if merged and item.lo <= merged[-1].hi:
            if item.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, item.hi)
        else:
            merged.append(item)
    return IntervalSet(tuple(merged))


@dataclass(frozen=True)
class StagedOpenEnumeration:
    """Indexed enumeration of open rational intervals; stage t exposes items < t.

    The items are open intervals (a_i, b_i) in [0,1].  ``stage_class`` returns
    the effectively closed class [0,1] minus the first t of them, endpoints
    retained; ``union_at`` returns the closure of their union.
    """

    items: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.items)

    def check_stage(self, t: int) -> int:
        if not 0 <= t <= len(self.items):
            raise StageError(f"stage {t} beyond enumeration of length {len(self.items)}")
        return t

    def stage_class(self, t: int) -> IntervalSet:
        t = self.check_stage(t)
        return FULL_SET.subtract_open(self.items[:t])

    def union_at(self, t: int) -> IntervalSet:
        t = self.check_stage(t)
        return canonicalize(self.items[:t])

    def final_class(self) -> IntervalSet:
        return self.stage_class(len(self.items))

    def to_json(self) -> dict:
        return {"holes": [i.to_json() for i in self.items]}

    @staticmethod
    def from_json(obj) -> "StagedOpenEnumeration":
        if not isinstance(obj, dict) or "holes" not in obj:
            raise SchemaError("enumeration must be an object with a 'holes' list")
        items = obj["holes"]
        if not isinstance(items, list):
            raise SchemaError("'holes' must be a list of [lo, hi] pairs")
        return StagedOpenEnumeration(tuple(Interval.from_json(i) for i in items))


def enumeration(*pairs) -> StagedOpenEnumeration:
    return StagedOpenEnumeration(tuple(interval(a, b) for a, b in pairs))
