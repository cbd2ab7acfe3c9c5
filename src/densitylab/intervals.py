"""Canonical finite unions of closed rational subintervals of [0,1].

A set is kept as sorted, pairwise disjoint parts with strictly positive gaps
between consecutive parts; touching parts are merged.  Degenerate parts [a,a]
are legal and carry zero measure: they show up as retained hole endpoints when
open intervals are subtracted.  Open sets are represented by their closures
with the openness documented at the operation that produced them; all measure
arithmetic is exact, so null boundaries never change a verdict.

A point query bisects the sorted part starts: ``contains_point`` reads only
the last part starting at or before x.

``ClassGaps`` is the one integer form of an effectively closed class: its
gaps over one denominator, with the part ends and their prefix masses, the
grid indices inside each part and, per level, the cylinders inside each gap.
The cover, the density estimate, the monotone extension and the porosity and
difference tests read classes through it; ``stage_gaps`` builds the rows of
all stages of an enumeration hole by hole, and ``class_gaps`` the last one
alone, inserting every hole into one row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .bits import ONE, ZERO, format_rational, over_common_denominator, parse_rational, require_unit
from .errors import DomainError, Frozen, SchemaError, StageError


class Interval(Frozen):
    """Closed rational interval [lo, hi] inside [0,1]; lo == hi is a point.

    The endpoints are validated on their numerators and denominators
    (0 <= n <= d, and lo n * hi d <= hi n * lo d), with no Fraction
    comparison; Fraction subclasses are accepted.  Intervals compare,
    hash and order as their (lo, hi) pairs.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
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
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) < (other.lo, other.hi)

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

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


class IntervalSet(Frozen):
    """Canonical finite union of closed intervals; equality is part-list equality."""

    __slots__ = ("parts", "_los")

    def __init__(self, parts: tuple[Interval, ...]):
        prev: Interval | None = None
        for part in parts:
            if prev is not None and part.lo <= prev.hi:
                raise DomainError(
                    f"parts not canonical: {prev} then {part} (gap must be positive)"
                )
            prev = part
        object.__setattr__(self, "parts", parts)
        # sorted part starts, for bisecting a point into its one candidate part
        object.__setattr__(self, "_los", tuple(p.lo for p in parts))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    @property
    def measure(self) -> Fraction:
        return sum((p.length for p in self.parts), ZERO)

    def contains_point(self, x: Fraction) -> bool:
        i = bisect_right(self._los, x)
        return i > 0 and x <= self.parts[i - 1].hi

    def complement(self) -> "IntervalSet":
        """Closed representation of [0,1] minus the set (boundaries are null);
        canonicalize merges two gaps that touch at a degenerate part."""
        return canonicalize(self.gaps())

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return canonicalize(p for w in other.parts for p in self.intersect_interval(w).parts)

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


class StagedOpenEnumeration(Frozen):
    """Indexed enumeration of open rational intervals; stage t exposes items < t.

    The items are open intervals (a_i, b_i) in [0,1].  ``stage_class`` returns
    the effectively closed class [0,1] minus the first t of them, endpoints
    retained; ``union_at`` returns the closure of their union.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple[Interval, ...]):
        object.__setattr__(self, "items", items)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items

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

    @staticmethod
    def from_json(obj) -> "StagedOpenEnumeration":
        if not isinstance(obj, dict) or "holes" not in obj:
            raise SchemaError("enumeration must be an object with a 'holes' list")
        items = obj["holes"]
        if not isinstance(items, list):
            raise SchemaError("'holes' must be a list of [lo, hi] pairs")
        return StagedOpenEnumeration(tuple(Interval.from_json(i) for i in items))


class ClassGaps:
    """A class [0,1] minus open intervals, as the integer row of its gaps.

    The gaps (nondegenerate, sorted, disjoint but for a shared endpoint,
    which is a point of the class) have integer endpoints ``los``/``his``
    over one denominator ``den``.  The parts of the class are the complement
    of the gaps, endpoints kept, so a part may be a point and the class
    holds 0 and 1.  ``ends`` flattens them to [0, los[0], his[0], ..., den],
    with ``masses[i]`` the mass of the class on [0, ends[i]], over den.  Per
    level L, ``inner(L)`` gives for each gap the first and last index j whose
    cylinder [j 2^-L, (j+1) 2^-L] lies inside the gap, ceil(lo 2^L) and
    floor(hi 2^L) - 1; each level is computed once per class.
    """

    def __init__(self, den: int, los: list[int], his: list[int]):
        self.den, self.los, self.his = den, los, his
        self._inner: dict[int, tuple[list[int], list[int]]] = {}

    @classmethod
    def of(cls, class_set: IntervalSet) -> ClassGaps:
        """The gaps of a class, over the lcm of their endpoints' denominators."""
        den, ends = over_common_denominator([x for g in class_set.gaps() for x in (g.lo, g.hi)])
        return cls(den, ends[0::2], ends[1::2])

    def over(self, den: int) -> ClassGaps:
        """The same class over den, a multiple of its denominator."""
        f = den // self.den
        return ClassGaps(den, [x * f for x in self.los], [x * f for x in self.his])

    def scaled(self, x: Fraction) -> int:
        """x over den, which x's denominator must divide."""
        return x.numerator * (self.den // x.denominator)

    @property
    def parts(self) -> Iterator[tuple[int, int]]:
        return zip([0, *self.his], [*self.los, self.den])

    @cached_property
    def ends(self) -> list[int]:
        return [x for part in self.parts for x in part]

    @cached_property
    def masses(self) -> list[int]:
        # the mass grows along a part, from an even index of ends to an odd one
        return list(accumulate(e - self.ends[i - 1] if i & 1 else 0
                               for i, e in enumerate(self.ends)))

    def mass(self, x: int) -> int:
        """The mass of the class on [0, x / den], over den."""
        i = bisect_right(self.ends, x)
        if i == 0:
            return 0
        # an odd count of ends at or before x leaves x inside a part
        return self.masses[i - 1] + (x - self.ends[i - 1] if i & 1 else 0)

    def grid_ranges(self, depth: int) -> list[tuple[int, int]]:
        """Per part, the first and last index k with k 2^-depth in the part,
        ceil(lo 2^depth) and floor(hi 2^depth); first > last when none is."""
        d = self.den
        return [(-(-(lo << depth) // d), (hi << depth) // d) for lo, hi in self.parts]

    def inner(self, level: int) -> tuple[list[int], list[int]]:
        if level not in self._inner:
            d = self.den
            self._inner[level] = (
                [-(-(lo << level) // d) for lo in self.los],
                [(hi << level) // d - 1 for hi in self.his],
            )
        return self._inner[level]

    def meeting(self, s_idx: int, s_len: int) -> range:
        """The gaps that meet the open cylinder (s_idx, s_idx + 1) 2^-s_len:
        those with hi > s_idx 2^-s_len and lo < (s_idx + 1) 2^-s_len, one
        run of the sorted, disjoint gaps."""
        d = self.den
        return range(
            bisect_right(self.his, (s_idx * d) >> s_len),
            bisect_left(self.los, -((-(s_idx + 1) * d) >> s_len)),
        )


def _hole_ends(holes: Sequence[Interval]) -> tuple[int, Iterator[tuple[int, int]]]:
    """The lcm of the denominators of the nondegenerate holes' endpoints, and
    their ends over it, hole by hole; a degenerate hole is empty."""
    den, ends = over_common_denominator(
        [x for h in holes if not h.is_degenerate for x in (h.lo, h.hi)]
    )
    return den, zip(ends[0::2], ends[1::2])


def _insert_hole(los: list[int], his: list[int], a: int, b: int) -> None:
    """Insert the open hole (a, b) into the sorted gap row los, his by
    bisection: the gaps are the components of the union of the open holes,
    so the hole merges with the gaps it overlaps, and a gap that only touches
    it keeps the shared endpoint as a point of the class."""
    i, j = bisect_right(his, a), bisect_left(los, b)
    if i < j:
        a, b = min(a, los[i]), max(b, his[j - 1])
    los[i:j], his[i:j] = [a], [b]


def stage_gaps(holes: Sequence[Interval]) -> Iterator[ClassGaps]:
    """The gaps of the stage classes [0,1] minus the first t holes, for
    t = 0 .. len(holes), all over the lcm of the holes' denominators.

    One gap row is kept and hole t - 1 is inserted into it; each stage gets
    its own copy of the row.
    """
    den, pairs = _hole_ends(holes)
    los: list[int] = []
    his: list[int] = []
    yield ClassGaps(den, [], [])
    for hole in holes:
        if not hole.is_degenerate:
            _insert_hole(los, his, *next(pairs))
        yield ClassGaps(den, los.copy(), his.copy())


def class_gaps(holes: Sequence[Interval]) -> ClassGaps:
    """The gaps of [0,1] minus the open holes, the last row of stage_gaps,
    built in one row with no copy per stage."""
    den, pairs = _hole_ends(holes)
    los: list[int] = []
    his: list[int] = []
    for a, b in pairs:
        _insert_hole(los, his, a, b)
    return ClassGaps(den, los, his)
