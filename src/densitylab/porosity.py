"""Porosity witnesses and the staged porosity test.

All cylinder emptiness and meeting tests are taken against the open cylinder
(0.sigma, 0.sigma + 2^-|sigma|): a removed hole whose endpoints remain in the
stage class still counts as vacated.  Levels are handled through integer index
ranges, so each stage works entirely in exact integer arithmetic.

For a base sigma and reach constant c, a string rho >= sigma qualifies when
some tau >= sigma of the same length with |0.tau - 0.rho| <= 2^(c-|tau|)
(equivalently, index distance <= 2^c at that level) has open cylinder disjoint
from the stage class.  N_t(sigma) is the antichain of minimal qualifying rho.
Scanning stops one level past the point where every relevant gap has produced
an empty cylinder inside sigma: beyond that the qualifying value regions only
shrink, so no new minimal elements can appear.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import cylinder_bounds, is_antichain, over_common_denominator, validate_bits
from .errors import DomainError, InvariantError
from .intervals import Interval, IntervalSet, StagedOpenEnumeration, canonicalize


def cylinder_meets_class(gaps: ClassGaps, tau: str) -> bool:
    """Does the open cylinder of tau meet the class whose gaps are given?  It
    misses the class exactly when it lies inside one gap, that is when tau's
    index is in the gap's inner range at level |tau|.  The inner ranges are
    disjoint and increasing, so only the last one starting at or before the
    index can hold it."""
    level = len(validate_bits(tau))
    j = int(tau, 2) if tau else 0
    firsts, lasts = gaps.inner(level)
    i = bisect_right(firsts, j) - 1
    return i < 0 or j > lasts[i]


def _meeting_mass(gaps: ClassGaps, rhos) -> Fraction:
    """The total length of the cylinders of rhos that meet the class, summed
    in integers over the finest cylinder's denominator."""
    top = max((len(rho) for rho in rhos), default=0)
    return Fraction(
        sum(1 << (top - len(rho)) for rho in rhos if cylinder_meets_class(gaps, rho)),
        1 << top,
    )


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for a, b in sorted(ranges):
        if a > b:
            continue
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _subtract_ranges(
    ranges: list[tuple[int, int]], covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for a, b in ranges:
        cur = a
        for ca, cb in covered:
            if cb < cur:
                continue
            if ca > b:
                break
            if ca > cur:
                out.append((cur, min(b, ca - 1)))
            cur = max(cur, cb + 1)
            if cur > b:
                break
        if cur <= b:
            out.append((cur, b))
    return out


def _string_at(index: int, level: int) -> str:
    return format(index, f"0{level}b") if level else ""


@dataclass(frozen=True)
class PorousExtensions:
    """N_t(sigma): the minimal qualifying extensions, and the level one past
    the last gap activation, to which the scan ran."""

    base: str
    constant: int
    elements: tuple[str, ...]
    completion_depth: int


class ClassGaps:
    """The nondegenerate gaps of one class, for scanning many sigmas against it.

    The gap endpoints are integer numerators over one denominator.  Per level
    L, ``inner(L)`` gives for each gap the first and last index j whose
    cylinder [j 2^-L, (j+1) 2^-L] lies inside the gap, ceil(lo 2^L) and
    floor(hi 2^L) - 1; each level is computed once per class.
    """

    def __init__(self, class_set: IntervalSet):
        self.class_set = class_set
        self.gaps = [g for g in class_set.gaps() if not g.is_degenerate]
        self.den, ends = over_common_denominator(
            [x for g in self.gaps for x in (g.lo, g.hi)]
        )
        self.los, self.his = ends[0::2], ends[1::2]
        self._inner: dict[int, tuple[list[int], list[int]]] = {}

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


def minimal_porous_extensions(gaps: ClassGaps, sigma: str, c: int) -> PorousExtensions:
    """Antichain of minimal rho >= sigma reached by an empty cylinder of the
    class whose gaps are given: the full N(sigma), scanned to the completion
    depth.

    Each gap that meets the open cylinder of sigma meets it in an interval of
    positive length, so it holds a whole cylinder inside sigma at some level
    and its activation loop ends.
    """
    validate_bits(sigma)
    if c < 0:
        raise DomainError(f"reach constant must be nonnegative, got {c}")
    s_len = len(sigma)
    s_idx = int(sigma, 2) if sigma else 0
    meeting = gaps.meeting(s_idx, s_len)
    if not meeting:
        return PorousExtensions(sigma, c, (), s_len)

    activations = []
    for i in meeting:
        level = s_len
        while True:
            firsts, lasts = gaps.inner(level)
            e1 = max(firsts[i], s_idx << (level - s_len))
            e2 = min(lasts[i], ((s_idx + 1) << (level - s_len)) - 1)
            if e1 <= e2:
                activations.append(level)
                break
            level += 1
    completion = max(activations) + 1

    reach = 1 << c
    covered: list[tuple[int, int]] = []
    found: list[str] = []
    for level in range(s_len, completion + 1):
        if level > s_len:
            covered = [(2 * a, 2 * b + 1) for a, b in covered]
        lo_idx = s_idx << (level - s_len)
        hi_idx = ((s_idx + 1) << (level - s_len)) - 1
        firsts, lasts = gaps.inner(level)
        qualifying = []
        for i in meeting:
            e1 = max(firsts[i], lo_idx)
            e2 = min(lasts[i], hi_idx)
            if e1 > e2:
                continue
            qualifying.append((max(e1 - reach, lo_idx), min(e2 + reach, hi_idx)))
        fresh = _subtract_ranges(_merge_ranges(qualifying), covered)
        if level == completion:
            # shrinkage of the qualifying value regions past the last
            # activation level makes this a checked no-op
            if fresh:
                raise InvariantError("qualifying region grew past completion depth")
        for a, b in fresh:
            found.extend(_string_at(j, level) for j in range(a, b + 1))
        covered = _merge_ranges(covered + fresh)
    return PorousExtensions(sigma, c, tuple(sorted(found)), completion)


@dataclass(frozen=True)
class PorosityWitness:
    rho: str
    tau: str
    level: int


def porosity_witness(
    class_set: IntervalSet, sigma: str, c: int, max_level: int
) -> PorosityWitness | None:
    """First qualifying pair below sigma: lowest level, leftmost rho, nearest tau."""
    validate_bits(sigma)
    s_len = len(sigma)
    s_idx = int(sigma, 2) if sigma else 0
    reach = 1 << c
    for level in range(s_len, max_level + 1):
        lo_idx = s_idx << (level - s_len)
        hi_idx = ((s_idx + 1) << (level - s_len)) - 1
        width = Fraction(1, 1 << level)
        empties = [
            j
            for j in range(lo_idx, hi_idx + 1)
            if not class_set.meets_open(j * width, (j + 1) * width)
        ]
        if not empties:
            continue
        best = None
        for j in range(lo_idx, hi_idx + 1):
            near = min(empties, key=lambda e: (abs(e - j), e))
            if abs(near - j) <= reach:
                best = (j, near)
                break
        if best is not None:
            return PorosityWitness(
                _string_at(best[0], level), _string_at(best[1], level), level
            )
    return None


@dataclass(frozen=True)
class PorosityTest:
    """Staged boxes B_{n,t}, their cylinder unions, and the decay bounds."""

    enum: StagedOpenEnumeration
    constant: int
    levels: int
    stages: int
    boxes: dict[tuple[int, int], tuple[str, ...]] = field(repr=False)
    components: tuple[IntervalSet, ...] = field(repr=False)
    node_records: tuple[tuple[str, Fraction, Fraction, bool], ...] = field(repr=False)
    # the gaps of the stage classes for t <= stages, each class built once
    class_gaps: tuple[ClassGaps, ...] = field(repr=False)

    @property
    def decay(self) -> Fraction:
        return 1 - Fraction(1, 1 << (self.constant + 2))

    def meeting_mass(self, n: int, t: int) -> Fraction:
        return _meeting_mass(self.class_gaps[t], self.boxes[(n, t)])

    def bound_checks(self) -> list[tuple[str, Fraction, Fraction, bool]]:
        out = []
        for n in range(self.levels + 1):
            worst_lhs = Fraction(0)
            bound = self.decay**n
            for t in range(self.stages + 1):
                worst_lhs = max(worst_lhs, self.meeting_mass(n, t))
            out.append(
                (f"level {n}: max_t meeting mass <= decay^n", worst_lhs, bound,
                 worst_lhs <= bound)
            )
        final = self.class_gaps[self.stages].class_set
        for n in range(self.levels + 1):
            lhs = self.components[n].intersect(final).measure
            bound = self.decay**n
            out.append(
                (f"level {n}: lambda(U_n cap C_final) <= decay^n", lhs, bound,
                 lhs <= bound)
            )
        return out


def porosity_test(
    enum: StagedOpenEnumeration, c: int, levels: int, stages: int
) -> PorosityTest:
    """Build B_{n,t} for n <= levels, t <= stages, with U_n from the last stage.

    The stage count is clamped to the enumeration length since the stage
    classes are constant beyond it.  Stage-to-stage nesting (each member of
    B_{n,t} extends a member of B_{n,t+1}) is verified here, which makes the
    last-stage union equal to the union over all stages.
    """
    if levels < 0 or stages < 0:
        raise DomainError("levels and stages must be nonnegative")
    stages = min(stages, len(enum.items))
    boxes: dict[tuple[int, int], tuple[str, ...]] = {}
    extension_cache: dict[tuple[int, str], PorousExtensions] = {}
    node_records: list[tuple[str, Fraction, Fraction, bool]] = []
    decay = 1 - Fraction(1, 1 << (c + 2))

    class_gaps = tuple(ClassGaps(enum.stage_class(t)) for t in range(stages + 1))
    for t, gaps in enumerate(class_gaps):
        boxes[(0, t)] = ("",)
        for n in range(1, levels + 1):
            collected: list[str] = []
            for sigma in boxes[(n - 1, t)]:
                key = (t, sigma)
                if key not in extension_cache:
                    ext = minimal_porous_extensions(gaps, sigma, c)
                    extension_cache[key] = ext
                    lhs = _meeting_mass(gaps, ext.elements)
                    bound = decay * Fraction(1, 1 << len(sigma))
                    node_records.append(
                        (f"node t={t} sigma={sigma!r}", lhs, bound, lhs <= bound)
                    )
                collected.extend(extension_cache[key].elements)
            members = tuple(sorted(set(collected)))
            if not is_antichain(members):
                raise InvariantError(f"B_({n},{t}) is not an antichain")
            boxes[(n, t)] = members

    for n in range(levels + 1):
        for t in range(stages):
            later = set(boxes[(n, t + 1)])
            for rho in boxes[(n, t)]:
                if not any(rho[:k] in later for k in range(len(rho) + 1)):
                    raise InvariantError(
                        f"{rho!r} in B_({n},{t}) has no prefix in B_({n},{t + 1})"
                    )

    components = tuple(
        canonicalize(
            [Interval(*cylinder_bounds(rho)) for rho in boxes[(n, stages)]]
        )
        for n in range(levels + 1)
    )
    return PorosityTest(
        enum, c, levels, stages, boxes, components, tuple(node_records), class_gaps
    )
