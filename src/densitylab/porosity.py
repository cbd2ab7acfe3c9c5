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

from .bits import is_antichain, over_common_denominator, validate_bits
from .errors import DomainError, InvariantError
from .intervals import IntervalSet, StagedOpenEnumeration


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


def _meeting_mass(gaps: ClassGaps, rhos) -> tuple[int, int]:
    """The total length of the cylinders of rhos that meet the class, as
    (num, top) for num 2^-top, with top the finest cylinder's length."""
    top = max((len(rho) for rho in rhos), default=0)
    return sum(1 << (top - len(rho)) for rho in rhos if cylinder_meets_class(gaps, rho)), top


def _class_mass(gaps: ClassGaps, rhos) -> tuple[int, int]:
    """lambda(C cap U) for the union U of the cylinders of the antichain rhos,
    as (num, den): each cylinder's length less its overlaps with the gaps of
    C, in integers over the gaps' denominator times 2^top."""
    top = max((len(rho) for rho in rhos), default=0)
    num = 0
    for rho in rhos:
        j, shift = int(rho, 2) if rho else 0, top - len(rho)
        lo, hi = (j << shift) * gaps.den, ((j + 1) << shift) * gaps.den
        num += hi - lo - sum(min(hi, gaps.his[i] << top) - max(lo, gaps.los[i] << top)
                             for i in gaps.meeting(j, len(rho)))
    return num, gaps.den << top


def _row(name: str, a: int, da: int, b: int, db: int) -> tuple[str, Fraction, Fraction, bool]:
    """The row a/da <= b/db, decided by cross-multiplication."""
    return name, Fraction(a, da), Fraction(b, db), a * db <= b * da


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
        self.den, ends = over_common_denominator(
            [x for g in class_set.gaps() if not g.is_degenerate for x in (g.lo, g.hi)]
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
    """Staged boxes B_{n,t} and the decay bounds, decided in integers over
    powers of 2; a Fraction is built only for a reported side."""

    enum: StagedOpenEnumeration
    constant: int
    levels: int
    stages: int
    boxes: dict[tuple[int, int], tuple[str, ...]] = field(repr=False)
    # per node (t, sigma): the meeting mass num 2^-top of N_t(sigma) as
    # (t, sigma, num, top, num 2^-top <= decay 2^-|sigma|)
    nodes: tuple[tuple[int, str, int, int, bool], ...] = field(repr=False)
    # the gaps of the stage classes for t <= stages, each class built once
    class_gaps: tuple[ClassGaps, ...] = field(repr=False)

    @property
    def decay(self) -> Fraction:
        return 1 - Fraction(1, 1 << (self.constant + 2))

    def node_row(self, node) -> tuple[str, Fraction, Fraction, bool]:
        t, sigma, num, top, ok = node
        k = self.constant + 2
        return (f"node t={t} sigma={sigma!r}", Fraction(num, 1 << top),
                Fraction((1 << k) - 1, 1 << (k + len(sigma))), ok)

    def tightest_node(self):
        """The first node of largest lhs/rhs, num 2^-top over decay 2^-|sigma|,
        ordered by num 2^(|sigma| - top) scaled to an integer."""
        top = max(node[3] for node in self.nodes)
        return max(self.nodes, key=lambda node: node[2] << (top - node[3] + len(node[1])))

    def bound_checks(self) -> list[tuple[str, Fraction, Fraction, bool]]:
        """Per level n: the largest meeting mass over the stages, and
        lambda(U_n cap C_final) for U_n the union of B_{n,stages}, each
        against decay^n = (2^k - 1)^n / 2^(k n), k = c + 2."""
        k = self.constant + 2
        maxima, finals = [], []
        for n in range(self.levels + 1):
            bound = ((1 << k) - 1) ** n, 1 << (k * n)
            masses = [_meeting_mass(self.class_gaps[t], self.boxes[(n, t)])
                      for t in range(self.stages + 1)]
            top = max(m[1] for m in masses)
            num, m_top = max(masses, key=lambda m: m[0] << (top - m[1]))
            maxima.append(_row(f"level {n}: max_t meeting mass <= decay^n",
                               num, 1 << m_top, *bound))
            finals.append(_row(f"level {n}: lambda(U_n cap C_final) <= decay^n",
                               *_class_mass(self.class_gaps[self.stages],
                                            self.boxes[(n, self.stages)]), *bound))
        return maxima + finals


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
    nodes: list[tuple[int, str, int, int, bool]] = []
    k = c + 2

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
                    num, top = _meeting_mass(gaps, ext.elements)
                    ok = num << (k + len(sigma)) <= ((1 << k) - 1) << top
                    nodes.append((t, sigma, num, top, ok))
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

    return PorosityTest(enum, c, levels, stages, boxes, tuple(nodes), class_gaps)
