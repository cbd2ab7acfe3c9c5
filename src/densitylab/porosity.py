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

``cylinder_meets_class`` and ``class_mass`` decide a class against dyadic
cylinders kept as bit strings, on its integer gap row ``intervals.ClassGaps``;
``randomness`` shares them.

The staged test reads its classes stage by stage from ``intervals.stage_gaps``,
which inserts one hole per stage into one gap row, so no stage class is
rebuilt from the enumeration.  N_t(sigma) depends only on the class inside
the open cylinder of sigma, so it is found once and reused at later stages
until a hole that meets that cylinder is inserted; the meeting mass of a level
is the sum of its nodes' masses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from .bits import is_antichain, string_at, string_index, validate_bits
from .errors import DomainError, Frozen, InvariantError
from .intervals import ClassGaps, Interval, IntervalSet, StagedOpenEnumeration, stage_gaps
from .report import Check


def cylinder_meets_class(gaps: ClassGaps, tau: str) -> bool:
    """Does the open cylinder of tau meet the class whose gaps are given?  It
    misses the class exactly when it lies inside one gap, that is when tau's
    index is in the gap's inner range at level |tau|.  The inner ranges are
    disjoint and increasing, so only the last one starting at or before the
    index can hold it."""
    level = len(validate_bits(tau))
    j = string_index(tau)
    firsts, lasts = gaps.inner(level)
    i = bisect_right(firsts, j) - 1
    return i < 0 or j > lasts[i]


def _meeting_mass(gaps: ClassGaps, rhos) -> tuple[int, int]:
    """The total length of the cylinders of rhos that meet the class, as
    (num, top) for num 2^-top, with top the finest cylinder's length."""
    top = max((len(rho) for rho in rhos), default=0)
    return sum(1 << (top - len(rho)) for rho in rhos if cylinder_meets_class(gaps, rho)), top


def class_mass(gaps: ClassGaps, rhos) -> tuple[int, int]:
    """lambda(C cap U) for the union U of the cylinders of the antichain rhos,
    as (num, den): each cylinder's length less its overlaps with the gaps of
    C, in integers over the gaps' denominator times 2^top."""
    top = max((len(rho) for rho in rhos), default=0)
    num = 0
    for rho in rhos:
        j, shift = string_index(rho), top - len(rho)
        lo, hi = (j << shift) * gaps.den, ((j + 1) << shift) * gaps.den
        num += hi - lo - sum(min(hi, gaps.his[i] << top) - max(lo, gaps.los[i] << top)
                             for i in gaps.meeting(j, len(rho)))
    return num, gaps.den << top


def _row(name: str, a: int, da: int, b: int, db: int) -> Check:
    """The row a/da <= b/db, decided by cross-multiplication."""
    return Check(name, Fraction(a, da), Fraction(b, db), a * db <= b * da)


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
    """The integers of ranges outside covered, as ranges; both lists are
    merged and sorted, so one pass walks each once."""
    out: list[tuple[int, int]] = []
    i, n = 0, len(covered)
    for a, b in ranges:
        while i < n and covered[i][1] < a:
            i += 1
        cur = a
        # a covered range reaching past b is left for the next range
        while i < n and covered[i][0] <= b:
            ca, cb = covered[i]
            if ca > cur:
                out.append((cur, ca - 1))
            cur = cb + 1
            if cb > b:
                break
            i += 1
        if cur <= b:
            out.append((cur, b))
    return out


class PorousExtensions(Frozen):
    """N_t(sigma): the minimal qualifying extensions, and the level one past
    the last gap activation, to which the scan ran."""

    __slots__ = ("base", "constant", "elements", "completion_depth")

    def __init__(self, base: str, constant: int, elements: tuple[str, ...],
                 completion_depth: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "completion_depth", completion_depth)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.constant, self.elements, self.completion_depth) == (
            other.base, other.constant, other.elements, other.completion_depth)


def minimal_porous_extensions(gaps: ClassGaps, sigma: str, c: int) -> PorousExtensions:
    """Antichain of minimal rho >= sigma reached by an empty cylinder of the
    class whose gaps are given: the full N(sigma), scanned to the completion
    depth.

    Each gap that meets the open cylinder of sigma meets it in an interval of
    positive length W, so it holds a whole cylinder inside sigma from some
    level on: the first level whose cylinders are no longer than W, or the
    next one, whose cylinders are at most W / 2.  Below that activation level
    the gap adds nothing, so each level scans only the gaps active there.
    """
    validate_bits(sigma)
    if c < 0:
        raise DomainError(f"reach constant must be nonnegative, got {c}")
    s_len = len(sigma)
    s_idx = string_index(sigma)
    meeting = gaps.meeting(s_idx, s_len)
    if not meeting:
        return PorousExtensions(sigma, c, (), s_len)

    # in units of 2^-s_len / den, sigma's cylinder is [s_idx den, (s_idx + 1) den]
    d = gaps.den
    activated: dict[int, list[int]] = {}
    for i in meeting:
        width = min(gaps.his[i] << s_len, (s_idx + 1) * d) - max(gaps.los[i] << s_len, s_idx * d)
        shift = (-(-d // width) - 1).bit_length()
        level = s_len + shift
        firsts, lasts = gaps.inner(level)
        if max(firsts[i], s_idx << shift) > min(lasts[i], ((s_idx + 1) << shift) - 1):
            level += 1
        activated.setdefault(level, []).append(i)
    completion = max(activated) + 1

    reach = 1 << c
    covered: list[tuple[int, int]] = []
    found: list[str] = []
    active: list[int] = []
    for level in range(s_len, completion + 1):
        if level > s_len:
            covered = [(2 * a, 2 * b + 1) for a, b in covered]
        active += activated.get(level, ())
        lo_idx = s_idx << (level - s_len)
        hi_idx = ((s_idx + 1) << (level - s_len)) - 1
        firsts, lasts = gaps.inner(level)
        qualifying = [(max(max(firsts[i], lo_idx) - reach, lo_idx),
                       min(min(lasts[i], hi_idx) + reach, hi_idx)) for i in active]
        fresh = _subtract_ranges(_merge_ranges(qualifying), covered)
        if level == completion:
            # shrinkage of the qualifying value regions past the last
            # activation level makes this a checked no-op
            if fresh:
                raise InvariantError("qualifying region grew past completion depth")
        for a, b in fresh:
            found.extend(string_at(j, level) for j in range(a, b + 1))
        covered = _merge_ranges(covered + fresh)
    return PorousExtensions(sigma, c, tuple(sorted(found)), completion)


class PorosityWitness(Frozen):
    __slots__ = ("rho", "tau", "level")

    def __init__(self, rho: str, tau: str, level: int):
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "level", level)


def porosity_witness(
    class_set: IntervalSet, sigma: str, c: int, max_level: int
) -> PorosityWitness | None:
    """First qualifying pair below sigma: lowest level, leftmost rho, nearest tau."""
    validate_bits(sigma)
    gaps = ClassGaps.of(class_set)
    s_len = len(sigma)
    s_idx = string_index(sigma)
    reach = 1 << c
    for level in range(s_len, max_level + 1):
        lo_idx = s_idx << (level - s_len)
        hi_idx = ((s_idx + 1) << (level - s_len)) - 1
        empties = [
            j
            for j in range(lo_idx, hi_idx + 1)
            if not cylinder_meets_class(gaps, string_at(j, level))
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
                string_at(best[0], level), string_at(best[1], level), level
            )
    return None


class PorosityTest(Frozen):
    """Staged boxes B_{n,t} and the decay bounds, decided in integers over
    powers of 2; a Fraction is built only for a reported side."""

    __slots__ = ("enum", "constant", "levels", "stages", "boxes", "nodes", "max_masses",
                 "final_gaps")

    def __init__(
        self,
        enum: StagedOpenEnumeration,
        constant: int,
        levels: int,
        stages: int,
        boxes: dict[tuple[int, int], tuple[str, ...]],
        # per node (t, sigma): the meeting mass num 2^-top of N_t(sigma) as
        # (t, sigma, num, top, num 2^-top <= decay 2^-|sigma|)
        nodes: tuple[tuple[int, str, int, int, bool], ...],
        # per level n: the largest meeting mass of B_{n,t} over t <= stages,
        # as (num, top) for num 2^-top
        max_masses: tuple[tuple[int, int], ...],
        # the gaps of the last stage class
        final_gaps: ClassGaps,
    ):
        object.__setattr__(self, "enum", enum)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "max_masses", max_masses)
        object.__setattr__(self, "final_gaps", final_gaps)

    @property
    def decay(self) -> Fraction:
        return 1 - Fraction(1, 1 << (self.constant + 2))

    def node_row(self, node) -> Check:
        t, sigma, num, top, ok = node
        k = self.constant + 2
        return Check(f"node t={t} sigma={sigma!r}", Fraction(num, 1 << top),
                     Fraction((1 << k) - 1, 1 << (k + len(sigma))), ok)

    def tightest_node(self):
        """The first node of largest lhs/rhs, num 2^-top over decay 2^-|sigma|,
        ordered by num 2^(|sigma| - top) scaled to an integer."""
        top = max(node[3] for node in self.nodes)
        return max(self.nodes, key=lambda node: node[2] << (top - node[3] + len(node[1])))

    def bound_checks(self) -> list[Check]:
        """Per level n: the largest meeting mass over the stages, and
        lambda(U_n cap C_final) for U_n the union of B_{n,stages}, each
        against decay^n = (2^k - 1)^n / 2^(k n), k = c + 2."""
        k = self.constant + 2
        maxima, finals = [], []
        for n, (num, top) in enumerate(self.max_masses):
            bound = ((1 << k) - 1) ** n, 1 << (k * n)
            maxima.append(_row(f"level {n}: max_t meeting mass <= decay^n",
                               num, 1 << top, *bound))
            finals.append(_row(f"level {n}: lambda(U_n cap C_final) <= decay^n",
                               *class_mass(self.final_gaps, self.boxes[(n, self.stages)]),
                               *bound))
        return maxima + finals


def _add_mass(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """num 2^-top + num' 2^-top' over the finer of the two."""
    top = max(a[1], b[1])
    return (a[0] << (top - a[1])) + (b[0] << (top - b[1])), top


def _forget_met(known: dict, indices: dict[int, list[int]], hole: Interval, d: int) -> None:
    """Drop from known, and from its per-length sorted indices, every sigma
    whose open cylinder meets the open hole (a, b) / d: at length L, those
    with floor(a 2^L / d) <= index < ceil(b 2^L / d)."""
    a = hole.lo.numerator * (d // hole.lo.denominator)
    b = hole.hi.numerator * (d // hole.hi.denominator)
    for length, row in indices.items():
        i = bisect_left(row, (a << length) // d)
        j = bisect_left(row, -((-b << length) // d))
        for idx in row[i:j]:
            del known[string_at(idx, length)]
        del row[i:j]


def porosity_test(
    enum: StagedOpenEnumeration, c: int, levels: int, stages: int
) -> PorosityTest:
    """Build B_{n,t} for n <= levels, t <= stages, with U_n from the last stage.

    The stage count is clamped to the enumeration length since the stage
    classes are constant beyond it.  Stage-to-stage nesting (each member of
    B_{n,t} extends a member of B_{n,t+1}) is verified here, which makes the
    last-stage union equal to the union over all stages.

    N_t(sigma) and its meeting mass depend only on the class inside the open
    cylinder of sigma, so they are kept from the stage they were found at
    until a hole that meets that cylinder is inserted.  The meeting mass of
    B_{n,t} is the sum of its nodes' masses: B_{n,t} is the disjoint union of
    N_t(sigma) over the antichain B_{n-1,t}.
    """
    if levels < 0 or stages < 0:
        raise DomainError("levels and stages must be nonnegative")
    stages = min(stages, len(enum.items))
    boxes: dict[tuple[int, int], tuple[str, ...]] = {}
    nodes: list[tuple[int, str, int, int, bool]] = []
    k = c + 2
    # N(sigma) as (elements, num, top, ok) for each sigma whose open cylinder
    # no hole has met since it was found, and those sigmas' indices, sorted,
    # per length
    known: dict[str, tuple[tuple[str, ...], int, int, bool]] = {}
    indices: dict[int, list[int]] = {}
    max_masses: list[tuple[int, int]] = [(0, 0)] * (levels + 1)

    for t, gaps in enumerate(stage_gaps(enum.items[:stages])):
        if t and not enum.items[t - 1].is_degenerate:
            _forget_met(known, indices, enum.items[t - 1], gaps.den)
        boxes[(0, t)] = ("",)
        masses = [(int(cylinder_meets_class(gaps, "")), 0)]
        done: set[str] = set()
        for n in range(1, levels + 1):
            collected: list[str] = []
            mass = (0, 0)
            for sigma in boxes[(n - 1, t)]:
                entry = known.get(sigma)
                if entry is None:
                    elements = minimal_porous_extensions(gaps, sigma, c).elements
                    num, top = _meeting_mass(gaps, elements)
                    ok = num << (k + len(sigma)) <= ((1 << k) - 1) << top
                    entry = known[sigma] = elements, num, top, ok
                    insort(indices.setdefault(len(sigma), []), string_index(sigma))
                elements, num, top, ok = entry
                if sigma not in done:
                    done.add(sigma)
                    nodes.append((t, sigma, num, top, ok))
                mass = _add_mass(mass, (num, top))
                collected.extend(elements)
            members = tuple(sorted(set(collected)))
            # a repeated member would count twice in the summed mass
            if len(members) != len(collected) or not is_antichain(members):
                raise InvariantError(f"B_({n},{t}) is not an antichain of disjoint N(sigma)")
            boxes[(n, t)] = members
            masses.append(mass)
        for n, (num, top) in enumerate(masses):
            best, best_top = max_masses[n]
            if num << best_top > best << top:
                max_masses[n] = num, top
        final_gaps = gaps

    # a prefix of rho in the sorted antichain B_{n,t+1} is its last member
    # sorting at or before rho: every string between the prefix and rho
    # extends the prefix
    for n in range(levels + 1):
        for t in range(stages):
            later = boxes[(n, t + 1)]
            if later == boxes[(n, t)]:
                continue
            for rho in boxes[(n, t)]:
                i = bisect_right(later, rho)
                if not (i and rho.startswith(later[i - 1])):
                    raise InvariantError(
                        f"{rho!r} in B_({n},{t}) has no prefix in B_({n},{t + 1})"
                    )

    return PorosityTest(enum, c, levels, stages, boxes, tuple(nodes),
                        tuple(max_masses), final_gaps)
