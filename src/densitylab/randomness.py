"""Test families, escape sets, and domination tests.

A component of a test is a staged enumeration of open intervals; its union at
the final stage is what the measure bounds talk about.  Escape sets need
components that enumerate prefix-free dyadic cylinders, because the kept
items of a truncation must again be cylinders one level of the construction
deeper.  Boundary points of items are null and never affect a bound.

Cylinder components stay bit strings: a prefix-free set's union has measure
the sum of 2^-|rho| over its strings, and its measure inside the final class
comes from porosity's integer kernel ``class_mass``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .bits import (ONE, ZERO, cylinder_bounds, is_antichain, is_dyadic, is_prefix, string_at,
                   validate_bits)
from .density import FatCover, low_density_open_set, lower_density_estimate
from .errors import BudgetExhausted, DomainError, EnumerationOverlapError, Frozen, InvariantError
from .intervals import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    StagedOpenEnumeration,
    canonicalize,
    class_gaps,
    stage_gaps,
)
from .porosity import class_mass
from .report import Check


def cylinder_items(s: IntervalSet) -> list[str]:
    """Greedy maximal dyadic-cylinder decomposition of a dyadic interval set.

    Degenerate parts are dropped: they are null and no cylinder can carry
    them.  Raises if an endpoint is not dyadic.
    """
    out: list[str] = []
    for part in s.drop_degenerate().parts:
        if not (is_dyadic(part.lo) and is_dyadic(part.hi)):
            raise DomainError(f"non-dyadic part {part.to_json()} has no cylinder cover")
        a, b = part.lo, part.hi
        while a < b:
            k = a.denominator.bit_length() - 1
            while a + Fraction(1, 1 << k) > b:
                k += 1
            idx = a * (1 << k)
            out.append(string_at(int(idx), k))
            a += Fraction(1, 1 << k)
    return out


class TestFamily(Frozen):
    """A difference test: staged open components V_n with
    lambda(V_n cap C_final) <= 2^-n, C_final the final class of closed_enum."""

    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("components", "closed_enum", "stage_marks")

    def __init__(self, components: tuple[StagedOpenEnumeration, ...],
                 closed_enum: StagedOpenEnumeration, stage_marks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "closed_enum", closed_enum)
        object.__setattr__(self, "stage_marks", stage_marks)

    def component_union(self, n: int) -> IntervalSet:
        comp = self.components[n]
        return comp.union_at(len(comp.items))

    def measure_records(self) -> list[Check]:
        final = self.closed_enum.final_class()
        recs = []
        for n in range(len(self.components)):
            lhs = self.component_union(n).intersect(final).measure
            rhs = Fraction(1, 1 << n)
            recs.append(Check(f"lambda(V_{n} cap C_final)", lhs, rhs, lhs <= rhs))
        return recs


class CaptureReport(Frozen):
    __slots__ = ("levels",)

    def __init__(self, levels: tuple[bool, ...]):
        object.__setattr__(self, "levels", levels)

    @property
    def captured(self) -> bool:
        return all(self.levels)


def capture_check(family: TestFamily, z: Fraction) -> CaptureReport:
    """Membership of z in the final class and in every component."""
    flags = []
    in_class = family.closed_enum.final_class().contains_point(z)
    for n in range(len(family.components)):
        flags.append(in_class and family.component_union(n).contains_point(z))
    return CaptureReport(tuple(flags))


def density_difference_test(enum: StagedOpenEnumeration, n_max: int) -> TestFamily:
    """Difference test whose component n collects U(C_t, 2^-(n+1)) over stages.

    The per-stage covered sets grow with t (dropping class material can only
    lower window densities), which is verified here, so each component is
    enumerated as the per-stage increments and its final union is the last
    stage's covered set.
    """
    if n_max < 0:
        raise DomainError(f"negative component count {n_max}")
    rows = list(stage_gaps(enum.items))
    components = []
    marks = []
    for n in range(n_max + 1):
        eps = Fraction(1, 1 << (n + 1))
        items: list[Interval] = []
        counts: list[int] = []
        prev = EMPTY_SET
        for row in rows:
            cover = low_density_open_set(row, eps).U
            if prev.intersect(cover) != prev:
                raise InvariantError("covered set shrank between stages")
            items.extend(cover.intersect(prev.complement()).drop_degenerate().parts)
            counts.append(len(items))
            prev = cover
        components.append(StagedOpenEnumeration(tuple(items)))
        marks.append(tuple(counts))
    return TestFamily(tuple(components), enum, tuple(marks))


class CylinderDifferenceTest:
    """Difference test with lazily built, prefix-free cylinder components.

    component_fn(n) must return cylinder strings in enumeration order with
    lambda(Cyl cap C_final) <= 2^-n; certify() checks that bound exactly for
    every component that has been materialized, on the strings through the
    final class's gaps.
    """

    def __init__(
        self,
        closed_enum: StagedOpenEnumeration,
        component_fn: Callable[[int], tuple[str, ...]],
    ):
        self.closed_enum = closed_enum
        self.component_fn = component_fn
        self.gaps = class_gaps(closed_enum.items)
        self._cache: dict[int, tuple[str, ...]] = {}

    def component_strings(self, n: int) -> tuple[str, ...]:
        if n not in self._cache:
            strings = tuple(validate_bits(s) for s in self.component_fn(n))
            if not is_antichain(strings) or len(set(strings)) != len(strings):
                raise EnumerationOverlapError(f"component {n} is not prefix-free")
            self._cache[n] = strings
        return self._cache[n]

    def certify(self) -> list[Check]:
        recs = []
        for n in sorted(self._cache):
            num, den = class_mass(self.gaps, self._cache[n])
            recs.append(Check(f"lambda(V_{n} cap C_final)", Fraction(num, den),
                              Fraction(1, 1 << n), num << n <= den))
        return recs


def difference_test_from_porosity(ptest) -> CylinderDifferenceTest:
    """Reindex a porosity test's components so component n certifies 2^-n.

    The porosity level bound decays like (1 - 2^-(c+2))^k, so component n is
    the first porosity level k whose bound dips below 2^-n.  Items are the
    per-stage cylinder increments, which are prefix-free across stages since
    the stage unions are nested.
    """
    decay = ptest.decay

    def level_for(n: int) -> int:
        k, power = 0, Fraction(1)
        target = Fraction(1, 1 << n)
        while power > target:
            k += 1
            power *= decay
            if k > ptest.levels:
                raise BudgetExhausted(
                    f"porosity test has only {ptest.levels} levels, component {n} "
                    f"needs decay^k <= 2^-{n}",
                    achieved=power,
                )
        return k

    def component(n: int) -> tuple[str, ...]:
        k = level_for(n)
        items: list[str] = []
        prev = EMPTY_SET
        for t in range(ptest.stages + 1):
            cur = canonicalize(
                [Interval(*cylinder_bounds(rho)) for rho in ptest.boxes[(k, t)]]
            )
            items.extend(cylinder_items(cur.subtract(prev)))
            prev = cur
        return tuple(items)

    return CylinderDifferenceTest(ptest.enum, component)


def _point_in_cylinder(z: Fraction, sigma: str) -> bool:
    """Half-open convention [lo, hi), closed at 1, so membership is a partition."""
    lo, hi = cylinder_bounds(sigma)
    return lo <= z < hi or (hi == ONE and z == ONE)


class EscapeSets(Frozen):
    """G_m = union of Cyl(B_m) with per-round truncation budgets."""

    __slots__ = ("r", "m_max", "z", "boxes", "verdict", "escape_level", "witness_sigma",
                 "records")

    def __init__(
        self,
        r: int,
        m_max: int,
        z: Fraction,
        boxes: tuple[tuple[str, ...], ...],
        verdict: str,  # "captured" | "certificate" | "uncaptured"
        escape_level: int | None,
        witness_sigma: str | None,
        records: tuple[Check, ...],
    ):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "escape_level", escape_level)
        object.__setattr__(self, "witness_sigma", witness_sigma)
        object.__setattr__(self, "records", records)


def build_escape_sets(
    dtest: CylinderDifferenceTest, r: int, m_max: int, z: Fraction
) -> EscapeSets:
    """Iterated truncation of component slices inside each surviving cylinder.

    Inside sigma the component of index |sigma| + r + 1 is replayed with
    budget 2^-|sigma| (1 - 2^-(r+1)): items strictly below sigma are kept, in
    enumeration order, while their summed lengths fit it; an item at or above
    sigma covers Cyl(sigma), which exceeds the budget, so it is never kept.
    The kept cylinders, strict extensions of an antichain's members taken
    from an antichain, form the next box, again an antichain.  The verdict
    explains how z left (or failed to leave) the sets:
    "certificate" means z's covering item was truncated, which forces the
    class to be thin in sigma; "uncaptured" means the component never covered
    z inside sigma and nothing is asserted about the class there.
    """
    if r < 0 or m_max < 0:
        raise DomainError("r and m_max must be nonnegative")
    shrink = 1 - Fraction(1, 1 << (r + 1))
    boxes: list[tuple[str, ...]] = [("",)]
    for m in range(m_max):
        new: list[str] = []
        for sigma in boxes[m]:
            n = len(sigma) + r + 1
            below = [tau for tau in dtest.component_strings(n)
                     if len(tau) > len(sigma) and tau.startswith(sigma)]
            # the budget (2^(r+1) - 1) 2^-n in units of 2^-top, spent on
            # disjoint cylinders
            top = max([n, *map(len, below)])
            room = ((1 << (r + 1)) - 1) << (top - n)
            for tau in below:
                size = 1 << (top - len(tau))
                if size <= room:
                    room -= size
                    new.append(tau)
        boxes.append(tuple(sorted(new)))

    records: list[Check] = []
    for m, box in enumerate(boxes):
        mass = sum((Fraction(1, 1 << len(s)) for s in box), Fraction(0))
        bound = shrink**m
        records.append(Check(f"lambda(G_{m}) <= shrink^{m}", mass, bound, mass <= bound))

    # walk z down the boxes
    verdict = "captured"
    escape_level: int | None = None
    witness: str | None = None
    chain: list[str] = []
    for m, box in enumerate(boxes):
        holder = next((s for s in box if _point_in_cylinder(z, s)), None)
        if holder is None:
            escape_level = m
            break
        chain.append(holder)
    if escape_level is not None:
        sigma = chain[-1]
        witness = sigma
        n = len(sigma) + r + 1
        comp = dtest.component_strings(n)
        # the component is an antichain: an item at or above sigma is its
        # only item meeting Cyl(sigma), and the items below sigma are disjoint
        above = any(is_prefix(tau, sigma) for tau in comp)
        below = [tau for tau in comp if is_prefix(sigma, tau)]
        covered = above or any(_point_in_cylinder(z, tau) for tau in below)
        sigma_width = Fraction(1, 1 << len(sigma))
        slice_measure = sigma_width if above else sum(
            (Fraction(1, 1 << len(tau)) for tau in below), Fraction(0))
        if covered:
            verdict = "certificate"
            budget = sigma_width * shrink
            records.append(Check(f"slice of V_{n} in {sigma!r} overflows the budget",
                                 slice_measure, budget, slice_measure > budget))
            num, den = class_mass(dtest.gaps, (sigma,))
            records.append(Check(f"relative class measure in {sigma!r}",
                                 Fraction(num << len(sigma), den), Fraction(1, 1 << r),
                                 num << (len(sigma) + r) <= den))
        else:
            verdict = "uncaptured"
    return EscapeSets(
        r, m_max, z, tuple(boxes), verdict, escape_level, witness, tuple(records)
    )


class DominationScenario(Frozen):
    """A prefix-free word list, a target point, and the density threshold.
    Scenarios compare, hash and print as their four fields."""

    __slots__ = ("words", "z", "eps", "depth", "_drops")

    def __init__(self, words: tuple[str, ...], z: Fraction, eps: Fraction, depth: int):
        for w in words:
            validate_bits(w)
        if not is_antichain(words) or len(set(words)) != len(words):
            raise EnumerationOverlapError("domination words must be prefix-free")
        if not ZERO < eps < ONE:
            raise DomainError(f"eps must be in (0,1), got {eps}")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "depth", depth)
        # g(s) by s, filled by least_density_drop; None where no window drops
        object.__setattr__(self, "_drops", {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.words, self.z, self.eps, self.depth) == (
            other.words, other.z, other.eps, other.depth)

    def __hash__(self):
        return hash((self.words, self.z, self.eps, self.depth))

    def __repr__(self):
        return (f"DominationScenario(words={self.words!r}, z={self.z!r}, eps={self.eps!r}, "
                f"depth={self.depth!r})")

    def word_holes(self, s: int, t: int) -> list[Interval]:
        """The cylinders of words s .. t - 1, the holes of the window's class."""
        if not 0 <= s <= t <= len(self.words):
            raise DomainError(f"bad window [{s},{t})")
        return [Interval(*cylinder_bounds(w)) for w in self.words[s:t]]

    def density_at(self, s: int, t: int) -> Fraction:
        row = class_gaps(self.word_holes(s, t))
        return lower_density_estimate(row, self.z, self.depth).estimate


def least_density_drop(scenario: DominationScenario, s: int) -> int:
    """g(s): least t > s whose window class has estimate < eps at z.  Each g(s)
    is searched once per scenario, so least_drop_h and build_domination_tests
    share it."""
    drops = scenario._drops
    if s not in drops:
        drops[s] = next(
            (t for t in range(s + 1, len(scenario.words) + 1)
             if scenario.density_at(s, t) < scenario.eps),
            None,
        )
    if drops[s] is not None:
        return drops[s]
    raise BudgetExhausted(
        f"no window [{s},t) drops the density below {scenario.eps} "
        f"within {len(scenario.words)} words"
    )


def _check_case(case: int) -> None:
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")


def least_drop_h(scenario: DominationScenario, case: int, n_blocks: int) -> Callable[[int], int]:
    """The h that drives build_domination_tests from g = least_density_drop:
    g itself in case 1, the g-iteration from 0 (n_blocks + 1 values, computed
    here) in case 2.  Any other case is refused before the search."""
    _check_case(case)
    if case == 1:
        return lambda s: least_density_drop(scenario, s)
    chain = [least_density_drop(scenario, 0)]
    for _ in range(n_blocks):
        chain.append(least_density_drop(scenario, chain[-1]))
    return chain.__getitem__


class DominationTests(Frozen):
    __slots__ = ("blocks", "covers", "captured", "expected_capture", "records")

    def __init__(self, blocks: tuple[tuple[int, int], ...], covers: tuple[FatCover, ...],
                 captured: tuple[bool, ...], expected_capture: tuple[bool, ...],
                 records: tuple[Check, ...]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "captured", captured)
        object.__setattr__(self, "expected_capture", expected_capture)
        object.__setattr__(self, "records", records)


def build_domination_tests(
    scenario: DominationScenario,
    h: Callable[[int], int],
    case: int,
    n_blocks: int,
) -> DominationTests:
    """Solovay-style blocks S_n = U(C_block, eps) driven by a candidate h.

    Case 1 iterates h from h(0) and expects capture wherever h(k) >= g(k) at
    the block starts.  Case 2 uses consecutive values h(n), h(n+1) as blocks
    and expects capture where the block straddles the g-iteration f.  The
    exact budget identity sums the per-block size bounds against the measure
    of all enumerated word cylinders.
    """
    _check_case(case)
    total_words = len(scenario.words)

    def clamp(v: int) -> int:
        if not 0 <= v <= total_words:
            raise DomainError(f"h value {v} outside the word list")
        return v

    starts: list[int] = []
    if case == 1:
        k = clamp(h(0))
        starts.append(k)
        for _ in range(n_blocks):
            k = clamp(h(k))
            starts.append(k)
    else:
        for i in range(n_blocks + 1):
            starts.append(clamp(h(i)))
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise DomainError(f"h produced a non-increasing block sequence {starts}")

    blocks = tuple(zip(starts, starts[1:]))
    covers = []
    captured = []
    expected = []
    f_vals: list[int] = []
    if case == 2:
        try:
            f = least_density_drop(scenario, 0)
            f_vals.append(f)
            for _ in range(n_blocks):
                f = least_density_drop(scenario, f)
                f_vals.append(f)
        except BudgetExhausted:
            pass
    for i, (s, t) in enumerate(blocks):
        cover = low_density_open_set(class_gaps(scenario.word_holes(s, t)), scenario.eps)
        covers.append(cover)
        captured.append(cover.U.contains_point(scenario.z))
        if case == 1:
            try:
                expected.append(least_density_drop(scenario, s) <= t)
            except BudgetExhausted:
                expected.append(False)
        else:
            expected.append(
                i + 1 < len(f_vals) and s <= f_vals[i] and t >= f_vals[i + 1]
            )

    records: list[Check] = []
    total = sum((c.U.measure for c in covers), Fraction(0))
    budget = 2 / (1 - scenario.eps)
    records.append(Check("sum of lambda(S_n)", total, budget, total <= budget))
    # the words are prefix-free, so the used cylinders' union has measure the
    # sum of their lengths; the identity row below checks that sum
    used = sum((Fraction(1, 1 << len(w)) for s, t in blocks for w in scenario.words[s:t]),
               Fraction(0))
    scaled = 2 * used / (1 - scenario.eps)
    records.append(Check("sum against used-cylinder budget", total, scaled, total <= scaled))
    all_cyls = canonicalize([Interval(*cylinder_bounds(w)) for w in scenario.words])
    flat = sum((Fraction(1, 1 << len(w)) for w in scenario.words), Fraction(0))
    records.append(Check("prefix-free decomposition identity", all_cyls.measure, flat,
                         all_cyls.measure == flat))
    for i, (got, want) in enumerate(zip(captured, expected)):
        if want:
            records.append(Check(f"expected capture in block {i}", Fraction(int(got)), ONE, got))
    return DominationTests(
        blocks, tuple(covers), tuple(captured), tuple(expected), tuple(records)
    )
