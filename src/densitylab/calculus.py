"""Point-function oracles, slopes, pseudo-derivatives, monotone extension.

Oracles answer (q, n) queries with |answer - f(q)| <= 2^-n.  Builtins carry
an exact evaluator alongside the sampler, so slope computations on them are
exact; an oracle without one is sampled and its error accounted for.  A
declared Lipschitz constant stands in for a modulus of continuity: extrema
are computed by modulus-driven grid refinement with explicit error margins,
never by assuming where the extremum sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .bits import ONE, ZERO
from .errors import BudgetExhausted, DomainError
from .intervals import Interval, IntervalSet, StagedOpenEnumeration
from .piecewise import PiecewiseLinear


class PointFunctionOracle:
    """Sampler (q, n) -> rational with error at most 2^-n, memoized."""

    def __init__(
        self,
        sampler: Callable[[Fraction, int], Fraction],
        domain="all",
        exact: Callable[[Fraction], Fraction] | None = None,
        lipschitz: Fraction | None = None,
        name: str = "",
    ):
        self.sampler = sampler
        self.domain = domain if domain == "all" else tuple(sorted(domain))
        self.exact = exact
        self.lipschitz = None if lipschitz is None else Fraction(lipschitz)
        self.name = name
        # the function itself, when the oracle samples a PiecewiseLinear
        self.piecewise: PiecewiseLinear | None = None
        # keyed by integers, so a lookup never hashes a Fraction
        self._memo: dict[tuple[int, int, int], Fraction] = {}

    def in_domain(self, q: Fraction) -> bool:
        return self.domain == "all" or q in self.domain

    def sample(self, q: Fraction, n: int) -> Fraction:
        if not self.in_domain(q):
            raise DomainError(f"{q} outside the domain of oracle {self.name!r}")
        key = (q.numerator, q.denominator, n)
        v = self._memo.get(key)
        if v is None:
            v = self.sampler(q, n)
            if not isinstance(v, Fraction):
                v = Fraction(v)
            self._memo[key] = v
        return v


def oracle_from_exact(fn, lipschitz=None, name: str = "", domain="all") -> PointFunctionOracle:
    return PointFunctionOracle(
        lambda q, n: fn(q), domain=domain, exact=fn, lipschitz=lipschitz, name=name
    )


def identity_oracle() -> PointFunctionOracle:
    return oracle_from_exact(lambda q: q, lipschitz=1, name="identity")


def constant_oracle(c) -> PointFunctionOracle:
    c = Fraction(c)
    return oracle_from_exact(lambda q: c, lipschitz=0, name=f"constant {c}")


def polynomial_oracle(coeffs) -> PointFunctionOracle:
    """Exact polynomial sum c_i x^i; Lipschitz bound on [0,1] is sum i |c_i|."""
    cs = tuple(Fraction(c) for c in coeffs)

    def fn(q: Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(cs):
            acc = acc * q + c
        return acc

    lip = sum((i * abs(c) for i, c in enumerate(cs)), ZERO)
    return oracle_from_exact(fn, lipschitz=lip, name=f"polynomial {cs}")


def piecewise_linear_oracle(pl: PiecewiseLinear, name: str = "piecewise") -> PointFunctionOracle:
    oracle = oracle_from_exact(pl.value, lipschitz=pl.lipschitz_bound(), name=name)
    oracle.piecewise = pl
    return oracle


@dataclass(frozen=True)
class SlopeSample:
    a: Fraction
    b: Fraction
    value: Fraction
    precision: int

    @property
    def error_bound(self) -> Fraction:
        return 2 * Fraction(1, 1 << self.precision) / abs(self.b - self.a)


def _sample_index_for(width: Fraction, n: int) -> int:
    # smallest m with 2 * 2^-m / width <= 2^-n
    m = max(n + 1, 0)
    while (1 << m) * width < (1 << (n + 1)):
        m += 1
    return m


def slope(f: PointFunctionOracle, a: Fraction, b: Fraction, n: int) -> SlopeSample:
    """S_f(a,b) from samples at an index making the slope error <= 2^-n."""
    a, b = Fraction(a), Fraction(b)
    if a == b:
        raise DomainError("slope needs distinct endpoints")
    m = _sample_index_for(abs(b - a), n)
    if f.exact is not None:
        value = (f.exact(a) - f.exact(b)) / (a - b)
    else:
        value = (f.sample(a, m) - f.sample(b, m)) / (a - b)
    return SlopeSample(a, b, value, m)


def _dyadic_points(lo: Fraction, hi: Fraction, depth: int) -> list[Fraction]:
    scale = 1 << depth
    first = (lo * scale).numerator // (lo * scale).denominator
    if Fraction(first, scale) < lo:
        first += 1
    out = []
    k = first
    while Fraction(k, scale) <= hi:
        out.append(Fraction(k, scale))
        k += 1
    return out


def _straddling_candidates(f, x, lo, hi, depth) -> list[Fraction]:
    pts = set(_dyadic_points(max(lo, ZERO), min(hi, ONE), depth))
    if f.domain != "all":
        pts = {p for p in f.domain if lo <= p <= hi}
    elif lo <= x <= hi:
        pts.add(x)
    return sorted(p for p in pts if f.in_domain(p))


@dataclass(frozen=True)
class DerivativeEstimate:
    side: str
    value: Fraction
    witness: tuple[Fraction, Fraction]
    scale: Fraction
    grid_depth: int


def pseudo_derivative_estimate(
    f: PointFunctionOracle, x: Fraction, h: Fraction, grid_depth: int, side: str
) -> DerivativeEstimate:
    """Extremal slope over straddling pairs a <= x <= b with 0 < b-a <= h.

    Upper mode is a certified lower bound on the upper pseudo-derivative at
    scale h, lower mode a certified upper bound on the lower one; sampled
    oracles get the 2^-(grid_depth+2) slope-error adjustment, exact ones
    none.  Pairs must straddle x; one-sided pairs are excluded by definition.
    """
    x, h = Fraction(x), Fraction(h)
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be upper or lower, got {side!r}")
    if h <= 0:
        raise DomainError("scale h must be positive")
    cands = _straddling_candidates(f, x, x - h, x + h, grid_depth)
    lefts = [a for a in cands if a <= x]
    rights = [b for b in cands if b >= x]
    prec = grid_depth + 2
    adjust = ZERO if f.exact is not None else Fraction(1, 1 << prec)
    best = None
    witness = None
    for a in lefts:
        for b in rights:
            if not ZERO < b - a <= h:
                continue
            v = slope(f, a, b, prec).value
            v = v - adjust if side == "upper" else v + adjust
            if best is None or (v > best if side == "upper" else v < best):
                best, witness = v, (a, b)
    if best is None:
        raise DomainError(
            f"no straddling pair around {x} at depth {grid_depth} within scale {h}"
        )
    return DerivativeEstimate(side, best, witness, h, grid_depth)


def _refined_grid(lo: Fraction, hi: Fraction, max_step: Fraction) -> list[Fraction]:
    if lo == hi or max_step <= 0:
        return [lo] if lo == hi else [lo, hi]
    steps = (hi - lo) / max_step
    count = steps.numerator // steps.denominator
    if count * max_step < hi - lo:
        count += 1
    delta = (hi - lo) / count
    return [lo + k * delta for k in range(count + 1)]


def interval_extremum(
    p: PointFunctionOracle, a: Fraction, b: Fraction, n: int, which: str
) -> Fraction:
    """Sup or inf over [a,b] within 2^-n, by modulus-driven refinement."""
    a, b = Fraction(a), Fraction(b)
    if which not in ("sup", "inf"):
        raise DomainError(f"which must be sup or inf, got {which!r}")
    if a > b:
        raise DomainError("need a <= b")
    if p.lipschitz is None:
        raise DomainError("interval extremum needs a declared modulus")
    if a == b or p.lipschitz == 0:
        return p.sample(a, n)
    # grid step d with L d / 2 <= 2^-(n+1) makes grid value + sample error <= 2^-n
    step = Fraction(1, 1 << n) / p.lipschitz
    values = [p.sample(q, n + 1) for q in _refined_grid(a, b, step)]
    return max(values) if which == "sup" else min(values)


@dataclass(frozen=True)
class ExtensionBudget:
    grid_depth: int | None = None
    precision: int | None = None
    max_stage: int | None = None


def _floor_ceil(x: Fraction, scale: int) -> tuple[int, int]:
    """Floor and ceiling of x * scale."""
    q, r = divmod(x.numerator * scale, x.denominator)
    return q, q + (r > 0)


def _inner_grid(part: Interval, scale: int) -> range:
    """Indices k with part.lo < k / scale < part.hi."""
    return range(_floor_ceil(part.lo, scale)[0] + 1, _floor_ceil(part.hi, scale)[1])


def _on_grid(part: Interval, depth: int) -> bool:
    """Both endpoints of the part lie on the 2^-depth grid."""
    return all((1 << depth) % x.denominator == 0 for x in (part.lo, part.hi))


class MonotoneExtension:
    """Nondecreasing extension of h from a stage-enumerated closed class.

    Internals follow the two-envelope recipe: f(x) = sup of h over C to the
    left of x, g(x) = inf to the right; F approximates f from above (falling
    in the stage), G approximates g from below (rising), both regularized to
    be monotone in x (running max / running min over the internal grid) and
    in the stage index.  The stage axis is interpolated linearly, the value
    at x is F at the first F = G crossing; where the curves never cross the
    final F is returned once its gap to G is below 2^-n, else the achieved
    gap is reported.  Queries snap down to the internal grid, so outputs are
    exactly nondecreasing and C-grid points (depth <= grid_depth) are exact
    queries.  ``grid_values(depth)`` answers every query k / 2^depth at once:
    it maps each point to its internal grid index and solves each index once,
    through the same memoised crossing as ``value``, so both return the same
    values and stop with the same BudgetExhausted at the same first point.

    Each class point is sampled once per build: grid points keyed by their
    index, part endpoints off the grid by value.  The F/G rows are integer
    numerators over one denominator, the lcm of the samples, the margin and
    the two bounds; a candidate enters the F row at its ceiling grid index and
    the G row at its floor grid index.
    """

    def __init__(
        self,
        h: PointFunctionOracle,
        enum: StagedOpenEnumeration,
        n: int,
        budget: ExtensionBudget | None = None,
    ):
        if h.lipschitz is None:
            raise DomainError("monotone extension needs a declared modulus")
        budget = budget or ExtensionBudget()
        lip = h.lipschitz
        gd = budget.grid_depth
        if gd is None:
            gd = n + 3
            while lip * Fraction(1, 1 << gd) > Fraction(1, 1 << (n + 3)):
                gd += 1
        prec = budget.precision if budget.precision is not None else n + 4
        max_stage = budget.max_stage if budget.max_stage is not None else len(enum)
        self.h, self.enum, self.n = h, enum, n
        self.grid_depth, self.precision = gd, prec
        self.epsilon = Fraction(1, 1 << n)
        margin = lip * Fraction(1, 1 << gd) + Fraction(1, 1 << prec)
        mid = h.sample(Fraction(1, 2), 2)
        hi_bound = mid + lip + 1
        lo_bound = mid - lip - 1
        final = min(len(enum), max_stage)
        self.stages = []
        step = 1
        while step < final:
            self.stages.append(step)
            step *= 2
        self.stages.append(final)
        self.stages = sorted(set(self.stages))
        classes = [enum.stage_class(t) for t in self.stages]

        size = (1 << gd) + 1
        grid_vals: list[Fraction | None] = [None] * size
        off_vals: dict[Fraction, Fraction] = {}
        for c_set in classes:
            self._sample_class(c_set, grid_vals, off_vals)
        # the monotonicity check also reads the refined grid of off-grid parts
        for part in classes[-1]:
            if not _on_grid(part, gd):
                for q in _refined_grid(part.lo, part.hi, Fraction(1, 1 << gd)):
                    if q not in off_vals:
                        off_vals[q] = h.sample(q, prec)

        dens = {v.denominator for v in grid_vals if v is not None}
        dens.update(v.denominator for v in off_vals.values())
        den = lcm(margin.denominator, hi_bound.denominator, lo_bound.denominator, *dens)

        def scaled(v: Fraction) -> int:
            return v.numerator * (den // v.denominator)

        self._den = den
        grid_ints = [None if v is None else scaled(v) for v in grid_vals]
        off_ints = {x: scaled(v) for x, v in off_vals.items()}
        self._check_monotone_on_class(classes[-1], grid_ints, off_ints)
        margin, hi_bound, lo_bound = scaled(margin), scaled(hi_bound), scaled(lo_bound)
        self._f_rows = [[hi_bound] * size]  # sup side starts high
        self._g_rows = [[lo_bound] * size]  # inf side starts low
        # the value depends on x only through its grid index
        self._values: list[Fraction | None] = [None] * size
        for c_set in classes:
            f_best, g_best = self._stage_buckets(c_set, grid_ints, off_ints)
            f_row, g_row = [], []
            # F: running max of the candidates at or left of each grid point
            # plus the margin, never above the previous stage's row
            running = None
            for prev, v in zip(self._f_rows[-1], f_best):
                if v is not None and (running is None or v > running):
                    running = v
                f_row.append(min(prev, lo_bound if running is None else running + margin))
            # G: running min from the right minus the margin, never below
            running = None
            for prev, v in zip(reversed(self._g_rows[-1]), reversed(g_best)):
                if v is not None and (running is None or v < running):
                    running = v
                g_row.append(max(prev, hi_bound if running is None else running - margin))
            g_row.reverse()
            self._f_rows.append(f_row)
            self._g_rows.append(g_row)

    def _sample_class(self, c_set: IntervalSet, grid_vals: list, off_vals: dict) -> None:
        """Sample h at each candidate of the class not sampled yet: part
        endpoints and the grid points strictly inside the parts."""
        scale, prec = 1 << self.grid_depth, self.precision

        def sample_end(x: Fraction) -> None:
            k, up = _floor_ceil(x, scale)
            if k == up:
                if grid_vals[k] is None:
                    grid_vals[k] = self.h.sample(x, prec)
            elif x not in off_vals:
                off_vals[x] = self.h.sample(x, prec)

        for part in c_set:
            sample_end(part.lo)
            for k in _inner_grid(part, scale):
                if grid_vals[k] is None:
                    grid_vals[k] = self.h.sample(Fraction(k, scale), prec)
            if part.hi != part.lo:
                sample_end(part.hi)

    def _stage_buckets(self, c_set: IntervalSet, grid_ints: list, off_ints: dict):
        """Per grid index, the max (F side) and min (G side) integer sample of
        the candidates placed there; None where there is none."""
        scale = 1 << self.grid_depth
        f_best = [None] * (scale + 1)
        for part in c_set:
            inner = _inner_grid(part, scale)
            f_best[inner.start:inner.stop] = grid_ints[inner.start:inner.stop]
        g_best = f_best.copy()
        for part in c_set:
            for x in (part.lo, part.hi):
                k, up = _floor_ceil(x, scale)
                v = grid_ints[k] if k == up else off_ints[x]
                if f_best[up] is None or v > f_best[up]:
                    f_best[up] = v
                if g_best[k] is None or v < g_best[k]:
                    g_best[k] = v
        return f_best, g_best

    def _check_monotone_on_class(
        self, c_set: IntervalSet, grid_ints: list, off_ints: dict
    ) -> None:
        """h must stay within 2^-(precision-1) of nondecreasing along the
        refined grid of each part, which on a grid-aligned part is the internal
        grid itself; samples are integers over the row denominator."""
        scale = 1 << self.grid_depth
        run_q = run_max = None
        for part in c_set:
            if _on_grid(part, self.grid_depth):
                ks = range(_floor_ceil(part.lo, scale)[0], _floor_ceil(part.hi, scale)[0] + 1)
                points = ((Fraction(k, scale), grid_ints[k]) for k in ks)
            else:
                points = (
                    (q, off_ints[q])
                    for q in _refined_grid(part.lo, part.hi, Fraction(1, scale))
                )
            for q, v in points:
                if run_max is not None and (run_max - v) << (self.precision - 1) > self._den:
                    raise DomainError(
                        f"h is not nondecreasing on the class: h({run_q}) > h({q})"
                    )
                if run_max is None or v > run_max:
                    run_q, run_max = q, v

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not 0 <= x.numerator <= x.denominator:
            raise DomainError(f"{x} outside [0,1]")
        i = (x.numerator << self.grid_depth) // x.denominator
        return self._value_at(i, x.numerator, x.denominator)

    def grid_values(self, depth: int) -> list[Fraction]:
        """value(k / 2^depth) for k = 0..2^depth; grid points that share an
        internal grid index share one value object."""
        if depth < 0:
            raise DomainError(f"grid depth {depth} is negative")
        gd, scale = self.grid_depth, 1 << depth
        return [self._value_at((k << gd) >> depth, k, scale) for k in range(scale + 1)]

    def _value_at(self, i: int, x_num: int, x_den: int) -> Fraction:
        """The value at internal grid index i, memoised; x_num / x_den is
        the query point named if the envelope gap never closed there."""
        v = self._values[i]
        if v is not None:
            return v
        den = self._den
        prev_f = prev_g = None
        for f_row, g_row in zip(self._f_rows, self._g_rows):
            f_v, g_v = f_row[i], g_row[i]
            if f_v <= g_v:
                # crossed between this stage and the previous one: solve the
                # linear crossing
                gap = prev_f - prev_g
                rise = gap + (g_v - f_v)
                v = Fraction(prev_f * rise + gap * (f_v - prev_f), rise * den)
                break
            prev_f, prev_g = f_v, g_v
        else:
            if (prev_f - prev_g) << self.n >= den:
                raise BudgetExhausted(
                    f"envelope gap never closed at {Fraction(x_num, x_den)}",
                    achieved=Fraction(prev_f - prev_g, den),
                )
            v = Fraction(prev_f, den)
        self._values[i] = v
        return v


def extension_grid_check(ext: MonotoneExtension, depth: int) -> tuple[int, Fraction]:
    """(drops, worst) on the 2^-depth grid: how often the extension decreases
    from one grid point to the next, and its largest |value - h| over the grid
    points of the final class.

    h must be a ``piecewise_linear_oracle``; its grid values come as integers
    over one denominator, so |value - h| is compared by cross-multiplication
    and one Fraction is built at the end.
    """
    pl = ext.h.piecewise
    if pl is None:
        raise DomainError("the extension grid check needs a piecewise-linear h")
    vals = ext.grid_values(depth)
    drops = sum(1 for a, b in zip(vals, vals[1:]) if a is not b and a > b)
    den, hs = pl.grid_numerators(depth)
    # the worst |value - h| is worst_num / (worst_den * den)
    worst_num, worst_den = 0, 1
    v = None
    for ks in ext.enum.final_class().grid_ranges(depth):
        for k in ks:
            if vals[k] is not v:  # runs of grid points share one value
                v = vals[k]
                p, q = v.numerator * den, v.denominator
            d = abs(p - hs[k] * q)
            if d * worst_den > worst_num * q:
                worst_num, worst_den = d, q
    return drops, Fraction(worst_num, worst_den * den)

