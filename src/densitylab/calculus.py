"""Point-function oracles, slopes, pseudo-derivatives, monotone extension.

Oracles answer (q, n) queries with |answer - f(q)| <= 2^-n.  Builtins carry
an exact evaluator alongside the sampler, so slope computations on them are
exact; an oracle without one is sampled and its error accounted for.  A
declared Lipschitz constant stands in for a modulus of continuity: extrema
are computed by modulus-driven grid refinement with explicit error margins,
never by assuming where the extremum sits.  A polynomial oracle keeps its
coefficients, so the extremum reads the refined grid as one row of integer
Horner evaluations over one denominator; pseudo-derivative estimates evaluate
an exact oracle once per candidate point, not once per pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import gt, mul
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
        # the coefficients c_0, c_1, ..., when the oracle is a polynomial
        self.coefficients: tuple[Fraction, ...] | None = None
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
    oracle = oracle_from_exact(fn, lipschitz=lip, name=f"polynomial {cs}")
    oracle.coefficients = cs
    return oracle


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
    The witness is the first pair, in (a, b) order, of extremal slope.

    An exact oracle is evaluated once per candidate point; a sampled one goes
    through ``slope`` per pair, whose sample index depends on the pair's width.
    The slopes are taken in the oracle's own value type (Fraction, or
    QuadValue for the counterexample), and the constant adjustment is applied
    once, to the extremum.
    """
    x, h = Fraction(x), Fraction(h)
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be upper or lower, got {side!r}")
    if h <= 0:
        raise DomainError("scale h must be positive")
    cands = _straddling_candidates(f, x, x - h, x + h, grid_depth)
    # the lefts a <= x are cands[:n_left], the rights b >= x cands[first_right:]
    n_left = bisect_right(cands, x)
    first_right = bisect_left(cands, x)
    prec = grid_depth + 2
    upper = side == "upper"
    values = None if f.exact is None else [f.exact(q) for q in cands]
    best = None
    witness = None
    for i in range(n_left):
        a = cands[i]
        # the rights b with a < b <= a + h
        for j in range(max(first_right, i + 1), bisect_right(cands, a + h, first_right)):
            b = cands[j]
            if values is not None:
                v = (values[i] - values[j]) / (a - b)
            else:
                v = slope(f, a, b, prec).value
            if best is None or (v > best if upper else v < best):
                best, witness = v, (a, b)
    if best is None:
        raise DomainError(
            f"no straddling pair around {x} at depth {grid_depth} within scale {h}"
        )
    if values is None:
        adjust = Fraction(1, 1 << prec)
        best = best - adjust if upper else best + adjust
    return DerivativeEstimate(side, best, witness, h, grid_depth)


def _grid_step(lo: Fraction, hi: Fraction, max_step: Fraction) -> tuple[int, Fraction]:
    """(count, delta) for lo < hi and max_step > 0: the fewest equal steps of
    at most max_step from lo to hi, and their length."""
    steps = (hi - lo) / max_step
    count = steps.numerator // steps.denominator
    if count * max_step < hi - lo:
        count += 1
    return count, (hi - lo) / count


def _refined_grid(lo: Fraction, hi: Fraction, max_step: Fraction) -> list[Fraction]:
    if lo == hi or max_step <= 0:
        return [lo] if lo == hi else [lo, hi]
    count, delta = _grid_step(lo, hi, max_step)
    return [lo + k * delta for k in range(count + 1)]


def _polynomial_row(
    cs: tuple[Fraction, ...], lo: Fraction, delta: Fraction, count: int
) -> tuple[int, list[int]]:
    """(den, nums) with nums[k] / den the polynomial sum c_i x^i at
    x = lo + k delta, k = 0..count.  With x = X / e and c_i = C_i / d over
    common denominators, the sum is (sum C_i e^(deg-i) X^i) / (d e^deg): one
    integer Horner evaluation per point."""
    e = lcm(lo.denominator, delta.denominator)
    d = lcm(*(c.denominator for c in cs))
    deg = len(cs) - 1
    weights = [c.numerator * (d // c.denominator) * e ** (deg - i) for i, c in enumerate(cs)]
    top, rest = weights[-1], weights[-2::-1]
    x0, dx = lo.numerator * (e // lo.denominator), delta.numerator * (e // delta.denominator)
    nums = []
    for k in range(count + 1):
        xk = x0 + k * dx
        acc = top
        for w in rest:
            acc = acc * xk + w
        nums.append(acc)
    return d * e ** deg, nums


def interval_extremum(
    p: PointFunctionOracle, a: Fraction, b: Fraction, n: int, which: str
) -> Fraction:
    """Sup or inf over [a,b] within 2^-n, by modulus-driven refinement.

    A polynomial oracle is read as one integer row over ``_refined_grid``'s
    points, and one Fraction is built for the extremum; other oracles are
    sampled point by point."""
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
    if p.coefficients is not None:
        count, delta = _grid_step(a, b, step)
        den, nums = _polynomial_row(p.coefficients, a, delta, count)
        return Fraction(max(nums) if which == "sup" else min(nums), den)
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

    h must be a ``piecewise_linear_oracle`` defined on all of [0,1].  Every
    internal grid sample comes from one ``grid_numerators(grid_depth)`` row;
    only part endpoints off the grid, and the refined grid of off-grid parts
    that the monotonicity check reads, are evaluated one point at a time.
    The F/G rows are integer numerators over one denominator, the lcm of the
    row's, the off-grid samples', the margin's and the two bounds'.  A
    candidate enters the F row at its ceiling grid index and the G row at its
    floor grid index.  Each stage's F row is one sweep of the running max of
    its candidates, clipped to the previous stage's row, and its G row one
    sweep of the running min from the right; the two bounds stand in for
    "no candidate yet", so the sweeps test no None.  The value at each
    internal grid index is solved once, to an integer pair p / q: ``value``
    and ``grid_values`` build their memoised Fractions from it, and
    ``extension_grid_check`` compares pairs in integers.
    """

    def __init__(
        self,
        h: PointFunctionOracle,
        enum: StagedOpenEnumeration,
        n: int,
        budget: ExtensionBudget | None = None,
    ):
        pl = h.piecewise
        if pl is None:
            raise DomainError("monotone extension needs a piecewise-linear h")
        budget = budget or ExtensionBudget()
        lip = h.lipschitz
        gd = budget.grid_depth
        if gd is None:
            gd = n + 3
            while lip * Fraction(1, 1 << gd) > Fraction(1, 1 << (n + 3)):
                gd += 1
        prec = budget.precision if budget.precision is not None else n + 4
        if prec < 1:
            raise DomainError(f"extension precision must be at least 1, got {prec}")
        max_stage = budget.max_stage if budget.max_stage is not None else len(enum)
        self.h, self.enum, self.n = h, enum, n
        self.grid_depth, self.precision = gd, prec
        self.epsilon = Fraction(1, 1 << n)
        # every internal grid sample, from one row; a domain short of [0,1]
        # raises here, at the first grid point outside it
        row_den, row = pl.grid_numerators(gd)
        margin = lip * Fraction(1, 1 << gd) + Fraction(1, 1 << prec)
        mid = pl.value(Fraction(1, 2))
        # Every sample is h(x) for some x in [0,1], so it lies within lip / 2
        # of h(1/2) == mid, while the bounds lie lip + 1 away from mid: no
        # sample + margin is ever at or below lo_bound, and no sample - margin
        # at or above hi_bound.  So the bounds serve as the "no candidate yet"
        # entries of the running max and min, which a real sample always beats.
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

        scale = 1 << gd
        size = scale + 1
        off_vals: dict[Fraction, Fraction] = {}
        for c_set in classes:
            for part in c_set:
                for x in (part.lo, part.hi):
                    if scale % x.denominator and x not in off_vals:
                        off_vals[x] = pl.value(x)
        # the monotonicity check also reads the refined grid of off-grid parts
        for part in classes[-1]:
            if not _on_grid(part, gd):
                for q in _refined_grid(part.lo, part.hi, Fraction(1, scale)):
                    if q not in off_vals:
                        off_vals[q] = pl.value(q)

        dens = {v.denominator for v in off_vals.values()}
        den = lcm(row_den, margin.denominator, hi_bound.denominator, lo_bound.denominator,
                  *dens)

        def scaled(v: Fraction) -> int:
            return v.numerator * (den // v.denominator)

        self._den = den
        unit = den // row_den
        row = [v * unit for v in row]
        off_ints = {x: scaled(v) for x, v in off_vals.items()}
        self._check_monotone_on_class(classes[-1], row, off_ints)
        margin, hi_bound, lo_bound = scaled(margin), scaled(hi_bound), scaled(lo_bound)
        # each grid sample as it enters the F side (+ margin) and the G side
        # (- margin)
        f_cands = [v + margin for v in row]
        g_cands = [v - margin for v in row]
        self._f_rows = [[hi_bound] * size]  # sup side starts high
        self._g_rows = [[lo_bound] * size]  # inf side starts low
        for c_set in classes:
            # per grid index the best candidate placed there, or the bound
            f_best, g_best = [lo_bound] * size, [hi_bound] * size
            for part in c_set:
                inner = _inner_grid(part, scale)
                f_best[inner.start:inner.stop] = f_cands[inner.start:inner.stop]
                g_best[inner.start:inner.stop] = g_cands[inner.start:inner.stop]
            for part in c_set:
                for x in (part.lo, part.hi):
                    k, up = _floor_ceil(x, scale)
                    v = row[k] if k == up else off_ints[x]
                    f_best[up] = max(f_best[up], v + margin)
                    g_best[k] = min(g_best[k], v - margin)
            # F: running max from the left, never above the previous stage's
            # row; G: running min from the right, never below it
            f_row, run = [], lo_bound
            for prev, v in zip(self._f_rows[-1], f_best):
                if v > run:
                    run = v
                f_row.append(prev if prev < run else run)
            g_row, run = [], hi_bound
            for prev, v in zip(reversed(self._g_rows[-1]), reversed(g_best)):
                if v < run:
                    run = v
                g_row.append(prev if prev > run else run)
            g_row.reverse()
            self._f_rows.append(f_row)
            self._g_rows.append(g_row)
        # the value depends on x only through its grid index
        self._pairs: list[tuple[int, int] | None] = [None] * size
        self._values: list[Fraction | None] = [None] * size

    def _check_monotone_on_class(self, c_set: IntervalSet, row: list, off_ints: dict) -> None:
        """h must stay within 2^-(precision-1) of nondecreasing along the
        refined grid of each part, which on a grid-aligned part is the internal
        grid itself.  The samples, integers over the row denominator, are
        checked in one sweep of the running max; Fractions are built only to
        name the two points of a failure."""
        scale = 1 << self.grid_depth
        segments: list = []  # per part: its grid indices, or its refined grid
        samples: list[int] = []
        for part in c_set:
            if _on_grid(part, self.grid_depth):
                ks = range(_floor_ceil(part.lo, scale)[0], _floor_ceil(part.hi, scale)[0] + 1)
                samples += row[ks.start:ks.stop]
            else:
                ks = _refined_grid(part.lo, part.hi, Fraction(1, scale))
                samples += [off_ints[q] for q in ks]
            segments.append(ks)
        if len(samples) < 2:
            return
        # a drop d fails when d << (precision - 1) > den, that is when d > tol
        tol = self._den >> (self.precision - 1)

        def point(pos: int) -> Fraction:
            for ks in segments:
                if pos < len(ks):
                    return ks[pos] if isinstance(ks, list) else Fraction(ks[pos], scale)
                pos -= len(ks)

        peak, top = samples[0], 0  # the running max and where it was first reached
        for j, v in enumerate(samples):
            if peak - v > tol:
                raise DomainError(
                    f"h is not nondecreasing on the class: h({point(top)}) > h({point(j)})"
                )
            if v > peak:
                peak, top = v, j

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
        """The value at internal grid index i, memoised as one Fraction."""
        v = self._values[i]
        if v is None:
            v = self._values[i] = Fraction(*self._pair(i, x_num, x_den))
        return v

    def _pair(self, i: int, x_num: int, x_den: int) -> tuple[int, int]:
        """(p, q) with q > 0 and p / q the value at internal grid index i,
        memoised; x_num / x_den is the query point named if the envelope gap
        never closed there."""
        pair = self._pairs[i]
        if pair is not None:
            return pair
        den = self._den
        f_v, g_v = self._f_rows[-1][i], self._g_rows[-1][i]
        if f_v > g_v:
            # F falls and G rises along the stages, so F - G never rises: the
            # curves did not cross at any stage
            if (f_v - g_v) << self.n >= den:
                raise BudgetExhausted(
                    f"envelope gap never closed at {Fraction(x_num, x_den)}",
                    achieved=Fraction(f_v - g_v, den),
                )
            pair = (f_v, den)
        else:
            # they crossed between the first stage with F <= G and the one
            # before it (stage 0 has F > G): solve the linear crossing
            t = next(t for t, (f_row, g_row) in enumerate(zip(self._f_rows, self._g_rows))
                     if f_row[i] <= g_row[i])
            prev_f, prev_g = self._f_rows[t - 1][i], self._g_rows[t - 1][i]
            f_v, g_v = self._f_rows[t][i], self._g_rows[t][i]
            gap = prev_f - prev_g
            rise = gap + (g_v - f_v)
            pair = (prev_f * rise + gap * (f_v - prev_f), rise * den)
        self._pairs[i] = pair
        return pair


def extension_grid_check(ext: MonotoneExtension, depth: int) -> tuple[int, Fraction]:
    """(drops, worst) on the 2^-depth grid: how often the extension decreases
    from one grid point to the next, and its largest |value - h| over the grid
    points of the final class.

    Query k lies on internal grid index (k << grid_depth) >> depth.  Each
    index reached is solved once, in increasing order, so an exhausted budget
    names the same first point as ``grid_values(depth)``.  Drops are counted
    once per pair of neighbouring indices, by cross-multiplying their value
    pairs.  On a grid at least as fine as the internal one, the query points
    sharing an index form a run with one value p / q, and the worst
    |p - y q| over the run's h numerators y is reached at their least or
    greatest, because it is convex in y; on a coarser grid each point is its
    own run.  One Fraction is built, at the end.
    """
    if depth < 0:
        raise DomainError(f"grid depth {depth} is negative")
    gd = ext.grid_depth
    scale, shift = 1 << gd, depth - gd
    pairs = [ext._pair(i, i, scale) for i in range(0, scale + 1, 1 << max(-shift, 0))]
    ps = [p for p, _ in pairs]
    qs = [q for _, q in pairs]
    # p_a / q_a > p_b / q_b between neighbours a, b
    drops = sum(map(gt, map(mul, ps, qs[1:]), map(mul, ps[1:], qs)))
    den, hs = ext.h.piecewise.grid_numerators(depth)
    # the worst |value - h| is worst_d / (worst_q * den)
    worst_d, worst_q = 0, 1
    for ks in ext.enum.final_class().grid_ranges(depth):
        k = ks.start
        while k < ks.stop:
            # pairs[j] belongs to the index of query points k .. end - 1
            if shift >= 0:
                j = k >> shift
                end = min(ks.stop, (j + 1) << shift)
                run = hs[k:end]
                lo_h, hi_h = min(run), max(run)
            else:
                j, end = k, k + 1
                lo_h = hi_h = hs[k]
            p, q = pairs[j]
            p *= den
            # the larger of |p - lo_h q| and |p - hi_h q|, as lo_h <= hi_h
            d = p - lo_h * q
            if hi_h * q - p > d:
                d = hi_h * q - p
            if d * worst_q > worst_d * q:
                worst_d, worst_q = d, q
            k = end
    return drops, Fraction(worst_d, worst_q * den)
