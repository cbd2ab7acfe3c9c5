"""Exact functions, pseudo-derivatives, extrema, monotone extension.

A function here is an object whose ``exact(q)`` returns f(q) for a rational
q: a ``Polynomial``, a ``piecewise.PiecewiseLinear`` or a
``counterexample.SpikePlan``, whose values lie in Q(sqrt 2).  Slopes are
differences of exact values, with no approximation error to account for.  A
polynomial's Lipschitz bound on [0,1] stands in for a modulus of continuity:
its extrema are computed by modulus-driven grid refinement with explicit
error margins, never by assuming where the extremum sits, and the refined
grid is read as one row of integer Horner evaluations over one denominator.
Pseudo-derivative estimates evaluate the function once per candidate point,
not once per pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from itertools import compress, repeat
from operator import gt, mul, sub

from .bits import ONE, ZERO
from .errors import BudgetExhausted, DomainError
from .intervals import Interval, IntervalSet, StagedOpenEnumeration
from .piecewise import PiecewiseLinear


class Polynomial:
    """The polynomial sum c_i x^i with rational coefficients c_0, c_1, ..."""

    def __init__(self, coefficients):
        self.coefficients = tuple(Fraction(c) for c in coefficients)

    def exact(self, q: Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coefficients):
            acc = acc * q + c
        return acc

    def lipschitz_bound(self) -> Fraction:
        """Lipschitz bound on [0,1]: sum i |c_i|."""
        return sum((i * abs(c) for i, c in enumerate(self.coefficients)), ZERO)


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


def _straddling_candidates(x: Fraction, h: Fraction, depth: int) -> list[Fraction]:
    """x and the 2^-depth grid points of [x - h, x + h] within [0,1], sorted."""
    pts = set(_dyadic_points(max(x - h, ZERO), min(x + h, ONE), depth))
    pts.add(x)
    return sorted(pts)


@dataclass(frozen=True)
class DerivativeEstimate:
    side: str
    value: Fraction
    witness: tuple[Fraction, Fraction]
    scale: Fraction
    grid_depth: int


def pseudo_derivative_estimate(
    f, x: Fraction, h: Fraction, grid_depth: int, side: str
) -> DerivativeEstimate:
    """Extremal slope over straddling pairs a <= x <= b with 0 < b-a <= h.

    f is any function with ``exact(q)``: a ``Polynomial``, a
    ``PiecewiseLinear`` or a ``SpikePlan``.  The pairs are taken from x and
    the 2^-grid_depth grid, and their slopes are exact: upper mode is a
    certified lower bound on the upper pseudo-derivative at scale h, lower
    mode a certified upper bound on the lower one.  Pairs must straddle x;
    one-sided pairs are excluded by definition.  The witness is the first
    pair, in (a, b) order, of extremal slope.

    f is evaluated once per candidate point, and the slopes are taken in its
    own value type (Fraction, or QuadValue for the counterexample).
    """
    x, h = Fraction(x), Fraction(h)
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be upper or lower, got {side!r}")
    if h <= 0:
        raise DomainError("scale h must be positive")
    cands = _straddling_candidates(x, h, grid_depth)
    # the lefts a <= x are cands[:n_left], the rights b >= x cands[first_right:]
    n_left = bisect_right(cands, x)
    first_right = bisect_left(cands, x)
    upper = side == "upper"
    values = [f.exact(q) for q in cands]
    best = None
    witness = None
    for i in range(n_left):
        a = cands[i]
        # the rights b with a < b <= a + h
        for j in range(max(first_right, i + 1), bisect_right(cands, a + h, first_right)):
            b = cands[j]
            v = (values[i] - values[j]) / (a - b)
            if best is None or (v > best if upper else v < best):
                best, witness = v, (a, b)
    if best is None:
        raise DomainError(
            f"no straddling pair around {x} at depth {grid_depth} within scale {h}"
        )
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
    p: Polynomial, a: Fraction, b: Fraction, n: int, which: str
) -> Fraction:
    """Sup or inf of p over [a,b] within 2^-n, by modulus-driven refinement.

    The Lipschitz bound sets the step of a grid over [a,b]; the grid is read
    as one integer row, and one Fraction is built for the extremum."""
    a, b = Fraction(a), Fraction(b)
    if which not in ("sup", "inf"):
        raise DomainError(f"which must be sup or inf, got {which!r}")
    if a > b:
        raise DomainError("need a <= b")
    lip = p.lipschitz_bound()
    if a == b or lip == 0:
        return p.exact(a)
    # a grid step d with L d / 2 <= 2^-(n+1) puts the grid extremum within
    # 2^-(n+1) of the true one
    count, delta = _grid_step(a, b, Fraction(1, 1 << n) / lip)
    den, nums = _polynomial_row(p.coefficients, a, delta, count)
    return Fraction(max(nums) if which == "sup" else min(nums), den)


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


def extension_grid_depth(lip: Fraction, n: int) -> int:
    """The default internal grid depth of a monotone extension to 2^-n of an h
    with Lipschitz bound lip: the least depth >= n + 3 at which one grid step
    moves h by at most 2^-(n+3), that is n + 3 + ceil(log2 lip) for lip > 1."""
    ceil_lip = -(-lip.numerator // lip.denominator)
    return n + 3 + max(ceil_lip - 1, 0).bit_length()


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
    queries.  ``grid_values(depth)`` answers every query k / 2^depth at once
    by mapping each point to its internal grid index, so it returns the same
    values as ``value`` and stops with the same BudgetExhausted at the same
    first point.

    h is a ``PiecewiseLinear`` defined on all of [0,1], and its
    ``lipschitz_bound()`` sets the grid depth (``extension_grid_depth``) and
    the margins.  Every internal grid sample comes from one
    ``grid_numerators(grid_depth)`` row; only part endpoints off the grid,
    and the refined grid of off-grid parts that the monotonicity check reads,
    are evaluated one point at a time.  The F/G rows are integer numerators
    over one denominator, the lcm of the row's, the off-grid samples', the
    margin's and the two bounds'.  A candidate enters the F row at its
    ceiling grid index and the G row at its floor grid index.  Each stage's F
    row is one sweep of the running max of its candidates, clipped to the
    previous stage's row, and its G row one sweep of the running min from the
    right; the two bounds stand in for "no candidate yet", so the sweeps test
    no None.

    The build solves every internal grid index, as the stages are swept: an
    index is solved at the first stage where F <= G, by the linear crossing
    with the stage before, and only the previous stage's rows are kept.
    Indices strictly inside a part of the final class never cross, so only
    the final class's holes are tested.  The solved values are two integer
    rows, p / q per index; an index whose gap never closed below 2^-n holds
    the gap with q == 0, and raises BudgetExhausted when first queried.
    ``_pair`` is a read of the rows, ``value`` and ``grid_values`` build
    their memoised Fractions from it, and ``extension_grid_check`` reads the
    rows with a stride and compares values in integers.
    """

    def __init__(
        self,
        h: PiecewiseLinear,
        enum: StagedOpenEnumeration,
        n: int,
        budget: ExtensionBudget | None = None,
    ):
        budget = budget or ExtensionBudget()
        lip = h.lipschitz_bound()
        gd = budget.grid_depth
        if gd is None:
            gd = extension_grid_depth(lip, n)
        prec = budget.precision if budget.precision is not None else n + 4
        if prec < 1:
            raise DomainError(f"extension precision must be at least 1, got {prec}")
        max_stage = budget.max_stage if budget.max_stage is not None else len(enum)
        self.h, self.enum, self.n = h, enum, n
        self.grid_depth, self.precision = gd, prec
        self.epsilon = Fraction(1, 1 << n)
        # every internal grid sample, from one row; a domain short of [0,1]
        # raises here, at the first grid point outside it
        row_den, row = h.grid_numerators(gd)
        margin = lip * Fraction(1, 1 << gd) + Fraction(1, 1 << prec)
        mid = h.value(Fraction(1, 2))
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
                        off_vals[x] = h.value(x)
        # the monotonicity check also reads the refined grid of off-grid parts
        for part in classes[-1]:
            if not _on_grid(part, gd):
                for q in _refined_grid(part.lo, part.hi, Fraction(1, scale)):
                    if q not in off_vals:
                        off_vals[q] = h.value(q)

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
        f_prev, g_prev = [hi_bound] * size, [lo_bound] * size  # stage 0: F > G everywhere
        crossings = []  # (i, p, q): index i has the value p / q, from its F = G crossing
        # An index strictly inside a part of the final class is strictly inside
        # a part of every stage class, where F >= sample + margin and G <=
        # sample - margin: F > G there at every stage.  Only the other indices,
        # the final class's holes, can cross.
        open_, pos = [], 0
        for part in classes[-1]:
            inner = _inner_grid(part, scale)
            if inner:
                open_ += range(pos, inner.start)
                pos = inner.stop
        open_ += range(pos, size)
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
            # row; G: running min from the right, never below it.  The explicit
            # loops are several times faster than map(min, ...) or accumulate.
            f_row, run = [], lo_bound
            for prev, v in zip(f_prev, f_best):
                if v > run:
                    run = v
                f_row.append(prev if prev < run else run)
            g_row, run = [], hi_bound
            for prev, v in zip(reversed(g_prev), reversed(g_best)):
                if v < run:
                    run = v
                g_row.append(prev if prev > run else run)
            g_row.reverse()
            # F falls and G rises along the stages, so an index is solved for
            # good at the first stage with F <= G: the linear crossing between
            # that stage and the one before it
            still = []
            for i in open_:
                f_v, g_v = f_row[i], g_row[i]
                if f_v > g_v:
                    still.append(i)
                else:
                    prev_f = f_prev[i]
                    gap = prev_f - g_prev[i]
                    rise = gap + (g_v - f_v)
                    crossings.append((i, prev_f * rise + gap * (f_v - prev_f), rise * den))
            open_ = still
            f_prev, g_prev = f_row, g_row
        # where the curves never crossed, the value is the final F while its gap
        # to G is below 2^-n; a gap with gap << n >= den, that is one above
        # (den - 1) >> n, is kept in ps with the marker qs == 0
        exhausted = list(compress(range(size), map(gt, map(sub, f_prev, g_prev),
                                                   repeat((den - 1) >> n))))
        ps, qs = f_prev, [den] * size
        for i in exhausted:
            ps[i], qs[i] = ps[i] - g_prev[i], 0
        for i, p, q in crossings:
            ps[i], qs[i] = p, q
        self._ps, self._qs = ps, qs
        # the value depends on x only through its grid index
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
        """(p, q) with q > 0 and p / q the value at internal grid index i;
        x_num / x_den is the query point named if the envelope gap never
        closed there."""
        q = self._qs[i]
        if not q:
            raise BudgetExhausted(
                f"envelope gap never closed at {Fraction(x_num, x_den)}",
                achieved=Fraction(self._ps[i], self._den),
            )
        return self._ps[i], q


def extension_grid_check(ext: MonotoneExtension, depth: int) -> tuple[int, Fraction]:
    """(drops, worst) on the 2^-depth grid: how often the extension decreases
    from one grid point to the next, and its largest |value - h| over the grid
    points of the final class.

    Query k lies on internal grid index (k << grid_depth) >> depth.  The build
    has solved every index, so the check reads the solved rows with a stride;
    an exhausted index raises at the first query point that reaches it, as
    ``grid_values(depth)`` does.  Drops are counted once per pair of
    neighbouring indices, by cross-multiplying their value pairs.  On a grid
    at least as fine as the internal one, the query points sharing an index
    form a run with one value p / q, and the worst |p - y q| over the run's h
    numerators y is reached at their least or greatest, because it is convex
    in y.  h is linear between its breakpoints, so a run with no breakpoint
    strictly inside it takes those from its two end samples; only the few
    runs around a breakpoint off the internal grid scan their samples.  On a
    coarser grid each point is its own run.  One Fraction is built, at the
    end.
    """
    if depth < 0:
        raise DomainError(f"grid depth {depth} is negative")
    gd = ext.grid_depth
    scale, shift = 1 << gd, depth - gd
    stride = 1 << max(-shift, 0)
    ps, qs = ext._ps[::stride], ext._qs[::stride]
    if 0 in qs:
        i = qs.index(0) * stride
        ext._pair(i, i, scale)  # raises BudgetExhausted
    # p_a / q_a > p_b / q_b between neighbours a, b
    drops = sum(map(gt, map(mul, ps, qs[1:]), map(mul, ps[1:], qs)))
    den, hs = ext.h.grid_numerators(depth)
    # query points k .. end - 1 share index j = k >> run_shift, and the value
    # (ps[j], qs[j]); the runs with a breakpoint of h strictly inside
    run_shift = max(shift, 0)
    kinked = {x.numerator * scale // x.denominator for x in ext.h.xs
              if scale % x.denominator} if shift > 0 else set()
    # the worst |value - h| is worst_d / (worst_q * den)
    worst_d, worst_q = 0, 1
    for ks in ext.enum.final_class().grid_ranges(depth):
        k, stop = ks.start, ks.stop
        while k < stop:
            j = k >> run_shift
            end = (j + 1) << run_shift
            if end > stop:
                end = stop
            lo_h, hi_h = hs[k], hs[end - 1]
            if j in kinked:
                run = hs[k:end]
                lo_h, hi_h = min(run), max(run)
            elif lo_h > hi_h:
                lo_h, hi_h = hi_h, lo_h
            p, q = ps[j] * den, qs[j]
            # the larger of |p - lo_h q| and |p - hi_h q|, as lo_h <= hi_h
            d = p - lo_h * q
            if hi_h * q - p > d:
                d = hi_h * q - p
            if d * worst_q > worst_d * q:
                worst_d, worst_q = d, q
            k = end
    return drops, Fraction(worst_d, worst_q * den)
