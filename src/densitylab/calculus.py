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
from operator import add, gt, is_not, mul, sub

from .bits import ONE, ZERO
from .errors import BudgetExhausted, DomainError
from .intervals import Interval, IntervalSet, StagedOpenEnumeration
from .piecewise import PiecewiseLinear, progression_row
from .porosity import _merge_ranges


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


def _clip(pieces: list, lasts: list, a: int, b: int) -> list:
    """The progressions (first, last, start, step) of pieces cut to the
    indices a..b, a <= b.  The pieces are in index order and lasts holds
    their last indices."""
    out = []
    for i in range(bisect_left(lasts, a), len(pieces)):
        first, last, start, step = pieces[i]
        if first > b:
            break
        if first < a:
            start += step * (a - first)
            first = a
        out.append((first, min(last, b), start, step))
    return out


def _sweep_max(rm: list, pieces: list, lasts: list, a: int, b: int, run: int) -> int:
    """Write rm[a..b], the running max of the candidate pieces from the
    incoming run, and return the run at b.  The pieces are progressions in
    index order, lasts their last indices; neighbours may share an index.  A
    rising piece rejoins the run at one integer-division index, and from
    there on the row is the piece itself; any other piece holds a constant."""
    k = a  # the first index not yet written
    for first, last, start, step in _clip(pieces, lasts, a, b):
        if first > k:
            rm[k:first] = [run] * (first - k)
        k = last + 1
        top = start + step * (last - first)
        if step > 0 and top > run:
            j = first if start > run else first + (run - start) // step + 1
            rm[first:j] = [run] * (j - first)
            rm[j:k] = range(start + step * (j - first), top + step, step)
            run = top
        else:
            if start > run:
                run = start
            rm[first:k] = [run] * (k - first)
    if k <= b:
        rm[k:b + 1] = [run] * (b + 1 - k)
    return run


def _sweep_min(rmin: list, pieces: list, lasts: list, a: int, b: int, run: int) -> int:
    """Write rmin[a..b], the running min of the candidate pieces from the
    right, from the incoming run at b + 1, and return the run at a: the
    mirror image of ``_sweep_max``."""
    k = b  # the last index not yet written
    for first, last, start, step in reversed(_clip(pieces, lasts, a, b)):
        if last < k:
            rmin[last + 1:k + 1] = [run] * (k - last)
        k = first - 1
        if step > 0 and start < run:
            j = min(first - (start - run) // step, last + 1)
            rmin[first:j] = range(start, start + step * (j - first), step)
            rmin[j:last + 1] = [run] * (last + 1 - j)
            run = start
        else:
            bottom = start + step * (last - first)
            if bottom < run:
                run = bottom
            rmin[first:last + 1] = [run] * (last + 1 - first)
    if k >= a:
        rmin[a:k + 1] = [run] * (k + 1 - a)
    return run


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
    the margins.  Every internal grid sample comes from h's
    ``grid_progressions(grid_depth)``, one arithmetic progression per
    segment; only part endpoints off the grid, and the refined grid of
    off-grid parts that the monotonicity check reads, are evaluated one point
    at a time.  The F/G rows are integer numerators over one denominator, the
    lcm of the progressions', the off-grid samples', the margin's and the two
    bounds'.  A candidate enters the F row at its ceiling grid index and the
    G row at its floor grid index.  Stage t's F row is F_t = min(F_(t-1), the
    running max of its candidates from the left), and its G row G_t =
    max(G_(t-1), the running min from the right); the two bounds stand in
    for "no candidate yet".

    The running max and min are swept piece by piece, never index by index.
    A stage's candidates are pieces: each part of its class cut by h's
    segments into progressions, and each part end off the grid as a
    one-index piece.  Along a rising piece the running max keeps the
    incoming run up to one integer-division index and is the progression
    itself from there on; along a flat or falling piece it holds a
    constant, and the running min mirrors this.  Each piece is written into
    the row by one slice assignment of a ``range`` or a repeated constant.
    On a grid-aligned part the monotonicity check likewise reads h's
    progressions, where a drop can begin only at a piece's first point or
    run on along a falling piece.

    The first stage is swept in full.  A later stage's class differs from
    the one before only on the closures [a, b] of its new holes, so its
    candidates change only on the windows floor(a 2^gd) .. ceil(b 2^gd).
    The unclipped running max and min rows are kept from stage to stage;
    the running max is swept again from each window's start and past its end
    up to the first index where the previous stage's row exceeds both runs
    at the window's end, which a bisect finds; beyond it F_t == F_(t-1).
    The running min mirrors this, leftwards over each window and on past its
    start.  So a build costs a few slice assignments per piece, and its only
    per-index work is the crossing test on the final class's holes and the
    envelopes of the re-swept stretches.

    The build solves every internal grid index as the stages are swept: an
    index is solved at the first stage where F <= G, by the linear crossing
    with the stage before.  Indices strictly inside a part of the final
    class never cross, so only the final class's holes are tested, and only
    where a stage's sweep moved F or G.  The solved values are two integer
    rows, p / q per index; an index whose gap never closed below 2^-n holds
    the gap with q == 0, and raises BudgetExhausted when first queried.
    ``_pair`` is a read of the rows, ``value`` and ``grid_values`` build
    their memoised Fractions from it, and ``extension_grid_check`` reads
    them, and h's sample at each index, in integers.
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
        # every internal grid sample, as one progression per segment of h; a
        # domain short of [0,1] raises here, at the first grid point outside it
        row_den, hp = h.grid_progressions(gd)
        margin = lip * Fraction(1, 1 << gd) + Fraction(1, 1 << prec)
        mid = h.value(Fraction(1, 2))
        # Every sample is h(x) for some x in [0,1], so it lies within lip / 2
        # of h(1/2) == mid, while the bounds lie lip + 1 away from mid: no
        # sample + margin is ever at or below lo_bound, and no sample - margin
        # at or above hi_bound.  So the bounds serve as the "no candidate yet"
        # values of the running max and min, which a real sample always beats.
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
        if unit > 1:
            hp = [(a, b, v * unit, s * unit) for a, b, v, s in hp]
        hp_lasts = [piece[1] for piece in hp]
        # h at every internal grid index, over den; the grid check reads it too
        self._hs = progression_row(hp)
        off_ints = {x: scaled(v) for x, v in off_vals.items()}
        margin, hi_bound, lo_bound = scaled(margin), scaled(hi_bound), scaled(lo_bound)
        self._check_monotone_on_class(classes[-1], hp, hp_lasts, off_ints, lo_bound)

        def candidates(c_set: IntervalSet) -> tuple[list, list]:
            """The class's candidates as pieces (first, last, start, step) in
            the order of their points: for F, h + margin at each point's
            ceiling grid index, for G, h - margin at its floor index.  A grid
            point of a part lies on one of h's progressions, a part end off
            the grid is a one-index piece."""
            fp, gp = [], []
            for part in c_set:
                lo_k, lo_up = _floor_ceil(part.lo, scale)
                hi_k, hi_up = _floor_ceil(part.hi, scale)
                if lo_k < lo_up:
                    v = off_ints[part.lo]
                    fp.append((lo_up, lo_up, v + margin, 0))
                    gp.append((lo_k, lo_k, v - margin, 0))
                if lo_up <= hi_k:
                    for a, b, v, s in _clip(hp, hp_lasts, lo_up, hi_k):
                        fp.append((a, b, v + margin, s))
                        gp.append((a, b, v - margin, s))
                if hi_k < hi_up:
                    v = off_ints[part.hi]
                    fp.append((hi_up, hi_up, v + margin, 0))
                    gp.append((hi_k, hi_k, v - margin, 0))
            return fp, gp

        # rm / rmin: the stage's running max of its F candidates from the left
        # and running min of its G candidates from the right, unclipped; F / G:
        # the envelopes, F_t = min(F_(t-1), rm_t) and G_t = max(G_(t-1), rmin_t)
        rm, rmin = [lo_bound] * size, [hi_bound] * size
        f_env, g_env = [hi_bound] * size, [lo_bound] * size  # stage 0: F > G everywhere
        crossings = []  # (i, p, q): index i has the value p / q, from its F = G crossing
        # An index strictly inside a part of the final class is strictly inside
        # a part of every stage class, where F >= sample + margin and G <=
        # sample - margin: F > G there at every stage.  Only the other indices,
        # the final class's holes, can cross.
        is_open = bytearray(b"\1") * size
        for part in classes[-1]:
            inner = _inner_grid(part, scale)
            is_open[inner.start:inner.stop] = bytes(len(inner))
        # The first stage is swept in full.  A later stage's candidates differ
        # from the previous stage's only on the windows floor(a 2^gd) ..
        # ceil(b 2^gd) of its new holes (a, b), so each window is swept from
        # the run at its edge.  Past a window's end, rm_t = max(R_t, M) and
        # rm_(t-1) = max(R_(t-1), M), with R the runs at the window's end and M
        # the running max of the unchanged candidates after it: the rows agree
        # where rm_(t-1) exceeds both runs, so the sweep goes on only to the
        # first such index, which a bisect of the nondecreasing rm_(t-1) finds.
        # The running min is the mirror image.  An index where neither row
        # moved keeps its envelopes and stays open, so only the swept indices
        # are tested.
        prev_t = 0
        for t, c_set in zip(self.stages, classes):
            fp, gp = candidates(c_set)
            f_lasts, g_lasts = [piece[1] for piece in fp], [piece[1] for piece in gp]
            first = t == self.stages[0]
            windows = [(0, scale)] if first else _merge_ranges([
                (_floor_ceil(hole.lo, scale)[0], _floor_ceil(hole.hi, scale)[1])
                for hole in enum.items[prev_t:t]
            ])
            prev_t = t
            swept = []  # (first, last) index ranges where rm or rmin may have moved
            for w, (lo, hi) in enumerate(windows):
                old = rm[hi]
                run = _sweep_max(rm, fp, f_lasts, lo, hi, rm[lo - 1] if lo else lo_bound)
                end = hi
                if run != old:
                    nxt = windows[w + 1][0] if w + 1 < len(windows) else size
                    end = bisect_right(rm, max(run, old), hi + 1, nxt) - 1
                    if end > hi:
                        _sweep_max(rm, fp, f_lasts, hi + 1, end, run)
                swept.append((lo, end))
            for w in range(len(windows) - 1, -1, -1):
                lo, hi = windows[w]
                old = rmin[lo]
                run = _sweep_min(rmin, gp, g_lasts, lo, hi,
                                 rmin[hi + 1] if hi < scale else hi_bound)
                start = lo
                if run != old:
                    prv = windows[w - 1][1] if w else -1
                    start = bisect_left(rmin, min(run, old), prv + 1, lo)
                    if start < lo:
                        _sweep_min(rmin, gp, g_lasts, start, lo - 1, run)
                swept.append((start, hi))
            for a, last in _merge_ranges(swept):
                b = last + 1
                # F falls and G rises along the stages, so an index is solved
                # for good at the first stage with F <= G: the linear crossing
                # between that stage and the one before it
                for i in compress(range(a, b), is_open[a:b]):
                    prev_f, prev_g = f_env[i], g_env[i]
                    f_v, g_v = rm[i], rmin[i]
                    if f_v > prev_f:
                        f_v = prev_f
                    if g_v < prev_g:
                        g_v = prev_g
                    if f_v <= g_v:
                        gap = prev_f - prev_g
                        rise = gap + (g_v - f_v)
                        crossings.append((i, prev_f * rise + gap * (f_v - prev_f), rise * den))
                        is_open[i] = 0
                if first:  # F_0 and G_0 are the bounds, which every sample beats
                    f_env[a:b], g_env[a:b] = rm[a:b], rmin[a:b]
                else:
                    f_env[a:b] = [f if f < r else r for f, r in zip(f_env[a:b], rm[a:b])]
                    g_env[a:b] = [g if g > r else r for g, r in zip(g_env[a:b], rmin[a:b])]
        # where the curves never crossed, the value is the final F while its gap
        # to G is below 2^-n; a gap with gap << n >= den, that is one above
        # (den - 1) >> n, is kept in ps with the marker qs == 0
        exhausted = list(compress(range(size), map(gt, map(sub, f_env, g_env),
                                                   repeat((den - 1) >> n))))
        ps, qs = f_env, [den] * size
        for i in exhausted:
            ps[i], qs[i] = ps[i] - g_env[i], 0
        for i, p, q in crossings:
            ps[i], qs[i] = p, q
        self._ps, self._qs = ps, qs
        # the value depends on x only through its grid index
        self._values: list[Fraction | None] = [None] * size

    def _check_monotone_on_class(
        self, c_set: IntervalSet, hp: list, hp_lasts: list, off_ints: dict, floor: int
    ) -> None:
        """h must stay within 2^-(precision-1) of nondecreasing along the
        refined grid of each part, which on a grid-aligned part is the internal
        grid itself.  The samples, integers over den, are checked in one pass
        of the running max, which floor, below every sample, starts.  A
        grid-aligned part is read as h's progressions: a drop can start only
        at a progression's first point, or run on along a falling one, whose
        first point below the peak's tolerance is one integer division away.
        An off-grid part is read point by point.  Fractions are built only to
        name the peak and the failing point."""
        scale = 1 << self.grid_depth
        # a drop d fails when d << (precision - 1) > den, that is when d > tol
        tol = self._den >> (self.precision - 1)
        peak, top = floor, None  # the running max and the point where it was first reached

        def fail(x: Fraction) -> DomainError:
            return DomainError(f"h is not nondecreasing on the class: h({top}) > h({x})")

        for part in c_set:
            if not _on_grid(part, self.grid_depth):
                for q in _refined_grid(part.lo, part.hi, Fraction(1, scale)):
                    v = off_ints[q]
                    if peak - v > tol:
                        raise fail(q)
                    if v > peak:
                        peak, top = v, q
                continue
            lo, hi = _floor_ceil(part.lo, scale)[0], _floor_ceil(part.hi, scale)[0]
            for first, last, start, step in _clip(hp, hp_lasts, lo, hi):
                if peak - start > tol:
                    raise fail(Fraction(first, scale))
                if step > 0:
                    end = start + step * (last - first)
                    if end > peak:
                        peak, top = end, Fraction(last, scale)
                    continue
                if start > peak:
                    peak, top = start, Fraction(first, scale)
                if step < 0:
                    j = first + (start - peak + tol) // -step + 1
                    if j <= last:
                        raise fail(Fraction(j, scale))

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
    has solved every index and kept h's sample at each, so the check reads
    those rows, with a stride on a coarser grid, and never evaluates h on a
    2^depth row; an exhausted index raises at the first query point that
    reaches it, as ``grid_values(depth)`` does.  Drops are counted once per
    pair of neighbouring indices, by cross-multiplying their value pairs.  On
    a grid at least as fine as the internal one, the query points sharing an
    index j form a run with one value p / q, and the worst |p - y q| over the
    run's h numerators y is reached at their least or greatest, because it is
    convex in y.  h is linear between its breakpoints, so on a run with no
    breakpoint strictly between j and j + 1 those are its two end points, and
    the point 2^s j + m, with s = depth - grid_depth, has h numerator
    hs[j] (2^s - m) + hs[j + 1] m over den << s: exact, from the build's
    samples.  Only the few runs around a breakpoint off the internal grid
    evaluate h, at their ends and at the points next to each breakpoint.  On
    a coarser grid each point is its own run.  The runs that lie whole in a
    class range and hold a value over the build's own denominator, nearly
    all of them, are read in a few passes over the integer rows; the others
    one run at a time.  One Fraction is built, at the end.
    """
    if depth < 0:
        raise DomainError(f"grid depth {depth} is negative")
    gd = ext.grid_depth
    scale, shift = 1 << gd, depth - gd
    stride = 1 << max(-shift, 0)
    ps, qs, hs = ext._ps, ext._qs, ext._hs
    if stride > 1:
        ps, qs, hs = ps[::stride], qs[::stride], hs[::stride]
    if 0 in qs:
        i = qs.index(0) * stride
        ext._pair(i, i, scale)  # raises BudgetExhausted
    # p_a / q_a > p_b / q_b between neighbours a, b
    drops = sum(map(gt, map(mul, ps, qs[1:]), map(mul, ps[1:], qs)))
    # query points k .. end - 1 share index j = k >> s, and the value
    # (ps[j], qs[j]); h numerators are over den
    s = max(shift, 0)
    run, den, points = 1 << s, ext._den << s, 1 << depth
    kinked: dict[int, list[Fraction]] = {}  # the runs with breakpoints strictly inside
    if s:
        for x in ext.h.xs:
            if scale % x.denominator:
                kinked.setdefault(x.numerator * scale // x.denominator, []).append(x)

    def h_at(k: int) -> int:
        y = ext.h.value(Fraction(k, points))
        return y.numerator * (den // y.denominator)

    # Split the class's query points: the runs that lie whole inside a class
    # range, with no breakpoint inside and a value over the build's own
    # denominator, are plain, and read in a few passes over integer rows; the
    # rest, one run at a time.
    build_den = ext._den
    plain, single = [], []  # plain runs a .. b - 1; query points k .. stop - 1
    for ks in ext.enum.final_class().grid_ranges(depth):
        k0, k1 = ks.start, ks.stop
        ja, jb = -(-k0 >> s), k1 >> s  # the runs whole inside k0 .. k1 - 1
        if ja >= jb:
            single.append((k0, k1))
            continue
        single += [(k0, ja << s), (jb << s, k1)]
        # a crossed value is over a denominator of its own; every other entry
        # of qs is the build's denominator object itself
        odd = {j for j in kinked if ja <= j < jb}
        odd.update(compress(range(ja, jb), map(is_not, qs[ja:jb], repeat(build_den))))
        for j in sorted(odd):
            plain.append((ja, j))
            single.append((j << s, (j + 1) << s))
            ja = j + 1
        plain.append((ja, jb))
    # the worst |value - h| is worst_d / (worst_q * den)
    worst_d, worst_q = 0, 1
    for k, stop in single:
        while k < stop:
            j = k >> s
            base = j << s
            end = base + run
            if end > stop:
                end = stop
            if j in kinked:
                # h is linear between the run's ends and the points next to
                # its breakpoints, so its extremes lie among those
                ends = {k, end - 1}
                for x in kinked[j]:
                    c = x.numerator * points // x.denominator
                    ends.update(e for e in (c, c + 1) if k <= e < end)
                ys = [h_at(e) for e in ends]
                lo_h, hi_h = min(ys), max(ys)
            else:
                m = k - base
                lo_h = hs[j] * (run - m) + hs[j + 1] * m if m else hs[j] << s
                hi_h = lo_h
                if end - 1 > k:
                    m = end - 1 - base
                    hi_h = hs[j] * (run - m) + hs[j + 1] * m if m else hs[j] << s
                    if lo_h > hi_h:
                        lo_h, hi_h = hi_h, lo_h
            p, q = ps[j] * den, qs[j]
            # the larger of |p - lo_h q| and |p - hi_h q|, as lo_h <= hi_h
            d = p - lo_h * q
            if hi_h * q - p > d:
                d = hi_h * q - p
            if d * worst_q > worst_d * q:
                worst_d, worst_q = d, q
            k = end
    # On a plain run j the value is ps[j] / build_den == (ps[j] << s) / den,
    # and h is hs[j] << s at the first point and hs[j] + hs[j + 1] (2^s - 1)
    # at the last, so |value - h| * den is the larger of |ps[j] - hs[j]| << s
    # and |ps[j] 2^s - hs[j] - hs[j + 1] (2^s - 1)|.
    for a, b in plain:
        if a < b:
            diffs = list(map(sub, ps[a:b], hs[a:b]))
            e = max(max(diffs), -min(diffs)) << s
            if s:
                ends = list(map(sub, map(mul, ps[a:b], repeat(run)),
                                map(add, hs[a:b], map(mul, hs[a + 1:b + 1], repeat(run - 1)))))
                e = max(e, max(ends), -min(ends))
            if e * worst_q > worst_d:  # e / den against worst_d / (worst_q den)
                worst_d, worst_q = e, 1
    return drops, Fraction(worst_d, worst_q * den)
