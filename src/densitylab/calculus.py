"""Exact functions, pseudo-derivatives, extrema, monotone extension.

A function here is an object whose ``exact(q)`` returns f(q) for a rational
q: a ``Polynomial``, a ``piecewise.PiecewiseLinear`` or a
``counterexample.SpikePlan``, whose values lie in Q(sqrt 2).  Slopes are
differences of exact values, with no approximation error to account for.  A
polynomial's Lipschitz bound on [0,1] stands in for a modulus of continuity:
its extrema are computed by modulus-driven grid refinement with explicit
error margins, never by assuming where the extremum sits, and the refined
grid is read as one row of integer Horner evaluations over one denominator.
One kernel, ``slope_extremes``, gives both the least and the greatest slope
over a set of pairs in one pass, evaluating the function once per point: the
pseudo-derivative estimate and the spike verifier's straddle sweep use it.
It compares slopes as integers, rises over runs put over common
denominators, and builds one value per side, from that side's witness pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import itemgetter

from .bits import ONE, ZERO
from .errors import DomainError, InvariantError
from .intervals import ClassGaps, StagedOpenEnumeration, stage_gaps
from .piecewise import PiecewiseLinear, overlaps
from .roottwo import QuadValue, sign


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


def _straddling_candidates(x: Fraction, h: Fraction, depth: int) -> list[Fraction]:
    """x and the 2^-depth grid points of [x - h, x + h] within [0,1], sorted:
    the indices ceil(lo 2^depth) .. floor(hi 2^depth) for that interval."""
    scale = 1 << depth
    lo, hi = max(x - h, ZERO) * scale, min(x + h, ONE) * scale
    return sorted({x, *(Fraction(k, scale) for k in range(ceil(lo), floor(hi) + 1))})


@dataclass(frozen=True)
class DerivativeEstimate:
    value: Fraction
    witness: tuple[Fraction, Fraction]


def slope_extremes(f, lefts, rights, h=None):
    """(lower, upper), the least and the greatest slope of f over the pairs
    a < b of a left and a right point, with b - a <= h when h is given; None
    when there is no such pair.  f is evaluated once per distinct point.
    Each side's witness is its first extremal pair, with the sorted lefts in
    the outer loop and the sorted rights in the inner, and its value is the
    one slope built, in f's own value type (Fraction, or QuadValue for the
    counterexample).

    The points are put over one denominator and the coordinates (a, b) of
    each value a + b sqrt(2) over another.  Up to one positive factor, a
    slope is then an integer rise p + q sqrt(2) over a positive integer run,
    and two slopes compare by cross-multiplying: as integers when the
    cross-products' sqrt(2) parts cancel, else by ``roottwo.sign``.
    """
    lefts, rights = sorted(lefts), sorted(rights)
    values = {z: f.exact(z) for z in {*lefts, *rights}}
    den = lcm(*(z.denominator for z in values), 1 if h is None else h.denominator)
    coords = {z: (v.a, v.b) if isinstance(v, QuadValue) else (v, 0) for z, v in values.items()}
    vden = lcm(*(c.denominator for ab in coords.values() for c in ab))
    at = {z: (z.numerator * (den // z.denominator), a.numerator * (vden // a.denominator),
              b.numerator * (vden // b.denominator)) for z, (a, b) in coords.items()}
    xs = [at[b][0] for b in rights]
    rows = [(*at[b], b) for b in rights]
    span = None if h is None else h.numerator * (den // h.denominator)
    # each extreme so far as its (run, p, q) and its pair, from +infinity
    # and -infinity: the first pair is below the one and above the other
    lo = hi = None
    lo_run, lo_p, lo_q, hi_run, hi_p, hi_q = 0, 1, 0, 0, -1, 0
    for a in lefts:
        xa, pa, qa = at[a]
        end = len(rows) if span is None else bisect_right(xs, xa + span)
        for xb, pb, qb, b in rows[bisect_right(xs, xa):end]:
            run, p, q = xb - xa, pb - pa, qb - qa
            s, t = p * lo_run - lo_p * run, q * lo_run - lo_q * run
            if (sign(s, t) if t else s) < 0:
                lo_run, lo_p, lo_q, lo = run, p, q, (a, b)
            s, t = p * hi_run - hi_p * run, q * hi_run - hi_q * run
            if (sign(s, t) if t else s) > 0:
                hi_run, hi_p, hi_q, hi = run, p, q, (a, b)
    if lo is None:
        return None
    return tuple(DerivativeEstimate((values[a] - values[b]) / (a - b), (a, b)) for a, b in (lo, hi))


def pseudo_derivative_estimate(
    f, x: Fraction, h: Fraction, grid_depth: int
) -> tuple[DerivativeEstimate, DerivativeEstimate]:
    """(lower, upper): the extremal slopes over straddling pairs a <= x <= b
    with 0 < b-a <= h, from x and the 2^-grid_depth grid.

    f is any function with ``exact(q)``: a ``Polynomial``, a
    ``PiecewiseLinear`` or a ``SpikePlan``.  The slopes are exact: the upper
    estimate is a certified lower bound on the upper pseudo-derivative at
    scale h, the lower one a certified upper bound on the lower one.
    One-sided pairs are excluded by definition.
    """
    x, h = Fraction(x), Fraction(h)
    if h <= 0:
        raise DomainError("scale h must be positive")
    cands = _straddling_candidates(x, h, grid_depth)
    extremes = slope_extremes(f, cands[:bisect_right(cands, x)],
                              cands[bisect_left(cands, x):], h)
    if extremes is None:
        raise DomainError(f"no straddling pair around {x} at depth {grid_depth} "
                          f"within scale {h}")
    return extremes


def _grid_step(lo: Fraction, hi: Fraction, max_step: Fraction) -> tuple[int, Fraction]:
    """(count, delta) for lo < hi and max_step > 0: the fewest equal steps of
    at most max_step from lo to hi, and their length."""
    steps = (hi - lo) / max_step
    count = steps.numerator // steps.denominator
    if count * max_step < hi - lo:
        count += 1
    return count, (hi - lo) / count


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


# A row over the internal grid indices is a list of runs (first, last, start,
# step) in index order: start + step (k - first) at each k from first to last;
# the value row's runs are ratios (see MonotoneExtension).  Runs of a row are
# disjoint and, except where said, cover 0..end.


def _at(run: tuple, k: int) -> int:
    """A run's value at index k."""
    return run[2] + run[3] * (k - run[0])


def _put(out: list, first: int, last: int, start: int, step: int) -> None:
    """Append the run first..last to out, whose runs reach at least to
    first - 1: cut back the runs it overlaps, and lengthen the run before it
    where it goes on with the same progression."""
    while out and out[-1][0] >= first:
        out.pop()
    if out:
        f, end, s, st = out[-1]
        if end >= first:
            out[-1] = (f, first - 1, s, st)
        if st == step and s + st * (first - f) == start:
            out[-1] = (f, last, s, st)
            return
    out.append((first, last, start, step))


def _at_most(d0: int, ds: int, lo: int, hi: int) -> tuple[int, int]:
    """The indices k in lo..hi with d0 + ds (k - lo) <= 0.  A progression
    changes sign at most once, so they are one range a..b, which is a prefix
    or a suffix of lo..hi, or (hi + 1, hi) when empty."""
    if ds > 0:
        a, b = lo, min(hi, lo + -d0 // ds)
    elif ds < 0:
        a, b = max(lo, lo - (-d0 // -ds)), hi
    else:
        a, b = lo, hi if d0 <= 0 else lo - 1
    return (a, b) if a <= b else (hi + 1, hi)


def _flip(runs: list, end: int) -> list:
    """The row k -> -row(end - k).  The running min of a row from the right is
    the flip of the running max of its flip from the left, so G is kept
    flipped and goes through F's code."""
    return [(end - last, end - first, -(start + step * (last - first)), step)
            for first, last, start, step in reversed(runs)]


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


def _sweep_max(pieces: list, end: int, run: int) -> list:
    """The running max over 0..end, from the incoming run, of the candidate
    pieces: progressions in index order, where neighbours may share an index.
    A rising piece rejoins the run at one integer-division index, and from
    there on the row is the piece itself; any other piece holds a constant."""
    out: list = []
    k = 0  # the first index not yet written
    for first, last, start, step in pieces:
        if first > k:
            _put(out, k, first - 1, run, 0)
        k = last + 1
        top = start + step * (last - first)
        if step > 0 and top > run:
            j = first if start > run else first + (run - start) // step + 1
            if j > first:
                _put(out, first, j - 1, run, 0)
            _put(out, j, last, start + step * (j - first), step)
            run = top
        else:
            if start > run:
                run = start
            _put(out, first, last, run, 0)
    if k <= end:
        _put(out, k, end, run, 0)
    return out


def _lower(a: list, b: list) -> list:
    """The pointwise min of two rows.  On each overlap of their runs a - b is
    a progression, so a is the lower one on a prefix or a suffix of it."""
    out: list = []
    for lo, hi, ra, rb in overlaps(a, b):
        a0, b0 = _at(ra, lo), _at(rb, lo)
        x, y = _at_most(a0 - b0, ra[3] - rb[3], lo, hi)
        for first, last, v0, step in ((lo, x - 1, b0, rb[3]), (x, y, a0, ra[3]),
                                      (y + 1, hi, b0, rb[3])):
            if first <= last:
                _put(out, first, last, v0 + step * (first - lo), step)
    return out


def _crossings(f0: list, g0: list, f1: list, g1: list, den: int) -> list:
    """The value runs (first, last, p0, p1, p2, q0, q1) of the indices that
    close at this stage, F_(t-1) > G_(t-1) and F_t <= G_t: F at the linear
    crossing between the two stages.  The four rows are walked as the
    overlaps of the (F_(t-1), G_(t-1)) overlaps with the (F_t, G_t) ones.
    On each overlap of the four rows' runs they are one range, along which
    F_(t-1), the gap F_(t-1) - G_(t-1), the fall F_t - F_(t-1) and the rise
    gap + G_t - F_t are progressions in m = k - first: p = F_(t-1) rise +
    gap fall is quadratic, q = rise den."""
    out = []
    for lo, hi, (_, _, rf0, rg0), (_, _, rf1, rg1) in overlaps(list(overlaps(f0, g0)),
                                                               list(overlaps(f1, g1))):
        pf, pg, nf, ng = _at(rf0, lo), _at(rg0, lo), _at(rf1, lo), _at(rg1, lo)
        sf, sg, snf, sng = rf0[3], rg0[3], rf1[3], rg1[3]
        a, b = _at_most(pg - pf + 1, sg - sf, lo, hi)  # F_(t-1) - G_(t-1) >= 1
        c, d = _at_most(nf - ng, snf - sng, lo, hi)
        a, b = max(a, c), min(b, d)
        if a > b:
            continue
        x = a - lo
        f, gap, fall = pf + sf * x, pf - pg + (sf - sg) * x, nf - pf + (snf - sf) * x
        rise = gap + ng - nf + (sng - snf) * x
        s_gap, s_fall, s_rise = sf - sg, snf - sf, sf - sg + sng - snf
        out.append((a, b, f * rise + gap * fall,
                    f * s_rise + sf * rise + gap * s_fall + s_gap * fall,
                    sf * s_rise + s_gap * s_fall, rise * den, s_rise * den))
    return out


def _pq(run: tuple, k: int) -> tuple[int, int]:
    """A value run's (p, q) at index k."""
    first, _, p0, p1, p2, q0, q1 = run
    m = k - first
    return p0 + (p1 + p2 * m) * m, q0 + q1 * m


def _drops(run: tuple, i: int, count: int, s: int) -> int:
    """How many of the count steps i + j s -> i + (j + 1) s a value run falls
    at.  The step from m = k - first falls when p(m + s) q(m) - p(m) q(m + s),
    over s the quadratic a2 m^2 + a1 m + a0 below, is negative: on each side
    of its vertex a prefix or a suffix of the steps: one bisect at most."""
    first, _, p0, p1, p2, q0, q1 = run
    a2, a1, a0 = p2 * q1, p2 * (s * q1 + 2 * q0), q0 * (p1 + p2 * s) - q1 * p0
    steps = range(i - first, i - first + count * s, s)
    cut = bisect_left(steps, -(a1 // (2 * a2))) if a2 else 0  # the vertex -a1 / (2 a2)

    def falls(m: int) -> bool:
        return (a2 * m + a1) * m + a0 < 0

    def side(part: range) -> int:
        head = bool(part) and falls(part[0])
        if not part or head == falls(part[-1]):
            return len(part) if head else 0
        n = bisect_left(part, True, key=lambda m: falls(m) != head)
        return n if head else len(part) - n

    return side(steps[:cut]) + side(steps[cut:])


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
    at x is F at the first F = G crossing; where the curves never cross it
    is the final F, within 3/4 2^-n of G.  Queries snap down to the internal
    grid, so outputs are exactly nondecreasing and C-grid points (depth <=
    grid_depth) are exact queries.

    h is a ``PiecewiseLinear`` defined on all of [0,1], and its
    ``lipschitz_bound()`` lip sets the grid depth gd =
    ``extension_grid_depth(lip, n)``, at which lip 2^-gd <= 2^-(n+3), and the
    margin lip 2^-gd + 2^-(n+4).  Every row the build keeps is a list of
    runs (first, last, start, step) over the internal grid indices, integers
    over one denominator den: the lcm of the denominators of h's samples, of the
    margin and of the two bounds.  h's samples are its
    ``grid_progressions(grid_depth)``, one run per segment, and the
    monotonicity check reads h as its ``progressions`` along the refined
    grid of each part of the final class, so only the part ends off the
    grid are evaluated one at a time, whatever the depth.  The stage classes
    are the integer rows ``intervals.stage_gaps`` builds hole by hole, read
    at the stages 1, 2, 4, ... and the last; the final one is kept as
    ``final_row`` for ``extension_grid_check``.  A candidate enters the F row
    at its ceiling grid index and the G row at its floor grid index, both
    found by integer division of a part end over the rows' denominator.
    Stage t's F row is F_t = min(F_(t-1), rm_t), with rm_t the running max
    of its candidates from the left, and its G row G_t = max(G_(t-1),
    rmin_t), with rmin_t the running min from the right; the two bounds
    stand in for "no candidate yet".  G is kept flipped, k -> -G(2^gd - k),
    so that it goes through F's code.

    A stage's candidates are pieces: each part of its class cut by h's
    segments into progressions, and each part end off the grid as a
    one-index piece.  Along a rising piece the running max keeps the
    incoming run up to one integer-division index and is the progression
    itself from there on; along a flat or falling piece it holds a
    constant.  So rm_t and rmin_t take a few runs per piece, and each
    envelope is a merge of two rows: on each overlap of their runs two
    progressions cross at most once, at one integer-division index.  Rows
    are read together through ``piecewise.overlaps``, one two-row walk of
    their runs, and walks of more rows are walks of walks.  G_t is flipped
    back once, and serves as G_(t-1) at the next stage.

    An index is solved at the first stage where F <= G, by the linear
    crossing with the stage before.  A grid point x of stage t's class has
    F_t >= h(x) + margin > h(x) - margin >= G_t at its index, so it cannot
    close at stage t, and a grid point of the final class never closes: only
    indices inside holes do.  A hole holds no candidate, and an off-grid
    end's candidate sits at the hole's first index for F and its last for
    G, so rm_t and rmin_t are constant across the hole, and on each overlap
    of the four envelope rows' runs the crossing is p(m) / q(m), with p
    quadratic and q linear in m (``_crossings``).  The solved values are
    one row of runs (first, last, p0, p1, p2, q0, q1), the value
    (p0 + p1 m + p2 m^2) / (q0 + q1 m) at m = k - first, with p2 = q1 = 0
    where the final F stands.  ``value`` bisects the row, and
    ``extension_grid_check`` reads it run by run.

    An index k that never closes has F - G <= 3/4 2^-n at the last stage.
    The build checks that h drops by at most 2^-(n+3) between any two points
    x <= y of the refined grids of the final class.  0 and 1 lie in every
    class, so k has a final candidate at or left of k 2^-gd and one at or
    right of it, each at most 2^-gd from a refined point of its part, and F -
    G is at most 2^-(n+3) + 2 lip 2^-gd + 2 margin <= 2^-(n+2) + 2^-(n+1).
    A gap of 2^-n or more is a broken invariant and raises InvariantError.
    """

    def __init__(self, h: PiecewiseLinear, enum: StagedOpenEnumeration, n: int):
        lip = h.lipschitz_bound()
        gd = extension_grid_depth(lip, n)
        self.h, self.enum, self.n, self.grid_depth = h, enum, n, gd
        # every internal grid sample, as one progression per segment of h; a
        # domain short of [0,1] raises here, at the first grid point outside it
        row_den, hp = h.grid_progressions(gd)
        margin = lip * Fraction(1, 1 << gd) + Fraction(1, 1 << (n + 4))
        mid = h.value(Fraction(1, 2))
        # Every sample is h(x) for some x in [0,1], so it lies within lip / 2
        # of h(1/2) == mid, while the bounds lie lip + 1 away from mid: no
        # sample + margin is ever at or below lo_bound, and no sample - margin
        # at or above hi_bound.  So the bounds serve as the "no candidate yet"
        # values of the running max and min, which a real sample always beats.
        hi_bound = mid + lip + 1
        lo_bound = mid - lip - 1
        final = len(enum)
        # the stages 1, 2, 4, ... below the last one, and the last one
        self.stages = [t for t in range(1, final) if t & (t - 1) == 0] + [final]
        rows = [row for t, row in enumerate(stage_gaps(enum.items)) if t in self.stages]
        self.final_row = rows[-1]

        # the part ends of every stage's class, integers over the rows' one
        # denominator rden; h's value at each end off the internal grid
        scale, rden = 1 << gd, rows[0].den
        off_vals = {x: h.value(Fraction(x, rden))
                    for x in {e for row in rows for e in row.ends} if (x << gd) % rden}
        # h's progressions along the refined grid of each part of the final
        # class, the fewest equal steps of at most 2^-gd from its lo to its
        # hi: on a grid-aligned part, the internal grid itself
        refined = []
        for lo, hi in self.final_row.parts:
            count = -(-((hi - lo) << gd) // rden)
            delta = Fraction(hi - lo, rden * count) if count else Fraction(1, scale)
            refined.append((Fraction(lo, rden), delta,
                            *h.progressions(Fraction(lo, rden), delta, count)))
        # the values (start + step j) / d along a piece have the lcm of their
        # denominators d / gcd(d, start, step), or d / gcd(d, start) for one
        den = lcm(row_den, margin.denominator, hi_bound.denominator, lo_bound.denominator,
                  *(v.denominator for v in off_vals.values()),
                  *(d // gcd(d, start, step if last > first else 0)
                    for _, _, d, pieces in refined for first, last, start, step in pieces))

        def scaled(v: Fraction) -> int:
            return v.numerator * (den // v.denominator)

        self._den = den
        unit = den // row_den
        if unit > 1:
            hp = [(a, b, v * unit, s * unit) for a, b, v, s in hp]
        hp_lasts = [piece[1] for piece in hp]
        off_ints = {x: scaled(v) for x, v in off_vals.items()}
        margin, hi_bound, lo_bound = scaled(margin), scaled(hi_bound), scaled(lo_bound)
        self._check_monotone_on_class(refined, lo_bound)

        def candidates(row: ClassGaps) -> tuple[list, list]:
            """The class's candidates as pieces (first, last, start, step) in
            the order of their points: for F, h + margin at each point's
            ceiling grid index, for G, h - margin at its floor index.  A grid
            point of a part lies on one of h's progressions, a part end off
            the grid is a one-index piece."""
            fp, gp = [], []
            for lo, hi in row.parts:
                lo_k, lo_off = divmod(lo << gd, rden)  # floor index, and off the grid
                hi_k, hi_off = divmod(hi << gd, rden)
                lo_up = lo_k + 1 if lo_off else lo_k
                if lo_off:
                    v = off_ints[lo]
                    fp.append((lo_up, lo_up, v + margin, 0))
                    gp.append((lo_k, lo_k, v - margin, 0))
                if lo_up <= hi_k:
                    for a, b, v, s in _clip(hp, hp_lasts, lo_up, hi_k):
                        fp.append((a, b, v + margin, s))
                        gp.append((a, b, v - margin, s))
                if hi_off:
                    v = off_ints[hi]
                    fp.append((hi_k + 1, hi_k + 1, v + margin, 0))
                    gp.append((hi_k, hi_k, v - margin, 0))
            return fp, gp

        # stage 0: F and G are the bounds, F > G everywhere; G is kept flipped
        f_env, g_flip = [(0, scale, hi_bound, 0)], [(0, scale, -lo_bound, 0)]
        g_env = [(0, scale, lo_bound, 0)]  # G itself, the flip of g_flip
        values = []  # the runs of p / q, the indices closed so far
        for row in rows:
            fp, gp = candidates(row)
            f_new = _lower(f_env, _sweep_max(fp, scale, lo_bound))
            g_flip = _lower(g_flip, _sweep_max(_flip(gp, scale), scale, -hi_bound))
            g_new = _flip(g_flip, scale)
            # F falls and G rises along the stages, so an index closes for
            # good at the first stage with F <= G
            values += _crossings(f_env, g_env, f_new, g_new, den)
            f_env, g_env = f_new, g_new
        # where the curves never crossed, the value is the final F, whose gap
        # to G is at most 3/4 2^-n (see the class docstring); a gap of 2^-n
        # or more, gap << n >= den, is one above (den - 1) >> n
        wide = (den - 1) >> n
        for lo, hi, rf, rg in overlaps(f_env, g_env):
            f0, sf = _at(rf, lo), rf[3]
            gap, sgap = f0 - _at(rg, lo), sf - rg[3]
            u, v = _at_most(gap - wide, sgap, lo, hi)
            if (u, v) != (lo, hi):
                k = lo if u > lo else v + 1
                raise InvariantError(
                    f"the envelope gap at internal grid index {k} never closed below 2^-{n}")
            x, y = _at_most(gap, sgap, lo, hi)  # closed, already in values
            for a, b in ((lo, x - 1), (y + 1, hi)):
                if a <= b:
                    values.append((a, b, f0 + sf * (a - lo), sf, 0, den, 0))
        self._runs = sorted(values)

    def _check_monotone_on_class(self, refined: list, floor: int) -> None:
        """h must stay within 2^-(n+3) of nondecreasing along the
        refined grid lo + k delta of each part of the final class, read as
        its progressions (lo, delta, d, pieces) over d.  The samples, integers
        over den, are checked in one pass of the running max, which floor,
        below every sample, starts: a drop can start only at a progression's
        first point, or run on along a falling one, whose first point below
        the peak's tolerance is one integer division away.  Fractions are
        built only to name the peak and the failing point."""
        den = self._den
        # a drop e fails when e << (n + 3) > den, that is when e > tol
        tol = den >> (self.n + 3)
        peak, top = floor, None  # the running max and the point where it was first reached

        def fail(x: Fraction) -> DomainError:
            return DomainError(f"h is not nondecreasing on the class: h({top}) > h({x})")

        for lo, delta, d, pieces in refined:
            for first, last, start, step in pieces:
                start, step = start * den // d, step * den // d
                if peak - start > tol:
                    raise fail(lo + first * delta)
                if step > 0:
                    end = start + step * (last - first)
                    if end > peak:
                        peak, top = end, lo + last * delta
                    continue
                if start > peak:
                    peak, top = start, lo + first * delta
                if step < 0:
                    j = first + (start - peak + tol) // -step + 1
                    if j <= last:
                        raise fail(lo + j * delta)

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not 0 <= x.numerator <= x.denominator:
            raise DomainError(f"{x} outside [0,1]")
        i = (x.numerator << self.grid_depth) // x.denominator
        return Fraction(*_pq(self._runs[bisect_right(self._runs, i, key=itemgetter(0)) - 1], i))


def extension_grid_check(ext: MonotoneExtension, depth: int) -> tuple[int, Fraction]:
    """(drops, worst) on the 2^-depth grid: how often the extension decreases
    from one grid point to the next, and its largest |value - h| over the grid
    points of the final class.

    Query k lies on internal grid index (k << grid_depth) >> depth, so each
    run of the build's values holds a range of query points, and the check
    reads the runs, never a row.  A drop lies at a run boundary, found by
    cross-multiplying, or between two reached indices of one run, counted by
    ``_drops``.  h is read as its ``grid_progressions(depth)``, so on each
    overlap of a value run, an h piece and a class range, h is a progression
    over the query points, and so is the value over the indices where
    p2 = q1 = 0.  On a grid finer than the internal one the 2^s query points
    of one index share its value, with s = depth - grid_depth.  |value - h| is then
    linear along each such block, along the blocks' first points and along
    their last points, so it is convex along each: the worst lies among the
    overlap's ends and the points on either side of its first and last block
    edges.  A run with p2 or q1 nonzero holds crossings, and no grid point of
    the final class ever closes, so such an overlap lies on one index, where
    the value is constant; one over more raises InvariantError.  One Fraction
    is built, at the end.
    """
    if depth < 0:
        raise DomainError(f"grid depth {depth} is negative")
    gd, points = ext.grid_depth, 1 << depth
    spacing = max(gd - depth, 0)  # reached indices lie 2^spacing apart
    block = 1 << max(depth - gd, 0)  # query points per index

    def index(k: int) -> int:
        return (k << gd) >> depth

    def least_k(i: int) -> int:
        """The least query point on an index >= i."""
        return -((-i << depth) >> gd)

    reached = []  # each value run with the query points ka .. kb on its indices
    drops, prev = 0, None
    for run in ext._runs:
        ka, kb = least_k(run[0]), min(least_k(run[1] + 1) - 1, points)
        if ka > kb:
            continue
        i = index(ka)
        p, q = _pq(run, i)
        if prev is not None and prev[0] * q > p * prev[1]:
            drops += 1
        drops += _drops(run, i, (index(kb) - i) >> spacing, 1 << spacing)
        prev = _pq(run, index(kb))
        reached.append((ka, kb, run))
    h_den, h_pieces = ext.h.grid_progressions(depth)
    in_class = [(a, b) for a, b in ext.final_row.grid_ranges(depth) if a <= b]
    # the worst |value - h| is worst_e / (worst_q h_den)
    worst_e, worst_q = 0, 1
    for lo, hi, (_, _, (_, _, run), piece), _ in overlaps(list(overlaps(reached, h_pieces)),
                                                          in_class):
        if (run[4] or run[6]) and index(lo) != index(hi):
            raise InvariantError(f"query points {lo} to {hi} of the class span a crossing run")
        lo_end, hi_start = lo | (block - 1), hi & -block
        for k in {lo, hi, lo_end, lo_end + 1, hi_start - 1, hi_start}:
            if lo <= k <= hi:
                p, q = _pq(run, index(k))
                e = abs(p * h_den - _at(piece, k) * q)
                if e * worst_q > worst_e * q:
                    worst_e, worst_q = e, q
    return drops, Fraction(worst_e, worst_q * h_den)
