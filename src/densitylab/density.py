"""Lower-density estimates and the fat-interval low-density covering.

Everything is exact.  The covering route turns each maximal complement gap
[a_i, b_i] of an effectively closed C into at most two anchored intervals,
the least x with lambda(C cap [x, b_i]) <= eps (b_i - x) and the greatest y
with lambda(C cap [a_i, y]) <= eps (y - a_i), then keeps the maximal
intervals of the family.  The union U of the family is returned closed;
the set of the covering lemma (strict inequality, open windows) differs from
it only on a null set of boundary points.

Both the estimate and the cover read the class as its integer row,
``intervals.ClassGaps``: the gaps and the part endpoints as integer numerators
over one denominator, each end with the mass M of C on [0, end].  The
estimate puts the row over a denominator that also holds z, its radii and
its dyadic windows, takes one mass per distinct window end, compares window
densities by cross-multiplication, and builds one Fraction estimate and one
witness Interval.  The cover sweeps D = q M - p x at the row's ends for
eps = p/q: a window qualifies iff D at its right end is at most D at its
left, so each solved end is one bisection into the prefix maxima or the
suffix minima of D and one linear solve, an integer over q - p times the
row's denominator that carries its mass.  Both bounds, the overlap
lambda(C cap U) summed from those masses and the size lambda(U), are
decided in integers; a Fraction is built only for a reported value.

The prefix-mass oracle checks U from outside the cover: it takes every
interval between two candidate points (a dyadic grid, the part endpoints and
the caller's extra points) whose density is at most eps, and returns their
union.  It shares no code with the cover; it sweeps its own masses along the
candidate points.  With D = q M - p G over the points G and their masses M,
an interval qualifies iff D at its right end is at most D at its left end, so
the farthest qualifying right end from each point is one bisection into the
suffix minima of D.  That is the same verdict as the scan over every pair,
without the quadratic loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import lcm
from typing import Sequence

from .bits import ONE, ZERO, require_unit
from .errors import DomainError, Frozen
from .intervals import ClassGaps, Interval, IntervalSet
from .report import Check


class DensityEstimate(Frozen):
    __slots__ = ("estimate", "witness", "family_size")

    def __init__(self, estimate: Fraction, witness: Interval, family_size: int):
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "family_size", family_size)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.estimate, self.witness, self.family_size) == (
            other.estimate, other.witness, other.family_size)


def lower_density_estimate(row: ClassGaps, z: Fraction, scale_depth: int) -> DensityEstimate:
    """Exact minimum of the window density over the declared finite family.

    The windows are [z-gamma, z+delta] with dyadic radii up to
    2^-scale_depth and signed distances from z to part endpoints within 1/2,
    and the basic dyadic intervals [r 2^-n, (r+1) 2^-n] through z of depth
    n <= scale_depth, two when z is on their grid.  The minimum is an upper
    bound on the true lower density that shrinks as scale_depth grows.  The
    first window of least density, in the order listed, is the witness.  The
    row's parts hold 0 and 1, which the class it was read from may lack; the
    windows (0, hi) and (lo, 1) that those ends give, radius 1 gives too, at
    the same place in the order.
    """
    require_unit(z, "z")
    if scale_depth < 0:
        raise DomainError(f"negative scale_depth {scale_depth}")
    row = row.over(lcm(row.den, z.denominator, 1 << scale_depth))
    den, zi = row.den, row.scaled(z)
    radii = [den >> k for k in range(scale_depth + 1)]
    left = set(radii)
    left.update(zi - e for e in row.ends if 0 < 2 * (zi - e) <= den)
    right = set(radii)
    right.update(e - zi for e in row.ends if 0 < 2 * (e - zi) <= den)
    # the window ends in the order listed, with repeats (the clamped ones)
    # dropped: a repeat is never the first window of least density
    los = sorted({max(0, zi - g) for g in left}, reverse=True)
    his = sorted({min(den, zi + d) for d in right})
    windows = list(product(los, his))
    for n in range(scale_depth + 1):
        step = den >> n
        if 0 < zi < den and zi % step == 0:  # z on the grid: the window below it too
            windows.append((zi - step, zi))
        lo = min(zi // step, (1 << n) - 1) * step
        windows.append((lo, lo + step))
    # every window holds z and reaches a positive distance past it on a side
    # inside [0, 1], so none is degenerate
    mass = {x: row.mass(x) for x in {x for w in windows for x in w}}
    best_m, best_len, witness = 1, 0, windows[0]  # 1/0: no window yet
    for lo, hi in windows:
        m, length = mass[hi] - mass[lo], hi - lo
        if m * best_len < best_m * length:
            best_m, best_len, witness = m, length, (lo, hi)
    return DensityEstimate(
        Fraction(best_m, best_len),
        Interval(Fraction(witness[0], den), Fraction(witness[1], den)),
        len(set(windows)),
    )


class FatCover(Frozen):
    """Fat-interval covering of the low-density set at threshold epsilon.

    The fat intervals and the parts of U are (lo, hi) integer pairs over
    ``den``; their Intervals are built when read.  ``overlap`` and ``rest``
    are lambda(C cap U) and 1 - lambda(C) over den, so the bounds are
    decided on integers."""

    # the cached properties keep their values in __dict__
    __slots__ = ("epsilon", "den", "fats", "parts", "overlap", "rest", "__dict__")

    def __init__(self, epsilon: Fraction, den: int, fats: tuple[tuple[int, int], ...],
                 parts: tuple[tuple[int, int], ...], overlap: int, rest: int):
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "fats", fats)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "overlap", overlap)
        object.__setattr__(self, "rest", rest)

    def _intervals(self, pairs) -> tuple[Interval, ...]:
        den = self.den
        return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs)

    @cached_property
    def fat_intervals(self) -> tuple[Interval, ...]:
        return self._intervals(self.fats)

    @cached_property
    def U(self) -> IntervalSet:
        return IntervalSet(self._intervals(self.parts))

    def inequalities(self) -> list[Check]:
        """The overlap lambda(C cap U) and the size lambda(U) against their
        bounds, with eps = p/q, each decided over den d."""
        p, q, d = self.epsilon.numerator, self.epsilon.denominator, self.den
        overlap, rest = self.overlap, self.rest
        size = sum(hi - lo for lo, hi in self.parts)
        return [
            Check("overlap lambda(C cap U) <= 2 eps", Fraction(overlap, d), 2 * self.epsilon,
                  q * overlap <= 2 * p * d),
            Check("size lambda(U) <= 2(1 - lambda C)/(1 - eps)", Fraction(size, d),
                  Fraction(2 * q * rest, (q - p) * d), (q - p) * size <= 2 * q * rest),
        ]


def low_density_open_set(row: ClassGaps, eps: Fraction) -> FatCover:
    """Fat intervals and the covered set U for threshold eps.

    U is exactly the union of the maximal anchored intervals, and
    ``inequalities()`` decides both covering bounds.  With eps = p/q and
    D(x) = q M(x) - p x over the row's denominator, M the class's mass on
    [0, x], the window [x, y] qualifies iff D(y) <= D(x).  D rises with slope
    f = q - p along a part and falls along a gap, so for the gap [a, b] the
    least qualifying x below b is one bisection into the prefix maxima of D
    at the row's ends, and the greatest above a one into the suffix minima;
    each is solved on the rising piece that bisection finds, as an integer
    over f times the row's denominator, with its mass.
    """
    if not ZERO < eps < ONE:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    p, q = eps.numerator, eps.denominator
    f = q - p
    ends, masses = row.ends, row.masses
    ds = [q * m - p * e for e, m in zip(ends, masses)]
    rise = list(accumulate(ds, max))
    fall = list(accumulate(reversed(ds), min))[::-1]
    last = len(ends) - 1

    def solve(i: int, t: int) -> tuple[int, int]:
        # the x on the piece rising from ends[i] with D(x) = t, and its mass
        return f * ends[i] + t - ds[i], f * masses[i] + t - ds[i]

    candidates = []  # (lo, -hi, mass at lo, mass at hi)
    for k in range(1, last, 2):  # the gap [a, b] = [ends[k], ends[k + 1]]
        a, m_a, b, m_b = f * ends[k], f * masses[k], f * ends[k + 1], f * masses[k + 1]
        i = bisect_left(rise, ds[k + 1])  # the least x with D(x) >= D(b)
        lo, m_lo = solve(i - 1, ds[k + 1]) if i else (0, 0)
        j = bisect_right(fall, ds[k]) - 1  # the greatest x with D(x) <= D(a)
        # j is the last end when D(1) <= D(a): then all of [a, 1] qualifies
        hi, m_hi = solve(j, ds[k]) if j < last else (f * row.den, f * masses[last])
        candidates += ((lo, -b, m_lo, m_b), (a, -hi, m_a, m_hi))
    fats = []  # the maximal candidates: both ends strictly increase
    for lo, neg_hi, m_lo, m_hi in sorted(candidates):
        if not fats or -neg_hi > fats[-1][1]:
            fats.append((lo, -neg_hi, m_lo, m_hi))

    parts = []  # U: the fats merged where they overlap or touch
    for fat in fats:
        if parts and fat[0] <= parts[-1][1]:
            parts[-1] = (parts[-1][0], fat[1], parts[-1][2], fat[3])
        else:
            parts.append(fat)
    den = f * row.den
    return FatCover(eps, den, tuple(fat[:2] for fat in fats), tuple(part[:2] for part in parts),
                    sum(m_hi - m_lo for _, _, m_lo, m_hi in parts), den - f * masses[last])


def brute_force_low_density_oracle(
    c: IntervalSet,
    eps: Fraction,
    grid_depth: int,
    extra_points: Sequence[Fraction] = (),
) -> IntervalSet:
    """Union of all candidate intervals I with lambda_I(C) <= eps.

    Candidate endpoints: the 2^-grid_depth grid, the part endpoints of C, and
    any caller-supplied extra points.  Verdicts come from direct prefix-mass
    comparisons, independent of the fat-interval route: with eps = p/q and
    every point G_i and mass M_i = lambda(C cap [0, G_i]) an integer over one
    common denominator, [G_i, G_j] qualifies iff q (M_j - M_i) <= p (G_j - G_i),
    that is iff D_j <= D_i for D = q M - p G.  So the farthest interval from
    G_i that qualifies ends at the largest j > i with D_j <= D_i, which is one
    bisection into the suffix minima of D (nondecreasing in j).  The intervals
    [G_i, G_j] are merged as index runs, and one Interval is built per run.
    """
    if grid_depth < 0:
        raise DomainError(f"negative grid_depth {grid_depth}")
    extras = [require_unit(x, "oracle grid point") for x in extra_points]
    ends = [x for part in c.parts for x in (part.lo, part.hi)]
    den = lcm(1 << grid_depth, *(x.denominator for x in ends),
              *(x.denominator for x in extras))
    ends_i = [x.numerator * (den // x.denominator) for x in ends]
    points = set(range(0, den + 1, den >> grid_depth))
    points.update(ends_i)
    points.update(x.numerator * (den // x.denominator) for x in extras)
    grid = sorted(points)

    # the masses, swept along the grid: every part endpoint is a grid point
    parts = list(zip(ends_i[::2], ends_i[1::2]))
    p, q = eps.numerator, eps.denominator
    ds: list[int] = []
    acc = 0
    pi = 0
    for g in grid:
        while pi < len(parts) and parts[pi][1] <= g:
            acc += parts[pi][1] - parts[pi][0]
            pi += 1
        cur = acc
        if pi < len(parts) and parts[pi][0] < g:
            cur += g - parts[pi][0]
        ds.append(q * cur - p * g)

    suffix_min = ds[:]
    for j in range(len(ds) - 2, -1, -1):
        if suffix_min[j + 1] < suffix_min[j]:
            suffix_min[j] = suffix_min[j + 1]
    runs: list[list[int]] = []  # merged [first, last] grid indices
    for i, d in enumerate(ds):
        j = bisect_right(suffix_min, d) - 1  # j >= i, as suffix_min[i] <= d
        if j == i:
            continue
        if runs and i <= runs[-1][1]:
            if j > runs[-1][1]:
                runs[-1][1] = j
        else:
            runs.append([i, j])
    return IntervalSet(tuple(
        Interval(Fraction(grid[i], den), Fraction(grid[j], den)) for i, j in runs
    ))


def oracle_difference(c: IntervalSet, fc: FatCover, grid_depth: int) -> tuple[Fraction, bool]:
    """(diff, equal) between the cover fc of the class c and the prefix-mass
    oracle on c, on the 2^-grid_depth grid plus the fat-interval endpoints,
    degenerate parts dropped from both: the measure of their symmetric
    difference, and whether the two sets are equal."""
    extras = [x for iv in fc.fat_intervals for x in (iv.lo, iv.hi)]
    oracle = brute_force_low_density_oracle(c, fc.epsilon, grid_depth, extras)
    a, b = fc.U.drop_degenerate(), oracle.drop_degenerate()
    return a.subtract(b).measure + b.subtract(a).measure, a == b
