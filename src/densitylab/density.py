"""Lower-density estimates and the fat-interval low-density covering.

Everything is exact.  The covering route turns each maximal complement gap
[a_i, b_i] of an effectively closed C into at most two anchored intervals by
solving, segment by segment, the linear condition

    lambda(C cap [x, b_i]) <= eps * (b_i - x)

for the extreme qualifying x (the window mass is affine in x between part
endpoints, with slope 0 in gaps and 1 inside parts), then keeps the maximal
intervals of the family and chains them left to right.  The union U of the
family is returned closed; the set of the covering lemma (strict inequality,
open windows) differs from it only on a null set of boundary points.

Both the estimate and the cover read the class through one integer mass row:
the part endpoints as integer numerators over one denominator, each with the
mass of C on [0, endpoint], so lambda(C cap [0, x]) is one bisect away.  The
estimate puts z and its radii over the same denominator, compares window
densities by cross-multiplication, and builds one Fraction estimate and one
witness Interval.  The cover's row is scaled by q - p for eps = p/q, so
every solved end is an integer on it: the cover cuts [0, b] and [a, 1] at
the part endpoints, takes slope 1 or 0 from whether a piece lies inside a
part, solves each piece's condition, and keeps the candidates, the maximal
ones, their chain and U as integer pairs.  Both bounds, the overlap
lambda(C cap U) summed over the parts of U and the size lambda(U), are
decided on that row; a Fraction is built only for a reported value.

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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .bits import ONE, ZERO, require_unit
from .errors import DomainError
from .intervals import Interval, IntervalSet


def dyadic_intervals_containing(z: Fraction, n: int) -> list[Interval]:
    """Basic dyadic intervals [r 2^-n, (r+1) 2^-n] containing z (two on a boundary)."""
    require_unit(z, "z")
    if n < 0:
        raise DomainError(f"negative depth {n}")
    scaled = z * (1 << n)
    base = scaled.numerator // scaled.denominator
    indices = {min(base, (1 << n) - 1)}
    if scaled.denominator == 1 and 0 < scaled.numerator < (1 << n):
        indices.add(scaled.numerator - 1)
    step = Fraction(1, 1 << n)
    return [Interval(i * step, (i + 1) * step) for i in sorted(indices)]


@dataclass(frozen=True)
class DensityEstimate:
    estimate: Fraction
    witness: Interval
    scale_depth: int
    family_size: int


class _MassRow:
    """The parts of a class as integers over one denominator ``den``, flattened
    to ``ends`` = [lo_0, hi_0, lo_1, hi_1, ...], with ``masses[i]`` the mass of
    the class on [0, ends[i]], also over ``den``.  ``den`` is ``factor`` times
    the lcm of the endpoints' denominators and of ``extra``'s."""

    def __init__(self, c: IntervalSet, extra: Sequence[Fraction] = (), factor: int = 1):
        ends = [x for p in c.parts for x in (p.lo, p.hi)]
        self.den = factor * lcm(*(x.denominator for x in ends),
                                *(x.denominator for x in extra))
        self.ends = [self.scaled(x) for x in ends]
        self.masses: list[int] = []
        acc = 0
        for lo, hi in zip(self.ends[::2], self.ends[1::2]):
            self.masses += (acc, acc + hi - lo)
            acc += hi - lo

    def scaled(self, x: Fraction) -> int:
        return x.numerator * (self.den // x.denominator)

    def mass(self, x: int) -> int:
        """The mass of the class on [0, x / den], over den."""
        i = bisect_right(self.ends, x)
        if i == 0:
            return 0
        # an odd count of ends at or before x leaves x inside a part
        return self.masses[i - 1] + (x - self.ends[i - 1] if i & 1 else 0)

    def pieces(self, lo: int, hi: int) -> Iterator[tuple[int, int, bool]]:
        """[lo, hi] cut at the part endpoints, left to right: (u, v, inside)
        per piece, inside when the piece lies in a part (mass slope 1), not
        in a gap (slope 0).  A piece is inside exactly when the next end
        after u is a part's hi, which sits at an odd index of ends."""
        ends = self.ends
        i = bisect_right(ends, lo)
        u = lo
        while i < len(ends) and ends[i] < hi:
            if ends[i] > u:
                yield u, ends[i], i & 1 == 1
                u = ends[i]
            i += 1
        if u < hi:
            yield u, hi, i & 1 == 1


def lower_density_estimate(c: IntervalSet, z: Fraction, scale_depth: int) -> DensityEstimate:
    """Exact minimum of the window density over the declared finite family.

    The windows are [z-gamma, z+delta] with dyadic radii up to
    2^-scale_depth and signed distances from z to part endpoints within 1/2,
    and the basic dyadic intervals through z of depth <= scale_depth.  The
    minimum is an upper bound on the true lower density that shrinks as
    scale_depth grows.  The first window of least density, in the order
    listed, is the witness.
    """
    require_unit(z, "z")
    if scale_depth < 0:
        raise DomainError(f"negative scale_depth {scale_depth}")
    row = _MassRow(c, (z, Fraction(1, 1 << scale_depth)))
    den, zi = row.den, row.scaled(z)
    radii = [den >> k for k in range(scale_depth + 1)]
    left = set(radii)
    left.update(zi - e for e in row.ends if 0 < 2 * (zi - e) <= den)
    right = set(radii)
    right.update(e - zi for e in row.ends if 0 < 2 * (e - zi) <= den)
    his = [min(den, zi + d) for d in sorted(right)]
    windows = [(max(0, zi - g), hi) for g in sorted(left) for hi in his]
    for n in range(scale_depth + 1):
        windows += [
            (row.scaled(w.lo), row.scaled(w.hi))
            for w in dyadic_intervals_containing(z, n)
        ]
    # every window holds z and reaches a positive distance past it on a side
    # inside [0, 1], so none is degenerate
    mass = {x: row.mass(x) for w in windows for x in w}
    best_m, best_len, witness = 1, 0, windows[0]  # 1/0: no window yet
    for lo, hi in windows:
        m, length = mass[hi] - mass[lo], hi - lo
        if m * best_len < best_m * length:
            best_m, best_len, witness = m, length, (lo, hi)
    return DensityEstimate(
        Fraction(best_m, best_len),
        Interval(Fraction(witness[0], den), Fraction(witness[1], den)),
        scale_depth,
        len(set(windows)),
    )


def _extend_left(row: _MassRow, b: int, p: int, q: int) -> int:
    """Least x in [0, b] with lambda(C cap [x, b]) <= (p/q) (b - x).  Every
    end and mass of the row is a multiple of q - p, so x is an integer."""
    rest = row.mass(b)  # the mass of C on [0, b]
    for u, v, inside in row.pieces(0, b):
        mv = rest - row.mass(v)  # the mass of C on [v, b]
        if inside:
            # mass(x) = mv + (v - x) qualifies iff x >= x* = num / (q - p)
            num = q * (mv + v) - p * b
            if num <= v * (q - p):
                return max(num // (q - p), u)
        elif p * (b - u) >= q * mv:  # constant mass, qualifies iff at u
            return u
    return b  # only for b == 0: x = b always qualifies


def _extend_right(row: _MassRow, a: int, p: int, q: int) -> int:
    """Greatest x in [a, 1] with lambda(C cap [a, x]) <= (p/q) (x - a)."""
    base = row.mass(a)
    for u, v, inside in reversed(list(row.pieces(a, row.den))):
        mu = row.mass(u) - base  # the mass of C on [a, u]
        if inside:
            # mass(x) = mu + (x - u) qualifies iff x <= x* = num / (q - p)
            num = q * (u - mu) - p * a
            if num >= u * (q - p):
                return min(num // (q - p), v)
        elif p * (v - a) >= q * mu:
            return v
    return a


@dataclass(frozen=True)
class FatCover:
    """Fat-interval covering of the low-density set at threshold epsilon.

    The fat intervals, their chain and the parts of U are (lo, hi) integer
    pairs over the mass row's denominator; their Intervals are built when
    read, and the bounds are decided on the pairs."""

    epsilon: Fraction
    class_set: IntervalSet
    row: _MassRow
    fats: tuple[tuple[int, int], ...]
    links: tuple[tuple[int, int], ...]
    parts: tuple[tuple[int, int], ...]

    def _intervals(self, pairs) -> tuple[Interval, ...]:
        den = self.row.den
        return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs)

    @cached_property
    def fat_intervals(self) -> tuple[Interval, ...]:
        return self._intervals(self.fats)

    @property
    def chain(self) -> tuple[Interval, ...]:
        return self._intervals(self.links)

    @cached_property
    def U(self) -> IntervalSet:
        return IntervalSet(self._intervals(self.parts))

    def inequalities(self) -> list[tuple[str, Fraction, Fraction, bool]]:
        """The overlap lambda(C cap U), the class's mass summed over the parts
        of U, and the size lambda(U), against their bounds: each decided over
        the row's denominator d, with eps = p/q and lambda(C) = mass(d)/d."""
        row, p, q = self.row, self.epsilon.numerator, self.epsilon.denominator
        d = row.den
        overlap = sum(row.mass(hi) - row.mass(lo) for lo, hi in self.parts)
        size = sum(hi - lo for lo, hi in self.parts)
        rest = d - row.mass(d)  # d (1 - lambda(C))
        return [
            ("overlap lambda(C cap U) <= 2 eps", Fraction(overlap, d), 2 * self.epsilon,
             q * overlap <= 2 * p * d),
            ("size lambda(U) <= 2(1 - lambda C)/(1 - eps)", Fraction(size, d),
             Fraction(2 * q * rest, (q - p) * d), (q - p) * size <= 2 * q * rest),
        ]


def low_density_open_set(c: IntervalSet, eps: Fraction) -> FatCover:
    """Fat intervals, their chain, and the covered set U for threshold eps.

    U is exactly the union of the maximal anchored intervals, and
    ``inequalities()`` decides both covering bounds.  The gaps, the
    candidates, the maximal ones, their chain and U are integer pairs over
    the class's mass row, scaled by q - p so that every solved end is an
    integer.
    """
    if not ZERO < eps < ONE:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    p, q = eps.numerator, eps.denominator
    row = _MassRow(c, factor=q - p)
    bounds = [0, *row.ends, row.den]
    candidates = []
    for a, b in zip(bounds[::2], bounds[1::2]):
        if a < b:  # a nondegenerate gap [a, b]
            candidates += ((_extend_left(row, b, p, q), b), (a, _extend_right(row, a, p, q)))
    fats = []  # the maximal candidates: both ends strictly increase
    for lo, neg_hi in sorted((lo, -hi) for lo, hi in candidates):
        if not fats or -neg_hi > fats[-1][1]:
            fats.append((lo, -neg_hi))

    # the chain: from each fat interval, the last one starting inside it, or
    # else the next one
    los = [lo for lo, _ in fats]
    chain, i = fats[:1], 0
    while i + 1 < len(fats):
        i = max(i + 1, bisect_right(los, fats[i][1]) - 1)
        chain.append(fats[i])

    parts = []  # U: the fats merged where they overlap or touch
    for lo, hi in fats:
        if parts and lo <= parts[-1][1]:
            parts[-1] = (parts[-1][0], hi)
        else:
            parts.append((lo, hi))
    return FatCover(eps, c, row, tuple(fats), tuple(chain), tuple(parts))


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


def oracle_difference(fc: FatCover, grid_depth: int) -> tuple[Fraction, bool]:
    """(diff, equal) between the cover's U and the prefix-mass oracle on the
    2^-grid_depth grid plus the fat-interval endpoints, degenerate parts
    dropped from both: the measure of their symmetric difference, and
    whether the two sets are equal."""
    extras = [x for iv in fc.fat_intervals for x in (iv.lo, iv.hi)]
    oracle = brute_force_low_density_oracle(fc.class_set, fc.epsilon, grid_depth, extras)
    a, b = fc.U.drop_degenerate(), oracle.drop_degenerate()
    return a.subtract(b).measure + b.subtract(a).measure, a == b
