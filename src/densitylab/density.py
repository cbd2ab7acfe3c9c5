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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import ONE, ZERO, over_common_denominator, require_unit
from .errors import DomainError
from .intervals import Interval, IntervalSet, canonicalize, relative_measure

Half = Fraction(1, 2)


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
    mode: str
    scale_depth: int
    family_size: int


def _general_windows(c: IntervalSet, z: Fraction, scale_depth: int) -> list[Interval]:
    radii = [Fraction(1, 1 << k) for k in range(scale_depth + 1)]
    left = list(radii)
    right = list(radii)
    for part in c.parts:
        for e in (part.lo, part.hi):
            d = z - e
            if ZERO < d <= Half:
                left.append(d)
            d = e - z
            if ZERO < d <= Half:
                right.append(d)
    windows = []
    for g in sorted(set(left)):
        for d in sorted(set(right)):
            windows.append(Interval(max(ZERO, z - g), min(ONE, z + d)))
    for n in range(scale_depth + 1):
        windows.extend(dyadic_intervals_containing(z, n))
    return windows


def lower_density_estimate(
    c: IntervalSet, z: Fraction, scale_depth: int, mode: str = "general"
) -> DensityEstimate:
    """Exact minimum of the window density over the declared finite family.

    mode "general" uses windows [z-gamma, z+delta] with dyadic radii up to
    2^-scale_depth, signed distances from z to part endpoints within 1/2, and
    the basic dyadic intervals through z (so the dyadic estimate can never
    fall below the general one).  mode "dyadic" uses basic dyadic intervals
    of depth <= scale_depth only.  Both are upper bounds on the true lower
    density that shrink as scale_depth grows.
    """
    require_unit(z, "z")
    if scale_depth < 0:
        raise DomainError(f"negative scale_depth {scale_depth}")
    if mode == "general":
        windows = _general_windows(c, z, scale_depth)
    elif mode == "dyadic":
        windows = []
        for n in range(scale_depth + 1):
            windows.extend(dyadic_intervals_containing(z, n))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    best: Fraction | None = None
    witness: Interval | None = None
    seen = set()
    for w in windows:
        if w.is_degenerate or (w.lo, w.hi) in seen:
            continue
        seen.add((w.lo, w.hi))
        value = relative_measure(c, w)
        if best is None or value < best:
            best, witness = value, w
    if best is None:
        raise RuntimeError("density estimate saw no nondegenerate window")
    return DensityEstimate(best, witness, mode, scale_depth, len(seen))


def _segments(points: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    pts = sorted(set(points))
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def _breakpoints(c: IntervalSet, lo: Fraction, hi: Fraction) -> list[Fraction]:
    pts = [lo, hi]
    for p in c.parts:
        for e in (p.lo, p.hi):
            if lo < e < hi:
                pts.append(e)
    return pts


def _extend_left(c: IntervalSet, b: Fraction, eps: Fraction) -> Fraction:
    """Minimal x with lambda(C cap [x, b]) <= eps (b - x)."""
    segs = _segments(_breakpoints(c, ZERO, b))
    # suffix masses of C on [x, b], affine per segment
    mass_at: dict[Fraction, Fraction] = {b: ZERO}
    slopes: list[Fraction] = []
    for u, v in reversed(segs):
        mid = (u + v) / 2
        s = ONE if c.contains_point(mid) else ZERO
        slopes.append(s)
        mass_at[u] = mass_at[v] + s * (v - u)
    slopes.reverse()
    for (u, v), s in zip(segs, slopes):
        mv = mass_at[v]
        if s == ONE:
            # mass(x) = mv + (v - x); qualifies iff x >= x_star
            x_star = (mv + v - eps * b) / (ONE - eps)
            lo = max(u, x_star)
            if lo <= v and mv + (v - lo) <= eps * (b - lo):
                return lo
        else:
            # mass constant: qualifies iff eps*(b - x) >= mv
            if eps * (b - u) >= mv:
                return u
    return b  # unreachable for a genuine gap: x = a_i always qualifies


def _extend_right(c: IntervalSet, a: Fraction, eps: Fraction) -> Fraction:
    """Maximal x with lambda(C cap [a, x]) <= eps (x - a)."""
    segs = _segments(_breakpoints(c, a, ONE))
    mass_at: dict[Fraction, Fraction] = {a: ZERO}
    seg_slopes: list[Fraction] = []
    for u, v in segs:
        mid = (u + v) / 2
        s = ONE if c.contains_point(mid) else ZERO
        seg_slopes.append(s)
        mass_at[v] = mass_at[u] + s * (v - u)
    for (u, v), s in reversed(list(zip(segs, seg_slopes))):
        mu = mass_at[u]
        if s == ONE:
            x_star = (u - mu - eps * a) / (ONE - eps)
            hi = min(v, x_star)
            if hi >= u and mu + (hi - u) <= eps * (hi - a):
                return hi
        else:
            if eps * (v - a) >= mu:
                return v
    return a


def _maximal(intervals: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    best_hi: Fraction | None = None
    for iv in sorted(intervals, key=lambda i: (i.lo, -i.hi)):
        if best_hi is None or iv.hi > best_hi:
            out.append(iv)
            best_hi = iv.hi
    return out


@dataclass(frozen=True)
class FatCover:
    """Fat-interval covering of the low-density set at threshold epsilon."""

    epsilon: Fraction
    class_set: IntervalSet
    fat_intervals: tuple[Interval, ...]
    chain: tuple[Interval, ...]
    U: IntervalSet

    @property
    def overlap_measure(self) -> Fraction:
        return self.class_set.intersect(self.U).measure

    @property
    def overlap_bound(self) -> Fraction:
        return 2 * self.epsilon

    @property
    def size_measure(self) -> Fraction:
        return self.U.measure

    @property
    def size_bound(self) -> Fraction:
        return 2 * (ONE - self.class_set.measure) / (ONE - self.epsilon)

    def inequalities(self) -> list[tuple[str, Fraction, Fraction, bool]]:
        return [
            ("overlap lambda(C cap U) <= 2 eps", self.overlap_measure,
             self.overlap_bound, self.overlap_measure <= self.overlap_bound),
            ("size lambda(U) <= 2(1 - lambda C)/(1 - eps)", self.size_measure,
             self.size_bound, self.size_measure <= self.size_bound),
        ]

    def holds(self) -> bool:
        return all(ok for *_x, ok in self.inequalities())


def low_density_open_set(c: IntervalSet, eps: Fraction) -> FatCover:
    """Fat intervals, their chain, and the covered set U for threshold eps.

    U is exactly the union of the maximal anchored intervals; both covering
    bounds are recomputed by the caller from the returned exact sets.
    """
    if not ZERO < eps < ONE:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    fat_candidates: list[Interval] = []
    for gap in c.gaps():
        if gap.is_degenerate:
            continue
        a, b = gap.lo, gap.hi
        fat_candidates.append(Interval(_extend_left(c, b, eps), b))
        fat_candidates.append(Interval(a, _extend_right(c, a, eps)))
    fats = _maximal(fat_candidates)

    chain: list[Interval] = []
    if fats:
        i = 0
        chain.append(fats[0])
        while True:
            nxt = None
            for j in range(len(fats) - 1, i, -1):
                if fats[j].lo <= fats[i].hi:
                    nxt = j
                    break
            if nxt is None and i + 1 < len(fats):
                nxt = i + 1
            if nxt is None:
                break
            i = nxt
            chain.append(fats[i])

    return FatCover(
        epsilon=eps,
        class_set=c,
        fat_intervals=tuple(fats),
        chain=tuple(chain),
        U=canonicalize(fats),
    )


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
    every point and mass an integer over one common denominator, [G_i, G_j]
    qualifies iff q (M_j - M_i) <= p (G_j - G_i).
    """
    points = {Fraction(k, 1 << grid_depth) for k in range((1 << grid_depth) + 1)}
    for p in c.parts:
        points.add(p.lo)
        points.add(p.hi)
    points.update(require_unit(x, "oracle grid point") for x in extra_points)
    grid = sorted(points)
    # every part endpoint is a grid point, so the masses share the grid's
    # denominator
    _, ints = over_common_denominator(grid)
    index = dict(zip(grid, ints))
    parts = [(index[p.lo], index[p.hi]) for p in c.parts]

    masses: list[int] = []
    acc = 0
    pi = 0
    for g in ints:
        while pi < len(parts) and parts[pi][1] <= g:
            acc += parts[pi][1] - parts[pi][0]
            pi += 1
        cur = acc
        if pi < len(parts) and parts[pi][0] < g:
            cur += g - parts[pi][0]
        masses.append(cur)

    p, q = eps.numerator, eps.denominator
    covered: list[Interval] = []
    n = len(grid)
    for i in range(n - 1):
        gi, mi = ints[i], masses[i]
        for j in range(n - 1, i, -1):
            if q * (masses[j] - mi) <= p * (ints[j] - gi):
                covered.append(Interval(grid[i], grid[j]))
                break
    return canonicalize(covered)


def oracle_difference(fc: FatCover, grid_depth: int) -> tuple[Fraction, bool]:
    """(diff, equal) between the cover's U and the prefix-mass oracle on the
    2^-grid_depth grid plus the fat-interval endpoints, degenerate parts
    dropped from both: the measure of their symmetric difference, and
    whether the two sets are equal."""
    extras = [x for iv in fc.fat_intervals for x in (iv.lo, iv.hi)]
    oracle = brute_force_low_density_oracle(fc.class_set, fc.epsilon, grid_depth, extras)
    a, b = fc.U.drop_degenerate(), oracle.drop_degenerate()
    return a.subtract(b).measure + b.subtract(a).measure, a == b
