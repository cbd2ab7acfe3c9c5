"""Exact martingales, slope martingales, strategy constructions, conditions.

A martingale here is a total map from bit strings to rationals with the
fairness identity M(s) = (M(s0) + M(s1))/2, checked exactly to whatever depth
a caller cares about.  Values may be negative for slope martingales (betting
with debt); every construction that promises nonnegativity gets it checked.

Each martingale is defined once, by its level rows, kept as runs:
rows(base, k) returns (d, runs), each run (first, last, num) meaning the
value num / d at base + s for the i-th string s of length k in lexicographic
order, first <= i <= last.  The runs cover 0..2^k - 1 in order, and no two
neighbours share a value, so a row costs its number of constant stretches,
not 2^k.  ``Martingale.value`` reads the row at k = 0.  Table martingales
window their tabulated runs, a martingale that stops betting scales its last
betting row's runs, ``combine_scaled`` and ``cap_at`` walk the overlaps of
their operands' runs, and the slope martingale of a PiecewiseLinear on [0,1]
has one run per stretch of cylinders inside one of its segments, with only
the cylinders across a breakpoint worked out one by one.  Fairness,
integration, the forcing extension certificate
(``condition_extension_violations``) and the savings search
(``savings_extension``) compare runs with a threshold q by integer
cross-multiplication.  Output with one item per string writes a row out
densely: claim 5's windows (``claim5_density_records``) write out M's row at
their leaves, the anti-debt capitals table reads ``Martingale.approx_level``,
and only the unwired ``negativity_witnesses`` reads ``Martingale.level``.
Only the walk ``diagonalize_against`` goes string by string, through
``value``.

The approximation adapter is a row kernel too: adapter(base, k, n) gives, as
runs, the index-n Cauchy approximants M(t)_n, with |M(t)_n - M(t)| <= 2^-n,
of the strings of ``runs(base, k)``.  Without one the approximant is the
exact value; ``with_floor_adapter`` gives a genuinely rounded one so the
index-0 tests exercise the approximation path.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable

from .bits import (
    ONE,
    ZERO,
    all_strings,
    format_rational,
    is_prefix,
    over_common_denominator,
    parse_nonnegative_int,
    parse_rational,
    string_at,
    string_index,
    validate_bits,
)
from .errors import BudgetExhausted, DomainError, Frozen, SchemaError
from .piecewise import PiecewiseLinear, overlaps
from .report import Check


Run = tuple[int, int, int]  # (first, last, num): num / d at indices first..last
Row = tuple[int, list[Run]]
Rows = Callable[[str, int], Row]


def _merged(pieces: Iterable[tuple]) -> list[tuple]:
    """Consecutive pieces (first, last, value) as runs: neighbours with equal
    values joined."""
    out: list[tuple] = []
    for first, last, v in pieces:
        if out and out[-1][2] == v:
            out[-1] = (out[-1][0], last, v)
        else:
            out.append((first, last, v))
    return out


def _runs_of(nums: list[int]) -> list[Run]:
    """The runs of a written-out row."""
    return _merged((i, i, x) for i, x in enumerate(nums))


def _scaled(runs: list[tuple], shift: int) -> list[tuple]:
    """Runs at a level shift deeper: every index stands for its 2^shift
    extensions."""
    return [(first << shift, ((last + 1) << shift) - 1, v) for first, last, v in runs]


def _window(runs: list[tuple], start: int, count: int) -> list[tuple]:
    """The runs of indices start..start + count - 1, counted from start."""
    end = start + count - 1
    i = bisect_right(runs, start, key=itemgetter(0)) - 1
    out = []
    while i < len(runs) and runs[i][0] <= end:
        first, last, v = runs[i]
        out.append((max(first, start) - start, min(last, end) - start, v))
        i += 1
    return out


def _dense(row: Row) -> tuple[int, list[int]]:
    """A run row written out, one entry per string."""
    d, runs = row
    nums: list[int] = []
    for first, last, num in runs:
        nums += [num] * (last - first + 1)
    return d, nums


class Martingale:
    """A martingale given by its level rows as runs, plus an optional
    approximation adapter; immutable.

    rows(base, k) returns (d, runs), d > 0, each run (first, last, num)
    giving the value num / d at base + s for the i-th string s of length k in
    lexicographic order, first <= i <= last; the runs cover 0..2^k - 1 in
    order and neighbours differ.  It raises ``DomainError`` where the
    martingale is not defined.  adapter(base, k, n) returns the index-n
    approximants of the same strings as such a row.
    """

    def __init__(self, rows: Rows, adapter: Callable[[str, int, int], Row] | None = None):
        self._rows = rows
        self._adapter = adapter

    def runs(self, base: str, k: int) -> Row:
        """(d, runs): the values at the extensions of base of length k."""
        validate_bits(base)
        if k < 0:
            raise DomainError(f"negative length {k}")
        return self._rows(base, k)

    def level(self, base: str, k: int) -> tuple[int, list[int]]:
        """(d, nums) with nums[i] / d == value(base + s), s the i-th string of
        length k in lexicographic order: ``runs`` written out, for output
        with one item per string."""
        return _dense(self.runs(base, k))

    def value(self, tau: str) -> Fraction:
        d, [(_, _, num)] = self.runs(tau, 0)
        return Fraction(num, d)

    def approx_level(self, base: str, k: int, n: int) -> tuple[int, list[int]]:
        """The index-n approximants of ``level(base, k)``, each within 2^-n of
        its value; the exact row when no adapter is set."""
        exact = self.runs(base, k)
        if self._adapter is None:
            return _dense(exact)
        (d, want), (e, got) = exact, self._adapter(base, k, n)
        # |x / e - y / d| <= 2^-n, cross-multiplied
        for first, _, (_, _, x), (_, _, y) in overlaps(got, want):
            if abs(x * d - y * e) << n > d * e:
                raise DomainError(
                    f"adapter broke its 2^-{n} error bound at {base + string_at(first, k)!r}"
                )
        return _dense((e, got))


def with_floor_adapter(m: Martingale) -> Martingale:
    """m with its approximants rounded down to the 2^-n grid (error < 2^-n)."""

    def floor_rows(base: str, k: int, n: int) -> Row:
        d, runs = m.runs(base, k)
        return 1 << n, _merged((first, last, (x << n) // d) for first, last, x in runs)

    return Martingale(m.runs, floor_rows)


def fairness_violations(m: Martingale, depth: int) -> list[str]:
    """Strings sigma, |sigma| < depth, breaking fairness.

    Checked on consecutive run rows: with the parent row over d and the
    child row over e, node i is fair iff 2 A[i] e == d (B[2i] + B[2i+1]).
    The parent runs, doubled, are walked against the child runs: on each
    overlap, parent value a and child value b, the nodes with both children
    inside it share one check, a e == d b; a node whose two children lie in
    different child runs is checked alone.  Only a bad node gets its string
    built.
    """
    bad: list[str] = []
    if depth <= 0:
        return bad
    d, parents = m.runs("", 0)
    for k in range(depth):
        e, kids = m.runs("", k + 1)
        prev = 0
        for first, last, (_, _, a), (_, _, b) in overlaps(_scaled(parents, 1), kids):
            if first & 1:  # node first // 2 has its children on both sides
                if 2 * a * e != d * (prev + b):
                    bad.append(string_at(first >> 1, k))
            lo, hi = (first + 1) >> 1, (last + 1) >> 1  # nodes with both children here
            if lo < hi and a * e != d * b:
                bad.extend(string_at(i, k) for i in range(lo, hi))
            prev = b
        d, parents = e, kids
    return bad


def negativity_witnesses(m: Martingale, depth: int, base: str = "") -> list[str]:
    """Strings base + s, |s| <= depth, where M is negative: one level row per
    length, and only a negative entry gets its string built."""
    found: list[str] = []
    for k in range(depth + 1):
        _, row = m.level(base, k)
        found.extend(base + string_at(i, k) for i, x in enumerate(row) if x < 0)
    return found


def _held_past(depth: int, rows: Rows) -> Rows:
    """The rows of a martingale that stops betting at length depth: past it
    each value of ``rows`` repeats for every extension."""

    def held(base: str, k: int) -> Row:
        if len(base) >= depth:
            d, [(_, _, num)] = rows(base[:depth], 0)
            return d, [(0, (1 << k) - 1, num)]
        j = min(k, depth - len(base))
        d, runs = rows(base, j)
        return d, _scaled(runs, k - j)

    return held


def _tabulated(levels: list[Row], skip: int) -> Rows:
    """The rows of a table of run levels: levels[j] holds the strings of
    length j below a prefix of length skip, which every base carries."""

    def rows(base: str, k: int) -> Row:
        below = base[skip:]
        den, runs = levels[len(below) + k]
        return den, _window(runs, string_index(below) << k, 1 << k)

    return rows


class TableMartingale(Martingale):
    """Martingale given by a value table on all strings to a depth.

    Beyond the table the last tabulated prefix's value continues (the player
    stops betting), which keeps fairness exact at every depth.
    """

    def __init__(self, table: dict[str, Fraction], depth: int):
        for k in range(depth + 1):
            for s in all_strings(k):
                if s not in table:
                    raise DomainError(f"table missing string {s!r} at depth {k}")
        if len(table) >= 2 << depth:
            stray = next(
                s for s in table if not isinstance(s, str) or s.strip("01") or len(s) > depth
            )
            raise DomainError(
                f"table key {stray!r} is not a bit string of length at most {depth}"
            )
        bad = [
            s
            for k in range(depth)
            for s in all_strings(k)
            if table[s] * 2 != table[s + "0"] + table[s + "1"]
        ]
        if bad:
            raise DomainError(f"table is not fair at {bad[:3]}")
        self.table = {s: Fraction(v) for s, v in table.items()}
        self.depth = depth
        # level j of the table: its 2^j values over one denominator, as runs
        levels = []
        for j in range(depth + 1):
            den, nums = over_common_denominator([self.table[s] for s in all_strings(j)])
            levels.append((den, _runs_of(nums)))
        super().__init__(_held_past(depth, _tabulated(levels, 0)))

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "values": {s: format_rational(v) for s, v in sorted(self.table.items())},
        }

    @classmethod
    def from_json(cls, payload) -> "TableMartingale":
        if not isinstance(payload, dict) or not isinstance(payload.get("values"), dict):
            raise SchemaError("martingale must be an object with a 'values' table")
        depth = parse_nonnegative_int(payload.get("depth"), "martingale 'depth'")
        return cls({s: parse_rational(v) for s, v in payload["values"].items()}, depth)


def slope_martingale(g: PiecewiseLinear, depth: int) -> Martingale:
    """tau -> slope of g over Cyl tau for |tau| <= depth; exact, fair,
    possibly negative.

    g is a PiecewiseLinear whose domain covers [0,1].  Rows are read from
    ``g.grid_progressions(depth)``, built on first use: the cylinders whose
    both ends lie on one piece (first, last, start, step) form one run of
    slope step 2^depth, and only a cylinder across the gap between two
    pieces is worked out from its two ends, so a row costs the pieces it
    meets, not 2^depth.
    """
    if not (isinstance(g, PiecewiseLinear) and g.lo <= 0 and g.hi >= 1):
        raise DomainError("slope martingale needs a PiecewiseLinear covering [0,1]")
    grid: list[tuple[int, list[tuple[int, int, int, int]], list[int]]] = []

    def rows(base: str, k: int) -> Row:
        n = len(base) + k
        if n > depth:
            raise DomainError(f"slope oracle only certified to depth {depth}")
        if not grid:
            den, pieces = g.grid_progressions(depth)
            grid.append((den, pieces, [piece[0] for piece in pieces]))
        den, pieces, firsts = grid[0]

        def at(x: int) -> int:
            """g at grid point x, times den."""
            first, _, start, step = pieces[bisect_right(firsts, x) - 1]
            return start + step * (x - first)

        # Cyl of the i-th string of length n spans grid points i 2^shift to
        # (i + 1) 2^shift; its slope is the rise over them times 2^n
        shift = depth - n
        lo = string_index(base) << k
        end = lo + (1 << k)
        runs: list[Run] = []
        i, p = lo, bisect_right(firsts, lo << shift) - 1
        while i < end:
            _, last, _, step = pieces[p]
            inside = min(last >> shift, end)  # strings i..inside - 1 lie on piece p
            if inside > i:
                runs.append((i - lo, inside - 1 - lo, step << depth))
                i = inside
            if i < end:  # i's cylinder starts on piece p and ends past it
                runs.append((i - lo, i - lo, (at((i + 1) << shift) - at(i << shift)) << n))
                i += 1
                p = bisect_right(firsts, i << shift, lo=p) - 1
        return den, _merged(runs)

    return Martingale(rows)


def _leaf_runs(m: Martingale, tau0: str, depth: int) -> Row:
    """M's row at the extensions of tau0 of length depth; no entry negative."""
    validate_bits(tau0)
    if depth < len(tau0):
        raise DomainError(f"depth {depth} shallower than |tau0| = {len(tau0)}")
    k = depth - len(tau0)
    den, leaves = m.runs(tau0, k)
    for first, _, num in leaves:
        if num < 0:
            raise DomainError(
                f"negative martingale value {Fraction(num, den)} at {tau0 + string_at(first, k)!r}"
            )
    return den, leaves


def martingale_to_function(m: Martingale, tau0: str, depth: int) -> PiecewiseLinear:
    """Integrate M over Cyl tau0: slope of the result over Cyl rho is M(rho).

    The base value is 0 at 0.tau0 and each leaf rho of length depth
    contributes M(rho) 2^-depth.  Rejects negative values: the result is
    promised nondecreasing and Lipschitz with constant max M.  Breakpoints
    sit at the ends of the leaf row's runs, the values their running sums.
    """
    den, leaves = _leaf_runs(m, tau0, depth)
    k0 = string_index(tau0) << (depth - len(tau0))
    ks = [k0 + first for first, _, _ in leaves] + [k0 + leaves[-1][1] + 1]
    js = [0, *accumulate(num * (last - first + 1) for first, last, num in leaves)]
    return PiecewiseLinear.from_numerators(1 << depth, ks, den << depth, js)


def combine_scaled(m: Martingale, n: Martingale, sigma: str, delta: Fraction) -> Martingale:
    """M + 2^-|sigma| delta N, the capital-injection step of the forcing proof."""
    validate_bits(sigma)
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if n.value("") != 1:
        raise DomainError(f"N must start with capital 1, got {n.value('')}")
    scale = Fraction(1, 1 << len(sigma)) * delta
    sn, sd = scale.numerator, scale.denominator

    def rows(base: str, k: int) -> Row:
        (da, a), (db, b) = m.runs(base, k), n.runs(base, k)
        # a / da + scale * b / db over den = lcm(da, sd db)
        den = lcm(da, sd * db)
        fa, fb = den // da, sn * (den // (sd * db))
        return den, _merged((first, last, x * fa + y * fb)
                            for first, last, (_, _, x), (_, _, y) in overlaps(a, b))

    return Martingale(rows)


def diagonalize_against(m: Martingale, sigma: str, q: Fraction, length: int) -> str:
    """Extend sigma to the given length always taking the cheaper child.

    Fairness keeps the minimum child at or below the parent, so the whole
    path stays strictly below q; that is re-checked exactly at every step.
    """
    validate_bits(sigma)
    if length < len(sigma):
        raise DomainError(f"length {length} shorter than |sigma| = {len(sigma)}")
    if m.value(sigma) >= q:
        raise DomainError(f"M(sigma) = {m.value(sigma)} is not below q = {q}")
    tau = sigma
    while len(tau) < length:
        v0, v1 = m.value(tau + "0"), m.value(tau + "1")
        tau += "0" if v0 <= v1 else "1"
        if m.value(tau) >= q:
            raise DomainError(
                f"min child {m.value(tau)} at {tau!r} reached q = {q}: M is unfair"
            )
    return tau


def cap_at(m: Martingale, q: Fraction) -> Martingale:
    """Stop betting at the first prefix whose value exceeds q + 1.

    On the frozen subtree the value stays at the first-exceed value, so the
    cap is fair and never exceeds its pre-cap value there.
    """

    cap = q + 1

    def rows(base: str, k: int) -> Row:
        # a proper prefix of base above the cap freezes everything below it
        for i in range(len(base)):
            v = m.value(base[:i])
            if v > cap:
                return v.denominator, [(0, (1 << k) - 1, v.numerator)]
        # each node above the cap with no such prefix freezes its subtree:
        # held is a level's runs of the frozen value (num, den), None where
        # nothing above has frozen
        held: list[tuple] = [(0, 0, None)]
        for j in range(k + 1):
            e, row = m.runs(base, j)
            t = cap.numerator * e // cap.denominator  # x / e > cap iff x > t
            held = _merged((first, last, (x, e) if v is None and x > t else v)
                           for first, last, (_, _, v), (_, _, x) in overlaps(held, row))
            if j < k:
                held = _scaled(held, 1)
        den = lcm(e, *(v[1] for *_, v in held if v is not None))
        return den, _merged(
            (first, last, x * (den // e) if v is None else v[0] * (den // v[1]))
            for first, last, (_, _, v), (_, _, x) in overlaps(held, row)
        )

    return Martingale(rows)


def _on_cone(sigma: str, outside: Fraction, rows: Rows) -> Rows:
    """The rows that follow ``rows`` on the extensions of sigma and hold the
    constant outside everywhere else."""
    on, od = outside.numerator, outside.denominator

    def kernel(base: str, k: int) -> Row:
        if is_prefix(sigma, base):
            return rows(base, k)
        n = len(base) + k
        if n < len(sigma) or not is_prefix(base, sigma):
            return od, [(0, (1 << k) - 1, on)]
        # base is a proper prefix of sigma: the extensions of sigma fill one
        # stretch of the row
        d, inner = rows(sigma, n - len(sigma))
        den = lcm(d, od)
        out = on * (den // od)
        start = int(sigma[len(base) :], 2) << (n - len(sigma))
        end = start + (1 << (n - len(sigma)))
        runs = [(0, start - 1, out)] if start else []
        runs += [(first + start, last + start, x * (den // d)) for first, last, x in inner]
        if end < 1 << k:
            runs.append((end, (1 << k) - 1, out))
        return den, _merged(runs)

    return kernel


def anti_debt_strategy(sg: Martingale, sigma: str, mode: int, depth: int) -> Martingale:
    """The nonnegative strategies of the slope-martingale dichotomy.

    A node's low child is its first child whose index-0 approximant of S_g
    is at most 1.  Case 1 (a low child exists within depth): start with
    capital 1 at sigma, put everything on the sibling of the low child at
    each node that has one, abandon the low child's subtree.  Case 2 (no low
    child within depth): copy S_g, which then never meets a low child, and
    freeze past depth.  Off the cone of sigma the value is the starting
    capital, which keeps global fairness.  The requested mode must match the
    detected pattern.

    Both are built level by level from S_g's approximant rows below sigma;
    case 1's capitals (integers, one row per length to depth) are tabulated
    here.
    """
    validate_bits(sigma)
    if mode not in (1, 2):
        raise DomainError(f"mode must be 1 or 2, got {mode}")
    if depth < len(sigma):
        raise DomainError("depth must reach at least sigma")
    # caps[j]: case 1's capital at the extensions of sigma of length j
    caps, first_low = [[1]], None
    for j in range(depth - len(sigma)):
        d, kids = sg.approx_level(sigma, j + 1, 0)
        row: list[int] = []
        for i, c in enumerate(caps[-1]):
            low0, low1 = kids[2 * i] <= d, kids[2 * i + 1] <= d
            if first_low is None and (low0 or low1):
                first_low = sigma + string_at(i, j)
            row += (0, 2 * c) if low0 else (2 * c, 0) if low1 else (c, c)
        caps.append(row)
    if mode == 1 and first_low is None:
        raise DomainError(f"mode 1 requested but no low child found to depth {depth}")
    if mode == 2 and first_low is not None:
        raise DomainError(
            f"mode 2 requested but {first_low!r} has a low child within depth {depth}"
        )

    if mode == 1:
        capitals = _tabulated([(1, _runs_of(row)) for row in caps], len(sigma))
        return Martingale(_on_cone(sigma, ONE, _held_past(depth, capitals)))

    start = sg.value(sigma)
    if start < 0:
        raise DomainError(
            f"mode 2 needs S_g(sigma) >= 0, got {start}: pattern mismatch"
        )
    return Martingale(_on_cone(sigma, start, _held_past(depth, sg.runs)))


class Condition(Frozen):
    """Forcing condition <sigma, M, q>; valid only while M(sigma) < q."""

    __slots__ = ("sigma", "martingale", "q")

    def __init__(self, sigma: str, martingale: Martingale, q: Fraction):
        validate_bits(sigma)
        v = martingale.value(sigma)
        if v >= q:
            raise DomainError(f"invalid condition: M({sigma!r}) = {v} >= q = {q}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "martingale", martingale)
        object.__setattr__(self, "q", q)


def condition_extension_violations(c2: Condition, c1: Condition, depth: int) -> list[str]:
    """Reasons c2 fails to extend c1, checked exhaustively to depth.

    The implication M2(tau) < q2 => M1(tau) < q1 is checked below sigma2 on
    the overlaps of the two martingales' run rows, one row of each per
    length: x / e < q iff x q.den < q.num e.  Only the first tau where it
    fails gets its string built.
    """
    problems = []
    if not is_prefix(c1.sigma, c2.sigma):
        problems.append(f"{c2.sigma!r} does not extend {c1.sigma!r}")
        return problems
    if c2.q > c1.q:
        problems.append(f"q' = {c2.q} exceeds q = {c1.q}")
    for i in range(len(c1.sigma), len(c2.sigma) + 1):
        rho = c2.sigma[:i]
        if c1.martingale.value(rho) >= c1.q:
            problems.append(f"base martingale reaches q on the chain at {rho!r}")
    sigma = c2.sigma
    (n2, d2), (n1, d1) = c2.q.as_integer_ratio(), c1.q.as_integer_ratio()
    for k in range(depth - len(sigma) + 1):
        (e2, row2), (e1, row1) = c2.martingale.runs(sigma, k), c1.martingale.runs(sigma, k)
        t2, t1 = n2 * e2, n1 * e1
        bad = next((first for first, _, (_, _, x), (_, _, y) in overlaps(row2, row1)
                    if x * d2 < t2 and y * d1 >= t1), None)
        if bad is not None:
            problems.append(f"implication fails at {sigma + string_at(bad, k)!r}")
            return problems
    return problems


def condition_extends(c2: Condition, c1: Condition, depth: int) -> bool:
    """Depth-bounded certificate for the forcing extension relation."""
    return not condition_extension_violations(c2, c1, depth)


class SavingsExtension(Frozen):
    __slots__ = ("tau", "r", "s", "d_hat", "reachable_min", "search_depth", "condition")

    def __init__(self, tau: str, r: Fraction, s: Fraction, d_hat: Fraction,
                 reachable_min: Fraction, search_depth: int, condition: Condition):
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d_hat", d_hat)
        object.__setattr__(self, "reachable_min", reachable_min)
        object.__setattr__(self, "search_depth", search_depth)
        object.__setattr__(self, "condition", condition)


def savings_extension(cond: Condition, eps: Fraction, search_depth: int) -> SavingsExtension:
    """Find tau realizing (almost) the depth-bounded savings of M below q.

    d_hat is the exact minimum of M over all extensions of sigma to
    search_depth, reachable or not.  tau is the shortest, then leftmost,
    reachable extension (every intermediate value < q) attaining the
    reachable minimum, required to lie below d_hat + eps (q - d_hat); r and s
    sit at thirds of the remaining gap, so M(tau) < r < s and
    s - d_hat <= eps (q - d_hat) hold exactly.  When the reachable minimum
    does not qualify (the true argmin hides behind a q-wall), that is
    reported as exhaustion with the achieved minimum, not papered over.

    Both minima are read from the run rows of ``Martingale.runs``, one
    Fraction per level.  A live mask, itself runs of flags, marks the
    reachable nodes of a level: a node is live when its parent is live and
    its value is below q.
    """
    if not ZERO < eps < 1:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    m, q, sigma = cond.martingale, cond.q, cond.sigma
    if search_depth < len(sigma):
        raise DomainError("search_depth must reach sigma")
    qn, qd = q.as_integer_ratio()
    d_hat: Fraction | None = None
    reach_min: Fraction | None = None
    best_tau: str | None = None
    live = [(0, 0, True)]  # the parent flags of the current level
    for k in range(search_depth - len(sigma) + 1):
        d, row = m.runs(sigma, k)
        low = Fraction(min(x for *_, x in row), d)
        if d_hat is None or low < d_hat:
            d_hat = low
        t = qn * d  # x / d < q iff x qd < t
        pieces = [(first, last, p and x * qd < t, x)
                  for first, last, (_, _, p), (_, _, x) in overlaps(live, row)]
        live = _scaled(_merged((first, last, p) for first, last, p, _ in pieces), 1)
        reached = [(x, first) for first, _, p, x in pieces if p]
        if reached:
            x, i = min(reached)
            v = Fraction(x, d)
            if reach_min is None or v < reach_min:
                reach_min, best_tau = v, sigma + string_at(i, k)
    if reach_min is None or best_tau is None:
        raise BudgetExhausted(
            f"no extension of {sigma!r} stays below q = {q}", achieved=None
        )
    cap = d_hat + eps * (q - d_hat)
    if reach_min >= cap:
        raise BudgetExhausted(
            f"no qualifying tau within depth {search_depth}: reachable minimum "
            f"{reach_min} is not below d_hat + eps (q - d_hat) = {cap}",
            achieved=reach_min,
        )
    gap = cap - reach_min
    r = reach_min + gap / 3
    s = reach_min + 2 * gap / 3
    return SavingsExtension(
        best_tau, r, s, d_hat, reach_min, search_depth, Condition(best_tau, m, r)
    )


def claim5_density_records(
    m: Martingale,
    tau: str,
    q: Fraction,
    s: Fraction,
    eps: Fraction,
    depth: int,
) -> list[Check]:
    """Exact window checks for the savings claim.

    D is the union of minimal cylinders above tau, to length depth, where M
    reaches q; for each basic dyadic window inside Cyl tau of depth at most
    depth whose slope of the integrated function stays below s, the relative
    measure of D in the window must stay within eps.

    A window's slope is the mean of its leaves, the extensions of tau of
    length depth, written out one per string.  D is a union of leaves: those
    below a run of some level row where M >= q.  Both are read from prefix
    sums over the leaves.
    """
    den, leaves = _dense(_leaf_runs(m, tau, depth))
    k = depth - len(tau)
    qn, qd = q.as_integer_ratio()
    marked = bytearray(1 << k)
    for j in range(k + 1):
        d, row = m.runs(tau, j)
        t = qn * d  # x / d >= q iff x qd >= t
        for first, last, x in _scaled(row, k - j):
            if x * qd >= t:
                marked[first : last + 1] = b"\x01" * (last + 1 - first)
    sums, counts = [0, *accumulate(leaves)], [0, *accumulate(marked)]
    sn, sd = s.as_integer_ratio()
    start = string_index(tau)
    records = []
    for j in range(k + 1):
        width = 1 << (k - j)  # leaves per window
        for i in range(1 << j):
            lo, hi = i * width, (i + 1) * width
            total = sums[hi] - sums[lo]
            # slope = total / (den width) < s, cross-multiplied
            if total * sd >= sn * den * width:
                continue
            a = Fraction((start << j) + i, 1 << (len(tau) + j))
            b = a + Fraction(1, 1 << (len(tau) + j))
            slope = Fraction(total, den * width)
            rel = Fraction(counts[hi] - counts[lo], width)
            records.append(Check(f"window [{a},{b}] slope {slope} < s", rel, eps, rel <= eps))
    return records


class ForcingStep(Frozen):
    __slots__ = ("kind", "condition", "extends_ok", "payload")

    def __init__(self, kind: str, condition: Condition, extends_ok: bool, payload: dict):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "extends_ok", extends_ok)
        object.__setattr__(self, "payload", payload)


def forcing_chain(start: Condition, steps, check_depth: int) -> list[ForcingStep]:
    """Meet a finite list of dense-set targets, verifying each extension.

    steps is a sequence of ("length", n), ("claim3", N) or
    ("savings", eps, search_depth); each produced condition is checked
    against its predecessor with the depth-bounded extension certificate.
    """
    chain: list[ForcingStep] = []
    cur = start
    for spec in steps:
        kind = spec[0]
        if kind == "length":
            n = spec[1]
            tau = diagonalize_against(cur.martingale, cur.sigma, cur.q, n)
            new = Condition(tau, cur.martingale, cur.q)
            payload = {"length": n}
        elif kind == "claim3":
            n_mart = spec[1]
            gap = cur.q - cur.martingale.value(cur.sigma)
            weight = Fraction(1, 1 << len(cur.sigma)) * n_mart.value(cur.sigma)
            delta = gap / (2 * (1 + weight))
            combined = combine_scaled(cur.martingale, n_mart, cur.sigma, delta)
            new = Condition(cur.sigma, combined, cur.q)
            payload = {"delta": delta}
        elif kind == "savings":
            ext = savings_extension(cur, spec[1], spec[2])
            new = ext.condition
            payload = {"r": ext.r, "s": ext.s, "d_hat": ext.d_hat}
        else:
            raise DomainError(f"unknown forcing step {kind!r}")
        ok = condition_extends(new, cur, check_depth)
        chain.append(ForcingStep(kind, new, ok, payload))
        cur = new
    return chain
