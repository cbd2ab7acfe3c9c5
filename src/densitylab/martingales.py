"""Exact martingales, slope martingales, strategy constructions, conditions.

A martingale here is a total map from bit strings to rationals with the
fairness identity M(s) = (M(s0) + M(s1))/2, checked exactly to whatever depth
a caller cares about.  Values may be negative for slope martingales (betting
with debt); every construction that promises nonnegativity gets it checked.

Each martingale is defined once, by its level rows: rows(base, k) returns
(d, nums) with nums[i] / d the value at base + s for the i-th string s of
length k in lexicographic order, and ``Martingale.value`` reads the row at
k = 0.  Table martingales slice their tabulated rows, ``combine_scaled`` and
``cap_at`` build theirs from their operands' rows, the slope martingale of a
PiecewiseLinear on [0,1] takes differences of one grid row, and the anti-debt
strategies are built level by level from S_g's rows, none with a Fraction per
string.  Fairness, integration, the forcing extension certificate
(``condition_extension_violations``) and the savings search
(``savings_extension``) compare rows with a threshold q by integer
cross-multiplication, and claim 5's windows (``claim5_density_records``) are
read from one leaf row and a mask of the leaves where M has reached q.  Only
the walk ``diagonalize_against`` goes string by string, through ``value``.

The approximation adapter is a row kernel too: adapter(base, k, n) gives the
index-n Cauchy approximants M(t)_n, with |M(t)_n - M(t)| <= 2^-n, of the
strings of ``level(base, k)``.  Without one the approximant is the exact
value; ``with_floor_adapter`` gives a genuinely rounded one so the index-0
tests exercise the approximation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable

from .bits import (
    ONE,
    ZERO,
    all_strings,
    format_rational,
    is_prefix,
    over_common_denominator,
    parse_rational,
    validate_bits,
)
from .errors import BudgetExhausted, DomainError, SchemaError
from .piecewise import PiecewiseLinear


Row = tuple[int, list[int]]
Rows = Callable[[str, int], Row]


def _string(base: str, i: int, k: int) -> str:
    """base + the i-th string of length k in lexicographic order."""
    return base + format(i, f"0{k}b") if k else base


class Martingale:
    """A martingale given by its level rows, plus an optional approximation
    adapter; immutable.

    rows(base, k) returns (d, nums), d > 0, with nums[i] / d the value at
    base + s for the i-th string s of length k in lexicographic order, and
    raises ``DomainError`` where the martingale is not defined.
    adapter(base, k, n) returns the index-n approximants of the same strings
    as a row.
    """

    def __init__(self, rows: Rows, adapter: Callable[[str, int, int], Row] | None = None):
        self._rows = rows
        self._adapter = adapter

    def level(self, base: str, k: int) -> Row:
        """(d, nums) with nums[i] / d == value(base + s), s the i-th string of
        length k in lexicographic order; d > 0."""
        validate_bits(base)
        if k < 0:
            raise DomainError(f"negative length {k}")
        return self._rows(base, k)

    def value(self, tau: str) -> Fraction:
        d, (num,) = self.level(tau, 0)
        return Fraction(num, d)

    def __call__(self, tau: str) -> Fraction:
        return self.value(tau)

    def approx_level(self, base: str, k: int, n: int) -> Row:
        """The index-n approximants of ``level(base, k)``, each within 2^-n of
        its value; the exact row when no adapter is set."""
        d, exact = self.level(base, k)
        if self._adapter is None:
            return d, exact
        e, got = self._adapter(base, k, n)
        # |x / e - y / d| <= 2^-n, cross-multiplied
        for i, (x, y) in enumerate(zip(got, exact)):
            if abs(x * d - y * e) << n > d * e:
                raise DomainError(
                    f"adapter broke its 2^-{n} error bound at {_string(base, i, k)!r}"
                )
        return e, got


def with_floor_adapter(m: Martingale) -> Martingale:
    """m with its approximants rounded down to the 2^-n grid (error < 2^-n)."""

    def floor_rows(base: str, k: int, n: int) -> Row:
        d, nums = m.level(base, k)
        return 1 << n, [(x << n) // d for x in nums]

    return Martingale(m.level, floor_rows)


def fairness_violations(m: Martingale, depth: int) -> list[str]:
    """Strings sigma, |sigma| < depth, breaking fairness.

    Checked on consecutive integer rows of ``Martingale.level``: with the
    parent row over d and the child row over e, node i is fair iff
    2 A[i] e == d (B[2i] + B[2i+1]).  Only a bad node gets its string built.
    """
    bad: list[str] = []
    if depth <= 0:
        return bad
    d, parents = m.level("", 0)
    for k in range(depth):
        e, kids = m.level("", k + 1)
        e2 = 2 * e
        bad.extend(
            _string("", i, k)
            for i, (a, b, c) in enumerate(zip(parents, kids[::2], kids[1::2]))
            if a * e2 != d * (b + c)
        )
        d, parents = e, kids
    return bad


def negativity_witnesses(m: Martingale, depth: int, base: str = "") -> list[str]:
    """Strings base + s, |s| <= depth, where M is negative: one level row per
    length, and only a negative entry gets its string built."""
    found: list[str] = []
    for k in range(depth + 1):
        _, row = m.level(base, k)
        found.extend(_string(base, i, k) for i, x in enumerate(row) if x < 0)
    return found


def _held_past(depth: int, rows: Rows) -> Rows:
    """The rows of a martingale that stops betting at length depth: past it
    each value of ``rows`` repeats for every extension."""

    def held(base: str, k: int) -> Row:
        if len(base) >= depth:
            d, row = rows(base[:depth], 0)
            return d, row * (1 << k)
        j = min(k, depth - len(base))
        d, row = rows(base, j)
        repeat = 1 << (k - j)
        return d, row if repeat == 1 else [v for v in row for _ in range(repeat)]

    return held


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
        # row j of the table: its 2^j values over one denominator
        levels = [
            over_common_denominator([self.table[s] for s in all_strings(j)])
            for j in range(depth + 1)
        ]

        def tabulated(base: str, k: int) -> Row:
            den, row = levels[len(base) + k]
            start = int(base, 2) << k if base else 0
            return den, row[start : start + (1 << k)]

        super().__init__(_held_past(depth, tabulated))

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "values": {s: format_rational(v) for s, v in sorted(self.table.items())},
        }

    @classmethod
    def from_json(cls, payload) -> "TableMartingale":
        if not isinstance(payload, dict) or not isinstance(payload.get("values"), dict):
            raise SchemaError("martingale must be an object with a 'values' table")
        depth = payload.get("depth")
        if type(depth) is not int or depth < 0:
            raise SchemaError(f"martingale 'depth' must be a non-negative integer, got {depth!r}")
        return cls({s: parse_rational(v) for s, v in payload["values"].items()}, depth)


def slope_martingale(g: PiecewiseLinear, depth: int) -> Martingale:
    """tau -> slope of g over Cyl tau for |tau| <= depth; exact, fair,
    possibly negative.

    g is a PiecewiseLinear whose domain covers [0,1].  Levels are differences
    of one ``grid_numerators(depth)`` row (2^depth + 1 integers, built on
    first use).
    """
    if not (isinstance(g, PiecewiseLinear) and g.lo <= 0 and g.hi >= 1):
        raise DomainError("slope martingale needs a PiecewiseLinear covering [0,1]")
    grid: list[Row] = []

    def rows(base: str, k: int) -> Row:
        n = len(base) + k
        if n > depth:
            raise DomainError(f"slope oracle only certified to depth {depth}")
        if not grid:
            grid.append(g.grid_numerators(depth))
        den, row = grid[0]
        # Cyl(base + s) spans 2^(depth - n) grid steps; its slope is the
        # rise over them times 2^n
        start = int(base, 2) << (depth - len(base)) if base else 0
        ends = row[start : start + (1 << (depth - len(base))) + 1 : 1 << (depth - n)]
        return den, [(b - a) << n for a, b in zip(ends, ends[1:])]

    return Martingale(rows)


def _leaf_row(m: Martingale, tau0: str, depth: int) -> Row:
    """M's row at the extensions of tau0 of length depth; no entry negative."""
    validate_bits(tau0)
    if depth < len(tau0):
        raise DomainError(f"depth {depth} shallower than |tau0| = {len(tau0)}")
    k = depth - len(tau0)
    den, leaves = m.level(tau0, k)
    if min(leaves) < 0:
        i = next(i for i, v in enumerate(leaves) if v < 0)
        raise DomainError(
            f"negative martingale value {Fraction(leaves[i], den)} at {_string(tau0, i, k)!r}"
        )
    return den, leaves


def martingale_to_function(m: Martingale, tau0: str, depth: int) -> PiecewiseLinear:
    """Integrate M over Cyl tau0: slope of the result over Cyl rho is M(rho).

    The base value is 0 at 0.tau0 and each leaf rho of length depth
    contributes M(rho) 2^-depth.  Rejects negative values: the result is
    promised nondecreasing and Lipschitz with constant max M.
    """
    den, leaves = _leaf_row(m, tau0, depth)
    k = depth - len(tau0)
    # breakpoints on the 2^-depth grid; values the prefix sums of the leaves
    k0 = int(tau0, 2) << k if tau0 else 0
    return PiecewiseLinear.from_numerators(
        1 << depth, list(range(k0, k0 + len(leaves) + 1)), den << depth, [0, *accumulate(leaves)]
    )


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
        (da, a), (db, b) = m.level(base, k), n.level(base, k)
        # a / da + scale * b / db over den = lcm(da, sd db)
        den = lcm(da, sd * db)
        fa, fb = den // da, sn * (den // (sd * db))
        return den, [x * fa + y * fb for x, y in zip(a, b)]

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
                return v.denominator, [v.numerator] * (1 << k)
        # each node above the cap with no such prefix freezes its subtree,
        # a range of the level-k row; held marks the frozen nodes of a level
        firsts: list[tuple[int, int, int, int]] = []  # (level, index, num, den)
        held = bytearray(1)
        for j in range(k + 1):
            e, row = m.level(base, j)
            t = cap.numerator * e // cap.denominator  # x / e > cap iff x > t
            for i in [i for i, x in enumerate(row) if x > t and not held[i]]:
                firsts.append((j, i, row[i], e))
                held[i] = 1
            if j < k:
                kids = bytearray(2 * len(held))
                kids[::2] = kids[1::2] = held
                held = kids
        den = lcm(e, *(d for *_, d in firsts))
        vals = row if den == e else [x * (den // e) for x in row]
        for j, i, v, d in firsts:
            vals[i << (k - j) : (i + 1) << (k - j)] = [v * (den // d)] * (1 << (k - j))
        return den, vals

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
            return od, [on] * (1 << k)
        # base is a proper prefix of sigma: the extensions of sigma fill one
        # stretch of the row
        d, inner = rows(sigma, n - len(sigma))
        den = lcm(d, od)
        out = [on * (den // od)] * (1 << k)
        start = int(sigma[len(base) :], 2) << (n - len(sigma))
        out[start : start + len(inner)] = [x * (den // d) for x in inner]
        return den, out

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
                first_low = _string(sigma, i, j)
            row += (0, 2 * c) if low0 else (2 * c, 0) if low1 else (c, c)
        caps.append(row)
    if mode == 1 and first_low is None:
        raise DomainError(f"mode 1 requested but no low child found to depth {depth}")
    if mode == 2 and first_low is not None:
        raise DomainError(
            f"mode 2 requested but {first_low!r} has a low child within depth {depth}"
        )

    if mode == 1:
        def capitals(base: str, k: int) -> Row:
            j = len(base) - len(sigma)
            start = int(base[len(sigma) :], 2) << k if j else 0
            return 1, caps[j + k][start : start + (1 << k)]

        return Martingale(_on_cone(sigma, ONE, _held_past(depth, capitals)))

    start = sg.value(sigma)
    if start < 0:
        raise DomainError(
            f"mode 2 needs S_g(sigma) >= 0, got {start}: pattern mismatch"
        )
    return Martingale(_on_cone(sigma, start, _held_past(depth, sg.level)))


@dataclass(frozen=True)
class Condition:
    """Forcing condition <sigma, M, q>; valid only while M(sigma) < q."""

    sigma: str
    martingale: Martingale
    q: Fraction

    def __post_init__(self):
        validate_bits(self.sigma)
        v = self.martingale.value(self.sigma)
        if v >= self.q:
            raise DomainError(f"invalid condition: M({self.sigma!r}) = {v} >= q = {self.q}")


def condition_extension_violations(c2: Condition, c1: Condition, depth: int) -> list[str]:
    """Reasons c2 fails to extend c1, checked exhaustively to depth.

    The implication M2(tau) < q2 => M1(tau) < q1 is checked below sigma2 on
    the integer rows of ``Martingale.level``, one row of each martingale per
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
        (e2, row2), (e1, row1) = c2.martingale.level(sigma, k), c1.martingale.level(sigma, k)
        t2, t1 = n2 * e2, n1 * e1
        bad = next((i for i, (x, y) in enumerate(zip(row2, row1))
                    if x * d2 < t2 and y * d1 >= t1), None)
        if bad is not None:
            problems.append(f"implication fails at {_string(sigma, bad, k)!r}")
            return problems
    return problems


def condition_extends(c2: Condition, c1: Condition, depth: int) -> bool:
    """Depth-bounded certificate for the forcing extension relation."""
    return not condition_extension_violations(c2, c1, depth)


@dataclass(frozen=True)
class SavingsExtension:
    tau: str
    r: Fraction
    s: Fraction
    d_hat: Fraction
    reachable_min: Fraction
    search_depth: int
    condition: Condition


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

    Both minima are read from the integer rows of ``Martingale.level``, one
    Fraction per level.  A live mask marks the reachable nodes of a level: a
    node is live when its parent is live and its value is below q.
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
    live = bytearray(b"\x01")  # the parent flags of the current level
    for k in range(search_depth - len(sigma) + 1):
        d, row = m.level(sigma, k)
        low = Fraction(min(row), d)
        if d_hat is None or low < d_hat:
            d_hat = low
        if not any(live):
            continue
        t = qn * d  # x / d < q iff x qd < t
        live = bytearray(1 if p and x * qd < t else 0 for p, x in zip(live, row))
        if any(live):
            x, i = min((x, i) for i, x in enumerate(row) if live[i])
            v = Fraction(x, d)
            if reach_min is None or v < reach_min:
                reach_min, best_tau = v, _string(sigma, i, k)
            kids = bytearray(2 * len(live))
            kids[::2] = kids[1::2] = live
            live = kids
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
) -> list[tuple[str, Fraction, Fraction, bool]]:
    """Exact window checks for the savings claim.

    D is the union of minimal cylinders above tau, to length depth, where M
    reaches q; for each basic dyadic window inside Cyl tau of depth at most
    depth whose slope of the integrated function stays below s, the relative
    measure of D in the window must stay within eps.

    A window's slope is the mean of its leaves, the extensions of tau of
    length depth.  D is a union of leaves: those below a node of some level
    row where M >= q.  Both are read from prefix sums over the leaves.
    """
    den, leaves = _leaf_row(m, tau, depth)
    k = depth - len(tau)
    qn, qd = q.as_integer_ratio()
    marked = bytearray(1 << k)
    for j in range(k + 1):
        (d, row), width = m.level(tau, j), 1 << (k - j)
        t = qn * d  # x / d >= q iff x qd >= t
        for i in [i for i, x in enumerate(row) if x * qd >= t]:
            marked[i * width : (i + 1) * width] = b"\x01" * width
    sums, counts = [0, *accumulate(leaves)], [0, *accumulate(marked)]
    sn, sd = s.as_integer_ratio()
    start = int(tau, 2) if tau else 0
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
            records.append(
                (f"window [{a},{b}] slope {slope} < s", rel, eps, rel <= eps)
            )
    return records


@dataclass(frozen=True)
class ForcingStep:
    kind: str
    condition: Condition
    extends_ok: bool
    payload: dict


def forcing_chain(start: Condition, steps, check_depth: int) -> list[ForcingStep]:
    """Meet a finite list of dense-set targets, verifying each extension.

    steps is a sequence of ("length", n), ("claim3", N, delta-or-None) or
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
            delta = spec[2] if len(spec) > 2 and spec[2] is not None else None
            gap = cur.q - cur.martingale.value(cur.sigma)
            if delta is None:
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
