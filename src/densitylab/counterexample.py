"""Spike construction defeating the Denjoy alternative at a rational limit.

From a finite enumeration of closed rational intervals the builder tracks the
leftmost uncovered point alpha, assigns each stage a flat or a triangular
spike, and sizes spike heights 2^(-n/2) by the smallest dyadic scale whose
grid meets the previous increase interval.  The plan is the function: its
``exact(q)`` returns f(q), the ``calculus`` function protocol, a Fraction or
for odd-k heights a sqrt(2)-multiple in Q(sqrt 2).  The verifier then
certifies, per realized height parameter k, a straddling slope <= -2^(k/2) at
the final alpha together with zero-slope witnesses on the upper side.  All
comparisons stay exact: sqrt(2)-multiples are compared via squares.

Policy constants (the height rule needs two choices the prose leaves open):
qualifying multiples of 2^-n are positive (0 never qualifies) and endpoint
containment counts; the first increase measures its own interval, with
alpha_0 = 0 as the previous mark.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, EnumerationOverlapError
from .bits import ONE, ZERO, format_rational
from .intervals import Interval, IntervalSet
from .roottwo import QuadValue, half_power, sqrt2_power

MAX_HEIGHT_EXPONENT = 128

OVERLAP_POLICIES = ("reject", "split")


def smallest_dyadic_exponent(lo: Fraction, hi: Fraction) -> tuple[int, Fraction]:
    """Smallest n >= 0 such that [lo, hi] holds a positive multiple of 2^-n."""
    if lo > hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    for n in range(MAX_HEIGHT_EXPONENT + 1):
        scale = 1 << n
        k = max(1, -(-lo.numerator * scale // lo.denominator))  # ceil(lo 2^n), positive
        if k * hi.denominator <= hi.numerator * scale:
            return n, Fraction(k, scale)
    raise DomainError(
        f"no positive dyadic multiple up to 2^-{MAX_HEIGHT_EXPONENT} in [{lo}, {hi}]"
    )


def largest_dyadic_multiple(lo: Fraction, hi: Fraction, n: int) -> Fraction | None:
    """Largest positive multiple of 2^-n in [lo, hi], if any."""
    scale = 1 << n
    k = hi.numerator * scale // hi.denominator  # floor(hi 2^n)
    if k < 1 or k * lo.denominator < lo.numerator * scale:
        return None
    return Fraction(k, scale)


@dataclass(frozen=True)
class SpikeStage:
    interval: Interval
    kind: str  # "flat" | "spike"
    height_exponent: int | None = None
    source: Interval | None = None  # increase interval that set the exponent
    anchor: Fraction | None = None  # its qualifying multiple of 2^-n

    def __post_init__(self):
        if self.kind not in ("flat", "spike"):
            raise DomainError(f"stage kind must be flat or spike, got {self.kind!r}")
        if (self.kind == "spike") != (self.height_exponent is not None):
            raise DomainError("spike stages and only they carry a height exponent")

    @property
    def height(self):
        """2^(-n/2): Fraction for even n, sqrt(2)-multiple for odd n."""
        if self.kind == "flat":
            return ZERO
        return half_power(self.height_exponent)

    def to_json(self) -> dict:
        out = {"interval": self.interval.to_json(), "kind": self.kind}
        if self.kind == "spike":
            out["height_exponent"] = self.height_exponent
            out["source"] = self.source.to_json()
            out["anchor"] = format_rational(self.anchor)
        return out


@dataclass(frozen=True)
class SpikePlan:
    stages: tuple[SpikeStage, ...]

    def __post_init__(self) -> None:
        # (lo, hi, stage index) of each non-degenerate spike, by left end;
        # stage intervals share at most endpoints, so a point lies in one
        # spike or on the common end of two
        spikes = sorted(
            (s.interval.lo, s.interval.hi, i) for i, s in enumerate(self.stages)
            if s.kind == "spike" and not s.interval.is_degenerate
        )
        for (_, hi, i), (lo, _, j) in zip(spikes, spikes[1:]):
            if lo < hi:
                raise DomainError(f"spike stages {i} and {j} overlap beyond endpoints")
        object.__setattr__(self, "_spikes", spikes)
        object.__setattr__(self, "_spike_los", [lo for lo, _, _ in spikes])

    @property
    def spike_stages(self) -> tuple[SpikeStage, ...]:
        return tuple(s for s in self.stages if s.kind == "spike")

    def exact(self, q: Fraction):
        """Exact f(q): 0 off spike intervals, triangular inside them.  The
        spike is found by bisecting the left ends; on the common end of two
        spikes the earlier stage answers."""
        q = Fraction(q)
        j = bisect_right(self._spike_los, q) - 1
        if j < 0 or q > self._spikes[j][1]:
            return ZERO
        lo, hi, i = self._spikes[j]
        if q == lo and j and self._spikes[j - 1][1] == q and self._spikes[j - 1][2] < i:
            lo, hi, i = self._spikes[j - 1]
        height = self.stages[i].height
        mid = (lo + hi) / 2
        if q <= mid:
            return height * ((q - lo) / (mid - lo))
        return height * ((hi - q) / (hi - mid))

    def to_json(self) -> dict:
        return {"stages": [s.to_json() for s in self.stages]}


@dataclass(frozen=True)
class AlphaTrace:
    alphas: tuple[Fraction, ...]  # length = stage count + 1, alpha_0 = 0

    def __post_init__(self):
        if not self.alphas or self.alphas[0] != ZERO:
            raise DomainError("trace must start at alpha_0 = 0")
        for a, b in zip(self.alphas, self.alphas[1:]):
            if b < a:
                raise DomainError(f"alpha trace decreases: {a} then {b}")

    @property
    def final(self) -> Fraction:
        return self.alphas[-1]

    def to_json(self) -> dict:
        return {"alphas": [format_rational(a) for a in self.alphas]}


def leftmost_uncovered(cover: IntervalSet) -> Fraction:
    """Leftmost point of [0,1] minus the union; 1 when nothing remains."""
    comp = cover.complement()
    return comp.parts[0].lo if comp.parts else ONE


def build_counterexample(
    enumeration: Sequence[Interval], overlap_policy: str = "reject"
) -> tuple[SpikePlan, AlphaTrace]:
    """Assign flat/spike per stage; the plan is the function it defines.

    Stage intervals may share endpoints but not interior; under "reject" an
    interior overlap raises, under "split" the incoming interval is clipped
    to the uncovered parts and each resulting piece becomes its own stage
    (fully covered intervals vanish).
    """
    if overlap_policy not in OVERLAP_POLICIES:
        raise DomainError(f"overlap_policy must be one of {OVERLAP_POLICIES}")

    stages: list[SpikeStage] = []
    alphas: list[Fraction] = [ZERO]
    covered = IntervalSet(())
    increases: list[int] = []  # indices of spike stages

    queue = list(reversed(enumeration))
    while queue:
        iv = queue.pop()
        clash = covered.intersect_interval(iv)
        if clash.measure > ZERO:
            if overlap_policy == "reject":
                raise EnumerationOverlapError(
                    f"stage interval {iv} overlaps earlier coverage beyond endpoints"
                )
            pieces = IntervalSet((iv,)).subtract_open(covered).drop_degenerate()
            queue.extend(reversed(pieces.parts))
            continue

        alpha = alphas[-1]
        covered = covered.union(IntervalSet((iv,)))
        alpha_next = leftmost_uncovered(covered)
        s = len(stages)
        if alpha_next > alpha:
            if increases:
                t = increases[-1]
                source = Interval(alphas[t], alphas[t + 1])
            else:
                source = Interval(ZERO, alpha_next)
            n, anchor = smallest_dyadic_exponent(source.lo, source.hi)
            stages.append(SpikeStage(iv, "spike", n, source, anchor))
            increases.append(s)
        else:
            stages.append(SpikeStage(iv, "flat"))
        alphas.append(alpha_next)

    plan = SpikePlan(tuple(stages))
    trace = AlphaTrace(tuple(alphas))
    return plan, trace


def default_enumeration() -> list[Interval]:
    """Eighteen intervals marching on 196607/196608, realizing heights 1..17.

    Cut points sit at 1 - 2^-k + 2^-(k+3), so stage k contains the odd
    multiple 1 - 2^-k of 2^-k and nothing coarser: the k-th stage interval
    has scale exponent exactly k, and the following stage carries the height
    2^(-k/2) spike within 2^-k of the final alpha.
    """
    cuts = [ZERO]
    for k in range(1, 18):
        cuts.append(ONE - Fraction(1, 1 << k) + Fraction(1, 1 << (k + 3)))
    cuts.append(ONE - Fraction(1, 1 << 17) + Fraction(1, 1 << 18))
    return [Interval(a, b) for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class SlopeCertificate:
    k: int
    x_k: Fraction  # spike midpoint
    q: Fraction  # rational beyond the final alpha
    b_k: Fraction  # anchoring multiple of 2^-k
    slope: object  # Fraction | QuadValue
    threshold: object  # -2^(k/2)
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class ZeroWitness:
    k: int
    a: Fraction
    b: Fraction
    slope_is_zero: bool


@dataclass(frozen=True)
class TailBound:
    prefix_groups: int
    tail_sup: object  # max height past the prefix
    tail_sum: object  # exact sum of group sup-norms past the prefix
    series_bound: object  # closed-form sum_{n > m} 2^(-n/2)
    holds: bool


@dataclass(frozen=True)
class DenjoyFailureReport:
    alpha_final: Fraction
    certificates: tuple[SlopeCertificate, ...]
    unrealized: tuple[int, ...]
    zero_witnesses: tuple[ZeroWitness, ...]
    straddle_bound: Fraction  # declared bound for beyond-region slopes
    straddle_max: object | None  # largest slope seen in the sweep
    straddle_ok: bool
    upper_estimate: object  # best upper slope near alpha (0 when witnessed)
    lower_estimate: object  # most negative slope seen
    groups: tuple[tuple[int, int], ...]  # (exponent, spike count)
    tail_bounds: tuple[TailBound, ...]
    limit_claim: str  # finite-stage disclaimer; never an infinity claim


def _plan_zeros(plan: SpikePlan, alpha_final: Fraction) -> list[Fraction]:
    """Known-zero points of f at or below the final alpha."""
    zeros = {ZERO, alpha_final}
    for s in plan.stages:
        zeros.update((s.interval.lo, s.interval.hi))
    return sorted(z for z in zeros if z <= alpha_final and plan.exact(z) == 0)


def verify_denjoy_failure(
    plan: SpikePlan,
    trace: AlphaTrace,
    k_max: int,
) -> DenjoyFailureReport:
    """Certify lower-slope blowup and upper-slope vanishing at the final alpha.

    Requested k without a spike of that height parameter are reported, not
    raised.  Every inequality in the report is exact; slopes at odd k are
    sqrt(2)-multiples and compare via squared arithmetic.
    """
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    alpha = trace.final
    if alpha == ONE:
        # the upper-side estimates need points to the right of alpha
        raise DomainError("the stages cover [0,1]: no point lies to the right of alpha = 1")
    by_exponent: dict[int, SpikeStage] = {}
    for s in plan.spike_stages:  # keep the last spike per exponent: nearest alpha
        by_exponent[s.height_exponent] = s

    certificates = []
    unrealized = []
    for k in range(1, k_max + 1):
        stage = by_exponent.get(k)
        if stage is None:
            unrealized.append(k)
            continue
        iv = stage.interval
        x_k = (iv.lo + iv.hi) / 2
        step = Fraction(1, 1 << k)
        b_k = largest_dyadic_multiple(stage.source.lo, stage.source.hi, k)
        if b_k is None:  # cannot happen when the exponent rule chose k
            b_k = stage.anchor
        room = b_k + step
        if room <= alpha:
            certificates.append(
                SlopeCertificate(
                    k, x_k, alpha, b_k, ZERO, -sqrt2_power(k), False,
                    note="no rational beyond alpha within 2^-k of b_k",
                )
            )
            continue
        q = (max(alpha, b_k) + room) / 2
        f_q = plan.exact(q)
        f_x = plan.exact(x_k)
        slope_val = (f_q - f_x) / (q - x_k)
        threshold = -sqrt2_power(k)
        holds = (
            q > alpha
            and q - b_k < step
            and b_k <= x_k
            and f_q == 0
            and slope_val <= threshold
        )
        certificates.append(
            SlopeCertificate(k, x_k, q, b_k, slope_val, threshold, holds)
        )

    zeros = _plan_zeros(plan, alpha)
    zero_witnesses = []
    for k in range(1, k_max + 1):
        half = Fraction(1, 1 << (k + 1))
        a_cands = [z for z in zeros if alpha - z <= half]
        if not a_cands:
            continue
        a, b = a_cands[-1], min(alpha + half, ONE)
        s = (plan.exact(b) - plan.exact(a)) / (b - a)
        zero_witnesses.append(ZeroWitness(k, a, b, s == 0))

    region_end = max((s.interval.hi for s in plan.spike_stages), default=ZERO)
    lefts = set(zeros)
    for s in plan.spike_stages:
        iv = s.interval
        lefts.update(
            p for p in (
                (iv.lo + iv.hi) / 2,
                (3 * iv.lo + iv.hi) / 4,
                (iv.lo + 3 * iv.hi) / 4,
            ) if p <= alpha
        )
    rights = {ONE}
    gap = ONE - alpha
    for j in range(1, min(k_max, 20) + 1):
        b = alpha + gap / (1 << j)
        if b > region_end and b > alpha:
            rights.add(b)
    straddle_bound = ZERO  # f >= 0 and f = 0 beyond the region force slope <= 0
    straddle_max = None
    straddle_ok = True
    left_values = [(a, plan.exact(a)) for a in sorted(lefts)]  # f once per left point
    for b in sorted(rights):
        f_b = plan.exact(b)
        for a, f_a in left_values:
            if a >= b:
                continue
            s = (f_b - f_a) / (b - a)
            if straddle_max is None or s > straddle_max:
                straddle_max = s
            if s > straddle_bound:
                straddle_ok = False

    slopes_seen = [c.slope for c in certificates if c.holds]
    if straddle_max is not None:
        slopes_seen.append(straddle_max)
    lower_estimate = min(slopes_seen, default=ZERO)
    upper_estimate = ZERO if zero_witnesses or not plan.spike_stages else straddle_max

    counts: dict[int, int] = {}
    for s in plan.spike_stages:
        counts[s.height_exponent] = counts.get(s.height_exponent, 0) + 1
    groups = tuple(sorted(counts.items()))
    series_scale = 2 + sqrt2_power(1)  # sum_{j>=0} 2^(-j/2) = 2 + sqrt(2)
    tail_bounds = []
    for m in range(len(groups) + 1):
        tail = groups[m:]
        tail_sup = half_power(tail[0][0]) if tail else ZERO
        tail_sum = sum((half_power(n) for n, _ in tail), QuadValue(ZERO, ZERO))
        cutoff = groups[m - 1][0] if m > 0 else 0
        bound = half_power(cutoff + 1) * series_scale
        holds = tail_sup <= bound and tail_sum <= bound
        tail_bounds.append(TailBound(m, tail_sup, tail_sum, bound, holds))

    return DenjoyFailureReport(
        alpha_final=alpha,
        certificates=tuple(certificates),
        unrealized=tuple(unrealized),
        zero_witnesses=tuple(zero_witnesses),
        straddle_bound=straddle_bound,
        straddle_max=straddle_max,
        straddle_ok=straddle_ok,
        upper_estimate=upper_estimate,
        lower_estimate=lower_estimate,
        groups=groups,
        tail_bounds=tuple(tail_bounds),
        limit_claim="finite-stage certificates only; no claim about the limit",
    )
