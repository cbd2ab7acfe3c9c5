"""Seeded instance batches for the verification batteries and the CLI.

All randomness flows through ``random.Random(f"{seed}:{battery}:{index}")``.
String seeds hash through SHA-512 inside the stdlib, so batches reproduce
across processes and platforms with no wall-clock or environment input.
Everything emitted is an exact rational; no floats anywhere.

The escape and domination generators build their dynamics around a target
point's bit path: sibling cylinders along the path are the only material that
can drop the class density at the point, which makes the expected capture and
escape rounds computable in advance and keeps every asserted inequality
nonvacuous.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bits import (
    ONE,
    ZERO,
    format_rational,
    parse_nonnegative_int,
    parse_rational,
    require_unit,
    string_at,
    string_index,
    validate_bits,
)
from .calculus import Polynomial
from .errors import BudgetExhausted, Frozen, InvariantError, SchemaError
from .intervals import FULL_SET, Interval, IntervalSet, StagedOpenEnumeration
from .martingales import (
    Condition,
    SavingsExtension,
    TableMartingale,
    forcing_chain,
    savings_extension,
)
from .piecewise import PiecewiseLinear
from .randomness import DominationScenario

COVERING_EPSILONS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def battery_rng(seed: int, battery: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}:{battery}:{index}")


def random_holes(
    rng: random.Random, count: int, max_denominator: int
) -> tuple[Interval, ...]:
    """Open holes with both endpoints on a common denominator q, 8 <= q <= the
    cap, each at most q // 8 steps of 1/q wide."""
    holes = []
    for _ in range(count):
        q = rng.randint(8, max_denominator)
        p = rng.randint(0, q - 1)
        d = rng.randint(1, q // 8)
        holes.append(Interval(Fraction(p, q), Fraction(min(p + d, q), q)))
    return tuple(holes)


def dyadic_holes(
    rng: random.Random,
    count: int,
    depth_lo: int = 4,
    depth_hi: int = 7,
) -> tuple[Interval, ...]:
    """Open holes on the 2^-k grid, depth_lo <= k <= depth_hi, each at most
    2^k // 16 (and at least one) grid steps wide."""
    holes = []
    for _ in range(count):
        scale = 1 << rng.randint(depth_lo, depth_hi)
        p = rng.randint(0, scale - 1)
        d = rng.randint(1, max(1, scale // 16))
        holes.append(Interval(Fraction(p, scale), Fraction(min(p + d, scale), scale)))
    return tuple(holes)


def covering_holes(seed: int, index: int) -> tuple[Interval, ...]:
    """The <= 12 holes of a covering class, endpoint denominators <= 2^16."""
    rng = battery_rng(seed, "covering", index)
    return random_holes(rng, rng.randint(0, 12), 1 << 16)


def covering_instance(seed: int, index: int) -> IntervalSet:
    """The covering class: [0, 1] minus covering_holes."""
    return FULL_SET.subtract_open(covering_holes(seed, index))


def oracle_match_instance(seed: int, index: int) -> tuple[IntervalSet, Fraction]:
    """Class with endpoint denominators <= 2^8 plus a threshold to test at."""
    rng = battery_rng(seed, "oracle-match", index)
    c = FULL_SET.subtract_open(random_holes(rng, rng.randint(1, 6), 1 << 8))
    return c, rng.choice(COVERING_EPSILONS)


def porosity_instance(seed: int, index: int) -> tuple[StagedOpenEnumeration, int, int]:
    """(enumeration, reach constant, levels); first three hit the stated caps."""
    rng = battery_rng(seed, "porosity", index)
    if index == 0:  # hole-count cap, shallow levels
        return StagedOpenEnumeration(dyadic_holes(rng, 20)), 1, 2
    if index == 1:  # level cap on a small class
        return StagedOpenEnumeration(dyadic_holes(rng, 3, 3, 5)), 1, 8
    if index == 2:  # reach-constant cap
        return StagedOpenEnumeration(dyadic_holes(rng, 4, 3, 5)), 3, 3
    holes = dyadic_holes(rng, rng.randint(2, 8))
    return StagedOpenEnumeration(holes), rng.randint(1, 3), rng.randint(2, 5)


def _bit_string(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


def bits_of_point(z: Fraction, length: int) -> str:
    """First binary digits of z in [0,1), by exact doubling."""
    bits = []
    x = z
    for _ in range(length):
        x *= 2
        b = int(x >= 1)
        bits.append(str(b))
        x -= b
    return "".join(bits)


class EscapeInstance(Frozen):
    """A difference-test component table plus escape-driver parameters.

    flavor records which dynamics the components were laid out for: the
    target either stays in every box ("captured"), leaves through a budget
    overflow whose slice covers it ("certificate"), or leaves without its
    covering item ever being enumerated ("uncaptured").
    """

    __slots__ = ("enum", "components", "r", "m_max", "z", "flavor")

    def __init__(self, enum: StagedOpenEnumeration, components: dict[int, tuple[str, ...]],
                 r: int, m_max: int, z: Fraction, flavor: str):
        object.__setattr__(self, "enum", enum)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "flavor", flavor)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.enum, self.components, self.r, self.m_max, self.z, self.flavor) == (
            other.enum, other.components, other.r, other.m_max, other.z, other.flavor)

    def component_fn(self):
        comps = self.components
        return lambda n: comps.get(n, ())

    def to_json(self) -> dict:
        return {
            "holes": [i.to_json() for i in self.enum.items],
            "components": {str(n): list(ws) for n, ws in sorted(self.components.items())},
            "r": self.r,
            "m_max": self.m_max,
            "z": format_rational(self.z),
            "flavor": self.flavor,
        }

    @staticmethod
    def from_json(obj: dict) -> "EscapeInstance":
        if not isinstance(obj, dict):
            raise SchemaError("escape instance must be an object")
        try:
            comps = _components(obj["components"])
            return EscapeInstance(
                StagedOpenEnumeration.from_json({"holes": obj.get("holes", [])}),
                comps,
                parse_nonnegative_int(obj["r"], "escape field 'r'"),
                parse_nonnegative_int(obj["m_max"], "escape field 'm_max'"),
                require_unit(parse_rational(obj["z"]), "escape z"),
                str(obj.get("flavor", "custom")),
            )
        except KeyError as exc:
            raise SchemaError(f"escape instance missing field {exc}") from None


# The longest bit string of an escape component.  A string of length L puts
# 2^-L into the box masses and the component caps, and 2^-(L + r + 1) into
# the budget row, so the time to print those sides grows faster than L.  In
# process on a 2-vCPU host, a certificate inside a string at the cap, at
# r = 64, takes about 0.002 s and 19 MB; at L = 32,768 it takes 0.01 s, and
# at L = 262,144 0.45 s and 23 MB.
ESCAPE_MAX_COMPONENT_LENGTH = 4096


def _components(raw) -> dict[int, tuple[str, ...]]:
    """The component table: an object from keys, non-negative integers in
    canonical decimal so that no two name one component, to bit string lists
    of strings at most ``ESCAPE_MAX_COMPONENT_LENGTH`` long."""
    if not isinstance(raw, dict):
        raise SchemaError(f"escape instance 'components' must be an object, got {raw!r}")
    comps = {}
    for n, ws in raw.items():
        try:
            key = int(n)
        except ValueError:  # not a decimal, or more digits than int() reads
            key = -1
        if key < 0 or str(key) != n:
            raise SchemaError(f"escape component key must be a canonical decimal, got {n!r}")
        if not isinstance(ws, list):
            raise SchemaError(f"escape component {n} must be a list of bit strings")
        comps[key] = tuple(validate_bits(w) for w in ws)
        longest = max(map(len, comps[key]), default=0)
        if longest > ESCAPE_MAX_COMPONENT_LENGTH:
            raise SchemaError(
                f"escape component {n} holds a bit string of length {longest}; "
                f"the longest allowed is {ESCAPE_MAX_COMPONENT_LENGTH}"
            )
    return comps


def escape_instance(seed: int, index: int) -> EscapeInstance:
    """Escape-set driver instance; flavors rotate with the index."""
    rng = battery_rng(seed, "escape", index)
    flavor = ("certificate", "captured", "uncaptured")[index % 3]
    r = rng.randint(0, 3)
    m_max = rng.randint(2, 6)
    step = r + 1
    path = _bit_string(rng, m_max * step + step + 2)
    z = Fraction(int(path, 2), 1 << len(path))
    components: dict[int, tuple[str, ...]] = {}
    holes: tuple[Interval, ...] = ()
    if flavor == "captured":
        for m in range(m_max):
            n = (m + 1) * step
            components[n] = (path[:n],)
        holes = dyadic_holes(rng, rng.randint(0, 2))
    else:
        escape_round = rng.randint(1, m_max)
        for m in range(escape_round - 1):
            n = (m + 1) * step
            components[n] = (path[:n],)
        depth = (escape_round - 1) * step
        n_star = depth + step
        sigma = path[:depth]
        item = path[:n_star]
        if flavor == "certificate":
            # every depth-n_star extension of sigma, the target's item last:
            # the siblings fill the truncation budget exactly, the item
            # overflows it, and the slice then covers the target.
            siblings = sorted(
                sigma + string_at(j, step)
                for j in range(1 << step)
                if sigma + string_at(j, step) != item
            )
            components[n_star] = tuple(siblings) + (item,)
            # pinch the class inside sigma down to the covering item, so the
            # thinness conclusion has exact content
            slo = Fraction(string_index(sigma), 1 << depth)
            shi = slo + Fraction(1, 1 << depth)
            ilo = Fraction(int(item, 2), 1 << n_star)
            ihi = ilo + Fraction(1, 1 << n_star)
            pinch = []
            if slo < ilo:
                pinch.append(Interval(slo, ilo))
            if ihi < shi:
                pinch.append(Interval(ihi, shi))
            holes = tuple(pinch)
        else:  # uncaptured: one affordable sibling, never the covering item
            sibling = item[:-1] + _flip(item[-1])
            components[n_star] = (sibling,)
            holes = dyadic_holes(rng, rng.randint(0, 3))
    return EscapeInstance(
        StagedOpenEnumeration(holes), components, r, m_max, z, flavor
    )


def domination_instance(seed: int, index: int) -> tuple[DominationScenario, int, int]:
    """(scenario, case, block count) for the Solovay-style domination battery.

    Words are sibling cylinders along the target's path (each one halves the
    class density in its parent window, so the least-drop iteration lands one
    sibling further each call) plus padding cylinders in the far half, which
    never drop the density at the target.
    """
    rng = battery_rng(seed, "domination", index)
    q = rng.choice((3, 5, 7, 11, 13))
    z = Fraction(rng.randint(1, q - 1), q)
    path = bits_of_point(z, 10)
    depths = sorted(rng.sample(range(2, 11), rng.randint(4, 6)))
    words = [path[: d - 1] + _flip(path[d - 1]) for d in depths]
    pads = {_flip(path[0]) + _bit_string(rng, 7) for _ in range(rng.randint(0, 3))}
    words.extend(sorted(pads))
    rng.shuffle(words)
    scenario = DominationScenario(tuple(words), z, Fraction(2, 3), 12)
    return scenario, 1 + index % 2, len(depths) - 2


def random_fair_table(rng: random.Random, depth: int) -> TableMartingale:
    """Fair nonnegative table from random leaf capital in {0, 1/8, ..., 6},
    averaged upward."""
    table: dict[str, Fraction] = {}
    for j in range(1 << depth):
        table[string_at(j, depth)] = Fraction(rng.randint(0, 48), 8)
    for k in range(depth - 1, -1, -1):
        for j in range(1 << k):
            s = string_at(j, k)
            table[s] = (table[s + "0"] + table[s + "1"]) / 2
    return TableMartingale(table, depth)


def normalized_fair_table(rng: random.Random, depth: int) -> TableMartingale:
    """Fair table with starting capital exactly 1 (for capital injection)."""
    while True:
        m = random_fair_table(rng, depth)
        root = m.value("")
        if root > 0:
            return TableMartingale(
                {s: v / root for s, v in m.table.items()}, depth
            )


def claim5_instance(
    seed: int, index: int
) -> tuple[Condition, Fraction, SavingsExtension]:
    """Condition plus a successful savings extension at search depth 8.

    The search depth stays below the window depth used downstream so the
    extension's base string leaves room for nontrivial dyadic windows.
    Draws whose reachable minimum cannot meet the savings cap are skipped
    deterministically by re-salting the generator.
    """
    eps = Fraction(1, 2)
    for attempt in range(64):
        rng = battery_rng(seed, f"claim5:{attempt}", index)
        m = random_fair_table(rng, 4)
        q = m.value("") + Fraction(rng.randint(1, 8), 8)
        cond = Condition("", m, q)
        try:
            ext = savings_extension(cond, eps, 8)
        except BudgetExhausted:
            continue
        return cond, eps, ext
    raise InvariantError(f"no viable savings instance for seed {seed} index {index}")


def forcing_instance(seed: int, index: int):
    """Condition, step list, and the verified forcing chain they produce."""
    for attempt in range(64):
        rng = battery_rng(seed, f"forcing:{attempt}", index)
        m = random_fair_table(rng, 4)
        n = normalized_fair_table(rng, 3)
        q = m.value("") + Fraction(rng.randint(1, 4), 4)
        cond = Condition("", m, q)
        steps = (
            ("length", rng.randint(1, 3)),
            ("claim3", n),
            ("savings", Fraction(1, 2), 12),
        )
        try:
            chain = forcing_chain(cond, steps, 12)
        except BudgetExhausted:
            continue
        return cond, steps, chain
    raise InvariantError(f"no viable forcing instance for seed {seed} index {index}")


def extension_instance(
    seed: int, index: int
) -> tuple[PiecewiseLinear, StagedOpenEnumeration]:
    """Nondecreasing staircase (slopes <= 1) and a <=6-hole class."""
    rng = battery_rng(seed, "extension", index)
    xs = tuple(Fraction(k, 8) for k in range(9))
    ys = [Fraction(rng.randint(0, 32), 64)]
    for _ in range(8):
        ys.append(ys[-1] + Fraction(rng.randint(0, 8), 64))
    h = PiecewiseLinear(xs, tuple(ys))
    enum = StagedOpenEnumeration(dyadic_holes(rng, rng.randint(1, 6), 3, 6))
    return h, enum


def golden_extremum_cases() -> tuple[
    tuple[Polynomial, Fraction, Fraction, str, Fraction], ...
]:
    """Polynomials with rational closed-form extrema over stated windows."""
    return (
        (Polynomial((0, 1, -1)), ZERO, ONE, "sup", Fraction(1, 4)),
        (Polynomial((1, -4, 4)), Fraction(1, 4), ONE, "inf", ZERO),
        (
            Polynomial((0, 0, 1, -2, 1)),
            Fraction(1, 8),
            Fraction(3, 8),
            "sup",
            Fraction(225, 4096),
        ),
    )
