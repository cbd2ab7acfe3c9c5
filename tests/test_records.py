"""The record contract: the immutable records refuse assignment and
deletion, and intervals compare, hash, order and print as (lo, hi) pairs."""

from fractions import Fraction as F

import pytest

from densitylab.calculus import DerivativeEstimate
from densitylab.counterexample import (
    AlphaTrace,
    DenjoyFailureReport,
    SlopeCertificate,
    SpikePlan,
    SpikeStage,
)
from densitylab.density import DensityEstimate, FatCover
from densitylab.instances import EscapeInstance
from densitylab.intervals import ClassGaps, Interval, IntervalSet
from densitylab.martingales import Condition, ForcingStep, Martingale, SavingsExtension
from densitylab.porosity import PorosityTest, PorosityWitness, PorousExtensions
from densitylab.randomness import (
    CaptureReport,
    DominationScenario,
    DominationTests,
    EscapeSets,
    TestFamily,
)
from densitylab.report import Check
from densitylab.roottwo import QuadValue
from helpers import enumeration, interval

# the martingale that is 1 on every string
ONE_EVERYWHERE = Martingale(lambda base, k: (1, [(0, (1 << k) - 1, 1)]))
CONDITION = Condition("", ONE_EVERYWHERE, F(2))

# one small instance of every immutable record, and a field of it
FROZEN = [
    (DerivativeEstimate(F(1), (F(0), F(1))), "value"),
    (SpikeStage(interval(0, "1/2"), "flat"), "kind"),
    (SpikePlan(()), "stages"),
    (AlphaTrace((F(0),)), "alphas"),
    (SlopeCertificate(1, F(1, 2), F(1), F(1, 2), F(-1), F(-1), True), "holds"),
    (DenjoyFailureReport((), (), ()), "rows"),
    (DensityEstimate(F(1, 2), interval(0, 1), 1), "estimate"),
    (FatCover(F(1, 4), 4, (), (), 0, 0), "overlap"),
    (EscapeInstance(enumeration(), {}, 1, 1, F(1, 3), "captured"), "z"),
    (interval("1/4", "1/2"), "lo"),
    (IntervalSet(()), "parts"),
    (enumeration(), "items"),
    (CONDITION, "q"),
    (SavingsExtension("0", F(1), F(1), F(1), F(1), 1, CONDITION), "tau"),
    (ForcingStep("savings", CONDITION, True, {}), "extends_ok"),
    (PorousExtensions("", 1, (), 0), "elements"),
    (PorosityWitness("0", "01", 1), "level"),
    (PorosityTest(enumeration(), 1, 1, 0, {}, (), (), ClassGaps(1, [], [])), "boxes"),
    (TestFamily((), enumeration(), ()), "components"),
    (CaptureReport(()), "levels"),
    (EscapeSets(1, 1, F(1, 3), (), "captured", None, None, ()), "verdict"),
    (DominationScenario(("0", "1"), F(1, 3), F(1, 4), 4), "eps"),
    (DominationTests((), (), (), (), ()), "records"),
    (Check("0 <= 1", F(0), F(1), True), "ok"),
    (QuadValue(F(1), F(1)), "b"),
]


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_a_record_refuses_assignment_and_deletion(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unlisted = value
    assert getattr(record, name) is value


def test_intervals_compare_hash_and_order_as_their_pairs():
    # (0, 1) against ("1/4", "1/2") tells lo-first order from hi-first order
    pairs = [("1/2", 1), (0, "1/2"), ("1/4", "1/2"), (0, 1), (0, "1/4"), ("1/2", 1), (0, 0)]
    ivs = [interval(lo, hi) for lo, hi in pairs]
    assert [(i.lo, i.hi) for i in sorted(ivs)] == sorted((F(lo), F(hi)) for lo, hi in pairs)
    assert len(set(ivs)) == 6 and interval("1/2", 1) in set(ivs)
    assert hash(interval("1/2", 1)) == hash(interval(F(2, 4), 1))
    for a in ivs:
        for b in ivs:
            assert (a < b) == ((a.lo, a.hi) < (b.lo, b.hi))
            assert (a == b) == ((a.lo, a.hi) == (b.lo, b.hi))
    assert interval(0, 1) != (F(0), F(1))


def test_an_interval_prints_as_its_fields():
    assert repr(interval("1/4", "1/2")) == "Interval(lo=Fraction(1, 4), hi=Fraction(1, 2))"
