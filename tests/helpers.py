"""Shorthand constructors the tests build their intervals and enumerations with."""

from fractions import Fraction

from densitylab.intervals import Interval, StagedOpenEnumeration


def interval(lo, hi) -> Interval:
    """[lo, hi] from ints, strings or Fractions."""
    return Interval(Fraction(lo), Fraction(hi))


def enumeration(*pairs) -> StagedOpenEnumeration:
    """The open intervals (lo, hi) of pairs, in stage order."""
    return StagedOpenEnumeration(tuple(interval(a, b) for a, b in pairs))
