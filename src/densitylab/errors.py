"""Shared exception types.

Every reported failure is one of these; schema problems and domain violations
are kept apart from exhausted search budgets so callers can tell a refuted
inequality from a search that simply ran out of room.  A broken internal
invariant is an ``InvariantError``, which is not a ``VerifierError``: it is
not a verdict on the input.  A battery reads no user input, so whatever it
raises, any of these included, is reported as a failed row of that battery.

``Frozen`` is the base of the immutable records, here because every module
that defines one imports this leaf module already.
"""

from __future__ import annotations


class VerifierError(Exception):
    """Base class for all package errors."""


class SchemaError(VerifierError):
    """Malformed serialized input (bad rational, missing field, wrong shape)."""


class DomainError(VerifierError):
    """Value outside the documented domain (endpoint out of [0,1], bad stage)."""


class StageError(DomainError):
    """Stage index beyond the enumeration."""


class EnumerationOverlapError(DomainError):
    """Enumerated intervals overlap beyond shared endpoints and no repair was asked."""


class BudgetExhausted(VerifierError):
    """A bounded search ended without a verdict; carries what was achieved.

    Distinct from a violated inequality: nothing is asserted either way.
    """

    def __init__(self, message: str, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InvariantError(RuntimeError):
    """A construction broke one of its own invariants: a bug, not bad input."""


class Frozen:
    """Base of the immutable records: a record's __init__ sets each of its
    slots once, through object.__setattr__, and nothing sets or deletes one
    after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
