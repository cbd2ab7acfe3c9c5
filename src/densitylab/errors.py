"""Shared exception types.

Every reported failure is one of these; schema problems and domain violations
are kept apart from exhausted search budgets so callers can tell a refuted
inequality from a search that simply ran out of room.  A broken internal
invariant is an ``InvariantError``, which is not a ``VerifierError``: it is
not a verdict on the input, and a battery reports it as a failed row.
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


class BatteriesLost(RuntimeError):
    """A verify-all child process ended without a result for some batteries."""
