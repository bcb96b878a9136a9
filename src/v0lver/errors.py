"""Exception hierarchy shared across the package.

Callers can catch ``V0lverError`` for anything raised deliberately by this
package. ``InvariantViolation`` is reserved for states that should be
unreachable; seeing one means a bug, not bad input.
"""
from __future__ import annotations


class V0lverError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(V0lverError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigError(V0lverError, ValueError):
    """A scenario or CLI configuration is malformed or inconsistent."""


class InvalidTransition(V0lverError):
    """A protocol state-machine rule was violated (bad height, bad state...)."""


class FundingError(V0lverError):
    """An account cannot cover a required deposit or escrow.

    ``party`` is the ledger account that ran short, when one did.
    """

    def __init__(self, message: str, party: str | None = None):
        super().__init__(message)
        self.party = party


class VerificationError(V0lverError):
    """A proposed clearing price failed independent verification."""


class InvariantViolation(V0lverError):
    """An internal invariant broke; indicates a bug in the engine itself."""
