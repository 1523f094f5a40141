"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["DomainError", "BracketError", "PreconditionError", "InfeasibleSearchError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(ValueError):
    """A root-finding target is not bracketed by the supplied interval."""


class PreconditionError(ValueError):
    """A caller-supplied precondition failed a runtime sanity check."""


class InfeasibleSearchError(RuntimeError):
    """No candidate set satisfied the volume window of a brute-force search."""
