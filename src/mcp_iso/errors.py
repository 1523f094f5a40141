"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""
