"""Exception types shared across the package."""

from __future__ import annotations


class RookError(ValueError):
    """Base class for domain errors raised by this package."""


class AttackError(RookError):
    """Two rooks share a row or a column."""


class AmbientError(RookError):
    """A root falls outside its board, or two boards have different sizes."""


class OrthogonalityError(RookError):
    """An operation restricted to orthogonal placements received a non-orthogonal one."""


class CapError(RookError):
    """An enumeration would exceed the configured cap, or a relation the memory."""
