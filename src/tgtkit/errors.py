"""Exception hierarchy shared by the library and the CLI, and the one
integer check, :func:`_require_int`, that every layer uses.

Each error class carries the process exit code the CLI maps it to.
"""

from __future__ import annotations

from typing import Optional


class TGTError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(TGTError):
    """Bad parameters, malformed input files, or violated preconditions."""

    exit_code = 1


class FeasibilityError(TGTError):
    """A combinatorial feasibility cap or retry budget was exceeded."""

    exit_code = 2


class EnvelopeDefectError(TGTError):
    """A guarantee envelope failed on a verified matrix (should be impossible)."""

    exit_code = 3


def _require_int(name: str, value: int, minimum: Optional[int] = 1) -> None:
    """Reject a non-int ``value`` (bools too) and, unless ``minimum`` is
    None, one below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
