"""Exception hierarchy shared by the library and the CLI, the one integer
check, :func:`_require_int`, that every layer uses, and its readers of text.

Each error class carries the process exit code the CLI maps it to.
"""

from __future__ import annotations

import re
from numbers import Real
from string import whitespace
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


def _require_real(name: str, value: float) -> None:
    """Reject a ``value`` that is not a real number (bools too)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def _parse_int(name: str, text: str) -> int:
    """The integer that ``text`` spells as an optional ``-`` and ASCII digits,
    with optional ASCII whitespace around them (``int`` also takes ``_``, ``+``
    and non-ASCII digits); other text fails as in :func:`_require_int`."""
    stripped = text.strip(whitespace)
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        value = int(stripped) if re.fullmatch(r"-?[0-9]+", stripped) else text
    except ValueError:
        value = text
    _require_int(name, value, None)
    return value


def _split_list(text: str) -> list[str]:
    """The comma-separated entries of ``text`` as written (an empty entry
    stays, for its reader to reject); text that is blank in ASCII has none."""
    return text.split(",") if text.strip(whitespace) else []


def _parse_ints(name: str, text: str) -> tuple[int, ...]:
    """The entries of the list ``text`` (:func:`_split_list`) as integers."""
    return tuple(_parse_int(name, tok) for tok in _split_list(text))


def _parse_real(name: str, text: str) -> float:
    """The real number that ``text`` spells in ASCII decimal notation (no
    ``_``, leading ``+``, ``inf`` or ``nan``), with optional ASCII whitespace
    around it; other text fails as in :func:`_require_real`."""
    stripped = text.strip(whitespace)
    is_real = re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", stripped)
    value = float(stripped) if is_real else text
    _require_real(name, value)
    return value
