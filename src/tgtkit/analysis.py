"""Closed-form decoding-cost expressions and the family/extension trade-off.

Each decoder's operation count splits into a family-construction term
(``t . u . C(n, u)`` pool lookups) and an extension-search term; the four
formula ids select which test-count factor and which extension term apply:

========  ===========================  =========================================
formula   test-count factor            extension term (times test factor and u)
========  ===========================  =========================================
``thm3``  ``rows_thm1(n, d-ell, u, z)``  ``(d-u) C(n-u, g+1) C(d-1, g) C(d, u)``
``thm6``  ``rows_thm4(n, d-ell, u, z)``  ``(d-u) C(n-u, g+1) C(d-1, g) C(d, u)``
``thm7``  ``rows_thm4(n, d-ell, u, z)``  (none -- the greedy decoder drops it)
``thm8``  ``rows_thm4(n, d-ell, u, z)``  ``(d-u) C(w+d-u, g+1) C(d-1, g) C(d, u)``
========  ===========================  =========================================

with ``w = (floor(|S| / (ell + 1)) + u - 1) g``.  Everything is exact
big-integer arithmetic: the point of :func:`appendix_gap_check` is a strict
inequality between astronomically large terms, which floats would blur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .decode import w_bound
from .disjunct import rows_thm1, rows_thm4
from .errors import ValidationError
from .model import TGTParams


_ROWS_THM4 = partial(rows_thm4, strict=False)

#: formula id -> (test-count calculator at ``(n, d - ell, u, z)``, extension
#: pool size from the parameters and ``|S|``, or None: no extension term)
_FORMULAS = {
    "thm3": (rows_thm1, lambda p, s_size: p.n - p.u),
    "thm6": (_ROWS_THM4, lambda p, s_size: p.n - p.u),
    "thm7": (_ROWS_THM4, None),
    "thm8": (_ROWS_THM4, lambda p, s_size: w_bound(s_size, p.ell, p.u, p.g) + p.d - p.u),
}

FORMULA_IDS = tuple(_FORMULAS)


def _extension_term(pool: int, d: int, u: int, g: int) -> int:
    """``(d - u) C(pool, g + 1) C(d - 1, g) C(d, u)``."""
    return (d - u) * math.comb(pool, g + 1) * math.comb(d - 1, g) * math.comb(d, u)


@dataclass(frozen=True)
class ComplexityReport:
    formula: str
    term_family: int
    term_extension: int

    @property
    def total(self) -> int:
        return self.term_family + self.term_extension


def complexity(
    formula: str,
    n: int,
    d: int,
    ell: int,
    u: int,
    z: int,
    s_size: int | None = None,
) -> ComplexityReport:
    """Exact decoding-cost expression for the chosen formula.

    ``s_size`` supplies ``|S|`` for the ``thm8`` extension term (defaults
    to ``d``, the a-priori maximum).
    """
    if formula not in FORMULA_IDS:
        raise ValidationError(f"unknown formula {formula!r} (expected {FORMULA_IDS})")
    params = TGTParams(n, d, ell, u, z)
    if s_size is None:
        s_size = d
    if not 0 <= s_size <= d:
        raise ValidationError(f"s_size must be in 0..d, got {s_size}")
    rows, pool_rule = _FORMULAS[formula]
    tests = rows(n, d - ell, u, z)
    term_family = tests * u * math.comb(n, u)
    term_extension = 0
    if pool_rule is not None:
        pool = pool_rule(params, s_size)
        term_extension = tests * u * _extension_term(pool, d, u, params.g)
    return ComplexityReport(formula, term_family, term_extension)


@dataclass(frozen=True)
class AppendixGapReport:
    u: int
    n: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs


def appendix_threshold(u: int) -> int:
    """Smallest admissible ``n`` for :func:`appendix_gap_check`:
    ``ceil(8 (2u - 1) / (8 - sqrt(7)))``."""
    if u < 2:
        raise ValidationError(f"u must be >= 2, got {u}")
    return math.ceil(8 * (2 * u - 1) / (8 - math.sqrt(7)))


def appendix_gap_check(u: int, n: int) -> AppendixGapReport:
    """Compare the extension term against ``C(n, u)`` in the regime
    ``d = 2u``, ``ell = 0``, ``g = u - 1``.

    In this regime the extension term
    ``L = (d - u) C(n - u, g + 1) C(d - 1, g) C(d, u)`` strictly exceeds
    ``R = C(n, u)`` for every ``n`` over the threshold, which is why it
    cannot be dropped from the ``thm3``/``thm6`` totals.
    """
    minimum = appendix_threshold(u)
    if n < minimum:
        raise ValidationError(
            f"n={n} below the regime threshold {minimum} for u={u}"
        )
    lhs = _extension_term(n - u, 2 * u, u, u - 1)
    rhs = math.comb(n, u)
    return AppendixGapReport(u=u, n=n, lhs=lhs, rhs=rhs)
