"""Decoding-cost formulas and the extension-term inequality."""

from __future__ import annotations

import math
import re

import pytest

from tgtkit import (
    ValidationError,
    appendix_gap_check,
    complexity,
    rows_thm1,
    rows_thm4,
    w_bound,
)
from tgtkit.analysis import FORMULA_IDS, appendix_threshold


class TestComplexity:
    def test_greedy_decoder_is_cheaper(self):
        # dropping the extension term is the whole point of the greedy variant
        base = complexity("thm6", 100, 8, 1, 4, 3)
        greedy = complexity("thm7", 100, 8, 1, 4, 3)
        assert greedy.term_extension == 0
        assert base.term_family == greedy.term_family
        assert greedy.total < base.total

    def test_matches_direct_evaluation(self):
        n, d, ell, u, z = 100, 8, 1, 4, 3
        g = u - ell - 1
        t = rows_thm4(n, d - ell, u, z, strict=False)
        report = complexity("thm6", n, d, ell, u, z)
        assert report.term_family == t * u * math.comb(n, u)
        assert report.term_extension == t * u * (d - u) * math.comb(
            n - u, g + 1
        ) * math.comb(d - 1, g) * math.comb(d, u)
        assert report.total == report.term_family + report.term_extension

    def test_classical_variant_uses_classical_test_count(self):
        # the two reports differ exactly by the test-count factor
        n, d, ell, u, z = 100, 8, 1, 4, 3
        classical = complexity("thm3", n, d, ell, u, z)
        improved = complexity("thm6", n, d, ell, u, z)
        t1 = rows_thm1(n, d - ell, u, z)
        t4 = rows_thm4(n, d - ell, u, z, strict=False)
        assert classical.term_family * t4 == improved.term_family * t1
        assert classical.term_extension * t4 == improved.term_extension * t1

    def test_zero_gap_evaluates(self):
        report = complexity("thm3", 50, 6, 1, 2, 3)  # g = 0
        assert report.term_extension > 0  # C(d-1, 0) = 1 keeps the term alive

    def test_refined_variant_uses_w_pool(self):
        n, d, ell, u, z = 100, 8, 1, 4, 3
        g = u - ell - 1
        t = rows_thm4(n, d - ell, u, z, strict=False)
        report = complexity("thm8", n, d, ell, u, z, s_size=d)
        w = w_bound(d, ell, u, g)
        expected = t * u * (d - u) * math.comb(w + d - u, g + 1) * math.comb(
            d - 1, g
        ) * math.comb(d, u)
        assert report.term_extension == expected
        # default s_size is d
        assert complexity("thm8", n, d, ell, u, z) == report

    def test_monotone_in_n_and_z(self):
        for formula in ("thm3", "thm6", "thm7", "thm8"):
            totals_n = [
                complexity(formula, n, 8, 1, 4, 3).total for n in (60, 100, 200, 500)
            ]
            assert totals_n == sorted(totals_n)
            totals_z = [
                complexity(formula, 100, 8, 1, 4, z).total for z in (1, 3, 7, 21)
            ]
            assert totals_z == sorted(totals_z)

    def test_classical_dominates_when_test_counts_do(self):
        n, d, ell, u = 2000, 8, 1, 4
        for z in (3, 11, 101):
            if rows_thm1(n, d - ell, u, z) >= rows_thm4(n, d - ell, u, z):
                assert (
                    complexity("thm3", n, d, ell, u, z).total
                    >= complexity("thm6", n, d, ell, u, z).total
                )

    def test_validation(self):
        with pytest.raises(ValidationError):
            complexity("thm9", 100, 8, 1, 4, 3)
        with pytest.raises(ValidationError):
            complexity("thm3", 100, 8, 4, 4, 3)  # ell >= u
        with pytest.raises(ValidationError):
            complexity("thm8", 100, 8, 1, 4, 3, s_size=9)  # s_size > d

    @pytest.mark.parametrize(
        "args, message",
        [
            ((100, 8, 4, 4, 3), "need 0 <= ell < u <= d < n, got ell=4 u=4 d=8 n=100"),
            ((8, 8, 1, 4, 3), "need 0 <= ell < u <= d < n, got ell=1 u=4 d=8 n=8"),
            ((100, 8, 1, 4, 0), "z must be >= 1, got 0"),
        ],
    )
    def test_parameter_messages(self, args, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            complexity("thm6", *args)


def _closed_form(formula, n, d, ell, u, z, s_size):
    """``(family term, extension term)`` as the module docstring states them."""
    g = u - ell - 1
    if formula == "thm3":
        t = rows_thm1(n, d - ell, u, z)
    else:
        t = rows_thm4(n, d - ell, u, z, strict=False)
    family = t * u * math.comb(n, u)
    if formula == "thm7":
        return family, 0
    if formula == "thm8":
        w = (s_size // (ell + 1) + u - 1) * g
        pool = w + d - u
    else:
        pool = n - u
    return family, t * u * (d - u) * math.comb(pool, g + 1) * math.comb(
        d - 1, g
    ) * math.comb(d, u)


@pytest.mark.parametrize("formula", FORMULA_IDS)
@pytest.mark.parametrize(
    "n, d, ell, u, z",
    [
        (100, 8, 1, 4, 3),
        (50, 6, 1, 2, 3),  # g = 0
        (40, 6, 2, 3, 5),  # g = 0
        (30, 5, 0, 3, 1),
        (1000, 12, 2, 5, 11),
    ],
)
@pytest.mark.parametrize("s_size", [None, 0, 1, 3])
def test_complexity_matches_closed_forms(formula, n, d, ell, u, z, s_size):
    report = complexity(formula, n, d, ell, u, z, s_size=s_size)
    expected = _closed_form(formula, n, d, ell, u, z, d if s_size is None else s_size)
    assert (report.formula, report.term_family, report.term_extension) == (
        formula, *expected
    )


class TestAppendixGapCheck:
    def test_smallest_case(self):
        report = appendix_gap_check(2, 6)
        assert (report.lhs, report.rhs) == (216, 15)
        assert report.holds

    def test_at_the_threshold(self):
        report = appendix_gap_check(2, 5)
        assert (report.lhs, report.rhs) == (108, 10)
        assert report.holds

    def test_u3(self):
        assert appendix_threshold(3) == 8
        assert appendix_gap_check(3, 8).holds

    def test_regime_violations(self):
        with pytest.raises(ValidationError):
            appendix_gap_check(1, 100)
        with pytest.raises(ValidationError):
            appendix_gap_check(2, 4)  # below threshold 5

    def test_holds_over_a_wide_grid(self):
        for u in range(2, 9):
            start = appendix_threshold(u)
            for n in range(start, start + 51):
                assert appendix_gap_check(u, n).holds, (u, n)
