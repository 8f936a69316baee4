"""The integer rule: each public call rejects a non-int integer argument
(a bool, a float or a string) with the same message, before it is used."""

from __future__ import annotations

import re

import pytest

from tgtkit import (
    BinaryMatrix,
    Family,
    GapPolicy,
    ItemSet,
    OutcomeVector,
    ValidationError,
    appendix_gap_check,
    check_consistency,
    complexity,
    encode,
    generate,
    generate_verified,
    is_u_complete,
    w_bound,
)

from conftest import GOLDEN_DEFECTIVES


def _encode(golden_matrix, ell=0, u=2):
    return encode(golden_matrix, ItemSet.of(GOLDEN_DEFECTIVES), ell, u,
                  GapPolicy.always_negative())


def _check_consistency(golden_matrix, ell=0, u=2):
    outcome = OutcomeVector(golden_matrix.rows, 0)
    return check_consistency(golden_matrix, ItemSet.of(GOLDEN_DEFECTIVES), outcome, ell, u)


# call -> (name in the message, an int it takes, the call with that argument)
CALLS = {
    "encode-ell": ("ell", 1, lambda m, v: _encode(m, ell=v)),
    "encode-u": ("u", 3, lambda m, v: _encode(m, u=v)),
    "check_consistency-ell": ("ell", 1, lambda m, v: _check_consistency(m, ell=v)),
    "check_consistency-u": ("u", 3, lambda m, v: _check_consistency(m, u=v)),
    "generate-seed": ("seed", 1, lambda m, v: generate(8, 3, 2, 1, v, rows=5)),
    "generate_verified-seed": ("seed", 3, lambda m, v: generate_verified(6, 4, 2, 1, v)),
    "flipped-rows": ("flip row", 1, lambda m, v: OutcomeVector(4, 0).flipped([v])),
    "entry-row": ("row", 1, lambda m, v: m.entry(v, 1)),
    "entry-col": ("col", 1, lambda m, v: m.entry(1, v)),
    "row_support-row": ("row", 1, lambda m, v: m.row_support(v)),
    "column_weight-col": ("col", 1, lambda m, v: m.column_weight(v)),
    "from_mask-mask": ("item mask", 1, lambda m, v: ItemSet.from_mask(v)),
    "to_mask-n": ("n", 1, lambda m, v: ItemSet.of([1]).to_mask(v)),
    "w_bound-s_size": ("s_size", 4, lambda m, v: w_bound(v, 0, 2, 1)),
    "w_bound-ell": ("ell", 0, lambda m, v: w_bound(4, v, 2, 1)),
    "w_bound-u": ("u", 2, lambda m, v: w_bound(4, 0, v, 1)),
    "w_bound-g": ("g", 1, lambda m, v: w_bound(4, 0, 2, v)),
    "complexity-s_size": ("s_size", 2, lambda m, v: complexity("thm8", 100, 10, 1, 3, 3, v)),
    "appendix_gap_check-u": ("u", 2, lambda m, v: appendix_gap_check(v, 50)),
    "appendix_gap_check-n": ("n", 50, lambda m, v: appendix_gap_check(2, v)),
    "BinaryMatrix-rows": ("rows", 1, lambda m, v: BinaryMatrix(v, 3, (1,))),
    "BinaryMatrix-cols": ("cols", 3, lambda m, v: BinaryMatrix(1, v, (1,))),
    "BinaryMatrix-row_masks": ("row 1 mask", 1, lambda m, v: BinaryMatrix(1, 3, (v,))),
    "Family-u": ("u", 2, lambda m, v: Family(v, ((1, 2),))),
    "Family-edges": ("edge item", 1, lambda m, v: Family(2, ((v, 2),))),
    "is_u_complete-items": ("item", 1, lambda m, v: is_u_complete(Family(2, ((1, 2),)), [v, 2])),
}


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize("name, ok, call", CALLS.values(), ids=CALLS)
def test_integer_arguments_are_checked_at_the_call(golden_matrix, name, ok, call, value):
    # each of these ran True as 1, or failed later with a raw TypeError
    message = f"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(golden_matrix, value)
    call(golden_matrix, ok)
