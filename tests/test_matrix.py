"""Text formats, round-trips, and validation of the basic containers."""

from __future__ import annotations

import random
import re

import pytest

from tgtkit import BinaryMatrix, ItemSet, OutcomeVector, ValidationError

from conftest import GOLDEN_TEXT


def test_matrix_parse_round_trip():
    m = BinaryMatrix.parse(GOLDEN_TEXT)
    assert (m.rows, m.cols) == (20, 6)
    assert BinaryMatrix.parse(m.to_text()) == m


def test_matrix_entries_and_supports():
    m = BinaryMatrix.parse(GOLDEN_TEXT)
    assert m.entry(1, 1) == 1 and m.entry(1, 3) == 0
    assert m.row_support(17) == (2, 3, 5, 6)
    # column 3 appears in the 5 pair rows plus all 5 heavy rows
    assert m.column_weight(3) == 10


def test_matrix_rejects_garbage():
    with pytest.raises(ValidationError):
        BinaryMatrix.parse("")
    with pytest.raises(ValidationError):
        BinaryMatrix.parse("2 3\n101\n10")  # short row
    with pytest.raises(ValidationError):
        BinaryMatrix.parse("1 3\n1012")  # long row
    with pytest.raises(ValidationError):
        BinaryMatrix.parse("2 2\n11")  # missing row
    with pytest.raises(ValidationError):
        BinaryMatrix.parse("1 2\nx1")


def test_matrix_from_bits_matches_parse():
    m1 = BinaryMatrix.from_bits([[1, 0, 1], [0, 1, 1]])
    m2 = BinaryMatrix.parse("2 3\n101\n011")
    assert m1 == m2
    assert m1.col_masks == (0b01, 0b10, 0b11)


def test_matrix_file_io(tmp_path):
    m = BinaryMatrix.parse(GOLDEN_TEXT)
    path = tmp_path / "m.txt"
    m.save(path)
    assert BinaryMatrix.load(path) == m


def test_outcome_parse_and_flip():
    y = OutcomeVector.parse("0110")
    assert y.bits == (0, 1, 1, 0)
    assert y.negatives_mask == 0b1001
    assert y.flipped([1, 4]).bits == (1, 1, 1, 1)
    with pytest.raises(ValidationError):
        y.flipped([5])
    with pytest.raises(ValidationError):
        OutcomeVector.parse("01x0")
    with pytest.raises(ValidationError):
        OutcomeVector.parse("")


@pytest.mark.parametrize("t", [1, 2, 63, 64, 65, 1024, 1025, 4099])
def test_negatives_mask_matches_per_bit_reference(t):
    rng = random.Random(t)
    for density in (0.0, 0.1, 0.5, 1.0):
        bits = tuple(0 if rng.random() < density else 1 for _ in range(t))
        reference = 0
        for i, b in enumerate(bits):
            if b == 0:
                reference |= 1 << i
        assert OutcomeVector(bits).negatives_mask == reference


def test_outcome_entries_equal_to_0_or_1():
    assert OutcomeVector((0, 1.0, True, False, 0.0)).negatives_mask == 0b11001
    for bits, shown in (
        ((0, 2), "2"),
        ((1, 48), "48"),
        ((0, -1), "-1"),
        ((1, 300), "300"),
        ((0, 0.5), "0.5"),
        ((1, "0"), "'0'"),
        ((0, [1]), "[1]"),
        ((2, 3), "2"),
    ):
        with pytest.raises(ValidationError, match=rf"^outcome entry {re.escape(shown)} is not 0/1$"):
            OutcomeVector(bits)


def test_outcome_file_io(tmp_path):
    y = OutcomeVector.parse("0110")
    path = tmp_path / "y.txt"
    y.save(path)
    assert OutcomeVector.load(path) == y
    assert path.read_text() == "0110\n"


def test_itemset_parse_format_mask():
    s = ItemSet.parse("5,1,2")
    assert s.members == (1, 2, 5)
    assert s.format() == "1,2,5"
    assert ItemSet.parse("").members == ()
    assert s.to_mask(6) == 0b10011
    assert ItemSet.from_mask(0b10011) == s
    with pytest.raises(ValidationError):
        s.to_mask(4)  # 5 out of range
    with pytest.raises(ValidationError):
        ItemSet.of([0, 1])
    with pytest.raises(ValidationError):
        ItemSet.parse("1,two")
