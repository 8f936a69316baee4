"""Binary measurement matrices, outcome vectors, and item sets.

Conventions used across the package:

* Items (columns) and tests (rows) are numbered from 1 at every public
  surface, matching the usual presentation of pooling designs.
* Internally a row is a single Python integer used as a bitmask, with bit
  ``j - 1`` standing for item ``j``; a column is likewise a bitmask over
  rows.  All set intersections reduce to ``&`` plus a popcount.
* An outcome ``OutcomeVector(t, positives)`` is a mask too, with bit ``i - 1`` set
  when test ``i`` is positive; ``from_bits`` builds one from 0/1 entries, checking each.

Text formats (used by the CLI and by experiment specs):

* matrix file: first line ``"t n"``, then ``t`` lines of ``n`` characters
  from ``{0, 1}``, character ``j`` of a row being item ``j``;
* outcome file: a single line of ``t`` characters from ``{0, 1}``,
  character ``i`` being test ``i``;
* item set: comma-separated 1-based indices, empty string for the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ValidationError

#: maps binary digits to their values ("1" -> 1)
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _digits_to_mask(digits: str | bytes) -> int:
    """Mask whose bit ``j`` is digit ``j``; only for text checked to be 0/1,
    as ``int(..., 2)`` also takes ``_``, spaces, a sign and a ``0b`` prefix."""
    return int(digits[::-1], 2)


def _mask_to_digits(mask: int, width: int) -> str:
    """The ``width`` digits of a mask below ``2**width``, bit ``j`` first."""
    return format(mask, f"0{width}b")[::-1]


def _positions_to_mask(positions: Iterable[int], width: int) -> int:
    """Mask with bit ``j - 1`` set for each 1-based position ``j``, in one
    pass over ``width`` digits; only for positions checked to be in range."""
    digits = bytearray(b"0" * width)
    for j in positions:
        digits[j - 1] = ord("1")
    return _digits_to_mask(digits) if digits else 0


def _mask_to_positions(mask: int, width: int) -> list[int]:
    """The 1-based positions of the set bits of a mask below ``2**width``,
    in increasing order: the inverse of :func:`_positions_to_mask`."""
    values = _mask_to_digits(mask, width).encode().translate(_DIGIT_VALUES)
    return list(compress(count(1), values))


@dataclass(frozen=True)
class ItemSet:
    """A canonical (sorted, duplicate-free) set of 1-based item indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.members:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValidationError(f"item index {m!r} must be a positive integer")
        if list(self.members) != sorted(set(self.members)):
            raise ValidationError("item set members must be sorted and distinct")

    @classmethod
    def of(cls, items: Iterable[int]) -> "ItemSet":
        return cls(tuple(sorted(set(items))))

    @classmethod
    def _of_sorted(cls, members: tuple[int, ...]) -> "ItemSet":
        """The set of members known to be positive, sorted and distinct,
        left unchecked."""
        item_set = object.__new__(cls)
        item_set.__dict__["members"] = members
        return item_set

    @classmethod
    def parse(cls, text: str) -> "ItemSet":
        text = text.strip()
        if not text:
            return cls(())
        try:
            items = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValidationError(f"cannot parse item set {text!r}: {exc}") from None
        return cls.of(items)

    @classmethod
    def from_mask(cls, mask: int) -> "ItemSet":
        if mask < 0:
            raise ValidationError(f"item mask {mask} is negative")
        return cls(tuple(_mask_to_positions(mask, mask.bit_length())))

    def to_mask(self, n: int) -> int:
        for m in self.members:  # sorted: the first one past n is reported
            if m > n:
                raise ValidationError(f"item index {m} out of range 1..{n}")
        return _positions_to_mask(self.members, n)

    def format(self) -> str:
        return ",".join(str(m) for m in self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: object) -> bool:
        return item in self.members


def _column_masks(digits: str, cols: int) -> tuple[int, ...]:
    """Column masks of the 0/1 rows laid end to end in ``digits``: column
    ``j`` is every ``cols``-th digit from digit ``j``."""
    return tuple(_digits_to_mask(digits[j::cols]) for j in range(cols))


@dataclass(frozen=True)
class BinaryMatrix:
    """A ``t x n`` 0/1 measurement matrix (rows are tests, columns items)."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]
    col_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("matrix dimensions must be positive")
        if len(self.row_masks) != self.rows:
            raise ValidationError(
                f"expected {self.rows} row masks, got {len(self.row_masks)}"
            )
        for i, mask in enumerate(self.row_masks):
            if mask < 0 or mask >> self.cols:
                raise ValidationError(f"row {i + 1} has bits outside 1..{self.cols}")
        digits = "".join([_mask_to_digits(mask, self.cols) for mask in self.row_masks])
        object.__setattr__(self, "col_masks", _column_masks(digits, self.cols))

    @classmethod
    def _from_digits(cls, rows: int, cols: int, digits: str) -> "BinaryMatrix":
        """The matrix whose rows, laid end to end, are ``digits``: positive
        dimensions and ``rows * cols`` digits known to be 0/1, left unchecked."""
        backwards = digits[::-1]  # each row, reversed, is one slice of it
        matrix = object.__new__(cls)
        matrix.__dict__.update(
            rows=rows,
            cols=cols,
            row_masks=tuple(
                int(backwards[s : s + cols], 2) for s in range((rows - 1) * cols, -1, -cols)
            ),
            col_masks=_column_masks(digits, cols),
        )
        return matrix

    @classmethod
    def from_bits(cls, bit_rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        lines: list[str] = []
        for row in bit_rows:
            row = list(row)
            if lines and len(row) != len(lines[0]):
                raise ValidationError("ragged rows in matrix")
            for bit in row:
                if bit not in (0, 1):
                    raise ValidationError(f"matrix entry {bit!r} is not 0/1")
            lines.append("".join("1" if bit else "0" for bit in row))
        if not lines or not lines[0]:
            raise ValidationError("matrix must have at least one row and column")
        return cls._from_digits(len(lines), len(lines[0]), "".join(lines))

    @classmethod
    def parse(cls, text: str) -> "BinaryMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValidationError("empty matrix file")
        head = lines[0].split()
        if len(head) != 2:
            raise ValidationError('matrix header must be "t n"')
        if not all(h.isascii() and h.isdigit() for h in head):
            raise ValidationError('matrix header must be "t n" with integers')
        t, n = int(head[0]), int(head[1])
        body = lines[1:]
        if len(body) != t:
            raise ValidationError(f"expected {t} matrix rows, found {len(body)}")
        digits = "".join(body)
        if (
            not digits.isascii()
            or digits.encode().translate(None, b"01")
            or any(len(line) != n for line in body)
        ):
            for i, line in enumerate(body, start=1):
                if len(line) != n or set(line) - {"0", "1"}:
                    raise ValidationError(f"matrix row {i} is not {n} characters of 0/1")
        if t < 1 or n < 1:
            raise ValidationError("matrix dimensions must be positive")
        return cls._from_digits(t, n, digits)

    @classmethod
    def load(cls, path: str | Path) -> "BinaryMatrix":
        try:
            text = Path(path).read_text(encoding="ascii")
        except OSError as exc:
            raise ValidationError(f"cannot read matrix file {path}: {exc}") from None
        return cls.parse(text)

    def to_text(self) -> str:
        out = [f"{self.rows} {self.cols}"]
        out.extend(_mask_to_digits(mask, self.cols) for mask in self.row_masks)
        return "\n".join(out) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="ascii")

    def entry(self, row: int, col: int) -> int:
        """Entry at 1-based (row, col)."""
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise ValidationError(f"entry ({row}, {col}) out of range")
        return self.row_masks[row - 1] >> (col - 1) & 1

    def row_support(self, row: int) -> tuple[int, ...]:
        """1-based items pooled by the given 1-based test."""
        if not 1 <= row <= self.rows:
            raise ValidationError(f"row {row} out of range 1..{self.rows}")
        return ItemSet.from_mask(self.row_masks[row - 1]).members

    def column_weight(self, col: int) -> int:
        if not 1 <= col <= self.cols:
            raise ValidationError(f"column {col} out of range 1..{self.cols}")
        return self.col_masks[col - 1].bit_count()


@dataclass(frozen=True)
class OutcomeVector:
    """``t`` test outcomes: test ``i`` is positive iff ``positives`` has bit ``i - 1``."""

    t: int
    positives: int

    def __post_init__(self) -> None:
        t, p = self.t, self.positives
        if not (isinstance(t, int) and isinstance(p, int)) or t < 1 or p < 0 or p >> t:
            raise ValidationError(f"outcome mask {p} does not fit {t} tests")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "OutcomeVector":
        """Outcome whose test ``i`` is entry ``i - 1``, an entry equal to 0 or 1."""
        bits = tuple(bits)
        if not bits:
            raise ValidationError("outcome vector must not be empty")
        for bit in bits:
            if bit not in (0, 1):
                raise ValidationError(f"outcome entry {bit!r} is not 0/1")
        return cls.parse("".join("1" if bit else "0" for bit in bits))

    @classmethod
    def parse(cls, text: str) -> "OutcomeVector":
        line = text.strip()
        if not line or set(line) - {"0", "1"}:
            raise ValidationError("outcome file must be one line of 0/1 characters")
        return cls(len(line), _digits_to_mask(line))

    @classmethod
    def load(cls, path: str | Path) -> "OutcomeVector":
        try:
            text = Path(path).read_text(encoding="ascii")
        except OSError as exc:
            raise ValidationError(f"cannot read outcome file {path}: {exc}") from None
        return cls.parse(text)

    @property
    def bits(self) -> tuple[int, ...]:
        """The ``t`` outcomes as 0/1 ints, test 1 first."""
        return tuple(self.to_text()[:-1].encode().translate(_DIGIT_VALUES))

    @property
    def negatives_mask(self) -> int:
        """Mask of the negative tests, test ``i`` being bit ``i - 1``."""
        return ~self.positives & ((1 << self.t) - 1)

    def to_text(self) -> str:
        return _mask_to_digits(self.positives, self.t) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="ascii")

    def flipped(self, rows: Iterable[int]) -> "OutcomeVector":
        """Copy with the given 1-based rows flipped."""
        rows = set(rows)
        if outside := [r for r in sorted(rows) if not 1 <= r <= self.t]:
            raise ValidationError(f"flip row {outside[0]} out of range 1..{self.t}")
        return OutcomeVector(self.t, self.positives ^ _positions_to_mask(rows, self.t))

    def __len__(self) -> int:
        return self.t
