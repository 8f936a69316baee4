"""Binary measurement matrices, outcome vectors, and item sets.

Conventions used across the package:

* Items (columns) and tests (rows) are numbered from 1 at every public
  surface, matching the usual presentation of pooling designs.
* Internally a row is a single Python integer used as a bitmask, with bit
  ``j - 1`` standing for item ``j``; a column is likewise a bitmask over
  rows.  All set intersections reduce to ``&`` plus a popcount.
* A :class:`BinaryMatrix` is stored as its column masks, the only masks
  the kernels read; its row masks are built from them on first read.
  Matrix text is read and written one column at a time, as a strided
  slice of the rows' lines.
* An outcome ``OutcomeVector(t, positives)`` is a mask too, with bit ``i - 1`` set
  when test ``i`` is positive; ``from_bits`` builds one from 0/1 entries, checking each.

Text formats (used by the CLI and by experiment specs):

* matrix file: first line ``"t n"``, then ``t`` lines of ``n`` characters
  from ``{0, 1}``, character ``j`` of a row being item ``j``;
* outcome file: a single line of ``t`` characters from ``{0, 1}``,
  character ``i`` being test ``i``;
* item set: comma-separated 1-based indices, empty string for the empty set.

An integer read from text (here, at the CLI or in a spec file) is an optional
``-`` and ASCII digits, with optional ASCII whitespace around them, read by
:func:`~tgtkit.errors._parse_int`; the matrix header's ``t n`` are ASCII digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import ValidationError, _parse_ints, _require_int

#: maps binary digits to their values ("1" -> 1)
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

#: rows of matrix text that ``to_text`` fills at a time, one strided copy per
#: column each; on a tall matrix a block stays in cache while every column
#: writes into it (97,847 x 200 on a 2-vCPU Xeon, Python 3.11: about 230 ms
#: unblocked, 110-130 ms in blocks)
_TEXT_BLOCK_ROWS = 4096


def _read_text(path: str | Path, what: str) -> str:
    """The text of an ASCII file, or a :class:`ValidationError` naming it as
    a ``what`` file when it cannot be read or is not ASCII."""
    try:
        return Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None


def _write_text(path: str | Path, text: str, what: str) -> None:
    """Write ASCII ``text`` to a file, or raise a :class:`ValidationError`
    naming it as a ``what`` file when it cannot be written."""
    try:
        Path(path).write_text(text, encoding="ascii")
    except OSError as exc:
        raise ValidationError(f"cannot write {what} file {path}: {exc}") from None


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
            _require_int("item index", m)
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
        return cls.of(_parse_ints("item index", text))

    @classmethod
    def from_mask(cls, mask: int) -> "ItemSet":
        _require_int("item mask", mask, None)
        if mask < 0:
            raise ValidationError(f"item mask {mask} is negative")
        return cls(tuple(_mask_to_positions(mask, mask.bit_length())))

    def to_mask(self, n: int) -> int:
        _require_int("n", n, None)
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


def _text_columns(digits: str, cols: int, stride: int) -> tuple[int, ...]:
    """Column masks of 0/1 rows of ``cols`` digits laid out every ``stride``
    characters in ``digits`` (``stride`` is ``cols`` end to end, ``cols + 1``
    for newline-ended lines): column ``j`` is every ``stride``-th character
    from character ``j``."""
    return tuple(_digits_to_mask(digits[j::stride]) for j in range(cols))


def _transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` masks of the transpose: bit ``i`` of mask ``j`` is bit
    ``j`` of ``masks[i]``, for masks below ``2**width``."""
    digits = "".join(map(format, reversed(masks), repeat(f"0{width}b")))
    return tuple(int(digits[j::width], 2) for j in range(width - 1, -1, -1))


def _is_canonical(body: str, rows: int, cols: int) -> bool:
    """Whether ``body`` is ``rows`` lines of ``cols`` 0/1 characters, each
    ended by ``"\\n"``; ``isascii`` comes first, as ``encode`` fails on a
    lone surrogate."""
    return (
        len(body) == rows * (cols + 1)
        and body.isascii()
        and body.encode().translate(None, b"01") == b"\n" * rows
        and body[cols :: cols + 1] == "\n" * rows
    )


def _header_sizes(fields: list[str]) -> Optional[tuple[int, int]]:
    """``(t, n)`` of header fields that are two runs of ASCII digits, else None."""
    if len(fields) == 2 and all(f.isascii() and f.isdigit() for f in fields):
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    return None


def _canonical_body(text: str) -> tuple[int, int, str]:
    """``(t, n, body)`` of a matrix file, ``body`` being its ``t`` rows as
    canonical text: lines of ``n`` 0/1 characters, each ended by ``"\\n"``.

    Text that is already a ``"t n"`` header over a canonical body is checked
    in one pass.  Other text has its lines stripped and blank ones skipped,
    then checked one at a time, so an error names the first bad line.
    """
    head, _, body = text.partition("\n")
    sizes = _header_sizes(head.split(" "))
    if sizes and sizes[0] >= 1 and sizes[1] >= 1 and _is_canonical(body, *sizes):
        return *sizes, body
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError('matrix header must be "t n"')
    sizes = _header_sizes(head)
    if sizes is None:
        raise ValidationError('matrix header must be "t n" with integers')
    t, n = sizes
    rows = lines[1:]
    if len(rows) != t:
        raise ValidationError(f"expected {t} matrix rows, found {len(rows)}")
    body = "".join([row + "\n" for row in rows])
    if not _is_canonical(body, t, n):
        for i, row in enumerate(rows, start=1):
            if len(row) != n or set(row) - {"0", "1"}:
                raise ValidationError(f"matrix row {i} is not {n} characters of 0/1")
    if t < 1 or n < 1:
        raise ValidationError("matrix dimensions must be positive")
    return t, n, body


def _rows_holding(col_masks: Iterable[int], rows: int, top: int) -> list[int]:
    """``at_least[k]`` for ``k`` in ``0..top``: the mask of the rows, among the
    ``rows`` bits, that hold ``k`` or more of the columns ``col_masks``.  The
    counts are bit-sliced and saturate at ``top``: each column lifts the rows
    it holds from ``at_least[k - 1]`` into ``at_least[k]``, top level first."""
    at_least = [(1 << rows) - 1] + [0] * top
    for col in col_masks:
        for k in range(top, 0, -1):
            at_least[k] |= at_least[k - 1] & col
    return at_least


def _count_planes(masks: Iterable[int]) -> list[int]:
    """How many of ``masks`` hold each bit, bit-sliced: bit ``i`` of
    ``planes[k]`` is bit ``k`` of the count at bit ``i``.  Each mask is
    added as a carry through the planes, which grow as the counts need."""
    planes: list[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            plane = planes[k]
            planes[k] = plane ^ carry
            carry &= plane
            k += 1
    return planes


@dataclass(frozen=True, init=False, repr=False)
class BinaryMatrix:
    """A ``t x n`` 0/1 measurement matrix (rows are tests, columns items).

    It is stored as its column masks; ``row_masks`` is built from them when
    first read, and kept by :meth:`_derived`, as is what a decoder derives
    from the entries.  Equality, hashing, ``repr``, pickles and copies
    depend on the entries alone.
    """

    rows: int
    cols: int
    col_masks: tuple[int, ...]

    def __init__(self, rows: int, cols: int, row_masks: Sequence[int]) -> None:
        _require_int("rows", rows, None)
        _require_int("cols", cols, None)
        if rows < 1 or cols < 1:
            raise ValidationError("matrix dimensions must be positive")
        if len(row_masks) != rows:
            raise ValidationError(f"expected {rows} row masks, got {len(row_masks)}")
        row_masks = tuple(row_masks)
        if set(map(type, row_masks)) != {int} or min(row_masks) < 0 or max(row_masks) >> cols:
            for i, mask in enumerate(row_masks, 1):
                _require_int(f"row {i} mask", mask, None)
                if mask < 0 or mask >> cols:
                    raise ValidationError(f"row {i} has bits outside 1..{cols}")
        self.__dict__.update(
            rows=rows, cols=cols, col_masks=_transpose(row_masks, cols), _row_masks=row_masks
        )

    @classmethod
    def _from_columns(cls, rows: int, cols: int, col_masks: tuple[int, ...]) -> "BinaryMatrix":
        """The matrix of ``cols`` column masks below ``2**rows``, left unchecked."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(rows=rows, cols=cols, col_masks=col_masks)
        return matrix

    @classmethod
    def _from_digits(cls, rows: int, cols: int, digits: str) -> "BinaryMatrix":
        """The matrix whose rows, laid end to end, are ``digits``: positive
        dimensions and ``rows * cols`` digits known to be 0/1, left unchecked."""
        return cls._from_columns(rows, cols, _text_columns(digits, cols, cols))

    @property
    def row_masks(self) -> tuple[int, ...]:
        """The ``rows`` row masks, bit ``j - 1`` of row ``i`` being entry
        ``(i, j)``; built from the columns on first read."""
        return self._derived("_row_masks", lambda m: _transpose(m.col_masks, m.rows))

    def _derived(self, name: str, make: Callable[["BinaryMatrix"], Any]) -> Any:
        """The value kept under ``name``, made by ``make(self)`` on first
        call; threads that race here all keep the first value."""
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__.setdefault(name, make(self))
        return value

    def __getstate__(self) -> dict:
        """The fields alone: a copy or an unpickled matrix derives its own
        values when it reads them."""
        return {"rows": self.rows, "cols": self.cols, "col_masks": self.col_masks}

    def __repr__(self) -> str:
        return f"BinaryMatrix(rows={self.rows}, cols={self.cols}, row_masks={self.row_masks})"

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
        """The matrix of a matrix file; see :func:`_canonical_body`."""
        t, n, body = _canonical_body(text)
        return cls._from_columns(t, n, _text_columns(body, n, n + 1))

    @classmethod
    def load(cls, path: str | Path) -> "BinaryMatrix":
        return cls.parse(_read_text(path, "matrix"))

    def to_text(self) -> str:
        t, n = self.rows, self.cols
        spec = f"0{t}b"
        columns = [format(col, spec)[::-1].encode() for col in self.col_masks]
        body = bytearray((b"0" * n + b"\n") * t)
        for first in range(0, t, _TEXT_BLOCK_ROWS):
            end = min(t, first + _TEXT_BLOCK_ROWS) * (n + 1)
            for j, digits in enumerate(columns):
                body[first * (n + 1) + j : end : n + 1] = digits[first : first + _TEXT_BLOCK_ROWS]
        return f"{t} {n}\n" + body.decode()

    def save(self, path: str | Path) -> None:
        _write_text(path, self.to_text(), "matrix")

    def entry(self, row: int, col: int) -> int:
        """Entry at 1-based (row, col)."""
        _require_int("row", row, None)
        _require_int("col", col, None)
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise ValidationError(f"entry ({row}, {col}) out of range")
        return self.col_masks[col - 1] >> (row - 1) & 1

    def row_support(self, row: int) -> tuple[int, ...]:
        """1-based items pooled by the given 1-based test."""
        _require_int("row", row, None)
        if not 1 <= row <= self.rows:
            raise ValidationError(f"row {row} out of range 1..{self.rows}")
        return tuple(j for j, col in enumerate(self.col_masks, 1) if col >> (row - 1) & 1)

    def column_weight(self, col: int) -> int:
        _require_int("col", col, None)
        if not 1 <= col <= self.cols:
            raise ValidationError(f"column {col} out of range 1..{self.cols}")
        return self.col_masks[col - 1].bit_count()


def _check_flip_rows(rows: Iterable[int], t: int) -> None:
    """Reject a flip row that is not an integer, then the lowest not in ``1..t``."""
    for r in rows:
        _require_int("flip row", r, None)
    if outside := [r for r in sorted(rows) if not 1 <= r <= t]:
        raise ValidationError(f"flip row {outside[0]} out of range 1..{t}")


@dataclass(frozen=True)
class OutcomeVector:
    """``t`` test outcomes: test ``i`` is positive iff ``positives`` has bit ``i - 1``."""

    t: int
    positives: int

    def __post_init__(self) -> None:
        t, p = self.t, self.positives
        _require_int("t", t)
        _require_int("positives", p, 0)
        if p >> t:
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
        return cls.parse(_read_text(path, "outcome"))

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
        _write_text(path, self.to_text(), "outcome")

    def flipped(self, rows: Iterable[int]) -> "OutcomeVector":
        """Copy with the given 1-based rows flipped; a row listed twice flips once."""
        rows = tuple(rows)
        _check_flip_rows(rows, self.t)
        return OutcomeVector(self.t, self.positives ^ sum(1 << (r - 1) for r in set(rows)))

    def __len__(self) -> int:
        return self.t
