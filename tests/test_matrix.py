"""Text formats, round-trips, and validation of the basic containers."""

from __future__ import annotations

import contextlib
import copy
import importlib
import math
import pickle
import random
import re
import sys
import threading
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    GapPolicy,
    ItemSet,
    OutcomeVector,
    TGTParams,
    ValidationError,
    build_family,
    check_consistency,
    decode,
    encode,
    generate,
    t0,
    verify_disjunct,
)

from tgtkit.decode import (
    _PAIR_STORE_BOUND,
    _PAIR_STORE_PREFIX,
    _TRIPLE_STORE_BOUND,
    _TRIPLE_STORE_MIN_ROWS,
    _PairRows,
    _TripleRows,
)
from tgtkit.matrix import _count_planes

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


def test_matrix_lookups_out_of_range_rejected():
    m = BinaryMatrix.parse(GOLDEN_TEXT)
    for row, col in ((0, 1), (21, 1), (1, 0), (1, 7)):
        with pytest.raises(ValidationError, match=rf"^entry \({row}, {col}\) out of range$"):
            m.entry(row, col)
    for row in (0, 21):
        with pytest.raises(ValidationError, match=f"^row {row} out of range 1..20$"):
            m.row_support(row)
    for col in (0, 7):
        with pytest.raises(ValidationError, match=f"^column {col} out of range 1..6$"):
            m.column_weight(col)


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
    for text, message in (
        ("0 3\n", "matrix dimensions must be positive"),
        ("0 0\n", "matrix dimensions must be positive"),
        ("2 0\n\n\n", "expected 2 matrix rows, found 0"),
        ("1 0\n\n", "expected 1 matrix rows, found 0"),
    ):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            BinaryMatrix.parse(text)
    header = '^matrix header must be "t n" with integers$'
    for head in ("+1 2", "1 0_2", "1 \uff12", "1 2.0"):  # int() takes all but the last
        with pytest.raises(ValidationError, match=header):
            BinaryMatrix.parse(head + "\n11")


def test_matrix_constructor_checks_the_masks():
    assert BinaryMatrix(2, 3, (0b111, 0)) == BinaryMatrix.parse("2 3\n111\n000\n")
    for masks, bad in (((1, 8), 2), ((1, -1), 2), ((8, 16, -1), 1), ((0, 7, 9), 3)):
        with pytest.raises(ValidationError, match=f"^row {bad} has bits outside 1..3$"):
            BinaryMatrix(len(masks), 3, masks)
    with pytest.raises(ValidationError, match="^expected 2 row masks, got 1$"):
        BinaryMatrix(2, 3, (1,))
    with pytest.raises(ValidationError, match="^matrix dimensions must be positive$"):
        BinaryMatrix(1, 0, (0,))
    # a mask past the first row is checked too (the sizes and the first
    # mask are cases of test_errors.py)
    with pytest.raises(ValidationError, match=r"^row 2 mask must be an integer, got 1\.0$"):
        BinaryMatrix(2, 3, (1, 1.0))


def test_matrix_from_bits_matches_parse():
    m1 = BinaryMatrix.from_bits([[1, 0, 1], [0, 1, 1]])
    m2 = BinaryMatrix.parse("2 3\n101\n011")
    assert m1 == m2
    assert m1.col_masks == (0b01, 0b10, 0b11)
    with pytest.raises(ValidationError, match="^ragged rows in matrix$"):
        BinaryMatrix.from_bits([[1, 0, 1], [0, 1]])
    with pytest.raises(ValidationError, match="^matrix entry 2 is not 0/1$"):
        BinaryMatrix.from_bits([[1, 0, 1], [0, 2, 1]])
    for empty in ([], [[]]):
        with pytest.raises(ValidationError, match="^matrix must have at least one row and column$"):
            BinaryMatrix.from_bits(empty)


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
        assert OutcomeVector.from_bits(bits).negatives_mask == reference


def test_outcome_entries_equal_to_0_or_1():
    y = OutcomeVector.from_bits((0, 1.0, True, False, 0.0))
    assert y.negatives_mask == 0b11001
    assert y == OutcomeVector.from_bits((0, 1, 1, 0, 0)) and (
        hash(y) == hash(OutcomeVector.from_bits((0, 1, 1, 0, 0)))
    )
    assert [type(b) for b in y.bits] == [int] * 5
    assert y.to_text() == "01100\n" and OutcomeVector.parse(y.to_text()) == y
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
            OutcomeVector.from_bits(bits)


def test_outcome_constructor_checks_the_mask():
    assert OutcomeVector(4, 0b0110) == OutcomeVector.parse("0110")
    assert OutcomeVector(1, 0) == OutcomeVector.from_bits([0])
    for t, positives, message in (
        (4, 16, "outcome mask 16 does not fit 4 tests"),
        (4, -1, "positives must be >= 0, got -1"),
        (0, 0, "t must be >= 1, got 0"),
        (-2, 0, "t must be >= 1, got -2"),
        (2.0, 1, "t must be an integer, got 2.0"),
        (2, 1.0, "positives must be an integer, got 1.0"),
        ("3", 1, "t must be an integer, got '3'"),
        (True, 1, "t must be an integer, got True"),
        (1, True, "positives must be an integer, got True"),
        (True, False, "t must be an integer, got True"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            OutcomeVector(t, positives)
    for empty in ((), iter(())):
        with pytest.raises(ValidationError, match="^outcome vector must not be empty$"):
            OutcomeVector.from_bits(empty)
    assert OutcomeVector.from_bits(iter([0, 1, 1])) == OutcomeVector(3, 0b110)


class _PerBitOutcome:
    """An outcome kept as a tuple of 0/1 entries, each method one pass over
    them: the oracle for the mask-backed :class:`OutcomeVector`."""

    def __init__(self, bits):
        self.bits = tuple(bits)

    def negatives_mask(self):
        return sum(1 << i for i, b in enumerate(self.bits) if b == 0)

    def to_text(self):
        return "".join(str(b) for b in self.bits) + "\n"

    def flipped(self, rows):
        bits = list(self.bits)
        for r in sorted(set(rows)):
            if not 1 <= r <= len(bits):
                raise ValidationError(f"flip row {r} out of range 1..{len(bits)}")
            bits[r - 1] ^= 1
        return _PerBitOutcome(bits)


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(1, 5000),
    density=st.sampled_from((0.0, 0.01, 0.5, 0.99, 1.0)),
    picks=st.lists(st.integers(0, 2**16), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(t=1, density=0.0, picks=[2], seed=0)
@example(t=4300, density=0.5, picks=[4301, 2], seed=1)
@example(t=4301, density=0.5, picks=[4302], seed=2)
@example(t=5000, density=1.0, picks=[5001, 5002], seed=3)
def test_outcome_matches_per_bit_reference(t, density, picks, seed):
    # t past 4,300 digits crosses the default limit on int/str conversions;
    # flip rows run from -1 to t + 1, so some are out of range
    flips = [pick % (t + 3) - 1 for pick in picks]
    rng = random.Random(seed)
    ref = _PerBitOutcome(int(rng.random() < density) for _ in range(t))
    y = OutcomeVector.from_bits(ref.bits)
    assert y.bits == ref.bits and [type(b) for b in y.bits[:3]] == [int] * min(t, 3)
    assert y.negatives_mask == ref.negatives_mask()
    assert y.to_text() == ref.to_text()
    assert OutcomeVector.parse(ref.to_text()) == y and len(y) == t
    try:
        ref_flipped = ref.flipped(flips)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            y.flipped(flips)
        return
    z = y.flipped(flips)
    assert z.bits == ref_flipped.bits
    assert (z == y) == (ref_flipped.bits == ref.bits)
    assert z == OutcomeVector.from_bits(ref_flipped.bits)
    assert hash(z) == hash(OutcomeVector.from_bits(ref_flipped.bits))


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
    for members in ((2, 1), (1, 1)):
        with pytest.raises(ValidationError, match="^item set members must be sorted and distinct$"):
            ItemSet(members)


def _per_bit_columns(row_masks, n):
    """Column masks by a per-bit transpose, the oracle for ``col_masks``."""
    cols = [0] * n
    for i, mask in enumerate(row_masks):
        for j in range(n):
            if mask >> j & 1:
                cols[j] |= 1 << i
    return tuple(cols)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 5000),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
@example(t=5000, n=80, seed=1, density=0.5)  # columns past 4,300 digits
@example(t=1, n=1, seed=0, density=1.0)
def test_matrix_text_round_trip_and_transpose(t, n, seed, density):
    rng = random.Random(seed)
    rows = tuple(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(t)
    )
    m = BinaryMatrix(t, n, rows)
    assert m.col_masks == _per_bit_columns(rows, n)
    lines = m.to_text().splitlines()
    assert lines[0] == f"{t} {n}"
    assert lines[1:] == ["".join(str(mask >> j & 1) for j in range(n)) for mask in rows]
    back = BinaryMatrix.parse(m.to_text())
    assert back == m and back.col_masks == m.col_masks


def _row_text(mask, n):
    """Row ``mask`` as its ``n`` digits, item 1 first: the per-row oracle for
    ``to_text``."""
    return format(mask, f"0{n}b")[::-1]


@settings(max_examples=120, deadline=None)
@given(
    t=st.integers(1, 70),
    n=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_every_construction_route_gives_the_same_matrix(t, n, seed, density):
    rng = random.Random(seed)
    rows = tuple(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(t)
    )
    text = f"{t} {n}\n" + "".join(_row_text(mask, n) + "\n" for mask in rows)
    m = BinaryMatrix(t, n, rows)
    routes = [
        m,
        BinaryMatrix.parse(m.to_text()),
        BinaryMatrix._from_digits(t, n, "".join(_row_text(mask, n) for mask in rows)),
        BinaryMatrix.from_bits([[mask >> j & 1 for j in range(n)] for mask in rows]),
    ]
    for route in routes:
        assert route == m and hash(route) == hash(m)
        assert route.col_masks == _per_bit_columns(rows, n)
        assert route.to_text() == text
        for twin in (copy.copy(route), copy.deepcopy(route), pickle.loads(pickle.dumps(route))):
            assert twin == m and hash(twin) == hash(m) and twin.to_text() == text
        assert route.row_masks == rows
        assert pickle.loads(pickle.dumps(route)).row_masks == rows


def _rows_built(matrix):
    """Whether the matrix has built its row masks."""
    return "_row_masks" in vars(matrix)


def test_no_kernel_builds_the_row_masks(tmp_path):
    # the kernels read columns only; a kernel that reads rows fails here
    # rather than silently paying a transpose
    params = TGTParams(n=8, d=3, ell=0, u=2, z=3)
    m = generate(params.n, params.d, params.u, params.z, seed=5)
    assert not _rows_built(m)
    text = m.to_text()
    path = tmp_path / "m.txt"
    path.write_text(text)
    parsed, loaded = BinaryMatrix.parse(text), BinaryMatrix.load(path)
    assert parsed == loaded == m
    defectives = ItemSet.of([2, 5, 7])
    outcome = encode(m, defectives, params.ell, params.u, GapPolicy.always_negative())
    build_family(m, outcome, params.u, params.e)
    for algorithm in (1, 2, 3):
        decode(outcome, m, params, algorithm)
    verify_disjunct(m, params.d, params.u, params.z)
    t0(m, outcome, defectives)
    check_consistency(m, defectives, outcome, params.ell, params.u)
    assert not any(_rows_built(x) for x in (m, parsed, loaded))
    assert m.row_masks == parsed.row_masks and m.row_masks is m.row_masks
    # the constructor keeps the row masks it was given
    assert _rows_built(BinaryMatrix(m.rows, m.cols, m.row_masks))


def test_threads_reading_unbuilt_row_masks_agree():
    # threads that race to build the row masks each get the right tuple
    rng = random.Random(0)
    rows = tuple(rng.getrandbits(40) for _ in range(300))
    text = BinaryMatrix(300, 40, rows).to_text()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            m = BinaryMatrix.parse(text)
            seen = []
            start = threading.Barrier(8)

            def read():
                start.wait(timeout=10)
                seen.append(m.row_masks)

            workers = [threading.Thread(target=read) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
            assert seen == [rows] * 8 and m.row_masks == rows
    finally:
        sys.setswitchinterval(old_interval)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**70 - 1), max_size=40))
def test_count_planes_counts_the_holders_of_each_bit(masks):
    planes = _count_planes(masks)
    assert not planes or planes[-1]  # no plane above the largest count
    for bit in range(70):
        count = sum(mask >> bit & 1 for mask in masks)
        assert sum((plane >> bit & 1) << k for k, plane in enumerate(planes)) == count


def _masks_built(matrix, store):
    """How many row masks the matrix's ``store`` (``_PairRows`` or
    ``_TripleRows``) keeps (None: the matrix has no such store)."""
    kept = vars(matrix).get(store._name)
    return None if kept is None else sum(mask is not None for mask in kept.masks)


def _head_stream():
    """A context in which the u = 3 stream reads the pair store head by
    head: the triple store's bound leaves it no row."""
    decode_module = importlib.import_module("tgtkit.decode")
    return mock.patch.object(decode_module, "_TRIPLE_STORE_BOUND", (0, 0))


def _three_item_decode_case(rows=3000):
    """A fresh u = 3 design past the pair screen and one outcome of it."""
    params = TGTParams(n=12, d=3, ell=0, u=3, z=3)
    rng = random.Random(rows)
    m = BinaryMatrix.parse(
        BinaryMatrix(rows, params.n, [rng.getrandbits(params.n) for _ in range(rows)]).to_text()
    )
    policy = GapPolicy.bernoulli(0.5, seed=1)
    outcome = encode(m, ItemSet.of([2, 7, 11]), params.ell, params.u, policy)
    return m, outcome, params


def _check_store_invisible(store, other):
    """A u = 3 decode that builds ``store`` and not ``other`` changes
    nothing visible of the matrix, and a copy or pickle of it carries none."""
    m, outcome, params = _three_item_decode_case()
    fresh = BinaryMatrix.parse(m.to_text())
    results = [decode(outcome, m, params, algorithm) for algorithm in (1, 2, 3)]
    assert 0 < _masks_built(m, store) <= store.size(m)
    assert _masks_built(m, other) is None
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    for twin in (copy.copy(m), pickle.loads(pickle.dumps(m))):
        # a twin carries no store of its own, and shares none
        assert twin == m and hash(twin) == hash(m) and _masks_built(twin, store) is None
        assert [decode(outcome, twin, params, algorithm) for algorithm in (1, 2, 3)] == results
        assert store.of(twin) is not store.of(m)


def test_pair_store_changes_nothing_visible():
    with _head_stream():
        _check_store_invisible(_PairRows, _TripleRows)


def test_triple_store_changes_nothing_visible():
    _check_store_invisible(_TripleRows, _PairRows)


def test_pair_store_is_bounded_in_rows_and_bits():
    max_rows, max_bits = _PAIR_STORE_BOUND
    m, outcome, params = _three_item_decode_case(max_rows + 100)
    with _head_stream():
        decode(outcome, m, params, 2)
    assert _PairRows.of(m).count == max_rows
    assert _masks_built(m, _PairRows) <= max_rows
    wide = BinaryMatrix(40, 3000, [(1 << 3000) - 1] * 40)
    count = _PairRows.of(wide).count
    assert count * 3001**2 <= max_bits < (count + 1) * 3001**2


def test_triple_store_is_bounded_in_rows_and_bits():
    max_rows, max_bits = _TRIPLE_STORE_BOUND
    m, outcome, params = _three_item_decode_case(max_rows + 100)
    decode(outcome, m, params, 2)
    assert _TripleRows.of(m).count == max_rows
    assert _masks_built(m, _TripleRows) <= max_rows
    # on a tall design the bits decide: n = 65 keeps just enough rows for
    # the u = 3 stream to read the store, and n = 66 too few
    for n in (60, 65, 66):
        tall = BinaryMatrix(3000, n, [(1 << n) - 1] * 3000)
        count, bits = _TripleRows.of(tall).count, math.comb(n, 3)
        assert count == _TripleRows.bound(n)
        assert count * bits <= max_bits < (count + 1) * bits
        assert (count >= _TRIPLE_STORE_MIN_ROWS) == (n <= 65)


@pytest.mark.parametrize("n, rows, store, other", [
    pytest.param(65, 100, _TripleRows, _PairRows, id="65-short"),
    pytest.param(66, 600, _PairRows, _TripleRows, id="66"),
])
def test_three_item_decode_reads_the_store_its_width_picks(n, rows, store, other):
    # the choice follows n alone: at n = 65 a design of fewer rows than the
    # u = 3 stream's threshold still reads the triple store, all its rows;
    # at n = 66 the triple store would keep too few rows, so the stream
    # reads the pair store head by head
    params = TGTParams(n=n, d=3, ell=0, u=3, z=3)
    rng = random.Random(n)
    m = BinaryMatrix(rows, n, [rng.getrandbits(n) for _ in range(rows)])
    outcome = encode(m, ItemSet.of([5, 40, 61]), params.ell, params.u, GapPolicy.always_negative())
    decode(outcome, m, params, 2)
    assert _masks_built(m, store) > 0 and _masks_built(m, other) is None
    assert _TripleRows.size(m) == min(rows, _TripleRows.bound(n))


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(1, 120),
    n=st.integers(1, 6),
    keep=st.integers(0, 40),
    density=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# a store of no row, of one row, and rows of one or two weights, so that
# nearly every row ties with another
@example(t=50, n=4, keep=0, density=0.5, seed=0)
@example(t=50, n=4, keep=1, density=0.5, seed=1)
@example(t=120, n=1, keep=40, density=0.5, seed=2)
@example(t=120, n=2, keep=40, density=0.5, seed=3)
@example(t=120, n=6, keep=40, density=1.0, seed=4)
def test_pair_store_keeps_the_heaviest_prefix_rows_in_order(t, n, keep, density, seed):
    # many rows of few items: most weights tie, and ties go in row order
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(t)]
    m = BinaryMatrix(t, n, rows)
    decode_module = importlib.import_module("tgtkit.decode")
    with mock.patch.object(decode_module, "_PAIR_STORE_BOUND", (keep, 1 << 27)):
        store = _PairRows.of(m)
    count = min(t, keep)
    prefix = min(t, _PAIR_STORE_PREFIX * count)
    weights = [mask.bit_count() for mask in rows]
    assert store.count == count
    assert store.rows == tuple(sorted(range(prefix), key=lambda i: (-weights[i], i))[:count])
    for s, i in enumerate(store.rows):
        assert [col >> s & 1 for col in store.cols] == [rows[i] >> j & 1 for j in range(n)]
        pairs = store.build(s)
        assert pairs == sum(
            1 << b * (n + 1) + x
            for b in range(1, n + 1)
            for x in range(1, n + 1)
            if rows[i] >> (b - 1) & 1 and rows[i] >> (x - 1) & 1
        )
    negatives = rng.getrandbits(t)
    assert store.gather(negatives) == sum(
        1 << s for s, i in enumerate(store.rows) if negatives >> i & 1
    )


def _triple_bit(n, a, b, c):
    """The bit of the sorted triple ``(a, b, c)`` in the triple store's layout."""
    return math.comb(n - a, 3) + math.comb(n - b, 2) + (c - b - 1)


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(1, 120),
    n=st.integers(3, 8),
    keep=st.integers(0, 40),
    density=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# a store of no row and of one row; n = 3, whose one triple is bit 0
@example(t=50, n=5, keep=0, density=0.5, seed=0)
@example(t=50, n=5, keep=1, density=0.5, seed=1)
@example(t=120, n=3, keep=40, density=0.5, seed=2)
@example(t=120, n=8, keep=40, density=1.0, seed=3)
def test_triple_store_keeps_the_heaviest_prefix_rows_and_their_triples(t, n, keep, density, seed):
    # the triple store weighs the pair store's prefix and keeps its rows as
    # the pair store does; each kept row's mask holds its triples, and
    # split reads any set of triples back in lexicographic order
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(t)]
    m = BinaryMatrix(t, n, rows)
    decode_module = importlib.import_module("tgtkit.decode")
    with mock.patch.object(decode_module, "_TRIPLE_STORE_BOUND", (keep, 1 << 24)), \
            mock.patch.object(decode_module, "_PAIR_STORE_BOUND", (keep, 1 << 27)):
        store = _TripleRows.of(m)
    count = min(t, keep)
    prefix = min(t, _PAIR_STORE_PREFIX * count)
    weights = [mask.bit_count() for mask in rows]
    assert store.count == count
    assert store.rows == tuple(sorted(range(prefix), key=lambda i: (-weights[i], i))[:count])
    triples = list(combinations(range(1, n + 1), 3))
    for s, i in enumerate(store.rows):
        assert store.build(s) == sum(
            1 << _triple_bit(n, *triple)
            for triple in triples
            if all(rows[i] >> (j - 1) & 1 for j in triple)
        )
    chosen = [triple for triple in triples if rng.random() < 0.3]
    groups = list(store.split(sum(1 << _triple_bit(n, *triple) for triple in chosen)))
    assert [rest + (c,) for rest, cs in groups for c in cs] == chosen
    assert all(cs for _, cs in groups) and len({rest for rest, _ in groups}) == len(groups)


def test_two_item_decode_keeps_no_pair_rows():
    params = TGTParams(n=12, d=3, ell=0, u=2, z=3)
    m = generate(params.n, params.d, params.u, params.z, seed=4)
    outcome = encode(m, ItemSet.of([3, 9]), params.ell, params.u, GapPolicy.always_negative())
    for algorithm in (1, 2, 3):
        decode(outcome, m, params, algorithm)
    build_family(m, outcome, params.u, params.e)
    assert _masks_built(m, _PairRows) is None and _masks_built(m, _TripleRows) is None


@pytest.mark.parametrize("stream", [contextlib.nullcontext, _head_stream],
                         ids=["triple-masks", "pair-masks"])
def test_threads_decoding_on_one_matrix_agree(stream):
    # threads that race to build the same row masks (the triple pass's, or
    # the head stream's pair masks) decode as one thread does
    m, outcome, params = _three_item_decode_case()
    expected = [decode(outcome, BinaryMatrix.parse(m.to_text()), params, alg) for alg in (1, 2, 3)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with stream():
            for _ in range(3):
                shared = BinaryMatrix.parse(m.to_text())
                seen = []
                start = threading.Barrier(4)

                def run():
                    start.wait(timeout=10)
                    seen.append([decode(outcome, shared, params, alg) for alg in (1, 2, 3)])

                workers = [threading.Thread(target=run) for _ in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
                assert seen == [expected] * 4
                assert _masks_built(shared, _PairRows if stream is _head_stream else _TripleRows)
    finally:
        sys.setswitchinterval(old_interval)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**300))
@example(0)
@example(1 << 4999 | 1)
def test_itemset_mask_round_trip(mask):
    items = ItemSet.from_mask(mask)
    assert items.members == tuple(
        j + 1 for j in range(mask.bit_length()) if mask >> j & 1
    )
    assert items.to_mask(mask.bit_length()) == mask
    with pytest.raises(ValidationError, match="is negative"):
        ItemSet.from_mask(-mask - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_outcome_text_round_trip(bits):
    y = OutcomeVector.from_bits(tuple(bits))
    assert y.to_text() == "".join(map(str, bits)) + "\n"
    assert OutcomeVector.parse(y.to_text()) == y


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.11"
)
def test_codec_is_exempt_from_the_int_digit_limit():
    # base 2 is exempt from the limit on decimal int/str conversions, so the
    # codec handles rows, columns and outcomes longer than 4,300 digits
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default limit
    try:
        with pytest.raises(ValueError):
            int("1" * 5000)
        half = 2500
        wide = BinaryMatrix.parse("1 5000\n" + "01" * half + "\n")
        assert wide.row_masks == (int("10" * half, 2),)
        assert BinaryMatrix.parse(wide.to_text()) == wide
        tall = BinaryMatrix(5000, 1, (1, 0) * half)
        assert tall.col_masks == (int("01" * half, 2),)
        assert BinaryMatrix.parse(tall.to_text()) == tall
        y = OutcomeVector.from_bits((0, 1) * half)
        assert y.negatives_mask == int("01" * half, 2)
        assert OutcomeVector.parse(y.to_text()) == y
        assert ItemSet.from_mask(1 << 4999).members == (5000,)
    finally:
        sys.set_int_max_str_digits(old_limit)


#: text that ``int(..., 2)`` would accept or that breaks a row's length
_MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(["_", " ", "+", "-", "2", "b", "x"])),
    st.tuples(st.just("insert"), st.sampled_from(["_", " ", "0", "1", "0b", "+", "-"])),
    st.tuples(st.just("prefix"), st.sampled_from(["0b", "+", "-", "+0b", "_"])),
    st.tuples(st.just("swap_0b"), st.just("0b")),
    st.tuples(st.just("short"), st.just("")),
)


def _mutate(line, mutation, k):
    kind, text = mutation
    k %= len(line)
    if kind == "replace":
        return line[:k] + text + line[k + 1:]
    if kind == "insert":
        return line[:k] + text + line[k:]
    if kind == "prefix":
        return text + line
    if kind == "swap_0b":  # same length when the line has two digits or more
        return text + line[2:]
    return line[:k] + line[k + 1:]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.text("01", min_size=1, max_size=12), min_size=1, max_size=6),
    pick=st.integers(0, 5),
    k=st.integers(0, 11),
    mutation=_MUTATIONS,
)
def test_malformed_matrix_row_fails_the_row_check(rows, pick, k, mutation):
    n = len(rows[0])
    rows = [(row * n)[:n] for row in rows]
    i = pick % len(rows)
    rows[i] = _mutate(rows[i], mutation, k)
    text = f"{len(rows)} {n}\n" + "\n".join(rows) + "\n"
    row = rows[i].strip()
    if len(row) == n and set(row) <= {"0", "1"}:
        BinaryMatrix.parse(text)  # whitespace around a row is allowed
        return
    message = rf"^matrix row {i + 1} is not {n} characters of 0/1$"
    if not row:  # a blank line is skipped, so a row is missing
        message = rf"^expected {len(rows)} matrix rows, found {len(rows) - 1}$"
    with pytest.raises(ValidationError, match=message):
        BinaryMatrix.parse(text)


def _parse_reference(text):
    """``BinaryMatrix.parse`` checking and converting one line at a time."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError('matrix header must be "t n"')
    if not all(h.isascii() and h.isdigit() for h in head):
        raise ValidationError('matrix header must be "t n" with integers')
    t, n = int(head[0]), int(head[1])
    if len(lines) - 1 != t:
        raise ValidationError(f"expected {t} matrix rows, found {len(lines) - 1}")
    for i, line in enumerate(lines[1:], start=1):
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValidationError(f"matrix row {i} is not {n} characters of 0/1")
    return BinaryMatrix(t, n, tuple(int(line[::-1], 2) for line in lines[1:]))


def _parsed_or_error(text):
    """The parsed matrix with its column masks, or the error's type and message."""
    try:
        m = BinaryMatrix.parse(text)
    except ValidationError as exc:
        return type(exc), str(exc)
    return m, m.col_masks


def _reference_parsed_or_error(text):
    try:
        m = _parse_reference(text)
    except ValidationError as exc:
        return type(exc), str(exc)
    return m, _per_bit_columns(m.row_masks, m.cols)


#: ways to break a valid matrix text; "١" is a digit that int(..., 2) takes,
#: a lone surrogate cannot be encoded, "move_digit" keeps the length and the
#: newline count, and "\x1c" splits a line for ``splitlines`` but not for
#: ``split(" ")``; "crlf" to "no_final_newline" keep the matrix but leave the
#: canonical layout, so parse must normalise the text first
_TEXT_MUTATIONS = st.sampled_from(
    [
        "none",
        "ragged",
        "underscore",
        "space",
        "arabic_one",
        "surrogate",
        "missing_row",
        "zero_rows",
        "crlf",
        "blank_line",
        "indent",
        "no_final_newline",
        "move_digit",
        "header_separator",
    ]
)


def _mutate_text(rows, n, mutation, i, k):
    rows = list(rows)
    t = len(rows)
    k %= n
    if mutation == "ragged":
        rows[i] = rows[i] + "1" if k % 2 else rows[i][:-1]
    elif mutation == "underscore":
        rows[i] = rows[i][:k] + "_" + rows[i][k + 1:]
    elif mutation == "space":
        rows[i] = rows[i][:k] + " " + rows[i][k:]
    elif mutation == "arabic_one":
        rows[i] = rows[i][:k] + "\u0661" + rows[i][k + 1:]
    elif mutation == "surrogate":
        rows[i] = rows[i][:k] + "\ud800" + rows[i][k + 1:]
    elif mutation == "missing_row":
        del rows[i]
    elif mutation == "zero_rows":  # a "0 n" header, above no rows or the old ones
        t, rows = 0, rows if k % 2 else []
    elif mutation == "blank_line":
        rows.insert(i, " \t" if k % 2 else "")
    elif mutation == "indent":
        rows[i] = "  " + rows[i] if k % 2 else rows[i] + "\t"
    elif mutation == "move_digit":  # row i gains the last digit of the next row
        j = (i + 1) % t
        rows[i], rows[j] = rows[i] + rows[j][-1], rows[j][:-1]
    head = f"{t}\x1c{n}" if mutation == "header_separator" else f"{t} {n}"
    text = head + "\n" + "\n".join(rows) + "\n"
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation == "no_final_newline":
        return text[:-1]
    return text


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(st.text("01", min_size=1, max_size=70), min_size=1, max_size=12),
    mutation=_TEXT_MUTATIONS,
    pick=st.integers(0, 11),
    k=st.integers(0, 69),
)
@example(rows=["01", "10"], mutation="arabic_one", pick=1, k=0)
@example(rows=["1"], mutation="ragged", pick=0, k=0)  # an empty row is skipped
@example(rows=["011"], mutation="zero_rows", pick=0, k=0)
@example(rows=["011"], mutation="zero_rows", pick=0, k=1)
@example(rows=["01", "10"], mutation="crlf", pick=0, k=0)
@example(rows=["01", "10"], mutation="blank_line", pick=1, k=1)
@example(rows=["01", "10"], mutation="indent", pick=0, k=0)
@example(rows=["1"], mutation="no_final_newline", pick=0, k=0)
@example(rows=["011", "101"], mutation="move_digit", pick=0, k=0)
@example(rows=["01", "10"], mutation="header_separator", pick=0, k=0)
def test_parse_matches_per_line_reference(rows, mutation, pick, k):
    # one-pass validation gives the same matrix, or the same first error,
    # as checking and converting each line on its own
    n = len(rows[0])
    rows = [(row * n)[:n] for row in rows]
    text = _mutate_text(rows, n, mutation, pick % len(rows), k)
    assert _parsed_or_error(text) == _reference_parsed_or_error(text)


@settings(max_examples=300, deadline=None)
@given(
    line=st.text("01", min_size=1, max_size=40),
    k=st.integers(0, 39),
    mutation=_MUTATIONS,
)
def test_malformed_outcome_fails_the_digit_check(line, k, mutation):
    bad = _mutate(line, mutation, k)
    if bad.strip() and set(bad.strip()) <= {"0", "1"}:
        return  # removing one digit leaves a valid, shorter outcome
    with pytest.raises(ValidationError, match="^outcome file must be one line of 0/1"):
        OutcomeVector.parse(bad)


@settings(max_examples=300, deadline=None)
@given(st.text("01_ +-bx2\n", max_size=60), st.sampled_from(["", "2 3\n", "1 4\n", "+1 2\n"]))
def test_random_matrix_and_outcome_text_parse_or_fail_validation(body, header):
    for parse in (BinaryMatrix.parse, OutcomeVector.parse):
        try:
            value = parse(header + body)
        except ValidationError:
            continue
        assert parse(value.to_text()) == value
