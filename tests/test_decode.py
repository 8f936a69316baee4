"""Family construction, u-completeness, the three decoders, envelopes."""

from __future__ import annotations

import gc
import importlib
import math
import random
import re
from collections import Counter
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    FeasibilityError,
    GapPolicy,
    ItemSet,
    NoiseSpec,
    OutcomeVector,
    TGTParams,
    ValidationError,
    build_family,
    check_envelope,
    decode,
    decode_from_family,
    encode,
    generate,
    is_u_complete,
    t0,
    verify_disjunct,
    w_bound,
)
from tgtkit.decode import (
    _PAIR_STORE_BOUND,
    _PAIR_STORE_PREFIX,
    _SCREEN_ROWS,
    _TRIPLE_STORE_MIN_ROWS,
    ALGORITHMS,
    EXTENSION_STEP_CAP,
    FAMILY_SUBSET_CAP,
    Family,
    _EdgeSet,
    _EdgeTest,
    _PairRows,
    _TripleRows,
    _first_u_complete_extension,
    _greedy_union,
    _swap_extend,
)

from conftest import GOLDEN_FAMILY, all_pairs_matrix, encode_with_assignment, gap_rows_for


#: rows the pair store of the u >= 3 edge stream keeps, on a narrow matrix
_PAIR_ROWS = _PAIR_STORE_BOUND[0]

#: the fewest rows the u = 3 stream's triple store must be let keep for
#: the stream to read it (a design of any row count at n <= 65)
_PASS_ROWS = _TRIPLE_STORE_MIN_ROWS


def _triple_pass(on):
    """A context in which the u = 3 stream reads the triple store where it
    would (``on``), or never: the triple store's bound then leaves it no row."""
    decode_module = importlib.import_module("tgtkit.decode")
    bound = decode_module._TRIPLE_STORE_BOUND if on else (0, 0)
    return mock.patch.object(decode_module, "_TRIPLE_STORE_BOUND", bound)


def _build_family_reference(matrix, outcome, u, e):
    """Per-subset scan of ``t0``: the test oracle for :func:`build_family`."""
    edges = tuple(
        combo
        for combo in combinations(range(1, matrix.cols + 1), u)
        if t0(matrix, outcome, ItemSet(combo)) <= e
    )
    return Family(u, edges)


def _first_u_complete_extension_reference(
    edge_set,
    u: int,
    current: frozenset,
    pool: tuple[int, ...],
    g: int,
    step_cap: int,
):
    """Every (A, B) pair in order, each candidate checked in full: the test
    oracle for the pruned :func:`_first_u_complete_extension`."""
    if len(pool) < g + 1:
        return None
    work = math.comb(len(pool), g + 1) * math.comb(len(current), g)
    if work > step_cap:
        raise FeasibilityError(
            f"extension step would check {work} candidate pairs > cap {step_cap}"
        )
    cur_sorted = tuple(sorted(current))
    for a in combinations(pool, g + 1):
        grown = current | set(a)
        for b in combinations(cur_sorted, g):
            candidate = grown - set(b)
            if all(t in edge_set for t in combinations(sorted(candidate), u)):
                return frozenset(candidate)
    return None


class TestBuildFamily:
    def test_golden_family(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        assert fam.edges == GOLDEN_FAMILY

    def test_error_tolerant_family_is_superset(self, golden_matrix, golden_outcome):
        fam0 = build_family(golden_matrix, golden_outcome, 2, 0)
        fam1 = build_family(golden_matrix, golden_outcome, 2, 1)
        assert set(fam1.edges) >= set(fam0.edges)
        # exactly the pairs whose negative co-occurrence count is 1 join
        assert set(fam1.edges) - set(fam0.edges) == {(1, 3), (2, 6), (3, 4)}

    def test_all_negative_outcomes_empty_family(self, golden_matrix):
        from tgtkit import OutcomeVector

        # every pair of items is pooled together somewhere, so with every
        # outcome negative no pair survives t0 <= 0
        y = OutcomeVector.from_bits(tuple([0] * 20))
        assert build_family(golden_matrix, y, 2, 0).edges == ()

    def test_subset_cap(self, golden_matrix, golden_outcome):
        with pytest.raises(FeasibilityError):
            build_family(golden_matrix, golden_outcome, 2, 0, subset_cap=10)

    @pytest.mark.parametrize(
        "u, e, message",
        [
            (0, 0, r"^u must be >= 1, got 0$"),
            (2, -1, r"^e must be >= 0, got -1$"),
            (2.0, 0, r"^u must be an integer, got 2\.0$"),
            (True, 0, r"^u must be an integer, got True$"),
            (2, 0.0, r"^e must be an integer, got 0\.0$"),
            (2, True, r"^e must be an integer, got True$"),
            (2, "1", r"^e must be an integer, got '1'$"),
            (7, 0, r"^u=7 exceeds the number of items 6$"),
        ],
    )
    def test_u_and_e_are_validated(self, golden_matrix, golden_outcome, u, e, message):
        # a float u failed with a bare TypeError inside math.comb, and a
        # bool e ran as 0 or 1
        with pytest.raises(ValidationError, match=message):
            build_family(golden_matrix, golden_outcome, u, e)

    def test_lexicographic_order(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 1)
        assert list(fam.edges) == sorted(fam.edges)

    def test_matches_reference_on_golden(self, golden_matrix, golden_outcome):
        for u in (1, 2, 3, 6):
            for e in (0, 1, 3):
                assert build_family(golden_matrix, golden_outcome, u, e) == (
                    _build_family_reference(golden_matrix, golden_outcome, u, e)
                )

    @settings(max_examples=120, deadline=None)
    @given(
        t=st.integers(1, 3000),
        n=st.integers(1, 9),
        u=st.integers(1, 4),
        e=st.integers(0, 2),
        density=st.sampled_from((0.1, 0.3, 0.6, 1.0)),
        negative_rate=st.sampled_from((0.0, 0.002, 0.02, 0.3, 1.0)),
        positive_head=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t=_SCREEN_ROWS, n=6, u=3, e=1, density=0.3, negative_rate=0.02,
             positive_head=0, seed=1)
    @example(t=_SCREEN_ROWS + 1, n=6, u=3, e=1, density=0.3, negative_rate=0.02,
             positive_head=_SCREEN_ROWS - 1, seed=2)
    @example(t=3000, n=8, u=4, e=0, density=0.6, negative_rate=1.0,
             positive_head=0, seed=3)
    # all positive past the screen's size: every subset is an edge, which
    # the stream finds one (u - 1)-subset at a time
    @example(t=_SCREEN_ROWS + 1, n=8, u=3, e=0, density=0.6, negative_rate=0.0,
             positive_head=0, seed=5)
    @example(t=_SCREEN_ROWS + 1, n=8, u=4, e=0, density=0.6, negative_rate=0.0,
             positive_head=0, seed=6)
    # every negative row past the screen: the full masks alone decide
    @example(t=2 * _SCREEN_ROWS, n=9, u=3, e=2, density=0.3, negative_rate=0.3,
             positive_head=_SCREEN_ROWS, seed=7)
    @example(t=3000, n=8, u=2, e=2, density=0.6, negative_rate=0.0,
             positive_head=0, seed=4)
    # the pair store's size (and the triple store's, at n = 9), one row
    # below it and one above it; then every negative row past the store's
    # first rows, so that it keeps them only by weight
    @example(t=_PAIR_ROWS - 1, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=8)
    @example(t=_PAIR_ROWS, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=9)
    @example(t=_PAIR_ROWS + 1, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=10)
    @example(t=_PAIR_ROWS + 1, n=9, u=3, e=0, density=0.3, negative_rate=1.0,
             positive_head=_PAIR_ROWS, seed=11)
    @example(t=3000, n=9, u=4, e=1, density=0.6, negative_rate=0.3,
             positive_head=_PAIR_ROWS, seed=12)
    # all positive past the pair screen: every pair survives it, and the
    # per-b scans do all the work
    @example(t=_PAIR_ROWS + 1, n=8, u=3, e=0, density=0.6, negative_rate=0.0,
             positive_head=0, seed=13)
    @example(t=_PAIR_ROWS + 1, n=8, u=4, e=1, density=0.6, negative_rate=0.0,
             positive_head=0, seed=14)
    # hit counts of every plane depth: e = 0, 1, 2 and 5 (three planes, the
    # count starting at 2)
    @example(t=_PAIR_ROWS + 1, n=9, u=3, e=0, density=0.3, negative_rate=0.3,
             positive_head=0, seed=15)
    @example(t=_PAIR_ROWS + 1, n=9, u=3, e=2, density=0.6, negative_rate=0.3,
             positive_head=0, seed=16)
    @example(t=_PAIR_ROWS + 1, n=9, u=3, e=5, density=0.6, negative_rate=0.3,
             positive_head=0, seed=17)
    @example(t=600, n=9, u=4, e=5, density=1.0, negative_rate=0.02,
             positive_head=0, seed=18)
    # the triple pass's column threshold: n = 65 is the widest design whose
    # store keeps enough rows, n = 66 takes the head stream; a short design
    # and one of the pass's row count; then every plane depth at that count
    # (e = 1 is its own)
    @example(t=40, n=65, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=24)
    @example(t=40, n=66, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=25)
    @example(t=_PASS_ROWS - 1, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=19)
    @example(t=_PASS_ROWS, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=20)
    @example(t=_PASS_ROWS, n=9, u=3, e=0, density=0.3, negative_rate=0.3,
             positive_head=0, seed=21)
    @example(t=_PASS_ROWS, n=9, u=3, e=2, density=0.6, negative_rate=0.3,
             positive_head=0, seed=22)
    @example(t=_PASS_ROWS, n=9, u=3, e=5, density=0.6, negative_rate=0.3,
             positive_head=0, seed=23)
    # a pass that a checkpoint stops after 40 of its 121 negative rows, with
    # one non-edge left to the scans
    @example(t=_PASS_ROWS, n=9, u=3, e=1, density=0.3, negative_rate=0.3,
             positive_head=0, seed=1)
    # the only edge is (3, 4, 5), the last head's, at bit 0 of the triples
    @example(t=_PASS_ROWS, n=5, u=3, e=0, density=0.3, negative_rate=0.3,
             positive_head=0, seed=5)
    @pytest.mark.parametrize("triple_pass", [True, False], ids=["triple-pass", "head-stream"])
    def test_matches_reference(
        self, triple_pass, t, n, u, e, density, negative_rate, positive_head, seed
    ):
        # rows before positive_head are positive, so negatives can sit
        # entirely past the screen; rate 0 and 1 give all-positive and
        # all-negative outcomes.  Every u = 3 case runs with the triple pass
        # where the stream picks it, and with the head stream alone
        if u > n:
            u = n
        rng = random.Random(seed)
        matrix = BinaryMatrix.from_bits(
            [[int(rng.random() < density) for _ in range(n)] for _ in range(t)]
        )
        outcome = OutcomeVector.from_bits(
            tuple(
                1 if i < positive_head or rng.random() >= negative_rate else 0
                for i in range(t)
            )
        )
        with _triple_pass(triple_pass):
            fam = build_family(matrix, outcome, u, e)
        assert fam == _build_family_reference(matrix, outcome, u, e)
        assert fam.edges == tuple(sorted(fam.edges))

    @pytest.mark.parametrize("triple_pass", [True, False], ids=["triple-pass", "head-stream"])
    @pytest.mark.parametrize("ones_rows, ones_last", [
        pytest.param(0, False, id="0"),
        pytest.param(_PAIR_ROWS, False, id=str(_PAIR_ROWS)),
        pytest.param(_PAIR_ROWS, True, id=f"{_PAIR_ROWS}-last"),
    ])
    def test_last_head_holds_the_only_edge(self, ones_rows, ones_last, triple_pass):
        # each negative row pools one triple: every triple but (5, 6, 7) sits
        # in two of them, so the only edge is the last head's only pair (the
        # triple pass's bit 0).  The positive rows pool every item, so they
        # are the heaviest and fill the store the stream reads (the pair
        # store, or the triple store), before the negative rows or after
        # them: the scans alone see a negative row
        triples = list(combinations(range(1, 8), 3))[:-1]
        negative = [[int(j in triple) for j in range(1, 8)] for triple in triples * 2]
        positive = [[1] * 7] * ones_rows
        rows = negative + positive if ones_last else positive + negative
        matrix = BinaryMatrix.from_bits(rows)
        outcome = OutcomeVector.from_bits([int(sum(row) == 7) for row in rows])
        store = _TripleRows if triple_pass else _PairRows
        assert bool(store.of(matrix).gather(outcome.negatives_mask)) == (not ones_rows)
        with _triple_pass(triple_pass):
            fam = build_family(matrix, outcome, 3, 1)
        # the stream made no store but the one it reads
        assert (_PairRows if triple_pass else _TripleRows)._name not in vars(matrix)
        assert fam.edges == ((5, 6, 7),)
        assert fam == _build_family_reference(matrix, outcome, 3, 1)

    def test_heavy_rows_past_the_first_store_rows(self):
        # light rows first, then heavier ones past the first 2,048 rows but
        # within the prefix the store weighs: it keeps those, which a store of
        # the first rows would miss, heaviest first and tied rows in order
        rng = random.Random(21)
        n, light = 9, _PAIR_ROWS + 200
        rows = [1 << rng.randrange(n) for _ in range(light)] + [
            rng.getrandbits(n) | rng.getrandbits(n) for _ in range(2 * _PAIR_ROWS)
        ]
        matrix = BinaryMatrix(len(rows), n, rows)
        store = _PairRows.of(matrix)
        assert store.count == _PAIR_ROWS and min(store.rows) >= light
        keys = [(-rows[i].bit_count(), i) for i in store.rows]
        assert keys == sorted(keys)
        outcome = OutcomeVector(len(rows), rng.getrandbits(len(rows)) & rng.getrandbits(len(rows)))
        for u, e in product((3, 4), (0, 1, 2)):
            assert build_family(matrix, outcome, u, e) == (
                _build_family_reference(matrix, outcome, u, e)
            )

    @pytest.mark.parametrize("bound", [(_PAIR_ROWS, 0), (1, 1 << 27), (5, 1 << 27)])
    def test_matches_reference_at_any_pair_store_bound(self, monkeypatch, bound):
        # a pair screen of no row (a design too wide for the bits), of one
        # row and of a few rows: the stream stays exact.  The triple store
        # weighs the pair store's prefix, so it keeps no more rows than that
        monkeypatch.setattr(importlib.import_module("tgtkit.decode"), "_PAIR_STORE_BOUND", bound)
        rng = random.Random(5)
        matrix = BinaryMatrix(300, 9, [rng.getrandbits(9) for _ in range(300)])
        outcome = OutcomeVector(300, rng.getrandbits(300) & rng.getrandbits(300))
        pair_rows = min(bound[0], bound[1] // 100)
        assert _PairRows.of(matrix).count == pair_rows
        assert _TripleRows.of(matrix).count == _PAIR_STORE_PREFIX * pair_rows
        for u, e in product((3, 4), (0, 1, 2)):
            assert build_family(matrix, outcome, u, e) == (
                _build_family_reference(matrix, outcome, u, e)
            )

    def test_leaves_no_reference_cycles(self):
        rng = random.Random(7)
        matrix = BinaryMatrix(
            2 * _SCREEN_ROWS,
            12,
            tuple(rng.getrandbits(12) for _ in range(2 * _SCREEN_ROWS)),
        )
        outcome = OutcomeVector.from_bits(
            tuple(int(rng.random() < 0.99) for _ in range(matrix.rows))
        )
        gc.collect()
        gc.disable()
        try:
            fam = build_family(matrix, outcome, 3, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert fam.edges


class TestFamilyRules:
    @pytest.mark.parametrize(
        "edges, message",
        [
            (((1, 2), (1, 2, 3)), "edge (1, 2, 3) is not a sorted 2-subset"),
            (((1, 1),), "edge (1, 1) is not a sorted 2-subset"),
            (((2, 1),), "edge (2, 1) is not a sorted 2-subset"),
            (((1, 3), (1, 2)), "edge (1, 2) is not after edge (1, 3)"),
            (((1, 2), (1, 3), (1, 3)), "edge (1, 3) is not after edge (1, 3)"),
            (((0, 2),), "edge (0, 2) has an item below 1"),
            (((-3, -1),), "edge (-3, -1) has an item below 1"),
        ],
    )
    def test_public_constructor_rejects(self, edges, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Family(2, edges)

    def test_edge_order_is_enforced(self):
        # the decoders take the first edge that fits, so the edge order
        # decides the output: a family in another order is refused, not
        # decoded to another set
        edges = tuple(combinations(range(1, 7), 2))
        params = TGTParams(6, 4, 0, 2, 1)
        result = decode_from_family(Family(2, edges), params, 1)
        assert result.recovered.members == (1, 3, 4, 5)
        reversed_order = r"^edge \(4, 6\) is not after edge \(5, 6\)$"
        with pytest.raises(ValidationError, match=reversed_order):
            Family(2, edges[::-1])

    def test_library_families_skip_the_checks(self, monkeypatch, golden_matrix,
                                              golden_outcome, golden_params):
        checked = []
        post_init = Family.__post_init__

        def counting_post_init(self):
            checked.append(self.edges)
            post_init(self)

        monkeypatch.setattr(Family, "__post_init__", counting_post_init)
        fam = build_family(golden_matrix, golden_outcome, 2, 1)
        for alg in (1, 2, 3):
            decode(golden_outcome, golden_matrix, golden_params, alg)
            decode_from_family(fam, golden_params, alg)
        assert checked == []
        assert fam == Family(fam.u, fam.edges)
        assert fam.edge_set == frozenset(fam.edges)
        assert len(checked) == 1


class TestUComplete:
    def test_golden_terminal_set(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        assert is_u_complete(fam, [1, 2, 4, 5])

    def test_missing_edge(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        assert not is_u_complete(fam, [1, 2, 3])  # {1,3} is not an edge

    def test_single_edge_is_complete_on_itself(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        for edge in fam.edges:
            assert is_u_complete(fam, edge)

    def test_too_small_vertex_set(self, golden_matrix, golden_outcome):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        with pytest.raises(ValidationError):
            is_u_complete(fam, [3])


class TestGoldenDecodes:
    def test_alg1(self, golden_matrix, golden_outcome, golden_params):
        result = decode(golden_outcome, golden_matrix, golden_params, 1)
        assert result.recovered.members == (1, 2, 4, 5)
        assert result.envelope == (1, 1)
        assert not result.underdetermined

    def test_alg2(self, golden_matrix, golden_outcome, golden_params):
        result = decode(golden_outcome, golden_matrix, golden_params, 2)
        assert result.recovered.members == (1, 2, 3, 5)
        # a-priori false-positive cap uses |S| = d
        assert result.envelope == (w_bound(4, 0, 2, 1), 1)

    def test_alg3(self, golden_matrix, golden_outcome, golden_params):
        result = decode(golden_outcome, golden_matrix, golden_params, 3)
        assert result.recovered.members == (2, 3, 5)
        assert result.envelope == (1, 2)

    def test_alg3_restricted_family(self, golden_matrix, golden_outcome, golden_params):
        # the refinement stage extends inside the greedy stage's vertex set
        # {1,2,3,5}; the family restricted to it, a rescan of t0 over its
        # pairs, is the known 5-edge restriction, and extending on it gives
        # the refinement's output
        vertices = decode(
            golden_outcome, golden_matrix, golden_params, 2
        ).recovered.members
        rescan = _restricted_rescan(golden_matrix, golden_outcome, vertices, 2, 0)
        assert rescan.edges == ((1, 2), (1, 5), (2, 3), (2, 5), (3, 5))
        d, g = golden_params.d, golden_params.g
        found = _swap_extend(
            rescan.edges[0], rescan.edge_set, vertices, d, g, EXTENSION_STEP_CAP
        )
        refined = decode(golden_outcome, golden_matrix, golden_params, 3)
        assert refined.recovered == ItemSet.of(found)

    def test_decode_from_family(self, golden_matrix, golden_outcome, golden_params):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        for alg in (1, 2, 3):
            assert decode_from_family(fam, golden_params, alg) == decode(
                golden_outcome, golden_matrix, golden_params, alg
            )
        with pytest.raises(ValidationError, match="unknown algorithm"):
            decode_from_family(fam, golden_params, 4)

    @pytest.mark.parametrize("algorithm", [True, 1.0, 3.0, "1", None])
    def test_algorithm_must_be_an_int(
        self, golden_matrix, golden_outcome, golden_params, algorithm
    ):
        # True and 1.0 equal 1, and ran as algorithm 1 with algorithm=True
        # on the result
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        message = rf"^algorithm must be an integer, got {re.escape(repr(algorithm))}$"
        with pytest.raises(ValidationError, match=message):
            decode(golden_outcome, golden_matrix, golden_params, algorithm)
        with pytest.raises(ValidationError, match=message):
            decode_from_family(fam, golden_params, algorithm)
        with pytest.raises(ValidationError, match="family has u=1"):
            decode_from_family(
                build_family(golden_matrix, golden_outcome, 1, 0), golden_params, 1
            )
        with pytest.raises(FeasibilityError):
            decode_from_family(fam, golden_params, 1, step_cap=1)
        with pytest.raises(ValidationError, match=r"^family has item 99 outside 1\.\.6$"):
            decode_from_family(Family(2, ((1, 99),)), golden_params, 2)

    def test_dispatch(self, golden_matrix, golden_outcome, golden_params):
        for alg, expected in ((1, (1, 2, 4, 5)), (2, (1, 2, 3, 5)), (3, (2, 3, 5))):
            assert (
                decode(golden_outcome, golden_matrix, golden_params, alg).recovered.members
                == expected
            )
        with pytest.raises(ValidationError):
            decode(golden_outcome, golden_matrix, golden_params, 4)

    def test_deterministic(self, golden_matrix, golden_outcome, golden_params):
        for alg in (1, 2, 3):
            first = decode(golden_outcome, golden_matrix, golden_params, alg)
            second = decode(golden_outcome, golden_matrix, golden_params, alg)
            assert first == second

    def test_empty_truth_underdetermined(self, golden_matrix, golden_params):
        y = encode(
            golden_matrix, ItemSet.of([]), 0, 2, GapPolicy.always_negative()
        )
        for alg in (1, 2, 3):
            result = decode(y, golden_matrix, golden_params, alg)
            assert result.recovered.members == ()
            assert result.underdetermined

    def test_extension_step_cap(self, golden_matrix, golden_outcome, golden_params):
        with pytest.raises(FeasibilityError):
            decode(golden_outcome, golden_matrix, golden_params, 1, step_cap=1)

    @pytest.mark.parametrize(
        "cap, message",
        [
            (0, "must be >= 1, got 0"),
            (2.5, "must be an integer, got 2.5"),
            ("9", "must be an integer, got '9'"),
            (True, "must be an integer, got True"),
        ],
    )
    def test_caps_are_validated_at_entry(
        self, golden_matrix, golden_outcome, golden_params, cap, message
    ):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        calls = {
            "subset_cap": [
                lambda: build_family(golden_matrix, golden_outcome, 2, 0, subset_cap=cap),
                lambda: decode(golden_outcome, golden_matrix, golden_params, 2, subset_cap=cap),
            ],
            "step_cap": [
                lambda: decode(golden_outcome, golden_matrix, golden_params, 2, step_cap=cap),
                lambda: decode_from_family(fam, golden_params, 2, step_cap=cap),
            ],
        }
        for name, runs in calls.items():
            for run in runs:
                with pytest.raises(ValidationError, match=rf"^{name} {re.escape(message)}$"):
                    run()


class TestTinySweep:
    """Exhaustive check of every defective set and every gap assignment on a
    machine-verified (5, 3, 2; 1]-disjunct design (the acceptance suite runs
    the larger version)."""

    def test_envelopes_hold_everywhere(self):
        matrix = all_pairs_matrix(5)
        assert verify_disjunct(matrix, 3, 2, 1).ok
        params = TGTParams(n=5, d=3, ell=0, u=2, z=1)
        checked = 0
        for size in (2, 3):
            for members in combinations(range(1, 6), size):
                s_true = ItemSet.of(members)
                gap_rows = gap_rows_for(matrix, members, 0, 2)
                for bits in product((0, 1), repeat=len(gap_rows)):
                    assignment = dict(zip(gap_rows, bits))
                    y = encode_with_assignment(matrix, members, 0, 2, assignment)
                    fam = build_family(matrix, y, 2, 0)
                    # family soundness: defective pairs are edges, and every
                    # edge pools at least ell + 1 = 1 defective
                    for pair in combinations(members, 2):
                        assert pair in fam
                    for edge in fam.edges:
                        assert len(set(edge) & set(members)) >= 1
                    for alg in (1, 2, 3):
                        result = decode(y, matrix, params, alg)
                        assert all(1 <= j <= 5 for j in result.recovered)
                        report = check_envelope(s_true, result.recovered, alg, params)
                        assert report.passed, (members, assignment, alg, result)
                        if alg == 2:
                            assert len(result.recovered) <= w_bound(size, 0, 2, 1) + 3
                    checked += 1
        assert checked == sum(
            2 ** (size * (5 - size)) * len(list(combinations(range(5), size)))
            for size in (2, 3)
        )

    def test_alg3_first_stage_matches_alg2(self, golden_matrix, golden_outcome, golden_params):
        # the refinement stage never adds vertices beyond the first stage
        v = decode(golden_outcome, golden_matrix, golden_params, 2).recovered
        refined = decode(golden_outcome, golden_matrix, golden_params, 3).recovered
        assert set(refined) <= set(v)


def _restricted_rescan(matrix, outcome, vertices, u, e):
    """The family restricted to ``vertices``, rescanned from ``t0``: the
    oracle for the family algorithm 3 extends in."""
    return Family(u, tuple(
        combo for combo in combinations(vertices, u)
        if t0(matrix, outcome, ItemSet(combo)) <= e
    ))


@pytest.mark.parametrize("ell, u, z", [(0, 2, 1), (0, 2, 3), (1, 3, 3), (0, 3, 1)])
def test_alg3_extends_on_the_restricted_rescan(ell, u, z):
    # algorithm 3 extends inside algorithm 2's output with the whole
    # family's edge test; extending on the restricted family instead,
    # rescanned from t0 and starting at its first edge, gives the same set
    rng = random.Random(11)
    grown = 0
    for _ in range(60):
        n = rng.randint(u + 2, 10)
        positive = rng.choice((0.5, 0.8, 0.95))
        matrix = BinaryMatrix(40, n, tuple(rng.getrandbits(n) for _ in range(40)))
        outcome = OutcomeVector.from_bits(
            tuple(int(rng.random() < positive) for _ in range(40))
        )
        params = TGTParams(n, rng.randint(u, n - 1), ell, u, z)
        greedy = decode(outcome, matrix, params, 2)
        result = decode(outcome, matrix, params, 3)
        assert result.underdetermined == greedy.underdetermined
        if greedy.underdetermined:
            continue
        vertices = greedy.recovered.members
        inner = _restricted_rescan(matrix, outcome, vertices, u, params.e)
        found = _swap_extend(
            inner.edges[0], inner.edge_set, vertices, params.d, params.g, EXTENSION_STEP_CAP
        )
        assert result.recovered == ItemSet.of(found)
        grown += len(found) > u
    assert grown >= 10  # the extension took steps, not just its first edge


def _greedy_union_rescan(family, g):
    """Algorithm 2 rescanning from the first unused edge after every pick:
    the oracle for the one-pass ``_greedy_union``."""
    current = set(family.edges[0])
    used = set()
    for fits in (
        lambda edge: not current.intersection(edge),
        lambda edge: len(set(edge) - current) >= g + 1,
    ):
        while True:
            pick = next((e for e in family.edges if e not in used and fits(e)), None)
            if pick is None:
                break
            used.add(pick)
            current.update(pick)
    return current


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    u=st.integers(1, 4),
    g=st.integers(0, 4),
    rate=st.sampled_from((0.05, 0.2, 0.5, 0.9, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_greedy_union_matches_rescan(n, u, g, rate, seed):
    rng = random.Random(seed)
    edges = tuple(
        c for c in combinations(range(1, n + 1), min(u, n)) if rng.random() < rate
    )
    if edges:
        family = Family(min(u, n), edges)
        assert _greedy_union(family.edges, g) == _greedy_union_rescan(family, g)


def _outcome_or_error(run):
    """What ``run()`` returns, or the type and message of the cap error it raises."""
    try:
        return run()
    except (FeasibilityError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(2, 12),
    u=st.integers(1, 4),
    g=st.integers(0, 3),
    d_offset=st.integers(0, 11),
    rate=st.sampled_from((0.3, 0.6, 0.85, 0.95, 1.0)),
    step_cap=st.one_of(st.just(EXTENSION_STEP_CAP), st.integers(0, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_swap_extension_matches_reference(n, u, g, d_offset, rate, step_cap, seed):
    # the pruned search returns what checking every (A, B) pair returns,
    # raises the same cap error, and only returns u-complete sets
    u = min(u, n)
    d = u + d_offset % (n - u + 1)
    rng = random.Random(seed)
    edges = tuple(c for c in combinations(range(1, n + 1), u) if rng.random() < rate)
    if not edges:
        return
    family = Family(u, edges)
    universe = tuple(range(1, n + 1))
    oracle = mock.patch(
        "tgtkit.decode._first_u_complete_extension",
        _first_u_complete_extension_reference,
    )

    def swap():
        return _swap_extend(edges[0], family.edge_set, universe, d, g, step_cap)

    found = _outcome_or_error(swap)
    with oracle:
        assert found == _outcome_or_error(swap)
    if isinstance(found, frozenset):
        assert is_u_complete(family, found)

    if g < u and d < n:  # algorithms 1 and 3 through the public path
        params = TGTParams(n=n, d=d, ell=u - g - 1, u=u)
        for alg in (1, 3):

            def run(alg=alg):
                return decode_from_family(family, params, alg, step_cap)

            result = _outcome_or_error(run)
            with oracle:
                assert result == _outcome_or_error(run)
            if not isinstance(result, tuple):
                assert is_u_complete(family, result.recovered)

    # one step from a random u-complete set grown out of a random edge
    current = set(rng.choice(edges))
    for item in rng.sample(universe, n):
        if len(current) >= d:
            break
        if item not in current and is_u_complete(family, current | {item}):
            current.add(item)
    current = frozenset(current)
    pool = tuple(j for j in universe if j not in current)
    step = _outcome_or_error(
        lambda: _first_u_complete_extension(family.edge_set, u, current, pool, g, step_cap)
    )
    assert step == _outcome_or_error(
        lambda: _first_u_complete_extension_reference(
            family.edge_set, u, current, pool, g, step_cap
        )
    )
    if isinstance(step, frozenset):
        assert len(step) == len(current) + 1 and is_u_complete(family, step)


@settings(max_examples=300, deadline=None)
@given(
    t=st.sampled_from((1, _SCREEN_ROWS - 1, _SCREEN_ROWS, _SCREEN_ROWS + 1, 1100)),
    n=st.integers(2, 10),
    u=st.integers(1, 3),
    g=st.integers(0, 2),
    e=st.integers(0, 2),
    density=st.sampled_from((0.1, 0.3, 0.6)),
    negative_rate=st.sampled_from((0.0, 0.005, 0.05, 0.3)),
    positive_head=st.sampled_from((0, _SCREEN_ROWS)),
    step_cap=st.one_of(st.just(EXTENSION_STEP_CAP), st.integers(0, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_backed_step_matches_reference(
    t, n, u, g, e, density, negative_rate, positive_head, step_cap, seed
):
    # one extension step on the column masks (each pool item's own mask from
    # one screened scan per (u - 1)-subset of S) returns what checking every
    # (A, B) pair on build_family's family returns, or raises the same cap
    # error; and each scan, like ``T in tester``, is the family's membership
    # filter.  With positive_head at the screen's size every negative row
    # lies past the screen, so only the full masks decide.
    u = min(u, n)
    rng = random.Random(seed)
    matrix = BinaryMatrix.from_bits(
        [[int(rng.random() < density) for _ in range(n)] for _ in range(t)]
    )
    outcome = OutcomeVector.from_bits(
        tuple(int(i < positive_head or rng.random() >= negative_rate) for i in range(t))
    )
    family = build_family(matrix, outcome, u, e)
    tester = _EdgeTest(matrix, outcome, u, e, FAMILY_SUBSET_CAP)
    for items in combinations(range(1, n + 1), u):
        assert (items in tester) == (items in family.edge_set)
    if not family.edges:
        return
    current = set(rng.choice(family.edges))
    size = rng.randint(u, n)
    for item in rng.sample(range(1, n + 1), n):
        if len(current) >= size:
            break
        if item not in current and is_u_complete(family, current | {item}):
            current.add(item)
    current = frozenset(current)
    pool = tuple(j for j in range(1, n + 1) if j not in current)
    for rest in combinations(sorted(current), u - 1):
        members = [x for x in pool if tuple(sorted(rest + (x,))) in family.edge_set]
        assert tester.completions(rest, pool) == members
        assert family.edge_set.completions(rest, pool) == members
    step = _outcome_or_error(
        lambda: _first_u_complete_extension(tester, u, current, pool, g, step_cap)
    )
    assert step == _outcome_or_error(
        lambda: _first_u_complete_extension_reference(
            family.edge_set, u, current, pool, g, step_cap
        )
    )


_POLICIES = {
    "positive": lambda seed: GapPolicy.always_positive(),
    "negative": lambda seed: GapPolicy.always_negative(),
    "bernoulli": lambda seed: GapPolicy.bernoulli(0.5, seed=seed),
}


@settings(max_examples=200, deadline=None)
@given(
    t=st.sampled_from((1, _PASS_ROWS, _SCREEN_ROWS - 1, _SCREEN_ROWS, _SCREEN_ROWS + 1, 1100)),
    n=st.integers(4, 9),
    u=st.integers(1, 3),
    d_offset=st.integers(0, 8),
    z=st.sampled_from((1, 3, 5)),  # e = 0, 1, 2
    density=st.sampled_from((0.2, 0.4, 0.7, 1.0)),
    empty_head=st.sampled_from((0, _SCREEN_ROWS // 2, _SCREEN_ROWS)),
    policy=st.sampled_from(sorted(_POLICIES)),
    flips=st.integers(0, 3),
    subset_cap=st.one_of(st.just(FAMILY_SUBSET_CAP), st.integers(1, 90)),
    step_cap=st.one_of(st.just(EXTENSION_STEP_CAP), st.integers(1, 60)),
    seed=st.integers(0, 2**32 - 1),
)
# an all-ones design with nothing defective: every subset is pooled in
# more than e negative rows, so there is no edge (screened and unscreened)
@example(t=1100, n=6, u=2, d_offset=0, z=3, density=1.0, empty_head=0,
         policy="negative", flips=0, subset_cap=FAMILY_SUBSET_CAP,
         step_cap=EXTENSION_STEP_CAP, seed=0)
@example(t=1, n=5, u=2, d_offset=0, z=1, density=1.0, empty_head=0,
         policy="negative", flips=0, subset_cap=FAMILY_SUBSET_CAP,
         step_cap=EXTENSION_STEP_CAP, seed=0)
# a design of the fewest rows that the u = 3 stream reads in one triple pass
@example(t=_PASS_ROWS, n=9, u=3, d_offset=2, z=3, density=0.4, empty_head=0,
         policy="bernoulli", flips=1, subset_cap=FAMILY_SUBSET_CAP,
         step_cap=EXTENSION_STEP_CAP, seed=1)
def test_decode_without_the_family_matches_the_family(
    t, n, u, d_offset, z, density, empty_head, policy, flips, subset_cap, step_cap, seed
):
    # decode builds no family; for every algorithm it returns what decoding
    # build_family's family returns, diagnostics included, or raises the
    # same error.  Rows before empty_head pool nothing, so with it at the
    # screen's size every subset passes the screen and only the full masks
    # decide.
    rng = random.Random(seed)
    d = u + d_offset % (n - u)
    params = TGTParams(n=n, d=d, ell=rng.randrange(u), u=u, z=z)
    matrix = BinaryMatrix.from_bits(
        [
            [int(i >= empty_head and rng.random() < density) for _ in range(n)]
            for i in range(t)
        ]
    )
    # on the all-ones design, no defectives: an outcome with no edge
    size = rng.randint(0, d) if density < 1.0 else 0
    outcome = encode(
        matrix,
        ItemSet.of(rng.sample(range(1, n + 1), size)),
        params.ell,
        u,
        _POLICIES[policy](rng.randrange(2**32)),
        NoiseSpec.random_flips(min(flips, t), seed=rng.randrange(2**32)),
    )

    family = _outcome_or_error(lambda: build_family(matrix, outcome, u, params.e, subset_cap))
    results = []
    for algorithm in ALGORITHMS:
        result = _outcome_or_error(
            lambda: decode(outcome, matrix, params, algorithm, subset_cap, step_cap)
        )
        if isinstance(family, tuple):  # build_family refused
            assert result == family
        else:
            assert result == _outcome_or_error(
                lambda: decode_from_family(family, params, algorithm, step_cap)
            )
        results.append(result)
    if subset_cap >= math.comb(n, u):
        family = build_family(matrix, outcome, u, params.e)
        first = next(_EdgeTest(matrix, outcome, u, params.e, subset_cap).edges(), None)
        assert first == (family.edges[0] if family.edges else None)
        for result in results:
            assert getattr(result, "underdetermined", False) == (first is None)


@pytest.mark.parametrize("triple_pass", [True, False], ids=["triple-pass", "head-stream"])
@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_decode_matches_the_reference_family_past_the_pair_screen(policy, triple_pass):
    # build_family reads the same edge stream as decode, so the oracle is the
    # per-subset scan; the design has 4,100 rows, twice the pair screen, and
    # is decoded with the triple pass and with the head stream alone
    params = TGTParams(n=24, d=3, ell=0, u=3, z=3)
    matrix = generate(params.n, params.d, params.u, params.z, seed=3)
    assert matrix.rows > 2 * _PAIR_ROWS
    rng = random.Random(policy)
    for size in (3, 5):
        outcome = encode(
            matrix,
            ItemSet.of(rng.sample(range(1, params.n + 1), size)),
            params.ell,
            params.u,
            _POLICIES[policy](rng.randrange(2**32)),
            NoiseSpec.random_flips(1, seed=rng.randrange(2**32)),
        )
        family = _build_family_reference(matrix, outcome, params.u, params.e)
        for algorithm in ALGORITHMS:
            with _triple_pass(triple_pass):
                result = decode(outcome, matrix, params, algorithm)
            assert result == decode_from_family(family, params, algorithm)


def test_decode_does_not_build_the_family(golden_matrix, golden_outcome, golden_params):
    family = build_family(golden_matrix, golden_outcome, 2, 0)
    expected = [decode_from_family(family, golden_params, alg) for alg in ALGORITHMS]
    built = AssertionError("a family was built")
    with mock.patch("tgtkit.decode.build_family", side_effect=built), mock.patch.object(
        Family, "_of_valid_edges", side_effect=built
    ):
        assert [
            decode(golden_outcome, golden_matrix, golden_params, alg) for alg in ALGORITHMS
        ] == expected


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", (4, 7))
def test_decode_rejects_params_for_another_item_count(n, algorithm):
    # a 5-item design whose family is ((2, 4), (3, 4), (3, 5), (4, 5)):
    # with n = 7 the extension would test items 6 and 7, which have no
    # column; with n = 4 the greedy union would return item 5
    matrix = BinaryMatrix.from_bits([
        [1, 1, 1, 0, 0],
        [1, 0, 0, 1, 0],
        [1, 0, 0, 0, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 1, 0, 0],
    ])
    outcome = OutcomeVector.from_bits((0, 0, 0, 0, 1, 1))
    family = build_family(matrix, outcome, 2, 0)
    assert family.edges == ((2, 4), (3, 4), (3, 5), (4, 5))
    params = TGTParams(n, n - 1, 0, 2, 1)
    with pytest.raises(
        ValidationError, match=rf"^matrix has 5 columns but params say n={n}$"
    ):
        decode(outcome, matrix, params, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_decoding_leaves_no_reference_cycles(algorithm):
    # the extension's recursive search is a closure over itself; left as a
    # cycle it would hold the family or the masks until the next collection
    rng = random.Random(7)
    matrix = BinaryMatrix(1100, 12, tuple(rng.getrandbits(12) for _ in range(1100)))
    outcome = OutcomeVector.from_bits(
        tuple(int(rng.random() < 0.99) for _ in range(matrix.rows))
    )
    params = TGTParams(12, 5, 0, 3, 3)
    gc.collect()
    gc.disable()
    try:
        result = decode(outcome, matrix, params, algorithm)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # each decoder grew its output past the first edge
    assert len(result.recovered) >= params.d


def test_step_cap_counts_unpruned_pairs():
    # from {1, 2}, eight of the ten pool items have an edge to neither 1
    # nor 2, so the pool filter keeps them out of every A and only A = (3, 4)
    # passes; the cap still counts all C(10, 2) * C(2, 1) = 90 pairs of the step
    family = Family(2, ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4)))
    params = TGTParams(n=12, d=3, ell=0, u=2)
    found = decode_from_family(family, params, 1, step_cap=90)
    assert found.recovered.members == (1, 3, 4)
    with pytest.raises(
        FeasibilityError,
        match=r"^extension step would check 90 candidate pairs > cap 89$",
    ):
        decode_from_family(family, params, 1, step_cap=89)


def test_extension_asks_each_membership_once_per_step():
    # at g = 2 a step asks allowed(part) again for a part it has already
    # settled; the step keeps each part's mask, so no "is T an edge?"
    # question repeats within one step
    from tgtkit import generate

    params = TGTParams(n=40, d=6, ell=0, u=3, z=3)
    matrix = generate(params.n, params.d, params.u, params.z, seed=5)
    real_step = _first_u_complete_extension
    repeats = []

    class CountingSet(_EdgeSet):
        def __contains__(self, items):
            self.asked[items] += 1
            return super().__contains__(items)

    def counted_step(edge_set, *args):
        counting = CountingSet(edge_set)
        counting.asked = Counter()
        found = real_step(counting, *args)
        repeats.append(max(counting.asked.values(), default=1))
        return found

    rng = random.Random(2)
    with mock.patch("tgtkit.decode._first_u_complete_extension", counted_step):
        for _ in range(24):
            outcome = encode(
                matrix,
                ItemSet.of(
                    rng.sample(range(1, params.n + 1), rng.randint(params.u, params.d))
                ),
                params.ell,
                params.u,
                GapPolicy.always_positive(),
                NoiseSpec.random_flips(1, seed=rng.randrange(2**32)),
            )
            family = build_family(matrix, outcome, params.u, params.e)
            if family.edges:
                decode_from_family(family, params, 1)
    assert repeats and max(repeats) == 1


@pytest.mark.filterwarnings("error")
class TestNominalSizeNotes:
    """The greedy and refinement decoders run regardless of the size
    conditions their cost/guarantee statements assume, but their results
    say so in ``diagnostics``; a warning would fail these tests."""

    REFINEMENT = "refinement decoding assumes w + d <= n at worst-case w; proceeding anyway"
    GREEDY = "greedy decoding assumes e^2 (d + u)^2 / u <= n; proceeding anyway"
    GOLDEN_NOTES = {1: (), 2: (GREEDY,), 3: (REFINEMENT, GREEDY)}

    def test_notes_when_population_is_small(
        self, golden_matrix, golden_outcome, golden_params
    ):
        fam = build_family(golden_matrix, golden_outcome, 2, 0)
        for alg, notes in self.GOLDEN_NOTES.items():
            from_outcome = decode(golden_outcome, golden_matrix, golden_params, alg)
            from_family = decode_from_family(fam, golden_params, alg)
            assert from_outcome.diagnostics == notes, alg
            assert from_family == from_outcome, alg

    def test_underdetermined_result_keeps_its_notes(self, golden_matrix, golden_params):
        silent = OutcomeVector(golden_matrix.rows, 0)
        for alg, notes in self.GOLDEN_NOTES.items():
            result = decode(silent, golden_matrix, golden_params, alg)
            assert result.underdetermined
            assert result.diagnostics == notes
            assert decode_from_family(Family(2, ()), golden_params, alg) == result

    def test_silent_when_conditions_hold(self):
        from tgtkit import generate

        matrix = generate(64, 2, 2, 1, seed=6)
        params = TGTParams(n=64, d=2, ell=0, u=2, z=1)
        y = encode(matrix, ItemSet.of([1, 2]), 0, 2, GapPolicy.always_negative())
        for alg in ALGORITHMS:
            assert decode(y, matrix, params, alg).diagnostics == ()


class TestWBound:
    def test_values(self):
        assert w_bound(17, 2, 10, 7) == (5 + 9) * 7 == 98
        assert w_bound(4, 0, 2, 1) == 5
        assert w_bound(9, 1, 2, 0) == 0

    def test_gap_consistency_enforced(self):
        with pytest.raises(ValidationError):
            w_bound(4, 0, 2, 0)

    @pytest.mark.parametrize("s_size, ell, u, g", [(4, -1, 2, 2), (4, 0, 0, -1), (-1, 0, 2, 1)])
    def test_domain_enforced(self, s_size, ell, u, g):
        # each case keeps g = u - ell - 1, so only the domain check can fail
        with pytest.raises(ValidationError, match="^need ell >= 0, u >= 1, s_size >= 0$"):
            w_bound(s_size, ell, u, g)


class TestCheckEnvelope:
    def test_alg2_golden(self, golden_params):
        report = check_envelope(
            ItemSet.of([1, 2, 4, 5]), ItemSet.of([1, 2, 3, 5]), 2, golden_params
        )
        assert (report.false_positives, report.false_negatives) == (1, 1)
        assert (report.fp_limit, report.fn_limit) == (5, 1)
        assert report.passed

    def test_exact_recovery_passes_everywhere(self, golden_params):
        s = ItemSet.of([1, 2, 4, 5])
        for alg in (1, 2, 3):
            assert check_envelope(s, s, alg, golden_params).passed

    def test_alg3_golden(self, golden_params):
        report = check_envelope(
            ItemSet.of([1, 2, 4, 5]), ItemSet.of([2, 3, 5]), 3, golden_params
        )
        assert (report.false_positives, report.false_negatives) == (1, 2)
        assert report.passed

    def test_failure_detected(self, golden_params):
        report = check_envelope(
            ItemSet.of([1, 2, 4, 5]), ItemSet.of([3, 6]), 1, golden_params
        )
        assert not report.passed

    def test_range_validated(self, golden_params):
        with pytest.raises(ValidationError):
            check_envelope(ItemSet.of([7]), ItemSet.of([1]), 1, golden_params)

    @pytest.mark.parametrize("algorithm", [True, False, 2.0])
    def test_algorithm_must_be_an_int(self, golden_params, algorithm):
        s = ItemSet.of([1, 2, 4, 5])
        message = rf"^algorithm must be an integer, got {re.escape(repr(algorithm))}$"
        with pytest.raises(ValidationError, match=message):
            check_envelope(s, s, algorithm, golden_params)

    def test_unknown_algorithm_after_the_range_check(self, golden_params):
        with pytest.raises(ValidationError, match=r"^unknown algorithm 4 \(expected 1, 2 or 3\)$"):
            check_envelope(ItemSet.of([1]), ItemSet.of([1]), 4, golden_params)
        with pytest.raises(ValidationError, match="^item 7 outside 1..6$"):
            check_envelope(ItemSet.of([7]), ItemSet.of([1]), 4, golden_params)
