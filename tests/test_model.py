"""Encoding semantics, consistency counting, and the t0 statistic."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    GapPolicy,
    ItemSet,
    NoiseSpec,
    TGTParams,
    ValidationError,
    OutcomeVector,
    build_family,
    check_consistency,
    encode,
    t0,
)

from conftest import GOLDEN_DEFECTIVES, GOLDEN_GAP_OVERRIDES, GOLDEN_OUTCOME


def _bits(outcome) -> str:
    return "".join(str(b) for b in outcome.bits)


class TestParams:
    def test_derived_quantities(self):
        p = TGTParams(n=100, d=17, ell=2, u=10, z=5)
        assert p.g == 7
        assert p.e == 2
        assert p.k_decode == 25
        assert p.k_disjunct == 27

    def test_ordering_invariants(self):
        with pytest.raises(ValidationError):
            TGTParams(n=6, d=4, ell=2, u=2, z=1)  # ell < u violated
        with pytest.raises(ValidationError):
            TGTParams(n=4, d=4, ell=0, u=2, z=1)  # d < n violated
        with pytest.raises(ValidationError):
            TGTParams(n=6, d=4, ell=0, u=2, z=0)

    def test_size_condition_on_demand(self):
        assert not TGTParams(n=6, d=4, ell=0, u=2).construction_size_ok()
        assert TGTParams(n=1000, d=4, ell=0, u=2).construction_size_ok()


class TestEncode:
    def test_golden_explicit_replay(self, golden_matrix, golden_defectives):
        y = encode(
            golden_matrix, golden_defectives, 0, 2, GapPolicy.explicit(GOLDEN_GAP_OVERRIDES)
        )
        assert _bits(y) == GOLDEN_OUTCOME

    def test_no_defectives_all_negative(self, golden_matrix):
        for policy in (
            GapPolicy.always_positive(),
            GapPolicy.always_negative(),
            GapPolicy.bernoulli(seed=7),
        ):
            y = encode(golden_matrix, ItemSet.of([]), 0, 2, policy)
            assert _bits(y) == "0" * 20

    def test_always_positive_lights_gap_rows(self, golden_matrix, golden_defectives):
        # only row 12 pools no defectives from {1,2,4,5}; every other row is
        # either deterministically positive or one of the 10 gap rows
        y = encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.always_positive())
        expected = ["1"] * 20
        expected[11] = "0"
        assert _bits(y) == "".join(expected)

    def test_explicit_override_on_non_gap_row_rejected(
        self, golden_matrix, golden_defectives
    ):
        bad = dict(GOLDEN_GAP_OVERRIDES)
        bad[1] = 0  # row 1 pools two defectives: deterministic
        with pytest.raises(ValidationError):
            encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.explicit(bad))

    def test_explicit_must_cover_all_gap_rows(self, golden_matrix, golden_defectives):
        partial = dict(GOLDEN_GAP_OVERRIDES)
        del partial[5]
        with pytest.raises(ValidationError):
            encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.explicit(partial))

    def test_bernoulli_deterministic_per_seed(self, golden_matrix, golden_defectives):
        a = encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.bernoulli(seed=3))
        b = encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.bernoulli(seed=3))
        c = encode(golden_matrix, golden_defectives, 0, 2, GapPolicy.bernoulli(seed=4))
        assert a == b
        assert a != c  # 10 gap coin flips; seeds 3 and 4 happen to differ

    def test_noise_flip_rows(self, golden_matrix, golden_defectives):
        clean = encode(
            golden_matrix, golden_defectives, 0, 2, GapPolicy.explicit(GOLDEN_GAP_OVERRIDES)
        )
        noisy = encode(
            golden_matrix,
            golden_defectives,
            0,
            2,
            GapPolicy.explicit(GOLDEN_GAP_OVERRIDES),
            NoiseSpec.flip_rows([1, 20]),
        )
        assert noisy == clean.flipped([1, 20])

    def test_random_flip_count_validated(self, golden_matrix, golden_defectives):
        with pytest.raises(ValidationError):
            encode(
                golden_matrix,
                golden_defectives,
                0,
                2,
                GapPolicy.explicit(GOLDEN_GAP_OVERRIDES),
                NoiseSpec.random_flips(21, seed=0),
            )

    def test_random_flips_deterministic(self, golden_matrix, golden_defectives):
        runs = [
            encode(
                golden_matrix,
                golden_defectives,
                0,
                2,
                GapPolicy.explicit(GOLDEN_GAP_OVERRIDES),
                NoiseSpec.random_flips(3, seed=11),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSettingsBuilders:
    def test_builders_match_constructors(self):
        assert GapPolicy.from_settings("always_positive") == GapPolicy.always_positive()
        assert GapPolicy.from_settings("bernoulli", 0.3, seed=4) == GapPolicy.bernoulli(
            0.3, seed=4
        )
        assert GapPolicy.from_settings("explicit", rows_text="5:0, 2:1") == (
            GapPolicy.explicit({2: 1, 5: 0})
        )
        assert NoiseSpec.from_settings("none") == NoiseSpec.none()
        assert NoiseSpec.from_settings("flip_rows", "20,1") == NoiseSpec.flip_rows([1, 20])
        assert NoiseSpec.from_settings("random_flips", count=3, seed=9) == (
            NoiseSpec.random_flips(3, seed=9)
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2:1,2:0", "--rows lists row 2 twice"),
            ("2", "bad --rows entry '2'"),
            ("2:1,", "bad --rows entry ''"),
            ("2:1:0", "bad --rows entry '2:1:0'"),
            ("0:1", "--rows row 0 is not 1-based"),
            ("2:2", "override for row 2 must be 0/1"),
        ],
    )
    def test_bad_policy_rows(self, text, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            GapPolicy.from_settings("explicit", rows_text=text, label="--rows")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3,1,3", "--rows lists row 3 twice"),
            ("1:0", "bad --rows entry '1:0'"),
            ("-1", "--rows row -1 is not 1-based"),
        ],
    )
    def test_bad_noise_rows(self, text, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            NoiseSpec.from_settings("flip_rows", text, label="--rows")

    def test_every_setting_is_checked_whatever_the_kind(self):
        with pytest.raises(ValidationError, match="bernoulli p"):
            GapPolicy.from_settings("always_negative", p=1.5)
        with pytest.raises(ValidationError, match="twice"):
            GapPolicy.from_settings("bernoulli", rows_text="1:1,1:1")
        with pytest.raises(ValidationError, match="non-negative"):
            NoiseSpec.from_settings("none", count=-1)
        with pytest.raises(ValidationError, match="unknown gap policy"):
            GapPolicy.from_settings("sometimes")
        with pytest.raises(ValidationError, match="unknown noise"):
            NoiseSpec.from_settings("loud")


class TestCheckConsistency:
    def test_clean_replay_is_zero(self, golden_matrix, golden_defectives, golden_outcome):
        assert check_consistency(golden_matrix, golden_defectives, golden_outcome, 0, 2) == 0

    def test_single_flip_on_deterministic_row(
        self, golden_matrix, golden_defectives, golden_outcome
    ):
        assert (
            check_consistency(
                golden_matrix, golden_defectives, golden_outcome.flipped([1]), 0, 2
            )
            == 1
        )

    def test_empty_truth_counts_positive_outcomes(self, golden_matrix, golden_outcome):
        # with no defectives every pool is deterministically negative, so the
        # minimal explanation flips each of the outcome's 1-entries
        ones = sum(golden_outcome.bits)
        assert ones == 14
        assert (
            check_consistency(golden_matrix, ItemSet.of([]), golden_outcome, 0, 2) == ones
        )

    def test_gap_rows_are_free(self, golden_matrix, golden_defectives, golden_outcome):
        # flipping a gap row never costs anything
        flipped = golden_outcome.flipped([2, 5, 18])
        assert check_consistency(golden_matrix, golden_defectives, flipped, 0, 2) == 0

    def test_dimension_mismatch(self, golden_matrix, golden_defectives):
        from tgtkit import OutcomeVector

        with pytest.raises(ValidationError):
            check_consistency(
                golden_matrix, golden_defectives, OutcomeVector.parse("101"), 0, 2
            )


class TestT0:
    def test_golden_values(self, golden_matrix, golden_outcome):
        assert t0(golden_matrix, golden_outcome, ItemSet.of([1, 2])) == 0
        assert t0(golden_matrix, golden_outcome, ItemSet.of([1, 3])) == 1
        assert t0(golden_matrix, golden_outcome, ItemSet.of([3, 6])) == 3

    def test_out_of_range_index(self, golden_matrix, golden_outcome):
        with pytest.raises(ValidationError):
            t0(golden_matrix, golden_outcome, ItemSet.of([7]))
        with pytest.raises(ValidationError):
            t0(golden_matrix, golden_outcome, ItemSet.of([]))

    def test_non_increasing_as_columns_added(self, golden_matrix, golden_outcome):
        from itertools import combinations

        for size in (1, 2):
            for xs in combinations(range(1, 7), size):
                base = t0(golden_matrix, golden_outcome, ItemSet.of(xs))
                for extra in range(1, 7):
                    if extra in xs:
                        continue
                    grown = t0(golden_matrix, golden_outcome, ItemSet.of(xs + (extra,)))
                    assert grown <= base


# ---------------------------------------------------------------------------
# property tests over random small instances

small_matrix = st.builds(
    lambda rows, n: BinaryMatrix(
        len(rows), n, tuple(mask & ((1 << n) - 1) for mask in rows)
    ),
    rows=st.lists(st.integers(min_value=0, max_value=2**8 - 1), min_size=1, max_size=12),
    n=st.integers(min_value=2, max_value=8),
)


@st.composite
def instance(draw):
    matrix = draw(small_matrix)
    n = matrix.cols
    u = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    ell = draw(st.integers(min_value=0, max_value=u - 1))
    members = draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n))
    policy = draw(
        st.sampled_from(
            [
                GapPolicy.always_positive(),
                GapPolicy.always_negative(),
                GapPolicy.bernoulli(seed=5),
            ]
        )
    )
    return matrix, ItemSet.of(members), ell, u, policy


@settings(max_examples=200, deadline=None)
@given(instance())
def test_noise_free_encode_is_consistent(case):
    matrix, defectives, ell, u, policy = case
    y = encode(matrix, defectives, ell, u, policy)
    assert check_consistency(matrix, defectives, y, ell, u) == 0


@settings(max_examples=200, deadline=None)
@given(instance(), st.integers(min_value=1, max_value=8))
def test_adding_defective_preserves_deterministic_positives(case, newcomer):
    matrix, defectives, ell, u, policy = case
    if newcomer > matrix.cols or newcomer in defectives:
        return
    x_mask = defectives.to_mask(matrix.cols)
    grown = ItemSet.of(tuple(defectives) + (newcomer,))
    y2 = encode(matrix, grown, ell, u, policy)
    for i, mask in enumerate(matrix.row_masks):
        if (mask & x_mask).bit_count() >= u:  # deterministic under the old truth
            assert y2.bits[i] == 1


@settings(max_examples=150, deadline=None)
@given(instance())
def test_encode_deterministic(case):
    matrix, defectives, ell, u, policy = case
    assert encode(matrix, defectives, ell, u, policy) == encode(
        matrix, defectives, ell, u, policy
    )


def test_threshold_and_outcome_length_messages():
    m = BinaryMatrix(3, 4, (0b0011, 0b0110, 0b1100))
    items = ItemSet.of([1, 2])
    thresholds = "^need 0 <= ell < u, got ell=2 u=2$"
    with pytest.raises(ValidationError, match=thresholds):
        encode(m, items, 2, 2, GapPolicy.always_negative())
    with pytest.raises(ValidationError, match=thresholds):
        check_consistency(m, items, OutcomeVector((0, 0, 0)), 2, 2)
    short = OutcomeVector((0, 1))
    length = "^outcome has 2 entries for a 3-row matrix$"
    with pytest.raises(ValidationError, match=length):
        check_consistency(m, items, short, 0, 2)
    with pytest.raises(ValidationError, match=length):
        t0(m, short, items)
    with pytest.raises(ValidationError, match=length):
        build_family(m, short, 2, 0)
