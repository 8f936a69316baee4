"""Encoding semantics, consistency counting, and the t0 statistic."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    BoundParams,
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

from conftest import GOLDEN_DEFECTIVES, GOLDEN_GAP_OVERRIDES, GOLDEN_OUTCOME, gap_rows_for


def _bits(outcome) -> str:
    return "".join(str(b) for b in outcome.bits)


class TestParams:
    def test_derived_quantities(self):
        p = TGTParams(n=100, d=17, ell=2, u=10, z=5)
        assert p.g == 7
        assert p.e == 2

    def test_ordering_invariants(self):
        with pytest.raises(ValidationError):
            TGTParams(n=6, d=4, ell=2, u=2, z=1)  # ell < u violated
        with pytest.raises(ValidationError):
            TGTParams(n=4, d=4, ell=0, u=2, z=1)  # d < n violated
        with pytest.raises(ValidationError):
            TGTParams(n=6, d=4, ell=0, u=2, z=0)

    def test_size_condition_on_demand(self):
        # checked where designs are sized, at d - ell, not at creation;
        # n=20, d=5, ell=1 passes at d - ell = 4 but would fail at d
        for n, d, ell, ok in ((6, 4, 0, False), (1000, 4, 0, True), (20, 5, 1, True)):
            p = TGTParams(n=n, d=d, ell=ell, u=2)
            assert BoundParams(p.n, p.d - p.ell, p.u, p.z).size_condition_ok() is ok


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
        with pytest.raises(ValidationError, match=r"^override row 2\.0 is not an integer$"):
            GapPolicy.explicit({2.0: 1})
        with pytest.raises(ValidationError, match="unknown noise"):
            NoiseSpec.from_settings("loud")

    def test_non_integer_flip_row_is_rejected_with_the_spec(self):
        message = r"^flip row 2\.0 is not an integer$"
        with pytest.raises(ValidationError, match=message):
            NoiseSpec.flip_rows([2.0])
        with pytest.raises(ValidationError, match=message):
            NoiseSpec("none", rows=(1, 2.0))
        m = BinaryMatrix(3, 4, (0b0011, 0b0110, 0b1100))
        with pytest.raises(ValidationError, match=message):
            encode(m, ItemSet.of([1, 2]), 0, 2, GapPolicy.always_negative(),
                   NoiseSpec.flip_rows([2.0]))


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
        check_consistency(m, items, OutcomeVector.from_bits((0, 0, 0)), 2, 2)
    short = OutcomeVector.from_bits((0, 1))
    length = "^outcome has 2 entries for a 3-row matrix$"
    with pytest.raises(ValidationError, match=length):
        check_consistency(m, items, short, 0, 2)
    with pytest.raises(ValidationError, match=length):
        t0(m, short, items)
    with pytest.raises(ValidationError, match=length):
        build_family(m, short, 2, 0)


# ---------------------------------------------------------------------------
# per-row reference definitions: the oracles for the masked classifier


def _counts(matrix, defectives):
    x_mask = defectives.to_mask(matrix.cols)
    return [(mask & x_mask).bit_count() for mask in matrix.row_masks]


def _encode_reference(matrix, defectives, ell, u, policy, noise):
    """``encode`` row by row, with the checks in the same order."""
    counts = _counts(matrix, defectives)
    gap_rows = [i + 1 for i, c in enumerate(counts) if ell < c < u]
    override_map = dict(policy.overrides)
    if policy.kind == "explicit":
        for row in override_map:
            if not 1 <= row <= matrix.rows:
                raise ValidationError(f"explicit override row {row} out of range")
            if row not in gap_rows:
                raise ValidationError(
                    f"explicit override on row {row}, which is not a gap row "
                    f"for this defective set"
                )
        missing = [r for r in gap_rows if r not in override_map]
        if missing:
            raise ValidationError(
                f"explicit policy must cover every gap row; missing {missing}"
            )
    rng = random.Random(policy.seed)
    bits = []
    for i, c in enumerate(counts):
        if c >= u:
            bits.append(1)
        elif c <= ell:
            bits.append(0)
        elif policy.kind == "always_positive":
            bits.append(1)
        elif policy.kind == "always_negative":
            bits.append(0)
        elif policy.kind == "bernoulli":
            bits.append(1 if rng.random() < policy.p else 0)
        else:
            bits.append(override_map[i + 1])
    outcome = OutcomeVector.from_bits(tuple(bits))
    if noise.kind == "none":
        return outcome
    if noise.kind == "flip_rows":
        return outcome.flipped(noise.rows)
    if noise.count > matrix.rows:
        raise ValidationError(
            f"cannot flip {noise.count} rows in a {matrix.rows}-row matrix"
        )
    return outcome.flipped(
        random.Random(noise.seed).sample(range(1, matrix.rows + 1), noise.count)
    )


def _check_consistency_reference(matrix, defectives, outcome, ell, u):
    errors = 0
    for c, y in zip(_counts(matrix, defectives), outcome.bits):
        if (c >= u and y == 0) or (c <= ell and y == 1):
            errors += 1
    return errors


def _bits_or_message(fn, *args):
    try:
        return fn(*args).bits
    except ValidationError as exc:
        return str(exc)


@st.composite
def encode_case(draw, rows=st.sampled_from(range(1, 41))):
    """A random design and defective set (empty and full sets included)
    with thresholds ``0 <= ell < u``.  Sizes come from ``sampled_from``,
    which draws them uniformly, so that most cases have gap rows."""
    n = draw(st.sampled_from(range(2, 9)))
    t = draw(rows)
    density = draw(st.sampled_from([0.5, 0.25, 0.75, 0.5, 0.25, 0.75, 0.0, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = tuple(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(t)
    )
    u = draw(st.sampled_from([2, 3, 4, 1]))  # u = 1 has no gap
    ell = draw(st.integers(min_value=0, max_value=u - 1))
    size = draw(st.sampled_from(range(n + 1)))
    defectives = ItemSet.of(rng.sample(range(1, n + 1), size))
    return BinaryMatrix(t, n, rows), defectives, ell, u


@st.composite
def gap_policy(draw, matrix, defectives, ell, u, kinds=GapPolicy.KINDS):
    """A policy of one of ``kinds``; explicit overrides are right, miss a
    gap row, land on a row that is not a gap row, or go past the last row."""
    kind = draw(st.sampled_from(kinds))
    if kind != "explicit":
        p = draw(st.floats(min_value=0.0, max_value=1.0))
        return GapPolicy(kind, p=p, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))
    gap = gap_rows_for(matrix, defectives, ell, u)
    bit = st.sampled_from([0, 1, False, True, 0.0, 1.0])
    overrides = {row: draw(bit) for row in gap}
    flaw = draw(st.sampled_from(["none", "missing", "none", "not_gap", "none", "past_end"]))
    if flaw == "missing" and overrides:
        del overrides[draw(st.sampled_from(gap))]
    elif flaw == "not_gap":
        overrides[draw(st.integers(min_value=1, max_value=matrix.rows))] = draw(bit)
    elif flaw == "past_end":
        overrides[draw(st.integers(min_value=matrix.rows + 1, max_value=matrix.rows + 3))] = 1
    return GapPolicy("explicit", overrides=tuple(sorted(overrides.items())))


@st.composite
def noise_spec(draw, t):
    """Any noise kind, with some flips past the last row."""
    kind = draw(st.sampled_from(NoiseSpec.KINDS))
    if kind == "flip_rows":
        rows = draw(st.lists(st.integers(min_value=1, max_value=t + 1), max_size=4))
        return NoiseSpec("flip_rows", rows=tuple(rows))
    count = draw(st.integers(min_value=0, max_value=t + 1))
    return NoiseSpec(kind, count=count, seed=draw(st.integers(min_value=0, max_value=999)))


def _assert_encode_matches_reference(data, case, kinds=GapPolicy.KINDS):
    matrix, defectives, ell, u = case
    policy = data.draw(gap_policy(matrix, defectives, ell, u, kinds))
    noise = data.draw(noise_spec(matrix.rows))
    args = (matrix, defectives, ell, u, policy, noise)
    got = _bits_or_message(encode, *args)
    assert got == _bits_or_message(_encode_reference, *args)
    if not isinstance(got, str):
        assert {type(b) for b in got} <= {int}


@settings(max_examples=400, deadline=None)
@given(st.data(), encode_case())
def test_encode_matches_per_row_reference(data, case):
    _assert_encode_matches_reference(data, case)


@settings(max_examples=300, deadline=None)
@given(st.data(), encode_case())
def test_explicit_overrides_match_per_row_reference(data, case):
    _assert_encode_matches_reference(data, case, kinds=("explicit",))


@settings(max_examples=30, deadline=None)
@given(st.data(), encode_case(rows=st.integers(min_value=4290, max_value=5000)))
def test_encode_matches_reference_past_the_int_digit_limit(data, case):
    # base-2 masks are exempt from the 4,300-digit limit on int/str conversion
    _assert_encode_matches_reference(data, case)


@settings(max_examples=300, deadline=None)
@given(st.data(), encode_case())
def test_check_consistency_matches_per_row_reference(data, case):
    matrix, defectives, ell, u = case
    policy = data.draw(st.sampled_from([GapPolicy.always_positive(), GapPolicy.bernoulli(seed=1)]))
    outcome = encode(matrix, defectives, ell, u, policy)
    flips = data.draw(st.lists(st.integers(min_value=1, max_value=matrix.rows), max_size=5))
    other = data.draw(st.sets(st.integers(min_value=1, max_value=matrix.cols)))
    for truth in (defectives, ItemSet.of(other)):
        for y in (outcome, outcome.flipped(flips)):
            assert check_consistency(matrix, truth, y, ell, u) == (
                _check_consistency_reference(matrix, truth, y, ell, u)
            )
