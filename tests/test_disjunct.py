"""Row-count calculators, randomized generation, and disjunct verification."""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgtkit import (
    BinaryMatrix,
    BoundParams,
    FeasibilityError,
    ValidationError,
    alpha,
    delta_thm4,
    delta_thm5,
    generate,
    generate_verified,
    rows_thm1,
    rows_thm1_value,
    rows_thm4,
    rows_thm4_value,
    rows_thm5,
    rows_thm5_value,
    thm5_min_z,
    verify_disjunct,
)

from tgtkit import disjunct
from tgtkit.disjunct import _can_cover, _sample_digits
from tgtkit.matrix import _rows_holding

from conftest import GOLDEN_TEXT, naive_verify_disjunct


class TestAlpha:
    def test_collapses_at_n_equals_k(self):
        # k = n makes the first log term exactly k
        assert alpha(2, 1, 2) == pytest.approx(3 + math.log(2), rel=1e-15)

    def test_high_precision_values(self):
        assert alpha(22, 4, 10**6) == pytest.approx(268.75729067028476, rel=1e-12)
        assert alpha(110, 20, 10**6) == pytest.approx(1166.7482829836729, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            alpha(4, 5, 10)  # u > k
        with pytest.raises(ValidationError):
            alpha(11, 2, 10)  # k > n


class TestDeltaRoots:
    def test_frozen_values(self):
        a = alpha(22, 4, 10**6)
        assert delta_thm4(a, 3) == pytest.approx(0.9963066049350269, rel=1e-12)
        assert delta_thm4(a, 101) == pytest.approx(0.898802761617066, rel=1e-12)

    def test_root_identity_examples(self):
        for a, z in ((268.757, 3), (1.5, 1), (1e6, 12345)):
            d = delta_thm4(a, z)
            assert abs(z * d * d + 3 * a * d - 3 * a) < 1e-10 * 3 * a
            d5 = delta_thm5(a, z)
            assert abs(z * d5 * d5 + 2 * a * d5 - 2 * a) < 1e-10 * 2 * a

    def test_in_unit_interval(self):
        for a in (0.5, 10.0, 1e8):
            for z in (1, 7, 10**6):
                assert 0 < delta_thm4(a, z) < 1
                assert 0 < delta_thm5(a, z) < 1

    def test_domain(self):
        with pytest.raises(ValidationError):
            delta_thm4(0.0, 3)
        with pytest.raises(ValidationError):
            delta_thm4(1.0, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-2, max_value=1e9),
    st.integers(min_value=1, max_value=10**9),
)
def test_delta_residuals_random(a, z):
    d4 = delta_thm4(a, z)
    assert abs(z * d4 * d4 + 3 * a * d4 - 3 * a) <= 1e-8 * 3 * a
    d5 = delta_thm5(a, z)
    assert abs(z * d5 * d5 + 2 * a * d5 - 2 * a) <= 1e-8 * 2 * a


@settings(max_examples=1000, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e15),
    st.integers(min_value=1, max_value=10**15),
)
@example(268.75729067028476, 3)
@example(1166.7482829836729, 101)
def test_delta_roots_are_bit_identical_to_their_closed_forms(a, z):
    # the expressions each root was written as before one evaluator served
    # both, so row counts near an integer cannot move
    assert delta_thm4(a, z) == 6.0 * a / (3.0 * a + math.sqrt(9.0 * a * a + 12.0 * a * z))
    assert delta_thm5(a, z) == 4.0 * a / (2.0 * a + math.sqrt(4.0 * a * a + 8.0 * a * z))


class TestRowCounts:
    def test_thm1_frozen(self):
        assert rows_thm1(10**6, 18, 4, 3) == 26331299
        assert rows_thm1(6, 4, 2, 1) == 509

    def test_thm1_linear_in_z(self):
        v3 = rows_thm1_value(10**6, 18, 4, 3)
        v11 = rows_thm1_value(10**6, 18, 4, 11)
        assert v11 / v3 == pytest.approx(11 / 3, rel=1e-12)

    def test_thm4_frozen_and_ratio(self):
        assert rows_thm4(10**6, 18, 4, 11) == 28070505
        r = rows_thm4_value(10**6, 18, 4, 11) / rows_thm1_value(10**6, 18, 4, 11)
        assert r == pytest.approx(0.2907, abs=5e-4)
        assert rows_thm4(10**6, 18, 4, 11) < rows_thm1(10**6, 18, 4, 11)

    def test_thm4_exceeds_thm1_slightly_at_small_z(self):
        # at z = 3 the Chernoff bound is a hair above the classical one
        r = rows_thm4_value(10**6, 18, 4, 3) / rows_thm1_value(10**6, 18, 4, 3)
        assert 1.0 < r < 1.10

    def test_thm4_strict_precondition(self):
        with pytest.raises(ValidationError, match="18"):
            rows_thm4(6, 4, 2, 1)  # (d+u)^2/u = 18 > 6
        assert rows_thm4(6, 4, 2, 1, strict=False) == 1484

    def test_thm4_sublinear_in_z(self):
        # rows(z)/z is non-increasing: the z dependence is milder than linear
        prev = None
        for z in (1, 2, 3, 5, 11, 101, 1001):
            per_z = rows_thm4_value(10**6, 18, 4, z) / z
            if prev is not None:
                assert per_z <= prev * (1 + 1e-12)
            prev = per_z

    def test_thm5_frozen(self):
        assert rows_thm5(10**6, 18, 4, 11) == 18958212

    def test_thm5_below_threshold_rejected(self):
        assert thm5_min_z(10**6, 18, 4) == pytest.approx(5.0602, abs=1e-3)
        with pytest.raises(ValidationError, match="5.06"):
            rows_thm5(10**6, 18, 4, 5)
        assert rows_thm5(10**6, 18, 4, 6) > 0

    def test_thm5_always_below_thm1(self):
        rng = random.Random(7)
        for _ in range(200):
            u = rng.randint(2, 10)
            d = rng.randint(u, u + 40)
            n_min = (d + u) ** 2 // u + 1
            n = rng.randint(n_min, n_min * 1000)
            z_min = math.ceil(thm5_min_z(n, d, u))
            z = rng.randint(z_min, z_min + 300)
            assert rows_thm5(n, d, u, z) < rows_thm1(n, d, u, z)

    def test_huge_parameters_leave_float_range(self):
        # d = 900, u = 200 at n = 1e11 has ~230 decimal digits
        big = rows_thm1(10**11, 900, 200, 101)
        assert big > 10**200
        assert rows_thm4(10**11, 900, 200, 101) < big

    def test_log_domain_fallback_pinned(self):
        # ~358 decimal digits: all three calculators leave the double range
        # and round through the 16-digit log-domain mantissa
        args = (10**11, 1500, 300, 101)
        assert math.isinf(rows_thm1_value(*args))
        assert math.isinf(rows_thm4_value(*args))
        assert math.isinf(rows_thm5_value(*args))
        assert rows_thm1(*args) == 5646351892742811 * 10**343
        assert rows_thm4(*args) == 1721849047851277 * 10**342
        assert rows_thm5(*args) == 1149008411769428 * 10**342 + 1

    def test_bound_params_validation(self):
        with pytest.raises(ValidationError):
            BoundParams(10, 9, 2, 1)  # d + u > n
        p = BoundParams(10**6, 18, 4, 3)
        assert p.k == 22
        assert p.p == pytest.approx(4 / 22)
        assert 0 < p.q < 1
        assert 0 < p.beta < 1


@settings(max_examples=500, deadline=None)
@given(
    u=st.integers(1, 300),
    d=st.integers(1, 2000),
    spare=st.integers(0, 10**12),
    z_extra=st.integers(0, 10**6),
)
@example(u=1, d=1, spare=0, z_extra=0)  # n = k = 2: the smallest alpha
def test_thm5_delta_below_beta_when_admissible(u, d, spare, z_extra):
    # why rows_thm5 needs no runtime check: alpha >= k + u >= 3 gives
    # beta >= 1/3, and z >= 4/beta^2 + 1 makes the quadratic positive at beta
    n = d + u + spare
    params = BoundParams(n, d, u, 1)
    z = math.ceil(thm5_min_z(n, d, u)) + z_extra
    assert params.beta >= 1 / 3
    assert delta_thm5(params.alpha, z) < params.beta



class TestGenerate:
    def test_shape_and_determinism(self):
        m1 = generate(6, 4, 2, 1, seed=42)
        m2 = generate(6, 4, 2, 1, seed=42)
        m3 = generate(6, 4, 2, 1, seed=43)
        assert (m1.rows, m1.cols) == (1484, 6)  # thm4 row count, size check waived
        assert m1 == m2
        assert m1 != m3

    def test_rows_override(self):
        m = generate(6, 4, 2, 1, seed=0, rows=25)
        assert m.rows == 25

    def test_column_density_within_5_sigma(self):
        m = generate(12, 3, 2, 1, seed=5)
        p = 2 / 5
        sigma = math.sqrt(m.rows * p * (1 - p))
        for j in range(1, m.cols + 1):
            assert abs(m.column_weight(j) - p * m.rows) <= 5 * sigma

    def test_entry_budget(self):
        with pytest.raises(FeasibilityError):
            generate(10**6, 18, 4, 3, seed=0)

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            generate(6, 4, 2, 1, seed=0, variant="thm9")

    def test_monte_carlo_some_matrices_verify(self):
        # the randomized construction succeeds with positive probability
        hits = 0
        for seed in range(100):
            m = generate(12, 3, 2, 1, seed=seed)
            if verify_disjunct(m, 3, 2, 1).ok:
                hits += 1
        assert hits > 0


def _sample_row_masks_reference(rng, rows, n, p):
    """The row masks of ``rows * n`` entries drawn one ``rng.random() < p`` each."""
    masks = []
    rnd = rng.random
    for _ in range(rows):
        mask = 0
        for j in range(n):
            if rnd() < p:
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


#: one-probabilities that reach every branch of the sampler: k/256 puts
#: T's top byte on a byte value, so about one entry in 256 needs its full
#: 53 bits; the others sit at the ends of [0, 1] or are arbitrary
_PROBABILITIES = st.one_of(
    st.integers(0, 256).map(lambda k: k / 256),
    st.sampled_from([2.0**-53, 1e-9, 1.0 - 2.0**-53]),
    st.floats(0.0, 1e-12),
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(lambda du: du[1] / sum(du)),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 80),
    n=st.integers(1, 24),
    p=_PROBABILITIES,
    block=st.sampled_from([8, 40, 256, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=80, n=24, p=3 / 256, block=256, seed=1)
@example(rows=3, n=5, p=1.0 - 2.0**-53, block=8, seed=2)
def test_sample_digits_matches_per_entry_draws(rows, n, p, block, seed):
    # the digits are the per-entry random() < p draws, and the generator
    # ends in the same state, however the rows fall into blocks
    fast, slow = random.Random(seed), random.Random(seed)
    with mock.patch.object(disjunct, "_SAMPLE_BLOCK_BYTES", block):
        digits = _sample_digits(fast, rows, n, p)
    expected = _sample_row_masks_reference(slow, rows, n, p)
    assert len(digits) == rows * n
    assert BinaryMatrix._from_digits(rows, n, digits).row_masks == expected
    assert fast.getstate() == slow.getstate()


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 30),
    n=st.integers(1, 12),
    pick=st.integers(0, 359),
    nudge=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_digits_at_a_drawn_value(rows, n, pick, nudge, seed):
    # p equal to one of the stream's own draws, or one ulp off it, ties
    # that entry on all 53 bits: the low word decides it
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(rows * n)]
    p = draws[pick % len(draws)]
    p = math.nextafter(p, nudge * math.inf) if nudge else p
    digits = _sample_digits(random.Random(seed), rows, n, p)
    assert digits == "".join("1" if x < p else "0" for x in draws)


def _digest(matrix):
    return hashlib.sha256(matrix.to_text().encode()).hexdigest()[:16]


#: generate's seeded stream, recorded with the per-entry sampler: a change
#: to the stream fails here and not only in a benchmark's golden outputs
@pytest.mark.parametrize(
    "args, kwargs, rows, digest",
    [
        ((12, 2, 1, 1, 0), {}, 201, "a47672fb766bd87f"),
        ((12, 2, 1, 9, 7), {"variant": "thm5"}, 231, "8104b8384295626b"),
        ((20, 3, 2, 2, 1), {}, 1482, "a387100c497a432f"),
        ((20, 3, 2, 9, 1), {"variant": "thm5"}, 1385, "4529960a06bc25ba"),
        ((20, 3, 2, 2, 1), {"rows": rows_thm1(20, 3, 2, 2)}, 813, "56146ca4051d0120"),
        ((48, 4, 2, 3, 5), {}, 3368, "0aa517e11608e631"),
        ((9, 1, 8, 1, 3), {"rows": 17}, 17, "852452cdcb7d9054"),
        ((70, 5, 2, 1, 11), {"rows": 3}, 3, "1c13dc965e01c72d"),
    ],
)
def test_generate_stream_is_pinned(args, kwargs, rows, digest):
    m = generate(*args, **kwargs)
    assert m.rows == rows and _digest(m) == digest


def test_generate_verified_stream_is_pinned():
    # eight attempts draw from one stream; the last one verifies
    result = generate_verified(8, 3, 1, 1, seed=0, rows=30)
    assert result.attempts == 8 and _digest(result.matrix) == "ea68f9ceafbad410"


class TestVerifyDisjunct:
    def test_identity_matrix_passes(self):
        n = 5
        m = BinaryMatrix(n, n, tuple(1 << j for j in range(n)))
        assert verify_disjunct(m, n - 1, 1, 1).ok

    def test_golden_matrix_passes(self):
        m = BinaryMatrix.parse(GOLDEN_TEXT)
        assert verify_disjunct(m, 4, 2, 1).ok

    def test_all_ones_fails_with_witness(self):
        m = BinaryMatrix(3, 3, (0b111, 0b111, 0b111))
        result = verify_disjunct(m, 1, 1, 1)
        assert not result.ok
        w = result.witness
        assert w.covered_rows == 0
        assert w.ones_set.members == (1,)
        assert w.zeros_set.members == (2,)

    def test_z_multiplicity(self):
        # all pair pools of [4]: each pair's only all-ones-and-zeros-elsewhere
        # row is its own, so multiplicity equals the copy count
        from conftest import all_pairs_matrix

        single = all_pairs_matrix(4, copies=1)
        assert verify_disjunct(single, 2, 2, 1).ok
        result = verify_disjunct(single, 2, 2, 2)
        assert not result.ok
        assert result.witness.ones_set.members == (1, 2)
        assert result.witness.covered_rows == 1
        assert verify_disjunct(all_pairs_matrix(4, copies=2), 2, 2, 2).ok

    def test_pair_cap(self):
        m = BinaryMatrix(2, 10, (0b11, 0b1100))
        with pytest.raises(FeasibilityError):
            verify_disjunct(m, 4, 2, 1, pair_cap=10)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_pair_cap_below_one_is_a_validation_error(self, cap):
        m = BinaryMatrix(2, 10, (0b11, 0b1100))
        with pytest.raises(ValidationError, match=rf"^pair_cap must be >= 1, got {cap}$"):
            verify_disjunct(m, 1, 1, 1, pair_cap=cap)

    def test_sets_larger_than_the_items_rejected(self):
        m = BinaryMatrix(2, 4, (0b11, 0b1100))
        with pytest.raises(ValidationError, match=r"^need d \+ r <= n, got d=3 r=2 n=4$"):
            verify_disjunct(m, 3, 2, 1)

    def test_matches_naive_oracle_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(120):
            t = rng.randint(1, 5)
            n = rng.randint(2, 8)
            masks = tuple(rng.randrange(1 << n) for _ in range(t))
            m = BinaryMatrix(t, n, masks)
            r = rng.randint(1, min(2, n - 1))
            d = rng.randint(1, n - r)
            z = rng.randint(1, 2)
            fast = verify_disjunct(m, d, r, z)
            ok, ones, zeros, covered = naive_verify_disjunct(m, d, r, z)
            assert fast.ok == ok
            if not ok:
                assert fast.witness.ones_set.members == ones
                assert fast.witness.zeros_set.members == zeros
                assert fast.witness.covered_rows == covered


def _per_pair_verify(matrix: BinaryMatrix, d: int, r: int, z: int):
    """Every (ones-set, zeros-set) pair in lexicographic order, on column
    masks: the verifier before the cover search, as an oracle fast enough
    for n = 40.  Returns (ok, ones_set, zeros_set, covered) like the naive
    oracle."""
    n = matrix.cols
    cols = matrix.col_masks
    full = (1 << matrix.rows) - 1
    for s2 in combinations(range(n), r):
        ones = full
        for j in s2:
            ones &= cols[j]
        rest = [j for j in range(n) if j not in s2]
        for s1 in combinations(rest, d):
            covered = ones
            for j in s1:
                covered &= ~cols[j]
            if covered.bit_count() < z:
                return (
                    False,
                    tuple(j + 1 for j in s2),
                    tuple(j + 1 for j in s1),
                    covered.bit_count(),
                )
    return (True, None, None, None)


def _verdict(result):
    if result.ok:
        return (True, None, None, None)
    w = result.witness
    return (False, w.ones_set.members, w.zeros_set.members, w.covered_rows)


# (n, r, d) with n <= 12, split by whether a ones-set has more than 64
# zeros-sets, i.e. whether verify_disjunct runs the cover search on it
_SHAPES = [
    (n, r, d)
    for n in range(2, 13)
    for r in range(1, min(3, n - 1) + 1)
    for d in range(1, n - r + 1)
]
_SEARCHED_SHAPES = [s for s in _SHAPES if math.comb(s[0] - s[1], s[2]) > 64]
_DIRECT_SHAPES = [s for s in _SHAPES if math.comb(s[0] - s[1], s[2]) <= 64]


@st.composite
def _verify_cases(draw):
    """A random design at the construction's density r/(d+r), as many rows
    as the naive oracle affords (up to 300), half of them on searched
    shapes."""
    n, r, d = draw(st.sampled_from(_SEARCHED_SHAPES) | st.sampled_from(_DIRECT_SHAPES))
    z = draw(st.integers(1, 6))
    pairs = math.comb(n, r) * math.comb(n - r, d)
    most = max(1, min(300, 60_000 // pairs))
    t = most - draw(st.integers(0, most - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = r / (d + r)
    masks = tuple(
        sum(1 << j for j in range(n) if rng.random() < p) for _ in range(t)
    )
    return BinaryMatrix(t, n, masks), d, r, z


@settings(max_examples=150, deadline=None)
@given(_verify_cases())
def test_verify_matches_naive_oracle(case):
    matrix, d, r, z = case
    assert _verdict(verify_disjunct(matrix, d, r, z)) == naive_verify_disjunct(
        matrix, d, r, z
    )


@st.composite
def _weighted_row_cases(draw):
    """A design whose first ones-set, columns ``1..r``, which the verifier
    decides first, has rows of weight exactly ``r`` (held by no other column:
    fewer than, exactly or more than ``z - 1``) and of weight exactly ``r + 1``
    (their other columns are forced when no row may be spared: fewer than,
    exactly or more than ``d``).  Rows that some other columns hold (a cover
    of the rest or not) and random rows at the construction's density fill
    it up to what the naive oracle affords."""
    n, r, d = draw(st.sampled_from(_SEARCHED_SHAPES) | st.sampled_from(_DIRECT_SHAPES))
    z = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ones = (1 << r) - 1
    others = range(r, n)
    lone = max(0, z - 1 + draw(st.integers(-1, 1)))
    forced = min(n - r, max(1, d + draw(st.integers(-1, 1))))
    rows = [ones] * lone + [ones | 1 << j for j in rng.sample(others, forced)]
    for _ in range(draw(st.integers(0, d + 1))):
        rows.append(ones | sum(1 << j for j in rng.sample(others, min(n - r, 2))))
    pairs = math.comb(n, r) * math.comb(n - r, d)
    p = r / (d + r)
    for _ in range(draw(st.integers(0, max(0, 40_000 // pairs - len(rows))))):
        rows.append(sum(1 << j for j in range(n) if rng.random() < p))
    rows = draw(st.permutations(rows))
    return BinaryMatrix(len(rows), n, tuple(rows)), d, r, z


# ones-set {1, 2} of n = 10 with no cover (the first failing pair is
# ({1, 3}, {2, 4, 5, 6})): at z = 1, columns 3-5 forced and no fourth
# column in both the row with 6 and 7 and the row with 8 and 9; at z = 3,
# one row held by no other column and six single-holder rows, so nothing
# is forced and four columns leave two of them
_PAIR = 0b11
_THREE_FORCED = [_PAIR | 1 << 2, _PAIR | 1 << 3, _PAIR | 1 << 4,
                 _PAIR | 1 << 5 | 1 << 6, _PAIR | 1 << 7 | 1 << 8]
_SPARE_LEFT = [_PAIR] + [_PAIR | 1 << j for j in range(2, 8)]


@settings(max_examples=300, deadline=None)
@given(_weighted_row_cases())
@example((BinaryMatrix(5, 10, tuple(_THREE_FORCED)), 4, 2, 1))
@example((BinaryMatrix(7, 10, tuple(_SPARE_LEFT)), 4, 2, 3))
def test_verify_matches_naive_oracle_on_rows_of_weight_r_and_r_plus_1(case):
    matrix, d, r, z = case
    assert _verdict(verify_disjunct(matrix, d, r, z)) == naive_verify_disjunct(
        matrix, d, r, z
    )


def _brute_can_cover(hits, uncovered, k, spare):
    for size in range(min(k, len(hits)) + 1):
        for combo in combinations(hits, size):
            union = 0
            for h in combo:
                union |= h
            if (uncovered & ~union).bit_count() <= spare:
                return True
    return False


@st.composite
def _cover_cases(draw):
    """Random masks at densities from 1/2 down to 1/8, half the time with a
    planted cover: ``k`` masks, some bits held twice, that leave ``spare``
    bits unset or one more.  Half the time some bits get a single holder
    each: fewer than, exactly or more than ``k`` such holders, whose union
    may set every bit.  Duplicates and empty masks are mixed in."""
    width = draw(st.integers(1, 40))
    full = (1 << width) - 1
    k = draw(st.integers(1, 5) | st.integers(3, 5))
    spare = draw(st.integers(0, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.integers(1, 3))
    masks = []
    for _ in range(draw(st.integers(0, 10))):
        mask = full
        for _ in range(density):
            mask &= rng.getrandbits(width)
        masks.append(mask)
    if draw(st.booleans()):
        unset = set(rng.sample(range(width), min(width, spare + draw(st.integers(0, 1)))))
        planted = [0] * k
        for bit in range(width):
            if bit not in unset:
                for owner in {rng.randrange(k), rng.randrange(k)}:
                    planted[owner] |= 1 << bit
        masks += planted
    if draw(st.booleans()):
        owned = rng.sample(range(width), min(width, draw(st.integers(1, k + 1))))
        only = sum(1 << bit for bit in owned)
        masks = [mask & ~only for mask in masks]
        rest = full & ~only if draw(st.booleans()) else rng.getrandbits(width) & ~only
        masks += [1 << bit | (rest if i == 0 else 0) for i, bit in enumerate(owned)]
    masks += draw(st.lists(st.sampled_from(masks + [0]), max_size=3))
    hits = draw(st.permutations(masks))
    uncovered = draw(st.just(full) | st.integers(0, full))
    return hits, uncovered, k, spare


# each of bits 0 (_ONE_FORCED), 0-2 (_K_FORCED) and 0-3 (_MORE_FORCED) has a
# single holder; the trailing masks are subsets of others, there to make the
# search branch instead of enumerating its completions
_ONE_FORCED = [0b11, 0b11100, 0b1100000, 0b1100, 0b110000, 0b11000010, 0b10000100,
               0b100, 0b1000, 0b10000, 0b100000]
_K_FORCED = [0b11001, 0b1100010, 0b1100, 0b11111000, 0b11000000,
             0b1000, 0b10000, 0b100000, 0b1000000]
_MORE_FORCED = [0b10001, 0b100010, 0b10100, 0b101000, 0b110000,
                0b10000, 0b100000, 0b110000, 0b10000]


@settings(max_examples=400, deadline=None)
@given(_cover_cases())
# the answer turns on: two holders of the branching bit together; a bit
# left unset with spare 1; two gains that just reach the need; the spare a
# bit left unset costs
@example(([176, 132, 280, 30, 32, 256, 64, 272, 466, 1], 511, 4, 0))
@example(([1793, 3460, 1666, 548, 720, 258, 1866, 1040, 176], 4095, 3, 1))
@example(([2, 4, 3], 15, 2, 1))
@example(([1040, 640, 2306, 5120, 4131, 64, 2595, 36], 8191, 4, 2))
# bits with a single holder: one such holder, then a pair completes the
# cover; two, then one mask cannot; exactly k that set every bit
@example(([0b11, 0b11100, 0b11100000, 0b1100, 0b110000, 0b11000010], 0xFF, 3, 0))
@example(([0b101, 0b1010, 0b110000, 0b11000000, 0b1010000, 0b10100000, 0b1100], 0xFF, 3, 0))
@example(([0b11001, 0b1100010, 0b10001100, 0b11111000], 0xFF, 3, 0))
# one, exactly k (not setting bit 7) and more than k such holders: taken
# at once with spare 0 (no cover), branched on with spare 1 (a cover)
@example((_ONE_FORCED, 0xFF, 3, 0))
@example((_ONE_FORCED, 0xFF, 3, 1))
@example((_K_FORCED, 0xFF, 3, 0))
@example((_K_FORCED, 0xFF, 3, 1))
@example((_MORE_FORCED, 0b111111, 3, 0))
@example((_MORE_FORCED, 0b111111, 3, 1))
# two largest gains equal to the need, apart and overlapping; one below
# it; a lone mask that reaches it
@example(([0b0011, 0b1100, 0b0110], 0b1111, 2, 0))
@example(([0b0011, 0b0110, 0b0101], 0b1111, 2, 0))
@example(([0b0011, 0b0100, 0b1000], 0b1111, 2, 0))
@example(([0b0111], 0b1111, 2, 1))
# given the first node's marks, k forced masks that set every bit, one of
# them also bit 0 outside uncovered, and a fourth mask only there
@example(([0b0011, 0b0100, 0b1000, 0b0001], 0b1110, 3, 0))
def test_can_cover_matches_brute_force(case):
    hits, uncovered, k, spare = case
    expected = _brute_can_cover(hits, uncovered, k, spare)
    assert _can_cover(list(hits), uncovered, k, spare) == expected
    # the first node's marks given, as verify_disjunct gives them, with the
    # masks left as they are: bits outside uncovered included
    at_least = _rows_holding([m & uncovered for m in hits], uncovered.bit_length(), 2)
    assert _can_cover(list(hits), uncovered, k, spare, (at_least[1], at_least[2])) == expected


class TestVerifyAtScale:
    def test_n40_failing_witness_matches_per_pair_loop(self):
        # plant a failure at ones-set {1, 3}: every row covering it with
        # zeros-set {4, 5, 6, 7} gets a one in column 4; ones-set {1, 2},
        # which passes, is decided first
        m = generate(40, 4, 2, 1, seed=0)
        ones, zeros = 0b101, 0b1111000
        rows = tuple(
            mask | 0b1000 if mask & ones == ones and not mask & zeros else mask
            for mask in m.row_masks
        )
        planted = BinaryMatrix(m.rows, m.cols, rows)
        expected = _per_pair_verify(planted, 4, 2, 1)
        assert expected[:2] == (False, (1, 3))
        assert _verdict(verify_disjunct(planted, 4, 2, 1)) == expected

    # rows_thm4 cut to a fifth (every design fails, at varying ones-sets) and
    # to a quarter (one design passes, one fails); the per-pair walk of a
    # passing design takes about half a second
    @pytest.mark.parametrize("n, d, r, z, part, seeds", [
        (20, 4, 2, 1, 5, range(4)),
        (20, 4, 2, 1, 4, (0, 2)),
        (20, 3, 3, 1, 5, range(6)),
        (20, 3, 3, 1, 4, (0, 5)),
    ])
    def test_cut_designs_match_per_pair_loop(self, n, d, r, z, part, seeds):
        rows = rows_thm4(n, d, r, z) // part
        passed = []
        for seed in seeds:
            m = generate(n, d, r, z, seed=seed, rows=rows)
            expected = _per_pair_verify(m, d, r, z)
            assert _verdict(verify_disjunct(m, d, r, z)) == expected
            passed.append(expected[0])
        assert passed.count(True) == (1 if part == 4 else 0)

    def test_zeros_set_close_to_n_needs_no_deep_recursion(self):
        # column 1 and one other column in each row: for ones-set {1} every
        # other column covers a single row, so deciding d = 1098 branches
        # about 1,000 levels deep, past Python's recursion limit
        n = 1100
        m = BinaryMatrix(n - 1, n, tuple(1 | (1 << i) for i in range(1, n)))
        result = verify_disjunct(m, n - 2, 1, 2)
        assert _verdict(result) == (False, (1,), tuple(range(2, n)), 1)


class TestGenerateVerified:
    def test_small_instance_verifies_first_attempt(self):
        result = generate_verified(6, 4, 2, 1, seed=123, max_attempts=1000)
        assert result.attempts == 1  # 1484 rows: failure odds are ~1e-13
        assert verify_disjunct(result.matrix, 4, 2, 1).ok

    def test_deterministic(self):
        a = generate_verified(6, 4, 2, 1, seed=9, max_attempts=50)
        b = generate_verified(6, 4, 2, 1, seed=9, max_attempts=50)
        assert a.matrix == b.matrix
        assert a.attempts == b.attempts

    def test_first_attempt_equals_plain_generate(self):
        assert generate_verified(6, 4, 2, 1, seed=4).matrix == generate(
            6, 4, 2, 1, seed=4
        )

    def test_infeasible_size_rejected(self):
        with pytest.raises(FeasibilityError):
            generate_verified(10**6, 18, 4, 3, seed=0)

    def test_cap_messages(self):
        with pytest.raises(
            FeasibilityError, match=r"^verification would enumerate 3150 pairs > cap 10$"
        ):
            generate_verified(10, 4, 2, 1, seed=0, pair_cap=10)
        with pytest.raises(
            FeasibilityError,
            match=r"^refusing to sample a 40000000 x 6 matrix "
            r"\(240000000 entries > budget 200000000\)$",
        ):
            generate_verified(6, 4, 2, 1, seed=0, rows=40_000_000)

    def test_pair_cap_below_one_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"^pair_cap must be >= 1, got 0$"):
            generate_verified(6, 4, 2, 1, seed=0, pair_cap=0)

    def test_attempt_budget_exhausted(self):
        # 4 rows can never hold all 15 pair pools of a (6,4,2;1] design
        with pytest.raises(FeasibilityError, match="attempts"):
            generate_verified(6, 4, 2, 1, seed=0, max_attempts=5, rows=4)
