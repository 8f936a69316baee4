"""Disjunct-matrix row-count bounds, randomized construction, verification.

An ``(n, d, r; z]``-disjunct matrix has, for every disjoint pair of column
sets ``(S1 of size d, S2 of size r)``, at least ``z`` rows that are all
ones on ``S2`` and all zeros on ``S1``; it tolerates ``(z - 1) // 2``
erroneous test outcomes.

Three row-count calculators are provided, named after the scheme labels
used throughout the CLI:

* ``rows_thm1`` -- the classical hypergraph bound, linear in ``z``:
  ``z (k/u)^u (k/d)^d [1 + k (1 + ln(n/k + 1))]`` with ``k = d + u``.
* ``rows_thm4`` -- the Chernoff-based randomized construction,
  ``3 alpha / (delta^2 q)`` where ``alpha = k ln(e n / k) + u ln(e k / u)``,
  ``q = (u/k)^u (d/k)^d`` and ``delta`` solves
  ``z delta^2 + 3 alpha delta - 3 alpha = 0``; the ``z`` dependence enters
  only through ``delta``, so the bound grows like ``1 + z/alpha`` instead
  of ``z``.
* ``rows_thm5`` -- a variant of the same construction that is provably
  below ``rows_thm1`` whenever ``z >= 4 / beta^2 + 1`` for
  ``beta = 1 - 2/alpha``; here ``delta`` solves
  ``z delta^2 + 2 alpha delta - 2 alpha = 0`` and the row count is
  ``floor(2 alpha / (delta^2 q)) + 1``.

All calculators evaluate in binary floating point (>= 15 significant
digits), switching to a log-domain mantissa/exponent path once the value
leaves the double range, and return integer row counts.

``verify_disjunct`` decides the property one ones-set at a time.  For a
fixed ``S2`` with all-ones rows ``R``, a zeros-set ``S1`` fails exactly when
its ``d`` columns hit all but at most ``z - 1`` rows of ``R``: a partial
set-cover question, answered by an exact branch-and-bound search
(``_can_cover``), which starts from the design's row weights.  Only the first ones-set for which it answers yes is
walked pair by pair, to report the lexicographically first failing pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Optional

from .errors import FeasibilityError, ValidationError, _require_int
from .matrix import BinaryMatrix, ItemSet, _count_planes, _rows_holding

#: refuse to materialize random matrices above this many entries
GENERATION_ENTRY_BUDGET = 200_000_000

#: default cap on the number of (S1, S2) pairs verify_disjunct may enumerate
VERIFY_PAIR_CAP = 100_000_000

_LN10 = math.log(10.0)

#: at most this many completions are enumerated instead of searched: the
#: zeros-sets of a ones-set in verify_disjunct, the k-subsets of a node in
#: _can_cover
_DIRECT_COMPLETIONS = 64


def alpha(k: int, u: int, n: int) -> float:
    """``k ln(e n / k) + u ln(e k / u)`` (e is Euler's constant)."""
    _require_int("k", k)
    _require_int("u", u)
    _require_int("n", n)
    if not u <= k <= n:
        raise ValidationError(f"need 1 <= u <= k <= n, got u={u} k={k} n={n}")
    return k * (1.0 + math.log(n / k)) + u * (1.0 + math.log(k / u))


def _delta(alpha_value: float, z: int, c: float) -> float:
    """Positive root of ``z d^2 + c alpha d - c alpha = 0``; always in (0, 1).

    Evaluated as ``2 c alpha / (c alpha + sqrt(c^2 alpha^2 + 4 c alpha z))``,
    the same root written without the cancellation-prone subtraction.  The
    products run left to right, so for ``c = 3`` and ``c = 2`` every
    operation rounds as in ``6a / (3a + sqrt(9a a + 12a z))`` and
    ``4a / (2a + sqrt(4a a + 8a z))``; reordering them (say, hoisting
    ``c * a``) moves the last bit and, near an integer, a row count.
    """
    if not alpha_value > 0:
        raise ValidationError(f"alpha must be positive, got {alpha_value}")
    if z < 1:
        raise ValidationError(f"z must be >= 1, got {z}")
    a = float(alpha_value)
    return 2.0 * c * a / (c * a + math.sqrt(c * c * a * a + 4.0 * c * a * z))


def delta_thm4(alpha_value: float, z: int) -> float:
    """Positive root of ``z d^2 + 3 alpha d - 3 alpha = 0``; always in (0, 1)."""
    return _delta(alpha_value, z, 3.0)


def delta_thm5(alpha_value: float, z: int) -> float:
    """Positive root of ``z d^2 + 2 alpha d - 2 alpha = 0``; always in (0, 1)."""
    return _delta(alpha_value, z, 2.0)


@dataclass(frozen=True)
class BoundParams:
    """Derived quantities shared by the randomized-construction bounds."""

    n: int
    d: int
    u: int
    z: int

    def __post_init__(self) -> None:
        _require_int("n", self.n)
        _require_int("d", self.d)
        _require_int("u", self.u)
        _require_int("z", self.z)
        if self.d + self.u > self.n:
            raise ValidationError(
                f"need d + u <= n, got d={self.d} u={self.u} n={self.n}"
            )

    @property
    def k(self) -> int:
        return self.d + self.u

    @property
    def p(self) -> float:
        """Per-entry one-probability of the random construction, ``u / k``."""
        return self.u / self.k

    @property
    def q(self) -> float:
        """Per-row good-event probability ``(u/k)^u (d/k)^d``."""
        return math.exp(self.ln_q)

    @property
    def ln_q(self) -> float:
        return self.u * math.log(self.u / self.k) + self.d * math.log(self.d / self.k)

    @property
    def alpha(self) -> float:
        return alpha(self.k, self.u, self.n)

    @property
    def beta(self) -> float:
        return 1.0 - 2.0 / self.alpha

    def size_condition_ok(self) -> bool:
        """``(d + u)^2 / u <= n``."""
        return self.k * self.k <= self.n * self.u


def _round_rows(ln_value: float, value: float, rounding) -> int:
    """``math.ceil`` or ``math.floor`` of a bound.  Past the double range it
    rounds a 16-digit decimal mantissa taken from the log, which is all the
    precision the float pipeline carries anyway."""
    if math.isfinite(value):
        return rounding(value)
    log10 = ln_value / _LN10
    exp10 = math.floor(log10)
    return rounding(10.0 ** (log10 - exp10) * 10**15) * 10 ** (exp10 - 15)


def _bound(scheme: str, params: BoundParams) -> tuple[float, float]:
    """``(ln value, value)`` of a scheme's bound before rounding (``inf`` past
    doubles): the classical ``thm1`` expression, or ``c alpha / (delta^2 q)``
    with ``c = 3`` for ``thm4`` and ``c = 2`` for ``thm5``."""
    n, d, u, z, k = params.n, params.d, params.u, params.z, params.k
    if scheme == "thm1":
        bracket = 1.0 + k * (1.0 + math.log(n / k + 1.0))
        ln_value = (
            math.log(z) + u * math.log(k / u) + d * math.log(k / d) + math.log(bracket)
        )
    else:
        c = 3.0 if scheme == "thm4" else 2.0
        a = params.alpha
        numerator = c * a
        delta = _delta(a, z, c)
        ln_value = math.log(numerator) - 2.0 * math.log(delta) - params.ln_q
    if ln_value >= 700.0:
        return ln_value, math.inf
    if scheme == "thm1":
        return ln_value, z * (k / u) ** u * (k / d) ** d * bracket
    return ln_value, numerator / (delta * delta) * math.exp(-params.ln_q)


def rows_thm1_value(n: int, d: int, u: int, z: int) -> float:
    """Pre-ceiling value of the classical bound (float; may be ``inf``)."""
    return _bound("thm1", BoundParams(n, d, u, z))[1]


def rows_thm1(n: int, d: int, u: int, z: int) -> int:
    """Row count of the classical ``(n, d, u; z]``-disjunct construction."""
    return _round_rows(*_bound("thm1", BoundParams(n, d, u, z)), math.ceil)


def _check_thm4_preconditions(params: BoundParams) -> None:
    if not 2 <= params.u <= params.d:
        raise ValidationError(f"need 2 <= u <= d, got u={params.u} d={params.d}")
    if not params.size_condition_ok():
        lhs = params.k**2 / params.u
        raise ValidationError(
            f"randomized-construction bound needs (d + u)^2 / u <= n, "
            f"but {lhs:g} > {params.n}"
        )


def rows_thm4_value(n: int, d: int, u: int, z: int) -> float:
    """Pre-ceiling value ``3 alpha / (delta^2 q)`` (float; may be ``inf``)."""
    return _bound("thm4", BoundParams(n, d, u, z))[1]


def rows_thm4(n: int, d: int, u: int, z: int, strict: bool = True) -> int:
    """Row count of the Chernoff-based randomized construction.

    With ``strict=True`` the stated preconditions ``2 <= u <= d`` and
    ``(d + u)^2 / u <= n`` are enforced; ``strict=False`` evaluates the
    formula anyway (the sampling recipe is well defined regardless, only
    the bound's guarantee needs the size condition).
    """
    params = BoundParams(n, d, u, z)
    if strict:
        _check_thm4_preconditions(params)
    return _round_rows(*_bound("thm4", params), math.ceil)


def thm5_min_z(n: int, d: int, u: int) -> float:
    """Smallest admissible ``z`` for the strict variant, ``4 / beta^2 + 1``."""
    beta = BoundParams(n, d, u, 1).beta
    return 4.0 / (beta * beta) + 1.0


def rows_thm5_value(n: int, d: int, u: int, z: int) -> float:
    """Pre-floor value ``2 alpha / (delta^2 q)`` (float; may be ``inf``)."""
    return _bound("thm5", BoundParams(n, d, u, z))[1]


def rows_thm5(n: int, d: int, u: int, z: int, strict: bool = True) -> int:
    """Row count of the strict randomized variant, ``floor(...) + 1``.

    Requires ``z >= 4 / beta^2 + 1``; for such ``z`` the result is strictly
    below ``rows_thm1`` at the same parameters, and the recovered ``delta``
    lies in ``(0, beta)`` with no check needed: the quadratic is increasing
    on ``(0, 1)`` and at ``beta`` equals ``z beta^2 - 4 >= beta^2 > 0``
    (``beta >= 1/3``, as ``alpha >= k + u >= 3``).
    """
    params = BoundParams(n, d, u, z)
    if strict:
        _check_thm4_preconditions(params)
    z_min = thm5_min_z(n, d, u)
    if z < z_min:
        raise ValidationError(
            f"z={z} is below the admissible threshold 4/beta^2 + 1 = {z_min:.4f}"
        )
    return _round_rows(*_bound("thm5", params), math.floor) + 1


#: the row-count calculator of each scheme, by its label
ROW_BOUNDS = {"thm1": rows_thm1, "thm4": rows_thm4, "thm5": rows_thm5}

#: the schemes :func:`generate` can size a sample by
SAMPLING_VARIANTS = ("thm4", "thm5")

#: what a design can be drawn as: a sampling variant, or :func:`generate_verified`
GENERATE_KINDS = (*SAMPLING_VARIANTS, "verified")


#: bytes of random words drawn per ``getrandbits`` call in _sample_digits
_SAMPLE_BLOCK_BYTES = 1 << 16


def _sample_digits(rng: random.Random, rows: int, n: int, p: float) -> str:
    """The ``rows * n`` digits, row by row, of entries that are 1 exactly when
    ``rng.random() < p``, drawing the same words as that many ``random()`` calls.
    It samples designs, and (as one row of ``m`` entries) the Bernoulli draws
    of :func:`~tgtkit.model.encode`'s ``m`` gap rows.

    ``random()`` is ``X / 2**53`` with ``X = (a >> 5) << 26 | (b >> 6)`` for two
    consecutive 32-bit words ``a`` and ``b``, and ``getrandbits(64 * m)`` holds
    the same words in the same order, low word first.  So an entry is 1
    exactly when ``X < T = ceil(p * 2**53)``.  The top byte of ``a`` is the top
    byte of ``X``; only an entry whose top byte equals that of ``T`` (about
    one in 256) needs its full ``X``.
    """
    threshold = math.ceil(p * (1 << 53))
    top = threshold >> 45
    # "1" below the top byte of T, "?" at it, "0" above (top is 256 at p = 1)
    table = (b"1" * top + b"?" + b"0" * 255)[:256]
    block_rows = max(1, _SAMPLE_BLOCK_BYTES // (8 * n))
    out = []
    for start in range(0, rows, block_rows):
        entries = min(block_rows, rows - start) * n
        words = rng.getrandbits(64 * entries).to_bytes(8 * entries, "little")
        digits = bytearray(words[3::8].translate(table))
        i = digits.find(b"?")
        while i >= 0:
            a = int.from_bytes(words[8 * i : 8 * i + 4], "little")
            b = int.from_bytes(words[8 * i + 4 : 8 * i + 8], "little")
            digits[i] = ord("1") if ((a >> 5) << 26 | b >> 6) < threshold else ord("0")
            i = digits.find(b"?", i + 1)
        out.append(digits.decode())
    return "".join(out)


def _check_entry_budget(rows: int, n: int) -> None:
    if rows * n > GENERATION_ENTRY_BUDGET:
        raise FeasibilityError(
            f"refusing to sample a {rows} x {n} matrix "
            f"({rows * n} entries > budget {GENERATION_ENTRY_BUDGET})"
        )


def _check_pair_cap(n: int, d: int, r: int, pair_cap: int) -> None:
    _require_int("pair_cap", pair_cap)
    pairs = math.comb(n, r) * math.comb(n - r, d)
    if pairs > pair_cap:
        raise FeasibilityError(
            f"verification would enumerate {pairs} pairs > cap {pair_cap}"
        )


def _sample_plan(n: int, d: int, u: int, z: int, kind: str, rows: Optional[int],
                 pair_cap: int = VERIFY_PAIR_CAP) -> tuple[int, float]:
    """``(rows, p)`` of a sample of ``kind`` (one of :data:`GENERATE_KINDS`),
    after every check made before a draw.  ``rows`` defaults to the kind's
    calculator; ``verified`` samples are sized by ``thm4`` and must also
    verify within ``pair_cap``."""
    params = BoundParams(n, d, u, z)
    if rows is None:
        rows = ROW_BOUNDS["thm4" if kind == "verified" else kind](n, d, u, z, strict=False)
    _require_int("rows", rows)
    if kind == "verified":
        _check_pair_cap(n, d, u, pair_cap)
    _check_entry_budget(rows, n)
    return rows, params.p


def generate(
    n: int,
    d: int,
    u: int,
    z: int,
    seed: int,
    variant: str = "thm4",
    rows: Optional[int] = None,
) -> BinaryMatrix:
    """Sample the randomized construction: each entry is 1 with ``p = u/k``.

    The row count comes from the chosen variant's calculator (or an
    explicit ``rows`` override).  The disjunct property holds with positive
    probability but is *not* verified here; see :func:`generate_verified`.
    Deterministic given ``seed``: the sampler is stream-identical to
    drawing ``random() < p`` per entry, row by row, from
    ``random.Random(seed)``.
    """
    if variant not in SAMPLING_VARIANTS:
        raise ValidationError(f"unknown generation variant {variant!r}")
    rows, p = _sample_plan(n, d, u, z, variant, rows)
    _require_int("seed", seed, None)
    return BinaryMatrix._from_digits(rows, n, _sample_digits(random.Random(seed), rows, n, p))


@dataclass(frozen=True)
class DisjunctWitness:
    """A disjoint column-set pair covered by fewer than ``z`` rows.

    ``ones_set`` is the size-``r`` set that must see all ones, ``zeros_set``
    the size-``d`` set that must see all zeros.
    """

    ones_set: ItemSet
    zeros_set: ItemSet
    covered_rows: int


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    witness: Optional[DisjunctWitness] = None


def _can_cover(hits: list[int], uncovered: int, k: int, spare: int,
               counts: Optional[tuple[int, int]] = None) -> bool:
    """Whether at most ``k >= 1`` of the masks ``hits`` leave at most
    ``spare`` bits of ``uncovered`` unset by their union.

    Exact branch and bound, depth first on an explicit stack.  A node with
    ``k >= 3`` marks the bits held by at least one and by at least two
    masks, spends the bits nobody holds from ``spare``, and succeeds when
    ``spare`` covers the rest or there are at most ``k`` masks.  With
    ``spare`` at 0, a bit with a single holder can only be set by it, so
    the node takes every such holder in one step: it fails if there are
    more than ``k``, succeeds if they set every bit, and otherwise goes on
    with ``k`` reduced and their bits removed.  With ``spare`` above 0 such
    a bit may stay unset, and nothing is forced.  Such a node fails when
    the ``k`` largest gains cannot close the rest, enumerates its
    completions when there are few, or else branches on the lowest of the
    bits with fewest holders (found by a binary counter kept in bit planes
    unless some bit has a single holder): each holder in turn, earlier
    holders excluded, and then, while ``spare`` lasts, that bit left unset
    with all its holders dropped.  Nodes with ``k <= 2`` are decided
    directly.

    ``counts``, when given with ``k >= 3``, is the first node's marks: the
    bits of ``uncovered`` held by at least one and by at least two of
    ``hits``.  That node then skips its holder count, and its masks may
    hold bits outside ``uncovered``: it takes them in as they are for the
    forced step, and cuts them to ``uncovered`` only to weigh gains,
    enumerate completions or branch.
    """
    if k < 3:
        counts = None
    stack = [(hits, uncovered, k, spare)]
    while stack:
        hits, uncovered, k, spare = stack.pop()
        if k == 1:
            need = uncovered.bit_count() - spare
            if need <= 0 or any((m & uncovered).bit_count() >= need for m in hits):
                return True
            continue
        loose = counts is not None  # hits may hold bits outside uncovered
        if loose:
            held, twice = counts
            counts = None
        else:
            # from here every mask lies inside uncovered, so ^ takes its bits out
            hits = [h for m in hits if (h := m & uncovered)]
            if k == 2:
                if _can_cover_pair(hits, uncovered.bit_count() - spare):
                    return True
                continue
            held = twice = 0  # the bits held at least once, at least twice
            for h in hits:
                twice |= held & h
                held |= h
        spare -= (uncovered ^ held).bit_count()
        if spare < 0:
            continue
        uncovered = held
        size = uncovered.bit_count()
        if size <= spare or len(hits) <= k:
            return True
        single = held ^ twice
        if single and not spare:
            forced = [h for h in hits if h & single]
            if len(forced) <= k:
                union = 0
                for h in forced:
                    union |= h
                union &= uncovered
                if union == uncovered:
                    return True
                if len(forced) < k:
                    stack.append((hits, uncovered ^ union, k - len(forced), 0))
            continue
        if loose:
            hits = [h for m in hits if (h := m & uncovered)]
            if len(hits) <= k:
                return True
        gains = sorted(map(int.bit_count, hits))
        if size - sum(gains[-k:]) > spare:
            continue
        if math.comb(len(hits), k) <= _DIRECT_COMPLETIONS:
            need = size - spare
            for combo in combinations(hits, k):
                union = 0
                for h in combo:
                    union |= h
                if union.bit_count() >= need:
                    return True
            continue
        rarest = single
        if not rarest:
            rarest = held
            for plane in reversed(_count_planes(hits)):
                if rarest & ~plane:
                    rarest &= ~plane
        bit = rarest & -rarest
        holders = [h for h in hits if h & bit]
        others = [h for h in hits if not h & bit]
        # popped in reverse: each holder in order, then the bit left unset
        if spare:
            stack.append((others, uncovered ^ bit, k, spare - 1))
        for i in range(len(holders) - 1, -1, -1):
            stack.append((others + holders[i + 1 :], uncovered ^ holders[i], k - 1, spare))
    return False


def _can_cover_pair(hits: list[int], need: int) -> bool:
    """Whether the union of at most two of ``hits`` has ``need`` bits.

    The two largest gains, sorted as plain ints, answer first: one of them
    alone may reach ``need``, or both together may fall short.  Otherwise
    pairs are tried in decreasing gain order, cut off once two gains cannot
    reach ``need``; a pair reaches it when the second mask shares no more of
    its bits with the first than its gain spares.
    """
    if need <= 0:
        return True
    gains = sorted(map(int.bit_count, hits), reverse=True)
    if gains and gains[0] >= need:
        return True
    if len(gains) < 2 or gains[0] + gains[1] < need:
        return False
    hits = sorted(hits, key=int.bit_count, reverse=True)
    for i in range(len(hits) - 1):
        rest_need = need - gains[i]
        if gains[i + 1] < rest_need:
            return False
        first = hits[i]
        for j in range(i + 1, len(hits)):
            slack = gains[j] - rest_need
            if slack < 0:
                break
            if (hits[j] & first).bit_count() <= slack:
                return True
    return False


def verify_disjunct(
    matrix: BinaryMatrix,
    d: int,
    r: int,
    z: int,
    pair_cap: int = VERIFY_PAIR_CAP,
) -> VerifyResult:
    """Exactly decide the ``(n, d, r; z]``-disjunct property.

    Walks the size-``r`` ones-sets in lexicographic order.  Each of a
    ones-set's rows holds its ``r`` columns, so the rows that hold ``r + 1``
    and ``r + 2`` columns or more, counted once per design, are among them
    the rows that some other column holds and that two others hold.  A
    ones-set with at least ``z`` rows that no other column holds passes at
    once.  For the rest an exact cover search, whose first node starts from
    those two masks, decides whether any size-``d`` zeros-set fails, so
    most ones-sets cost a few search nodes instead of ``C(n - r, d)`` pairs;
    when that inner space has at most 64 pairs they are checked directly.
    The zeros-sets of the first ones-set that fails are walked in
    lexicographic order, so a failure witness is always the
    lexicographically first failing pair (ones-set first).  ``pair_cap``
    bounds the whole pair space ``C(n, r) * C(n - r, d)`` before any work.
    """
    _require_int("d", d)
    _require_int("r", r)
    _require_int("z", z)
    n = matrix.cols
    if d + r > n:
        raise ValidationError(f"need d + r <= n, got d={d} r={r} n={n}")
    _check_pair_cap(n, d, r, pair_cap)
    cols = matrix.col_masks
    at_least = _rows_holding(cols, matrix.rows, r + 2)
    full, held_rows, twice_rows = at_least[0], at_least[r + 1], at_least[r + 2]
    # ANDs with these take fewer steps than with ~col, a negative int
    complements = [full ^ col for col in cols]
    search = math.comb(n - r, d) > _DIRECT_COMPLETIONS
    others = [True] * n  # others[j]: column j is outside the ones-set
    for s2 in combinations(range(n), r):
        ones = full
        for j in s2:
            ones &= cols[j]
        held = ones & held_rows
        if (ones ^ held).bit_count() >= z:
            continue  # at least z rows that no zeros-set can hit
        if search:
            for j in s2:
                others[j] = False
            hits = list(compress(cols, others))
            for j in s2:
                others[j] = True
            if not _can_cover(hits, ones, d, z - 1, (held, ones & twice_rows)):
                continue
        for s1 in combinations([j for j in range(n) if j not in s2], d):
            covered = ones
            for j in s1:
                covered &= complements[j]
            if covered.bit_count() < z:
                return VerifyResult(
                    False,
                    DisjunctWitness(
                        ones_set=ItemSet._of_sorted(tuple([j + 1 for j in s2])),
                        zeros_set=ItemSet._of_sorted(tuple([j + 1 for j in s1])),
                        covered_rows=covered.bit_count(),
                    ),
                )
    return VerifyResult(True, None)


@dataclass(frozen=True)
class GenerationResult:
    matrix: BinaryMatrix
    attempts: int


def generate_verified(
    n: int,
    d: int,
    u: int,
    z: int,
    seed: int,
    max_attempts: int = 100,
    rows: Optional[int] = None,
    pair_cap: int = VERIFY_PAIR_CAP,
) -> GenerationResult:
    """Rejection-sample random matrices until one verifies ``(n, d, u; z]``.

    All attempts draw from a single stream seeded once, so the returned
    matrix and the attempt count are reproducible from ``seed`` alone.
    ``rows`` overrides the per-attempt row count (default: the ``thm4``
    calculator's value).
    """
    _require_int("max_attempts", max_attempts)
    rows, p = _sample_plan(n, d, u, z, "verified", rows, pair_cap)
    _require_int("seed", seed, None)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        matrix = BinaryMatrix._from_digits(rows, n, _sample_digits(rng, rows, n, p))
        if verify_disjunct(matrix, d, u, z, pair_cap=pair_cap).ok:
            return GenerationResult(matrix, attempt)
    raise FeasibilityError(
        f"no verified ({n}, {d}, {u}; {z}]-disjunct matrix within "
        f"{max_attempts} attempts"
    )


def _draw(n: int, d: int, u: int, z: int, seed: int, kind: str, rows: Optional[int],
          max_attempts: int) -> tuple[BinaryMatrix, Optional[int]]:
    """A design of ``kind`` (one of :data:`GENERATE_KINDS`) and, for
    ``verified``, the attempts :func:`generate_verified` took (else None)."""
    if kind == "verified":
        result = generate_verified(n, d, u, z, seed, max_attempts, rows=rows)
        return result.matrix, result.attempts
    return generate(n, d, u, z, seed, kind, rows=rows), None
