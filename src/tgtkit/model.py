"""Threshold-test semantics: parameters, gap policies, noise, and encoding.

A test on pool ``P`` against defective set ``S`` is positive when
``|P ∩ S| >= u``, negative when ``|P ∩ S| <= ell``, and *arbitrary* in
between.  The width ``g = u - ell - 1`` of the arbitrary band is the gap.
:func:`_rows_pooling` applies this rule to all rows at once, from the
defectives' column masks; :func:`encode` and :func:`check_consistency`
work on the row masks it returns.

Simulation has to pick concrete outcomes for gap pools, which is what
:class:`GapPolicy` does; the two constant policies are the adversarial
extremes, ``bernoulli`` is the usual stochastic model, and ``explicit``
pins individual rows (needed to replay worked examples bit for bit).

Noise is applied after gap resolution, so an error budget of ``e`` flips
counts genuine outcome errors rather than unlucky gap choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from string import whitespace
from typing import Mapping

from .disjunct import _sample_digits
from .errors import ValidationError, _parse_int, _require_int, _require_real, _split_list
from .matrix import BinaryMatrix, ItemSet, OutcomeVector, _check_flip_rows, _rows_holding
from .matrix import _digits_to_mask, _mask_to_digits, _mask_to_positions, _positions_to_mask


@dataclass(frozen=True)
class TGTParams:
    """Model parameters ``(n, d, ell, u, z)`` with the derived quantities.

    ``n`` items, at most ``d`` defective, thresholds ``ell < u``, and
    disjunct multiplicity ``z`` (the decoding matrix is expected to be
    ``(n, d - ell, u; z]``-disjunct, which tolerates ``e = (z - 1) // 2``
    outcome errors).
    """

    n: int
    d: int
    ell: int
    u: int
    z: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "d", "ell", "u", "z"):
            _require_int(name, getattr(self, name), None)
        if not 0 <= self.ell < self.u <= self.d < self.n:
            raise ValidationError(
                f"need 0 <= ell < u <= d < n, got ell={self.ell} u={self.u} "
                f"d={self.d} n={self.n}"
            )
        if self.z < 1:
            raise ValidationError(f"z must be >= 1, got {self.z}")

    @property
    def g(self) -> int:
        """Gap width ``u - ell - 1``."""
        return self.u - self.ell - 1

    @property
    def e(self) -> int:
        """Tolerated outcome errors ``(z - 1) // 2``."""
        return (self.z - 1) // 2


def _parse_rows(text: str, label: str, with_bits: bool) -> tuple:
    """Parse ``row,...`` (or ``row:bit,...`` when ``with_bits``) into a tuple
    sorted by row.  Blank text is no rows (:func:`_split_list`); rows are
    1-based and may not repeat.  Error messages name the setting through ``label``."""
    entries = []
    seen: set[int] = set()
    for tok in _split_list(text):
        parts = tok.split(":")
        if len(parts) != 1 + with_bits or not all(part.strip(whitespace) for part in parts):
            raise ValidationError(f"bad {label} entry {tok!r}")
        numbers = tuple(_parse_int(label, part) for part in parts)
        row = numbers[0]
        entry = numbers if with_bits else row
        if row < 1:
            raise ValidationError(f"{label} row {row} is not 1-based")
        if row in seen:
            raise ValidationError(f"{label} lists row {row} twice")
        seen.add(row)
        entries.append(entry)
    return tuple(sorted(entries))


def _check_rows(rows, label: str) -> None:
    """Reject a row that is not an integer (a bool included) or that repeats,
    naming it as ``label`` in the error."""
    seen: set[int] = set()
    for row in rows:
        _require_int(label, row, None)
        if row in seen:
            raise ValidationError(f"{label} {row} is listed twice")
        seen.add(row)


@dataclass(frozen=True)
class GapPolicy:
    """Rule resolving outcomes of pools whose defective count is in the gap."""

    kind: str
    p: float = 0.5
    seed: int = 0
    overrides: tuple[tuple[int, int], ...] = ()

    KINDS = ("always_positive", "always_negative", "bernoulli", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown gap policy {self.kind!r}")
        _require_real("bernoulli p", self.p)
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"bernoulli p must be in [0, 1], got {self.p}")
        _check_rows([row for row, _ in self.overrides], "override row")
        for row, bit in self.overrides:
            if bit not in (0, 1):
                raise ValidationError(f"override for row {row} must be 0/1")
        _require_int("seed", self.seed, None)

    @classmethod
    def from_settings(cls, kind: str, p: float = 0.5, rows_text: str = "", seed: int = 0,
                      label: str = "policy_rows") -> "GapPolicy":
        """Policy from the settings shared by the CLI and spec files, with the
        ``explicit`` overrides as ``row:bit,...`` text (named ``label`` in
        errors).  Every setting is checked, whether or not ``kind`` uses it."""
        return cls(kind, p=p, seed=seed, overrides=_parse_rows(rows_text, label, True))

    @classmethod
    def always_positive(cls) -> "GapPolicy":
        return cls("always_positive")

    @classmethod
    def always_negative(cls) -> "GapPolicy":
        return cls("always_negative")

    @classmethod
    def bernoulli(cls, p: float = 0.5, seed: int = 0) -> "GapPolicy":
        return cls("bernoulli", p=p, seed=seed)

    @classmethod
    def explicit(cls, overrides: Mapping[int, int]) -> "GapPolicy":
        return cls("explicit", overrides=tuple(sorted(overrides.items())))


@dataclass(frozen=True)
class NoiseSpec:
    """Outcome noise: nothing, fixed row flips, or seeded random flips."""

    kind: str
    rows: tuple[int, ...] = ()
    count: int = 0
    seed: int = 0

    KINDS = ("none", "flip_rows", "random_flips")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown noise spec {self.kind!r}")
        _require_int("flip count", self.count, 0)
        # a repeated row would flip once but count twice in weight()
        _check_rows(self.rows, "flip row")
        _require_int("seed", self.seed, None)

    @classmethod
    def from_settings(cls, kind: str, rows_text: str = "", count: int = 0, seed: int = 0,
                      label: str = "noise_rows") -> "NoiseSpec":
        """Noise from the settings shared by the CLI and spec files, with the
        ``flip_rows`` rows as ``row,...`` text (named ``label`` in errors).
        Every setting is checked, whether or not ``kind`` uses it."""
        return cls(kind, rows=_parse_rows(rows_text, label, False), count=count, seed=seed)

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def flip_rows(cls, rows) -> "NoiseSpec":
        return cls("flip_rows", rows=tuple(sorted(set(rows))))

    @classmethod
    def random_flips(cls, count: int, seed: int = 0) -> "NoiseSpec":
        return cls("random_flips", count=count, seed=seed)

    def weight(self) -> int:
        """Number of rows this spec flips."""
        if self.kind == "none":
            return 0
        if self.kind == "flip_rows":
            return len(self.rows)
        return self.count


def _check_thresholds(ell: int, u: int) -> None:
    _require_int("ell", ell, None)
    _require_int("u", u, None)
    if not 0 <= ell < u:
        raise ValidationError(f"need 0 <= ell < u, got ell={ell} u={u}")


def _check_outcome_length(matrix: BinaryMatrix, outcome: OutcomeVector) -> None:
    if len(outcome) != matrix.rows:
        raise ValidationError(
            f"outcome has {len(outcome)} entries for a {matrix.rows}-row matrix"
        )


def _rows_pooling(
    matrix: BinaryMatrix, defectives: ItemSet, ell: int, u: int
) -> tuple[int, int]:
    """Masks of the rows that pool more than ``ell`` and at least ``u`` of
    the defectives: the rows not certainly negative, and the rows certainly
    positive."""
    defectives.to_mask(matrix.cols)  # validates the range
    cols = matrix.col_masks
    at_least = _rows_holding([cols[j - 1] for j in defectives], matrix.rows, u)
    return at_least[ell + 1], at_least[u]


def _check_noise(noise: NoiseSpec, rows: int) -> None:
    """Reject noise that a ``rows``-row matrix cannot take."""
    if noise.kind == "random_flips" and noise.count > rows:
        raise ValidationError(f"cannot flip {noise.count} rows in a {rows}-row matrix")
    if noise.kind == "flip_rows":
        _check_flip_rows(noise.rows, rows)


def encode(
    matrix: BinaryMatrix,
    defectives: ItemSet,
    ell: int,
    u: int,
    policy: GapPolicy,
    noise: NoiseSpec = NoiseSpec.none(),
) -> OutcomeVector:
    """Outcome vector of all tests for the given defective set.

    Gap rows take whatever ``policy`` dictates; the noise flips are applied
    last.  Deterministic given the policy and noise seeds: a Bernoulli gap
    row is positive when ``random() < p``, one draw (one word pair of
    ``random.Random(seed)``) per gap row, in row order.  The design sampler
    :func:`~tgtkit.disjunct._sample_digits` takes all the draws at once, and
    they replace the gap rows' digits of the outcome.
    """
    _check_thresholds(ell, u)
    t = matrix.rows
    some, positive = _rows_pooling(matrix, defectives, ell, u)
    gap = some & ~positive
    if policy.kind == "always_positive":
        positive |= gap
    elif policy.kind == "bernoulli":
        # the runs of non-gap digits, with the gap rows' draws between them
        parts = _mask_to_digits(gap, t).split("1")
        if m := len(parts) - 1:
            digits = [""] * (2 * m + 1)
            digits[::2] = parts
            digits[1::2] = _sample_digits(random.Random(policy.seed), 1, m, policy.p)
            positive |= _digits_to_mask("".join(digits))
    elif policy.kind == "explicit":
        override_map = dict(policy.overrides)
        for row in override_map:
            if not 1 <= row <= t:
                raise ValidationError(f"explicit override row {row} out of range")
            if not gap >> (row - 1) & 1:
                raise ValidationError(
                    f"explicit override on row {row}, which is not a gap row "
                    f"for this defective set"
                )
        missing = [r for r in _mask_to_positions(gap, t) if r not in override_map]
        if missing:
            shown = ", ".join(map(str, missing[:3])) + (", ..." if len(missing) > 3 else "")
            raise ValidationError(
                f"explicit policy must cover every gap row; missing "
                f"{len(missing)} of {gap.bit_count()} gap rows: {shown}"
            )
        positive |= _positions_to_mask([r for r, bit in override_map.items() if bit], t)

    _check_noise(noise, t)
    flips = noise.rows if noise.kind == "flip_rows" else ()
    if noise.kind == "random_flips":
        flips = random.Random(noise.seed).sample(range(1, t + 1), noise.count)
    return OutcomeVector(t, positive).flipped(flips)


def check_consistency(
    matrix: BinaryMatrix,
    defectives: ItemSet,
    outcome: OutcomeVector,
    ell: int,
    u: int,
) -> int:
    """Minimal number of flipped outcomes explaining ``outcome``.

    Counts the rows whose outcome contradicts its certain value; gap rows
    can always be explained by the gap and contribute zero.
    """
    _check_thresholds(ell, u)
    _check_outcome_length(matrix, outcome)
    some, positive = _rows_pooling(matrix, defectives, ell, u)
    negatives = outcome.negatives_mask
    # certain positives read negative, plus certain negatives read positive
    missed = (positive & negatives).bit_count()
    return missed + matrix.rows - (negatives | some).bit_count()


def t0(matrix: BinaryMatrix, outcome: OutcomeVector, items: ItemSet) -> int:
    """Number of negative pools in which all the given columns appear."""
    if len(items) < 1:
        raise ValidationError("t0 needs at least one column")
    _check_outcome_length(matrix, outcome)
    items.to_mask(matrix.cols)  # validates the range
    rows = outcome.negatives_mask
    for j in items:
        rows &= matrix.col_masks[j - 1]
    return rows.bit_count()
