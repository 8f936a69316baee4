"""Bound-comparison sweeps and end-to-end recovery experiments.

The sweep evaluates the row-count calculators over a grid of
``(scheme, n, d, z)`` points with the thresholds tied to ``d`` by the
usual rules ``u = round(0.2 d)`` and ``ell = round(0.1 d)`` (round half
up), and emits CSV rows ``scheme,n,d,u,ell,z,rows,log10_rows``.  Grid
points violating a scheme's preconditions become ``NA`` rows carrying the
violated precondition.  Row counts are evaluated at ``(n, d - ell, u, z)``,
the parameters the decoding matrix actually needs.

Experiments replay the whole pipeline (matrix, defectives, encoding under
a gap policy and noise, decoding, envelope check) for a number of trials,
deterministically from a single seed.  Experiment specifications are flat
``key=value`` text files; see :class:`ExperimentSpec`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .decode import ALGORITHMS, check_envelope, decode
from .disjunct import (
    ROW_BOUNDS, SAMPLING_VARIANTS, BoundParams, generate, generate_verified, rows_thm4,
)
from .errors import ValidationError
from .matrix import BinaryMatrix, ItemSet
from .model import GapPolicy, NoiseSpec, TGTParams, _check_noise, encode

DEFAULT_N_VALUES = (10**6, 10**8, 10**9, 10**10, 10**11)
DEFAULT_D_VALUES = (20, 100, 1000)
DEFAULT_Z_VALUES = (3, 11, 101)
DEFAULT_SCHEMES = ("thm1", "thm4")

CSV_HEADER = "scheme,n,d,u,ell,z,rows,log10_rows"


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def u_rule(d: int) -> int:
    return _round_half_up(0.2 * d)


def ell_rule(d: int) -> int:
    return _round_half_up(0.1 * d)


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    d_values: tuple[int, ...] = DEFAULT_D_VALUES
    z_values: tuple[int, ...] = DEFAULT_Z_VALUES
    schemes: tuple[str, ...] = DEFAULT_SCHEMES

    def __post_init__(self) -> None:
        if not self.n_values or not self.d_values or not self.z_values:
            raise ValidationError("sweep grid must be non-empty")
        if not self.schemes:
            raise ValidationError("sweep schemes must be non-empty")
        for scheme in self.schemes:
            if scheme not in ROW_BOUNDS:
                raise ValidationError(
                    f"unknown scheme {scheme!r} (expected {tuple(ROW_BOUNDS)})"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ValidationError("duplicate schemes in sweep")
        for v in self.n_values + self.d_values + self.z_values:
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"grid values must be positive integers: {v!r}")


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    n: int
    d: int
    u: int
    ell: int
    z: int
    rows: Optional[int]
    note: str = ""

    @property
    def log10_rows(self) -> Optional[float]:
        return None if self.rows is None else math.log10(self.rows)

    def to_csv(self) -> str:
        if self.rows is None:
            rows_field = f"NA ({self.note})"
            log_field = "NA"
        else:
            rows_field = str(self.rows)
            log_field = f"{self.log10_rows:.6f}"
        return (
            f"{self.scheme},{self.n},{self.d},{self.u},{self.ell},{self.z},"
            f"{rows_field},{log_field}"
        )


def simulate_bounds(spec: SweepSpec) -> list[SweepRow]:
    """One row per (scheme, n, d, z), sorted by scheme, then n, d, z."""
    out = []
    for scheme in sorted(spec.schemes):
        for n in sorted(spec.n_values):
            for d in sorted(spec.d_values):
                for z in sorted(spec.z_values):
                    u = u_rule(d)
                    ell = ell_rule(d)
                    try:
                        rows = ROW_BOUNDS[scheme](n, d - ell, u, z)
                    except ValidationError as exc:
                        out.append(
                            SweepRow(scheme, n, d, u, ell, z, None, note=str(exc))
                        )
                    else:
                        out.append(SweepRow(scheme, n, d, u, ell, z, rows))
    return out


def sweep_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


# --------------------------------------------------------------------------
# experiments


#: generate kind -> the row-count calculator that sizes its samples
_GEN_ROWS = {**{v: ROW_BOUNDS[v] for v in SAMPLING_VARIANTS}, "verified": rows_thm4}

_EXPERIMENT_KEYS = {
    "n", "d", "ell", "u", "z", "algorithm", "trials", "seed",
    "matrix", "generate", "rows", "max_attempts",
    "defectives", "s_size",
    "policy", "bernoulli_p", "policy_rows",
    "noise", "noise_rows", "noise_count",
    "verified",
}

#: accepted values of ``verified=`` (case-insensitive)
_VERIFIED_WORDS = {
    "true": True, "false": False, "1": True, "0": False, "yes": True, "no": False,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """End-to-end experiment description (flat ``key=value`` file).

    Required keys: ``n d ell u z algorithm trials seed`` and one of
    ``matrix=<path>`` / ``generate=thm4|thm5|verified``; ``rows=`` and
    ``max_attempts=`` (both ``>= 1``) tune generation, and ``rows=`` is an
    error with ``matrix=``.  Defectives come either from
    ``defectives=<comma list>`` or ``s_size=<int>`` (a fresh random
    size-``s`` set per trial).  ``verified=true`` asserts the matrix is
    disjunct, so an envelope failure is a defect; it is implied by
    ``generate=verified``, and the value must be one of
    ``true/false/1/0/yes/no`` in any case.

    Gap policy and noise (built by :meth:`GapPolicy.from_settings` and
    :meth:`NoiseSpec.from_settings`, the same builders the CLI uses):
    ``policy`` is ``always_positive``, ``always_negative`` (default),
    ``bernoulli`` with ``bernoulli_p`` (default 0.5), or ``explicit`` with
    ``policy_rows=row:bit,...`` giving every gap row a value; ``explicit``
    needs ``defectives=``, since fixed rows cannot cover the gap rows of
    random sets.  ``noise`` is ``none`` (default), ``flip_rows`` with
    ``noise_rows=row,...``, or ``random_flips`` with ``noise_count``.
    Rows are 1-based and a row listed twice is an error.  Every setting is
    checked at parse time, whether or not its kind uses it.  The
    Bernoulli-policy and random-noise seeds are derived per trial from
    ``seed``.
    """

    params: TGTParams
    algorithm: int
    trials: int
    seed: int
    matrix_path: Optional[str] = None
    generate_kind: Optional[str] = None
    rows_override: Optional[int] = None
    max_attempts: int = 100
    defectives: Optional[ItemSet] = None
    s_size: Optional[int] = None
    policy: GapPolicy = GapPolicy.always_negative()
    noise: NoiseSpec = NoiseSpec.none()
    verified: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"algorithm must be 1, 2 or 3, got {self.algorithm}")
        if self.trials < 0:
            raise ValidationError("trials must be >= 0")
        if (self.matrix_path is None) == (self.generate_kind is None):
            raise ValidationError(
                "exactly one of matrix=<path> or generate=<kind> is required"
            )
        if self.generate_kind is not None and self.generate_kind not in _GEN_ROWS:
            raise ValidationError(f"unknown generate kind {self.generate_kind!r}")
        if self.rows_override is not None:
            if self.matrix_path is not None:
                raise ValidationError(
                    "rows= needs generate=: a matrix file fixes the row count"
                )
            if self.rows_override < 1:
                raise ValidationError(f"rows must be >= 1, got {self.rows_override}")
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if (self.defectives is None) == (self.s_size is None):
            raise ValidationError(
                "exactly one of defectives=<items> or s_size=<int> is required"
            )
        if self.s_size is not None and not 1 <= self.s_size <= self.params.d:
            raise ValidationError(
                f"s_size must be in 1..d={self.params.d}, got {self.s_size}"
            )
        if self.policy.kind == "explicit" and self.s_size is not None:
            raise ValidationError(
                "policy=explicit needs defectives=<items>: its fixed rows cannot "
                "cover the gap rows of the random sets that s_size= draws"
            )
        if self.generate_kind is not None:
            # fail here, not in run_experiment, on what generation would reject
            p = self.params
            bound = (p.n, p.d - p.ell, p.u, p.z)
            BoundParams(*bound)
            if self.rows_override is None:
                _GEN_ROWS[self.generate_kind](*bound, strict=False)

    @classmethod
    def parse(cls, text: str) -> "ExperimentSpec":
        kv: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"spec line {lineno} is not key=value: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _EXPERIMENT_KEYS:
                raise ValidationError(f"unknown spec key {key!r} on line {lineno}")
            if key in kv:
                raise ValidationError(f"duplicate spec key {key!r} on line {lineno}")
            kv[key] = value.strip()

        def need(key: str) -> str:
            if key not in kv:
                raise ValidationError(f"missing required spec key {key!r}")
            return kv[key]

        def as_int(key: str, value: str) -> int:
            try:
                return int(value)
            except ValueError:
                raise ValidationError(f"spec key {key!r} must be an integer") from None

        params = TGTParams(
            n=as_int("n", need("n")),
            d=as_int("d", need("d")),
            ell=as_int("ell", need("ell")),
            u=as_int("u", need("u")),
            z=as_int("z", need("z")),
        )
        verified_text = kv.get("verified", "false")
        if verified_text.lower() not in _VERIFIED_WORDS:
            raise ValidationError(
                f"spec key 'verified' must be one of {'/'.join(_VERIFIED_WORDS)}, "
                f"got {verified_text!r}"
            )
        verified = _VERIFIED_WORDS[verified_text.lower()]
        if kv.get("generate") == "verified":
            verified = True
        try:
            bernoulli_p = float(kv.get("bernoulli_p", "0.5"))
        except ValueError:
            raise ValidationError("spec key 'bernoulli_p' must be a number") from None
        return cls(
            params=params,
            algorithm=as_int("algorithm", need("algorithm")),
            trials=as_int("trials", need("trials")),
            seed=as_int("seed", need("seed")),
            matrix_path=kv.get("matrix"),
            generate_kind=kv.get("generate"),
            rows_override=as_int("rows", kv["rows"]) if "rows" in kv else None,
            max_attempts=as_int("max_attempts", kv.get("max_attempts", "100")),
            defectives=ItemSet.parse(kv["defectives"]) if "defectives" in kv else None,
            s_size=as_int("s_size", kv["s_size"]) if "s_size" in kv else None,
            policy=GapPolicy.from_settings(
                kv.get("policy", "always_negative"), bernoulli_p,
                kv.get("policy_rows", ""), label="policy_rows",
            ),
            noise=NoiseSpec.from_settings(
                kv.get("noise", "none"), kv.get("noise_rows", ""),
                as_int("noise_count", kv.get("noise_count", "0")), label="noise_rows",
            ),
            verified=verified,
        )

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        try:
            text = Path(path).read_text(encoding="ascii")
        except OSError as exc:
            raise ValidationError(f"cannot read spec file {path}: {exc}") from None
        return cls.parse(text)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    defectives: ItemSet
    recovered: ItemSet
    false_positives: int
    false_negatives: int
    envelope: str  # "pass" | "fail" | "skipped"

    def to_line(self) -> str:
        return (
            f"trial={self.index:04d} defectives={self.defectives.format() or '-'} "
            f"recovered={self.recovered.format() or '-'} "
            f"fp={self.false_positives} fn={self.false_negatives} "
            f"envelope={self.envelope}"
        )


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    matrix_rows: int
    generation_attempts: Optional[int]
    trials: tuple[TrialRecord, ...]

    @property
    def passes(self) -> int:
        return sum(1 for t in self.trials if t.envelope == "pass")

    @property
    def failures(self) -> int:
        return sum(1 for t in self.trials if t.envelope == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for t in self.trials if t.envelope == "skipped")

    @property
    def defect(self) -> bool:
        """An envelope failure on a matrix asserted to be disjunct."""
        return self.spec.verified and self.failures > 0

    def _hist(self, attr: str) -> dict[int, int]:
        hist: dict[int, int] = {}
        for t in self.trials:
            v = getattr(t, attr)
            hist[v] = hist.get(v, 0) + 1
        return dict(sorted(hist.items()))

    def to_text(self) -> str:
        p = self.spec.params
        lines = [
            f"experiment: n={p.n} d={p.d} ell={p.ell} u={p.u} z={p.z} "
            f"algorithm={self.spec.algorithm} trials={self.spec.trials} "
            f"seed={self.spec.seed}",
            f"matrix: rows={self.matrix_rows}"
            + (
                f" attempts={self.generation_attempts}"
                if self.generation_attempts is not None
                else ""
            ),
        ]
        lines.extend(t.to_line() for t in self.trials)
        total = len(self.trials)
        rate = f"{self.passes / total:.4f}" if total else "n/a"
        lines.append(
            f"aggregate: trials={total} pass={self.passes} fail={self.failures} "
            f"skipped={self.skipped} pass_rate={rate}"
        )
        fp_hist = " ".join(f"{k}:{v}" for k, v in self._hist("false_positives").items())
        fn_hist = " ".join(f"{k}:{v}" for k, v in self._hist("false_negatives").items())
        lines.append(f"fp_hist: {fp_hist or '-'}")
        lines.append(f"fn_hist: {fn_hist or '-'}")
        if self.defect:
            lines.append(
                "DEFECT: envelope failure on a verified matrix "
                "(theorem guarantee violated)"
            )
        return "\n".join(lines) + "\n"


def _resolve_matrix(spec: ExperimentSpec) -> tuple[BinaryMatrix, Optional[int]]:
    p = spec.params
    if spec.matrix_path is not None:
        matrix = BinaryMatrix.load(spec.matrix_path)
        if matrix.cols != p.n:
            raise ValidationError(
                f"matrix has {matrix.cols} columns but spec says n={p.n}"
            )
        return matrix, None
    d_eff = p.d - p.ell
    if spec.generate_kind == "verified":
        result = generate_verified(
            p.n, d_eff, p.u, p.z, spec.seed, spec.max_attempts, rows=spec.rows_override
        )
        return result.matrix, result.attempts
    assert spec.generate_kind is not None
    matrix = generate(
        p.n, d_eff, p.u, p.z, spec.seed, spec.generate_kind, rows=spec.rows_override
    )
    return matrix, None


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run all trials; deterministic given the spec (seeds included)."""
    p = spec.params
    matrix, attempts = _resolve_matrix(spec)
    _check_noise(spec.noise, matrix.rows)
    master = random.Random(spec.seed)
    records = []
    for index in range(1, spec.trials + 1):
        sample_seed = master.randrange(2**32)
        policy_seed = master.randrange(2**32)
        noise_seed = master.randrange(2**32)

        if spec.defectives is not None:
            defectives = spec.defectives
        else:
            assert spec.s_size is not None
            picker = random.Random(sample_seed)
            defectives = ItemSet.of(picker.sample(range(1, p.n + 1), spec.s_size))

        policy = replace(spec.policy, seed=policy_seed)
        noise = replace(spec.noise, seed=noise_seed)
        outcome = encode(matrix, defectives, p.ell, p.u, policy, noise)
        result = decode(outcome, matrix, p, spec.algorithm)
        report = check_envelope(defectives, result.recovered, spec.algorithm, p)
        # the guarantee only speaks for u <= |S| <= d and at most e errors
        in_model = p.u <= len(defectives) <= p.d and noise.weight() <= p.e
        status = "pass" if report.passed else "fail"
        if not in_model:
            status = "skipped"
        records.append(
            TrialRecord(
                index=index,
                defectives=defectives,
                recovered=result.recovered,
                false_positives=report.false_positives,
                false_negatives=report.false_negatives,
                envelope=status,
            )
        )
    return ExperimentReport(
        spec=spec,
        matrix_rows=matrix.rows,
        generation_attempts=attempts,
        trials=tuple(records),
    )
