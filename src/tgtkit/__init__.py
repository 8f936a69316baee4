"""Non-adaptive threshold group testing with a gap.

A pool tests positive when it contains at least ``u`` defective items,
negative with at most ``ell``, and arbitrarily in between; this package
provides the measurement-matrix constructions, row-count bounds, encoding
semantics, approximate decoders, cost analysis, and a simulation harness
for that model.
"""

from .analysis import AppendixGapReport, ComplexityReport, appendix_gap_check, complexity
from .decode import (
    DecodeResult,
    EnvelopeCheck,
    Family,
    build_family,
    check_envelope,
    decode,
    decode_from_family,
    is_u_complete,
    w_bound,
)
from .disjunct import (
    BoundParams,
    DisjunctWitness,
    GenerationResult,
    VerifyResult,
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
from .errors import EnvelopeDefectError, FeasibilityError, TGTError, ValidationError
from .matrix import BinaryMatrix, ItemSet, OutcomeVector
from .model import GapPolicy, NoiseSpec, TGTParams, check_consistency, encode, t0
from .simulate import (
    ExperimentReport,
    ExperimentSpec,
    SweepRow,
    SweepSpec,
    run_experiment,
    simulate_bounds,
    sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AppendixGapReport",
    "BinaryMatrix",
    "BoundParams",
    "ComplexityReport",
    "DecodeResult",
    "DisjunctWitness",
    "EnvelopeCheck",
    "EnvelopeDefectError",
    "ExperimentReport",
    "ExperimentSpec",
    "Family",
    "FeasibilityError",
    "GapPolicy",
    "GenerationResult",
    "ItemSet",
    "NoiseSpec",
    "OutcomeVector",
    "SweepRow",
    "SweepSpec",
    "TGTError",
    "TGTParams",
    "ValidationError",
    "VerifyResult",
    "alpha",
    "appendix_gap_check",
    "build_family",
    "check_consistency",
    "check_envelope",
    "complexity",
    "decode",
    "decode_from_family",
    "delta_thm4",
    "delta_thm5",
    "encode",
    "generate",
    "generate_verified",
    "is_u_complete",
    "rows_thm1",
    "rows_thm1_value",
    "rows_thm4",
    "rows_thm4_value",
    "rows_thm5",
    "rows_thm5_value",
    "run_experiment",
    "simulate_bounds",
    "sweep_to_csv",
    "t0",
    "thm5_min_z",
    "verify_disjunct",
    "w_bound",
]
