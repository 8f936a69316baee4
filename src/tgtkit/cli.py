"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 feasibility-cap error,
3 envelope-failure defect.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from string import whitespace
from typing import Optional, Sequence

from .analysis import FORMULA_IDS, appendix_gap_check, complexity
from .decode import ALGORITHMS, _diagnostics, decode
from .disjunct import ROW_BOUNDS, SAMPLING_VARIANTS, VERIFY_PAIR_CAP, _draw, verify_disjunct
from .errors import (
    EnvelopeDefectError, TGTError, ValidationError, _parse_int, _parse_ints, _parse_real,
    _split_list,
)
from .matrix import BinaryMatrix, ItemSet, OutcomeVector, _write_text
from .model import GapPolicy, NoiseSpec, TGTParams, encode
from .simulate import (
    DEFAULT_D_VALUES,
    DEFAULT_N_VALUES,
    DEFAULT_SCHEMES,
    DEFAULT_Z_VALUES,
    ExperimentSpec,
    SweepSpec,
    run_experiment,
    simulate_bounds,
    sweep_to_csv,
)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we need them on 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValidationError(message)

    def parse_args(self, args=None, namespace=None):  # noqa: D102
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            # Before Python 3.12, argparse drops the "--" of ``--flag=--``
            # without calling ``type`` and stores an empty list; every flag
            # here takes one value, so a list can only come from that.
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: '--' is not a value")
        return parsed


def _int_flags(parser: argparse.ArgumentParser, required: str, **defaults) -> None:
    """Declare the ``required`` flags (space-separated) and the ``defaults``
    (``max_attempts`` is ``--max-attempts``), each read by ``_parse_int``
    under its own name; its ``ValidationError`` passes through argparse."""
    for name in required.split():
        parser.add_argument(f"--{name}", type=partial(_parse_int, f"--{name}"), required=True)
    for name, default in defaults.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=partial(_parse_int, flag), default=default)


def _cmd_gen(args) -> int:
    if args.verify and args.variant is not None:
        raise ValidationError(
            "--variant cannot be combined with --verify, which always "
            "samples the thm4 row count"
        )
    kind = "verified" if args.verify else args.variant or "thm4"
    matrix, attempts = _draw(args.n, args.d, args.u, args.z, args.seed, kind,
                             args.rows, args.max_attempts)
    summary = f"rows={matrix.rows} cols={matrix.cols}"
    if attempts is not None:
        summary += f" attempts={attempts}"
    if args.out == "-":
        # keep stdout a clean matrix stream
        sys.stdout.write(matrix.to_text())
        print(summary, file=sys.stderr)
    else:
        matrix.save(args.out)
        print(summary)
    return 0


def _cmd_verify(args) -> int:
    matrix = BinaryMatrix.load(args.matrix)
    result = verify_disjunct(matrix, args.d, args.r, args.z, pair_cap=args.cap)
    if result.ok:
        print("PASS")
    else:
        w = result.witness
        assert w is not None
        print("FAIL")
        print(f"ones_set={w.ones_set.format()}")
        print(f"zeros_set={w.zeros_set.format()}")
        print(f"covered_rows={w.covered_rows}")
    return 0


def _cmd_bounds(args) -> int:
    for scheme, rows in ROW_BOUNDS.items():
        try:
            print(f"rows_{scheme}={rows(args.n, args.d, args.u, args.z)}")
        except ValidationError as exc:
            print(f"rows_{scheme}=NA ({exc})")
    return 0


def _cmd_encode(args) -> int:
    matrix = BinaryMatrix.load(args.matrix)
    defectives = ItemSet.parse(args.defectives)
    policy = GapPolicy.from_settings(
        args.policy, args.bernoulli_p, args.policy_rows, args.policy_seed,
        label="--policy-rows",
    )
    noise = NoiseSpec.from_settings(
        args.noise, args.noise_rows, args.noise_count, args.noise_seed,
        label="--noise-rows",
    )
    outcome = encode(matrix, defectives, args.ell, args.u, policy, noise)
    if args.out == "-":
        sys.stdout.write(outcome.to_text())
    else:
        outcome.save(args.out)
    return 0


def _cmd_decode(args) -> int:
    matrix = BinaryMatrix.load(args.matrix)
    outcome = OutcomeVector.load(args.outcome)
    params = TGTParams(n=matrix.cols, d=args.d, ell=args.ell, u=args.u, z=args.z)
    result = decode(outcome, matrix, params, args.alg)
    for note in result.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    print(f"s_prime={result.recovered.format()}")
    print(f"max_false_positives={result.max_false_positives}")
    print(f"max_false_negatives={result.max_false_negatives}")
    print(f"underdetermined={'true' if result.underdetermined else 'false'}")
    return 0


def _cmd_complexity(args) -> int:
    report = complexity(args.formula, args.n, args.d, args.ell, args.u, args.z,
                        s_size=args.s_size)
    print(f"formula={report.formula}")
    print(f"term_family={report.term_family}")
    print(f"term_extension={report.term_extension}")
    print(f"total={report.total}")
    return 0


def _cmd_appendix_check(args) -> int:
    report = appendix_gap_check(args.u, args.n)
    print(f"u={report.u} n={report.n}")
    print(f"lhs={report.lhs}")
    print(f"rhs={report.rhs}")
    print(f"holds={'true' if report.holds else 'false'}")
    return 0


def _cmd_simulate_bounds(args) -> int:
    spec = SweepSpec(
        n_values=_parse_ints("--n-values", args.n_values),
        d_values=_parse_ints("--d-values", args.d_values),
        z_values=_parse_ints("--z-values", args.z_values),
        schemes=tuple(s.strip(whitespace) for s in _split_list(args.schemes)),
    )
    csv_text = sweep_to_csv(simulate_bounds(spec))
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        _write_text(args.out, csv_text, "CSV")
        print(f"wrote {csv_text.count(chr(10)) - 1} rows to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.load(args.spec)
    report = run_experiment(spec)
    for note in _diagnostics(spec.params, spec.algorithm):
        print(f"note: {note}", file=sys.stderr)
    sys.stdout.write(report.to_text())
    if report.defect:
        raise EnvelopeDefectError(
            f"{report.failures} envelope failure(s) on a verified matrix"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tgtkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a randomized pooling matrix")
    _int_flags(p, "n d u z seed", rows=None, max_attempts=100)
    p.add_argument("--variant", choices=SAMPLING_VARIANTS, default=None,
                   help="row-count scheme to sample (default thm4; not with --verify); "
                   "--rows overrides its row count")
    p.add_argument("--verify", action="store_true",
                   help="rejection-sample until the matrix verifies")
    p.add_argument("--out", default="-", help="matrix file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="decide disjunctness exactly; on failure print "
                       "the lexicographically first failing pair")
    p.add_argument("--matrix", required=True)
    _int_flags(p, "d r z", cap=VERIFY_PAIR_CAP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="row-count bounds for all three schemes")
    _int_flags(p, "n d u z")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("encode", help="outcome vector for a defective set")
    p.add_argument("--matrix", required=True)
    p.add_argument("--defectives", required=True,
                   help="comma-separated 1-based items (empty for none)")
    _int_flags(p, "ell u", policy_seed=0, noise_count=0, noise_seed=0)
    p.add_argument("--policy", required=True, choices=GapPolicy.KINDS)
    p.add_argument("--bernoulli-p", type=partial(_parse_real, "--bernoulli-p"), default=0.5)
    p.add_argument("--policy-rows", default="",
                   help="explicit overrides, e.g. 2:1,5:0")
    p.add_argument("--noise", choices=NoiseSpec.KINDS, default="none")
    p.add_argument("--noise-rows", default="")
    p.add_argument("--out", default="-", help="outcome file (default: stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover an approximate defective set")
    p.add_argument("--matrix", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--alg", type=partial(_parse_int, "--alg"), choices=ALGORITHMS, required=True)
    _int_flags(p, "d ell u z")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("complexity", help="closed-form decoding cost")
    p.add_argument("--formula", choices=FORMULA_IDS, required=True)
    _int_flags(p, "n d ell u z", s_size=None)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("appendix-check",
                       help="extension-term vs C(n, u) inequality check")
    _int_flags(p, "u n")
    p.set_defaults(func=_cmd_appendix_check)

    p = sub.add_parser("simulate-bounds", help="bound-comparison sweep as CSV")
    p.add_argument("--out", required=True, help="CSV path ('-' for stdout)")
    p.add_argument("--n-values", default=",".join(str(v) for v in DEFAULT_N_VALUES))
    p.add_argument("--d-values", default=",".join(str(v) for v in DEFAULT_D_VALUES))
    p.add_argument("--z-values", default=",".join(str(v) for v in DEFAULT_Z_VALUES))
    p.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    p.set_defaults(func=_cmd_simulate_bounds)

    p = sub.add_parser("experiment", help="run an end-to-end recovery experiment")
    p.add_argument("--spec", required=True, help="key=value spec file")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TGTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
