"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest

from tgtkit import (
    BinaryMatrix,
    GapPolicy,
    ItemSet,
    OutcomeVector,
    TGTParams,
    appendix_gap_check,
    build_family,
    check_envelope,
    decode,
    decode_from_family,
    encode,
    generate_verified,
    rows_thm1,
    rows_thm1_value,
    rows_thm4,
    rows_thm4_value,
    rows_thm5,
    thm5_min_z,
    verify_disjunct,
    w_bound,
)
from tgtkit.disjunct import delta_thm4, delta_thm5
from tgtkit.simulate import ell_rule, u_rule

from conftest import (
    GOLDEN_FAMILY,
    GOLDEN_OUTCOME,
    GOLDEN_TEXT,
    all_pairs_matrix,
    encode_with_assignment,
    gap_rows_for,
)

GRID_N = (10**6, 10**8, 10**9, 10**10, 10**11)
GRID_D = (20, 100, 1000)
GRID_Z = (3, 11, 101)


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


# the checkout's src/, which pytest puts on its own path but a child
# process does not inherit
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli(*argv: object, cwd=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "tgtkit.cli"] + [str(a) for a in argv]
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    (path / "matrix.txt").write_text(GOLDEN_TEXT)
    (path / "outcome.txt").write_text(GOLDEN_OUTCOME + "\n")
    return path / "matrix.txt", path / "outcome.txt"


def _timed_decode_cli(golden_files, alg: int) -> tuple[str, float]:
    matrix, outcome = golden_files
    start = time.perf_counter()
    proc = _cli(
        "decode", "--matrix", matrix, "--outcome", outcome, "--alg", alg,
        "--d", 4, "--ell", 0, "--u", 2, "--z", 1,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


def test_criterion_01_golden_alg1(golden_files):
    out, elapsed = _timed_decode_cli(golden_files, 1)
    assert "s_prime=1,2,4,5\n" in out
    assert elapsed < 1.0
    _report(1, f"decode --alg 1 -> {{1,2,4,5}} in {elapsed:.3f}s")


def test_criterion_02_golden_alg2(golden_files):
    out, elapsed = _timed_decode_cli(golden_files, 2)
    assert "s_prime=1,2,3,5\n" in out
    assert elapsed < 1.0
    _report(2, f"decode --alg 2 -> {{1,2,3,5}} in {elapsed:.3f}s")


def test_criterion_03_golden_alg3(golden_files):
    out, elapsed = _timed_decode_cli(golden_files, 3)
    assert "s_prime=2,3,5\n" in out
    assert elapsed < 1.0
    _report(3, f"decode --alg 3 -> {{2,3,5}} in {elapsed:.3f}s")


def test_criterion_04_family_golden():
    matrix = BinaryMatrix.parse(GOLDEN_TEXT)
    outcome = OutcomeVector.parse(GOLDEN_OUTCOME)
    fam = build_family(matrix, outcome, 2, 0)
    assert fam.edges == GOLDEN_FAMILY
    _report(4, f"edge family is exactly the printed {len(GOLDEN_FAMILY)}-edge set")


def _memo_decoder(params):
    """Decode each distinct family once.

    All three decoders are functions of the edge family alone
    (:func:`decode_from_family`), so outcomes inducing equal families
    decode identically.
    """
    cache: dict = {}

    def run(family):
        key = family.edges
        if key not in cache:
            cache[key] = tuple(decode_from_family(family, params, a) for a in (1, 2, 3))
        return cache[key]

    return run


def _assert_sound_family(family, members):
    defectives = set(members)
    for pair in combinations(sorted(defectives), 2):
        assert pair in family.edge_set, (pair, members)
    for edge in family.edges:
        assert len(set(edge) & defectives) >= 1, (edge, members)


def _assert_envelopes(s_true, results, params, context):
    for alg, result in zip((1, 2, 3), results):
        assert all(1 <= j <= params.n for j in result.recovered), context
        report = check_envelope(s_true, result.recovered, alg, params)
        assert report.passed, (context, alg, result.recovered.members)
        if alg == 2:
            cap = w_bound(len(s_true), params.ell, params.u, params.g) + params.d
            assert len(result.recovered) <= cap, context


def test_criterion_05_envelope_exhaustion():
    """Every defective set x every gap assignment x zero noise, three
    decoders, zero violations.

    The exhaustive product runs on the 20-row golden design (machine-
    verified (6, 4, 2; 1]-disjunct here).  The rejection-sampled
    generate_verified design uses the calculator's row count (1484 rows at
    these parameters), whose per-set gap-row counts (hundreds) make a full
    2^gap-rows product astronomically infeasible, so that matrix is instead
    exercised across every defective set under both adversarial gap
    extremes and seeded random gap draws.
    """
    start = time.perf_counter()
    matrix = BinaryMatrix.parse(GOLDEN_TEXT)
    assert verify_disjunct(matrix, 4, 2, 1).ok
    params = TGTParams(n=6, d=4, ell=0, u=2, z=1)
    run = _memo_decoder(params)

    assignments = 0
    for size in (2, 3, 4):
        for members in combinations(range(1, 7), size):
            s_true = ItemSet.of(members)
            gap_rows = gap_rows_for(matrix, members, 0, 2)
            for bits in product((0, 1), repeat=len(gap_rows)):
                y = encode_with_assignment(
                    matrix, members, 0, 2, dict(zip(gap_rows, bits))
                )
                fam = build_family(matrix, y, 2, 0)
                _assert_sound_family(fam, members)
                _assert_envelopes(s_true, run(fam), params, (members, bits))
                assignments += 1

    generated = generate_verified(6, 4, 2, 1, seed=2024, max_attempts=10)
    sampled = 0
    policies = [GapPolicy.always_positive(), GapPolicy.always_negative()] + [
        GapPolicy.bernoulli(seed=s) for s in range(5)
    ]
    for size in (2, 3, 4):
        for members in combinations(range(1, 7), size):
            s_true = ItemSet.of(members)
            for policy in policies:
                y = encode(generated.matrix, s_true, 0, 2, policy)
                results = tuple(
                    decode(y, generated.matrix, params, a) for a in (1, 2, 3)
                )
                _assert_envelopes(s_true, results, params, (members, policy.kind))
                sampled += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        5,
        f"{assignments} gap assignments exhausted on the verified 20-row design "
        f"plus {sampled} policy runs on the verified {generated.matrix.rows}-row "
        f"sampled design, zero envelope violations, {elapsed:.1f}s",
    )


def test_criterion_06_noise_tolerance():
    """Criterion 5's protocol on a verified z = 3 design with every single
    outcome flip; zero violations.

    The design is the minimal (6, 4, 2; 3]-disjunct matrix: every pair pool
    three times (any such matrix needs three copies of every pair, since a
    pair's only all-ones-elsewhere-zeros rows are its own copies, so the
    raw assignment space is at least 2^24 per defective set).  Pools being
    pairs makes the edge family support-local: t0 of a pair counts the
    negative copies of exactly that pair, so any gap assignment plus any
    single flip yields the family {defective pairs} + T for some subset T
    of that set's gap pairs.  Layer 1 therefore decodes every reachable
    family exhaustively from an explicit assignment; layer 2 applies every
    single flip on top of every layer-1 assignment and checks the resulting
    family is one already verified; layer 3 samples full-granularity
    per-copy assignments with flips and checks the library family matches
    the support-local prediction.
    """
    start = time.perf_counter()
    matrix = all_pairs_matrix(6, copies=3)
    assert matrix.rows == 45
    assert verify_disjunct(matrix, 4, 2, 3).ok
    params = TGTParams(n=6, d=4, ell=0, u=2, z=3)
    assert params.e == 1
    run = _memo_decoder(params)
    pair_rows = {
        pair: tuple(3 * idx + r for r in (1, 2, 3))
        for idx, pair in enumerate(combinations(range(1, 7), 2))
    }

    families_checked = 0
    flips_checked = 0
    sampled_decodes = 0
    verified_families: dict[tuple, set] = {}
    for size in (2, 3, 4):
        for members in combinations(range(1, 7), size):
            s_true = ItemSet.of(members)
            defective_pairs = set(combinations(sorted(members), 2))
            gap_pairs = sorted(
                p for p in pair_rows if len(set(p) & set(members)) == 1
            )
            seen: set = set()
            for include in product((0, 1), repeat=len(gap_pairs)):
                # layer 1: all copies of an included pair positive, all
                # copies of an excluded pair negative
                assignment = {}
                for pair, bit in zip(gap_pairs, include):
                    for row in pair_rows[pair]:
                        assignment[row] = bit
                y = encode_with_assignment(matrix, members, 0, 2, assignment)
                fam = build_family(matrix, y, 2, 1)
                predicted = sorted(
                    defective_pairs
                    | {p for p, bit in zip(gap_pairs, include) if bit}
                )
                assert list(fam.edges) == predicted, (members, include)
                _assert_sound_family(fam, members)
                _assert_envelopes(s_true, run(fam), params, (members, include))
                seen.add(fam.edges)
                families_checked += 1

                # layer 2: every single-outcome flip on this assignment
                for row in range(1, 46):
                    y2 = y.flipped([row])
                    fam2 = build_family(matrix, y2, 2, 1)
                    if fam2.edges not in seen:
                        # family not produced by a no-flip assignment yet;
                        # decode it directly (it still must obey envelopes)
                        _assert_sound_family(fam2, members)
                        _assert_envelopes(
                            s_true, run(fam2), params, (members, include, row)
                        )
                        seen.add(fam2.edges)
                    flips_checked += 1
                    if flips_checked % 97 == 0:
                        results = tuple(
                            decode(y2, matrix, params, a) for a in (1, 2, 3)
                        )
                        _assert_envelopes(
                            s_true, results, params, (members, include, row)
                        )
                        sampled_decodes += 1
            verified_families[members] = seen

    # layer 3: random per-copy assignments plus a flip; the library family
    # must match the support-local prediction and be an already-verified one
    rng = random.Random(20240)
    for _ in range(2000):
        size = rng.choice((2, 3, 4))
        members = tuple(sorted(rng.sample(range(1, 7), size)))
        defective_pairs = set(combinations(members, 2))
        gap_pairs = [p for p in pair_rows if len(set(p) & set(members)) == 1]
        neg_counts = {}
        assignment = {}
        for pair in gap_pairs:
            neg = rng.randint(0, 3)
            neg_counts[pair] = neg
            rows = pair_rows[pair]
            for i, row in enumerate(rows):
                assignment[row] = 0 if i < neg else 1
        y = encode_with_assignment(matrix, members, 0, 2, assignment)
        flip_row = rng.randint(1, 45)
        y = y.flipped([flip_row])
        flip_pair = sorted(pair_rows)[(flip_row - 1) // 3]
        effective = dict(neg_counts)
        if flip_pair in effective:
            was_negative = assignment[flip_row] == 0
            effective[flip_pair] += -1 if was_negative else 1
        fam = build_family(matrix, y, 2, 1)
        predicted = set(defective_pairs)
        predicted.update(p for p in gap_pairs if effective.get(p, 0) <= 1)
        # flips on deterministic rows never change the family: a defective
        # pair keeps <= 1 negative copy, a non-defective non-gap pair >= 2
        assert set(fam.edges) == predicted, (members, neg_counts, flip_row)
        assert fam.edges in verified_families[members]

    elapsed = time.perf_counter() - start
    _report(
        6,
        f"z=3 design: {families_checked} exhaustive gap families, "
        f"{flips_checked} single-flip products, {sampled_decodes} direct "
        f"noisy decodes, 2000 sampled per-copy assignments, zero violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_bound_comparison_grid():
    start = time.perf_counter()
    worst_ratio_z3 = 0.0
    for d in GRID_D:
        u, ell = u_rule(d), ell_rule(d)
        for z in GRID_Z:
            series1, series4 = [], []
            for n in GRID_N:
                r1 = rows_thm1(n, d - ell, u, z)
                r4 = rows_thm4(n, d - ell, u, z)
                series1.append(math.log10(r1))
                series4.append(math.log10(r4))
                if z in (11, 101):
                    assert r4 < r1, (n, d, z)
                else:
                    ratio = rows_thm4_value(n, d - ell, u, z) / rows_thm1_value(
                        n, d - ell, u, z
                    )
                    worst_ratio_z3 = max(worst_ratio_z3, ratio)
                    assert ratio <= 1.10, (n, d, z, ratio)
            assert series1 == sorted(series1) and len(set(series1)) == len(series1)
            assert series4 == sorted(series4) and len(set(series4)) == len(series4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        7,
        f"45-point grid: improved bound below classical at z in {{11,101}}, "
        f"worst z=3 ratio {worst_ratio_z3:.4f} <= 1.10, curves increasing, "
        f"{elapsed:.2f}s",
    )


def test_criterion_08_thm5_strictness():
    checked = 0
    for d in GRID_D:
        u, ell = u_rule(d), ell_rule(d)
        for z in GRID_Z:
            for n in GRID_N:
                if z < thm5_min_z(n, d - ell, u):
                    continue
                assert rows_thm5(n, d - ell, u, z) < rows_thm1(n, d - ell, u, z)
                checked += 1
    rng = random.Random(88)
    for _ in range(1000):
        u = rng.randint(2, 12)
        d = rng.randint(u, u + 50)
        n_min = (d + u) ** 2 // u + 1
        n = rng.randint(n_min, n_min * 10**4)
        z_min = math.ceil(thm5_min_z(n, d, u))
        z = rng.randint(z_min, z_min + 400)
        assert rows_thm5(n, d, u, z) < rows_thm1(n, d, u, z), (n, d, u, z)
        checked += 1
    _report(8, f"strict variant below classical at all {checked} admissible points")


def test_criterion_09_delta_identities():
    rng = random.Random(7777)
    for _ in range(10**4):
        a = math.exp(rng.uniform(math.log(1e-2), math.log(1e8)))
        z = int(math.exp(rng.uniform(0.0, math.log(1e8)))) + 1
        d4 = delta_thm4(a, z)
        assert abs(z * d4 * d4 + 3 * a * d4 - 3 * a) <= 1e-8 * 3 * a
        d5 = delta_thm5(a, z)
        assert abs(z * d5 * d5 + 2 * a * d5 - 2 * a) <= 1e-8 * 2 * a
    _report(9, "root residuals below 1e-8 relative on 10^4 random pairs, both variants")


def _naive_verify(matrix: BinaryMatrix, d: int, r: int, z: int):
    # independent reference: explicit bit lists, no column masks or popcounts
    n = matrix.cols
    rows = [[(mask >> j) & 1 for j in range(n)] for mask in matrix.row_masks]
    for s2 in combinations(range(n), r):
        rest = [j for j in range(n) if j not in s2]
        for s1 in combinations(rest, d):
            covered = sum(
                1
                for row in rows
                if all(row[j] for j in s2) and not any(row[j] for j in s1)
            )
            if covered < z:
                return False, s2, s1, covered
    return True, None, None, None


def test_criterion_10_verifier_oracle_equivalence():
    start = time.perf_counter()
    compared = 0
    for t in range(1, 5):
        for n in range(2, 5):
            shapes = [(d, r) for r in range(1, n) for d in range(1, n - r + 1)]
            for value in range(1 << (t * n)):
                masks = tuple(
                    (value >> (i * n)) & ((1 << n) - 1) for i in range(t)
                )
                matrix = BinaryMatrix(t, n, masks)
                for d, r in shapes:
                    for z in (1, 2):
                        fast = verify_disjunct(matrix, d, r, z)
                        ok, s2, s1, covered = _naive_verify(matrix, d, r, z)
                        assert fast.ok == ok, (masks, d, r, z)
                        if not ok:
                            w = fast.witness
                            assert w.ones_set.members == tuple(j + 1 for j in s2)
                            assert w.zeros_set.members == tuple(j + 1 for j in s1)
                            assert w.covered_rows == covered
                        compared += 1
    rng = random.Random(314159)
    for _ in range(1000):
        masks = tuple(rng.randrange(1 << 10) for _ in range(8))
        matrix = BinaryMatrix(8, 10, masks)
        r = rng.randint(1, 3)
        d = rng.randint(1, 4)
        z = rng.randint(1, 3)
        fast = verify_disjunct(matrix, d, r, z)
        ok, s2, s1, covered = _naive_verify(matrix, d, r, z)
        assert fast.ok == ok
        if not ok:
            assert fast.witness.ones_set.members == tuple(j + 1 for j in s2)
            assert fast.witness.zeros_set.members == tuple(j + 1 for j in s1)
            assert fast.witness.covered_rows == covered
        compared += 1
    elapsed = time.perf_counter() - start
    _report(
        10,
        f"verifier matches the naive oracle on {compared} checks "
        f"(exhaustive t<=4, n<=4 plus 1000 random 8x10), {elapsed:.1f}s",
    )


def test_criterion_11_appendix_inequality():
    checked = 0
    for u in range(2, 9):
        threshold = math.ceil(8 * (2 * u - 1) / (8 - math.sqrt(7)))
        for n in range(threshold, threshold + 51):
            report = appendix_gap_check(u, n)
            assert report.holds, (u, n)
            checked += 1
    smallest = appendix_gap_check(2, 6)
    assert (smallest.lhs, smallest.rhs) == (216, 15)
    _report(11, f"extension term exceeds C(n, u) at all {checked} grid points")


def test_criterion_12_cli_determinism(tmp_path):
    matrix_path = tmp_path / "golden.txt"
    matrix_path.write_text(GOLDEN_TEXT)
    outcome_path = tmp_path / "y.txt"
    outcome_path.write_text(GOLDEN_OUTCOME + "\n")
    spec_path = tmp_path / "exp.txt"
    spec_path.write_text(
        "n=12\nd=3\nell=0\nu=2\nz=1\nalgorithm=1\ntrials=5\nseed=4\n"
        "generate=verified\nmax_attempts=10\ns_size=3\npolicy=bernoulli\n"
    )
    commands = {
        "gen": ["gen", "--n", 12, "--d", 3, "--u", 2, "--z", 1, "--seed", 7,
                "--out", tmp_path / "g.txt"],
        "gen --verify": ["gen", "--n", 6, "--d", 4, "--u", 2, "--z", 1,
                         "--seed", 3, "--verify", "--max-attempts", 5,
                         "--out", tmp_path / "gv.txt"],
        "verify": ["verify", "--matrix", matrix_path, "--d", 4, "--r", 2,
                   "--z", 1],
        "bounds": ["bounds", "--n", 10**6, "--d", 18, "--u", 4, "--z", 11],
        "encode": ["encode", "--matrix", matrix_path, "--defectives", "1,2,4,5",
                   "--ell", 0, "--u", 2, "--policy", "bernoulli",
                   "--policy-seed", 5, "--noise", "random_flips",
                   "--noise-count", 2, "--noise-seed", 9,
                   "--out", tmp_path / "enc.txt"],
        "decode": ["decode", "--matrix", matrix_path, "--outcome", outcome_path,
                   "--alg", 3, "--d", 4, "--ell", 0, "--u", 2, "--z", 1],
        "complexity": ["complexity", "--formula", "thm8", "--n", 100, "--d", 8,
                       "--ell", 1, "--u", 4, "--z", 3, "--s-size", 6],
        "appendix-check": ["appendix-check", "--u", 3, "--n", 9],
        "simulate-bounds": ["simulate-bounds", "--out", tmp_path / "sweep.csv",
                            "--d-values", "20", "--z-values", "3,11",
                            "--n-values", "1000000,100000000",
                            "--schemes", "thm1,thm4,thm5"],
        "experiment": ["experiment", "--spec", spec_path],
    }
    out_files = {
        "gen": tmp_path / "g.txt",
        "gen --verify": tmp_path / "gv.txt",
        "encode": tmp_path / "enc.txt",
        "simulate-bounds": tmp_path / "sweep.csv",
    }
    for name, argv in commands.items():
        observations = []
        for _ in range(2):
            proc = _cli(*argv)
            assert proc.returncode == 0, (name, proc.stderr)
            payload = (proc.stdout, proc.stderr)
            if name in out_files:
                payload += (out_files[name].read_bytes(),)
            observations.append(payload)
        assert observations[0] == observations[1], f"{name} is not reproducible"
    _report(12, f"{len(commands)} CLI commands byte-identical across reruns")
