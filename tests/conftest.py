"""Shared fixtures: the worked-example instance, small structured matrices,
and the CLI run in a child process."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from tgtkit import BinaryMatrix, GapPolicy, ItemSet, OutcomeVector, TGTParams, encode

# 20 x 6 pooling design used as the golden decoding instance: the 15 pair
# pools followed by 5 heavier pools.  With defectives {1,2,4,5} and the gap
# resolution in GOLDEN_GAP_OVERRIDES it produces GOLDEN_OUTCOME, whose edge family
# has exactly 9 edges.
GOLDEN_TEXT = """20 6
110000
101000
100100
100010
100001
011000
010100
010010
010001
001100
001010
001001
000110
000101
000011
101010
011011
001101
101101
101001
"""

GOLDEN_OUTCOME = "11110111011010111010"

GOLDEN_DEFECTIVES = (1, 2, 4, 5)

# gap rows for defectives {1,2,4,5}: exactly one defective pooled
GOLDEN_GAP_OVERRIDES = {2: 1, 5: 0, 6: 1, 9: 0, 10: 1, 11: 1, 14: 0, 15: 1, 18: 0, 20: 0}

GOLDEN_FAMILY = (
    (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5), (5, 6),
)


@pytest.fixture(scope="session")
def golden_matrix() -> BinaryMatrix:
    return BinaryMatrix.parse(GOLDEN_TEXT)


@pytest.fixture(scope="session")
def golden_outcome() -> OutcomeVector:
    return OutcomeVector.parse(GOLDEN_OUTCOME)


@pytest.fixture(scope="session")
def golden_defectives() -> ItemSet:
    return ItemSet.of(GOLDEN_DEFECTIVES)


@pytest.fixture(scope="session")
def golden_params() -> TGTParams:
    return TGTParams(n=6, d=4, ell=0, u=2, z=1)


def all_pairs_matrix(n: int, copies: int = 1) -> BinaryMatrix:
    """Every 2-subset of [n] as a pool, each repeated ``copies`` times
    consecutively; with ``copies = z`` this is an (n, n-2, 2; z]-disjunct
    matrix (each pair's only all-ones rows are its own copies)."""
    masks = []
    for a, b in combinations(range(n), 2):
        masks.extend([(1 << a) | (1 << b)] * copies)
    return BinaryMatrix(len(masks), n, tuple(masks))


def gap_rows_for(matrix: BinaryMatrix, defectives, ell: int, u: int) -> list[int]:
    """1-based rows whose defective count is strictly between ell and u."""
    x_mask = ItemSet.of(defectives).to_mask(matrix.cols)
    return [
        i + 1
        for i, mask in enumerate(matrix.row_masks)
        if ell < (mask & x_mask).bit_count() < u
    ]


def encode_with_assignment(matrix, defectives, ell, u, assignment) -> OutcomeVector:
    """Encode with an explicit 0/1 value per gap row (dict row -> bit)."""
    return encode(
        matrix, ItemSet.of(defectives), ell, u, GapPolicy.explicit(assignment)
    )


def naive_verify_disjunct(matrix: BinaryMatrix, d: int, r: int, z: int):
    """Straight-loop reference implementation of the disjunct check.

    Independent of the bitmask implementation: works on explicit 0/1 rows
    and returns (ok, ones_set, zeros_set, covered) with the
    lexicographically first failing pair (ones-set outer, zeros-set inner).
    """
    n = matrix.cols
    rows = [[matrix.entry(i + 1, j + 1) for j in range(n)] for i in range(matrix.rows)]
    for s2 in combinations(range(n), r):
        rest = [j for j in range(n) if j not in s2]
        for s1 in combinations(rest, d):
            covered = 0
            for row in rows:
                if all(row[j] == 1 for j in s2) and all(row[j] == 0 for j in s1):
                    covered += 1
            if covered < z:
                return (
                    False,
                    tuple(j + 1 for j in s2),
                    tuple(j + 1 for j in s1),
                    covered,
                )
    return (True, None, None, None)


# the checkout's src/, which pytest puts on its own path but a child
# process does not inherit
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv: object, python_flags=()) -> subprocess.CompletedProcess:
    """``python [python_flags] -m tgtkit.cli argv`` in a child process."""
    cmd = [sys.executable, *python_flags, "-m", "tgtkit.cli"] + [str(a) for a in argv]
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(cmd, capture_output=True, text=True, env=env)
