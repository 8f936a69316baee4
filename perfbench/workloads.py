"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then serves
operations ``op(k, tr)`` for pool index ``k``; the run loop cycles ``k``
over ``0 .. pool - 1``.  ``check`` tests one op's output with invariants
that hold for any seed, ``digest`` gives the value compared against the
golden file for recorded seeds, and ``probe`` (traced runs only) adds the
spans and work counts that the op itself cannot show, outside the op's
own span.

Designs for ``decode-family``, ``experiment-extend`` and ``verify`` come
from :func:`sample_rows`, the benchmark's own sampler, so a change to
``tgtkit.generate``'s seeded stream leaves these inputs and their golden
outputs unchanged.  Row counts are constants here (they equal
``rows_thm4`` at the commit that recorded the goldens) for the same
reason.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

from tgtkit import (
    BinaryMatrix,
    ExperimentSpec,
    GapPolicy,
    ItemSet,
    NoiseSpec,
    TGTParams,
    build_family,
    check_envelope,
    decode,
    encode,
    generate,
    is_u_complete,
    run_experiment,
    verify_disjunct,
)


def sample_rows(rng: random.Random, t: int, n: int, p: float) -> tuple[int, ...]:
    """``t`` row masks over ``n`` items, each entry 1 with probability ``p``."""
    rnd = rng.random
    rows = []
    for _ in range(t):
        mask = 0
        for j in range(n):
            if rnd() < p:
                mask |= 1 << j
        rows.append(mask)
    return tuple(rows)


def transpose(rows, n: int) -> list[int]:
    """Column masks of the given row masks, computed without tgtkit so the
    checks do not rest on the transpose they measure."""
    bits = [format(mask, f"0{n}b")[::-1] for mask in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*bits)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _covered(rows, ones: int, zeros: int) -> int:
    """Rows that are all ones on ``ones`` and all zeros on ``zeros``."""
    return sum(1 for r in rows if r & ones == ones and not r & zeros)


def _gap_rows(rows, defectives: int, ell: int, u: int) -> int:
    return sum(1 for r in rows if ell < (r & defectives).bit_count() < u)


def _comb_rank(combo, size: int) -> int:
    """Lexicographic rank of a sorted 0-based combination of ``range(size)``
    (combinatorial number system)."""
    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(size - 1 - v, k - 1 - i)
        prev = c
    return rank


class Workload:
    name = ""
    pool = 1
    #: parameters recorded in the output
    params: dict = {}
    #: (n, d, ell, u, z) passed to ``analysis.complexity``
    cost_params: tuple = ()

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, k: int, tr):
        raise NotImplementedError

    def check(self, k: int, out, stats: Counter) -> list[str]:
        return []

    def digest(self, k: int, out) -> str:
        raise NotImplementedError

    def probe(self, k: int, out, tr, facts: Counter) -> list[str]:
        return []


class DecodeFamily(Workload):
    """``encode`` then ``decode`` on one fixed design; ``build_family``
    over C(60, 3) subsets of 19,107-row masks is most of each op."""

    name = "decode-family"
    pool = 96
    n, d, ell, u, z, t = 60, 6, 1, 3, 3, 19_107  # t = rows_thm4(60, 5, 3, 3)
    params = {
        "n": n, "d": d, "ell": ell, "u": u, "z": z, "t": t, "p": "3/8",
        "defectives": "|S| uniform in u..d", "policy": "bernoulli(0.5)",
        "noise": "random_flips(1)", "algorithms": "1,2,3 cycled", "pool": pool,
    }
    cost_params = (n, d, ell, u, z)

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.tp = TGTParams(self.n, self.d, self.ell, self.u, self.z)
        self.rows = sample_rows(rng, self.t, self.n, self.u / (self.d - self.ell + self.u))
        self.matrix = BinaryMatrix(self.t, self.n, self.rows)
        self.cols = transpose(self.rows, self.n)
        self.inputs = []
        for k in range(self.pool):
            size = rng.randint(self.u, self.d)
            s = ItemSet.of(rng.sample(range(1, self.n + 1), size))
            self.inputs.append((s, rng.randrange(2**32), rng.randrange(2**32), 1 + k % 3))

    def op(self, k, tr):
        s, policy_seed, noise_seed, alg = self.inputs[k]
        policy = GapPolicy.bernoulli(0.5, seed=policy_seed)
        noise = NoiseSpec.random_flips(1, seed=noise_seed)
        outcome = tr.call("model.encode", encode, self.matrix, s, self.ell, self.u, policy, noise)
        result = tr.call(f"decode.alg{alg}", decode, outcome, self.matrix, self.tp, alg)
        return outcome, result

    def check(self, k, out, stats):
        outcome, result = out
        s, _, _, alg = self.inputs[k]
        problems = []
        if len(outcome) != self.t:
            problems.append("outcome has the wrong length")
        if alg in (1, 3) and not result.underdetermined:
            # every u-subset of the output has t0 <= e, i.e. it is u-complete
            cols = self.cols
            neg = outcome.negatives_mask
            for combo in combinations(result.recovered.members, self.u):
                rows = neg
                for j in combo:
                    rows &= cols[j - 1]
                if rows.bit_count() > self.tp.e:
                    problems.append(f"alg{alg} output is not u-complete at {combo}")
                    break
        stats["envelope_trials"] += 1
        stats["envelope_passes"] += check_envelope(s, result.recovered, alg, self.tp).passed
        return problems

    def digest(self, k, out):
        outcome, result = out
        head = f"{result.algorithm}|{result.recovered.format()}|{int(result.underdetermined)}|"
        return _sha(head.encode() + bytes(outcome.bits))

    def probe(self, k, out, tr, facts):
        outcome, result = out
        s, _, _, alg = self.inputs[k]
        family = tr.call("decode.build_family", build_family, self.matrix, outcome, self.u, self.tp.e)
        facts["family_subsets"] += math.comb(self.n, self.u)
        facts["family_edges"] += len(family)
        facts["outcomes"] += 1
        facts["negative_rows"] += outcome.negatives_mask.bit_count()
        facts["gap_rows"] += _gap_rows(self.rows, s.to_mask(self.n), self.ell, self.u)
        if alg in (1, 3) and not result.underdetermined:
            if not is_u_complete(family, result.recovered):
                return [f"alg{alg} output is not u-complete in build_family's family"]
        return []


class ExperimentExtend(Workload):
    """``ExperimentSpec.load`` then ``run_experiment`` (algorithm 1) on a
    spec file; the swap extension dominates, the family is small."""

    name = "experiment-extend"
    pool = 512
    n, d, ell, u, z, t = 48, 4, 0, 2, 3, 3_368  # t = rows_thm4(48, 4, 2, 3)
    trials = 6
    params = {
        "n": n, "d": d, "ell": ell, "u": u, "z": z, "t": t, "p": "1/3",
        "algorithm": 1, "trials": trials, "policy": "bernoulli(0.5)",
        "noise": "random_flips(1)", "s_size": "u..d rotated per op", "pool": pool,
    }
    cost_params = (n, d, ell, u, z)

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.tp = TGTParams(self.n, self.d, self.ell, self.u, self.z)
        self.rows = sample_rows(rng, self.t, self.n, self.u / (self.d - self.ell + self.u))
        self.matrix_path = workdir / "design.txt"
        self.matrix_path.write_text(
            f"{self.t} {self.n}\n"
            + "".join(format(mask, f"0{self.n}b")[::-1] + "\n" for mask in self.rows),
            encoding="ascii",
        )
        self.specs = []
        for k in range(self.pool):
            spec_seed = rng.randrange(2**32)
            s_size = self.u + k % (self.d - self.u + 1)
            path = workdir / f"spec{k:03d}.txt"
            path.write_text(
                f"n={self.n}\nd={self.d}\nell={self.ell}\nu={self.u}\nz={self.z}\n"
                f"algorithm=1\ntrials={self.trials}\nseed={spec_seed}\n"
                f"matrix={self.matrix_path}\ns_size={s_size}\n"
                "policy=bernoulli\nnoise=random_flips\nnoise_count=1\n",
                encoding="ascii",
            )
            self.specs.append((path, spec_seed, s_size))

    def op(self, k, tr):
        spec = tr.call("simulate.ExperimentSpec.load", ExperimentSpec.load, self.specs[k][0])
        return tr.call("simulate.run_experiment", run_experiment, spec)

    def check(self, k, report, stats):
        _, _, s_size = self.specs[k]
        problems = []
        if report.matrix_rows != self.t or len(report.trials) != self.trials:
            problems.append("report has the wrong row count or number of trials")
        for rec in report.trials:
            s, r = set(rec.defectives), set(rec.recovered)
            if len(s) != s_size or (rec.false_positives, rec.false_negatives) != (
                len(r - s), len(s - r)
            ):
                problems.append(f"trial {rec.index} record is inconsistent")
            if rec.envelope == "skipped":
                problems.append(f"trial {rec.index} skipped, but every trial is in-model")
            stats["envelope_trials"] += 1
            stats["envelope_passes"] += rec.envelope == "pass"
        return problems

    def digest(self, k, report):
        return _sha(report.to_text().encode())

    def probe(self, k, report, tr, facts):
        """Replay the op's trials with each public call timed, using
        ``run_experiment``'s seed derivation (three ``randrange(2**32)``
        draws per trial: sample, policy, noise)."""
        _, spec_seed, s_size = self.specs[k]
        problems = []
        with tr.span("replay"):
            text = tr.call("io.read", self.matrix_path.read_text, "ascii")
            matrix = tr.call("matrix.parse", BinaryMatrix.parse, text)
            master = random.Random(spec_seed)
            for rec in report.trials:
                sample_seed, policy_seed, noise_seed = (master.randrange(2**32) for _ in range(3))
                s = ItemSet.of(random.Random(sample_seed).sample(range(1, self.n + 1), s_size))
                policy = GapPolicy.bernoulli(0.5, seed=policy_seed)
                noise = NoiseSpec.random_flips(1, seed=noise_seed)
                outcome = tr.call("model.encode", encode, matrix, s, self.ell, self.u, policy, noise)
                result = tr.call("decode.alg1", decode, outcome, matrix, self.tp, 1)
                tr.call("decode.check_envelope", check_envelope, s, result.recovered, 1, self.tp)
                family = tr.call("decode.build_family", build_family, matrix, outcome, self.u, self.tp.e)
                if (s, result.recovered) != (rec.defectives, rec.recovered):
                    problems.append(f"replay of trial {rec.index} differs from the report")
                facts["family_subsets"] += math.comb(self.n, self.u)
                facts["family_edges"] += len(family)
                facts["outcomes"] += 1
                facts["negative_rows"] += outcome.negatives_mask.bit_count()
                facts["gap_rows"] += _gap_rows(self.rows, s.to_mask(self.n), self.ell, self.u)
        tr.call("matrix.BinaryMatrix", BinaryMatrix, matrix.rows, matrix.cols, matrix.row_masks)
        facts["parse_bytes"] += len(text)
        return problems


class Verify(Workload):
    """``verify_disjunct`` on fresh random designs, about half of which
    pass; failures stop at varying depths."""

    name = "verify"
    pool = 512
    n, d, r, z, t = 14, 4, 2, 1, 540
    spot_pairs = 16
    params = {"n": n, "d": d, "r": r, "z": z, "t": t, "p": "1/3", "pool": pool}
    cost_params = (n, d, 0, r, z)

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.rows = [sample_rows(rng, self.t, self.n, 1 / 3) for _ in range(self.pool)]
        self.matrices = [BinaryMatrix(self.t, self.n, rows) for rows in self.rows]
        self.total_pairs = math.comb(self.n, self.r) * math.comb(self.n - self.r, self.d)

    def op(self, k, tr):
        return tr.call("disjunct.verify_disjunct", verify_disjunct, self.matrices[k], self.d, self.r, self.z)

    def check(self, k, res, stats):
        rows = self.rows[k]
        if res.ok:
            # spot-check a few disjoint pairs: each must be covered z times
            rng = random.Random(k)
            for _ in range(self.spot_pairs):
                picked = rng.sample(range(self.n), self.r + self.d)
                ones = sum(1 << j for j in picked[: self.r])
                zeros = sum(1 << j for j in picked[self.r :])
                if _covered(rows, ones, zeros) < self.z:
                    return ["PASS, but a sampled pair is covered fewer than z times"]
            return []
        w = res.witness
        ones, zeros = w.ones_set.to_mask(self.n), w.zeros_set.to_mask(self.n)
        if len(w.ones_set) != self.r or len(w.zeros_set) != self.d or ones & zeros:
            return ["FAIL witness has the wrong shape"]
        covered = _covered(rows, ones, zeros)
        if covered >= self.z or covered != w.covered_rows:
            return [f"FAIL witness covers {covered} rows (reported {w.covered_rows})"]
        return []

    def digest(self, k, res):
        if res.ok:
            return "PASS"
        w = res.witness
        return f"FAIL|{w.ones_set.format()}|{w.zeros_set.format()}|{w.covered_rows}"

    def pairs(self, res) -> int:
        """Pairs enumerated up to and including the verdict."""
        if res.ok:
            return self.total_pairs
        ones = [j - 1 for j in res.witness.ones_set]
        rest = [j for j in range(self.n) if j not in ones]
        zeros = [rest.index(j - 1) for j in res.witness.zeros_set]
        inner = math.comb(self.n - self.r, self.d)
        return _comb_rank(ones, self.n) * inner + _comb_rank(zeros, self.n - self.r) + 1

    def probe(self, k, res, tr, facts):
        facts["verify_ops"] += 1
        facts["verify_passes"] += res.ok
        facts["verify_pairs"] += self.pairs(res)
        return []


class DesignIO(Workload):
    """``generate``, ``to_text`` and ``BinaryMatrix.parse`` of the design
    shape that ``experiment-extend`` reads."""

    name = "design-io"
    pool = 128
    n, d, u, z, t = 48, 4, 2, 3, 3_368
    params = {"n": n, "d": d, "u": u, "z": z, "t": t, "p": "1/3", "pool": pool}
    cost_params = (n, d, 0, u, z)

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.seeds = [rng.randrange(2**32) for _ in range(self.pool)]

    def op(self, k, tr):
        m = tr.call("disjunct.generate", generate, self.n, self.d, self.u, self.z, self.seeds[k])
        text = tr.call("matrix.to_text", m.to_text)
        return m, text, tr.call("matrix.parse", BinaryMatrix.parse, text)

    def check(self, k, out, stats):
        m, text, back = out
        entries = self.t * self.n
        if (m.rows, m.cols) != (self.t, self.n):
            return [f"generate gave a {m.rows} x {m.cols} matrix"]
        if back != m or back.col_masks != m.col_masks:
            return ["parse(to_text(m)) != m"]
        if len(text) != len(f"{self.t} {self.n}\n") + self.t * (self.n + 1):
            return ["to_text has the wrong length"]
        ones = sum(mask.bit_count() for mask in m.row_masks)
        p = self.u / (self.d + self.u)
        if abs(ones / entries - p) > 6 * math.sqrt(p * (1 - p) / entries):
            return [f"one-density {ones / entries:.4f} is not close to p = {p:.4f}"]
        return []

    def digest(self, k, out):
        return _sha(out[1].encode())

    def probe(self, k, out, tr, facts):
        m, text, _ = out
        tr.call("matrix.BinaryMatrix", BinaryMatrix, m.rows, m.cols, m.row_masks)
        facts["generate_entries"] += m.rows * m.cols
        facts["parse_bytes"] += len(text)
        return []


WORKLOADS = {w.name: w for w in (DecodeFamily, ExperimentExtend, Verify, DesignIO)}
