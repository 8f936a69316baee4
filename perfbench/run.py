#!/usr/bin/env python3
"""tgtkit benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload decode-family --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; tgtkit is imported from its ``src``.
``--workload all`` runs every workload in turn, each in its own process,
and prints one table.  See ``perfbench/README.md`` for the workloads and
the metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is the full report (environment, parameters, sample counts, shares).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
#: op_tail_s percentile: fixed, so that its meaning does not change with
#: the op count; every workload is sized to run at least 100 ops, which
#: leaves at least 10 samples beyond it
TAIL_LEVEL = 0.9
WORKLOAD_NAMES = ("decode-family", "experiment-extend", "verify", "design-io")

#: the end-to-end metrics of the last line; the report also has op_p50_s,
#: failed_op_ratio and within_envelope_ratio
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_workloads():
    """Import tgtkit from this checkout's ``src`` (exit 1 if it is not
    there), then the workloads that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import tgtkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tgtkit from {src}: {exc}")
    if Path(tgtkit.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: tgtkit was imported from {tgtkit.__file__}, not {src}")
    import workloads
    from spans import NullTracer, Tracer

    return workloads, tgtkit, NullTracer, Tracer


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def load_golden(name: str, seed: int):
    path = HERE / "golden.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) of the TAIL_LEVEL percentile, by nearest
    rank."""
    xs = sorted(latencies)
    rank = max(0, math.ceil(TAIL_LEVEL * len(xs)) - 1)
    return xs[rank], len(xs) - rank - 1


class Runner:
    """Runs one workload's phases and keeps its failure count."""

    def __init__(self, wl, seed, golden, null_tracer):
        self.wl = wl
        self.seed = seed
        self.golden = golden
        self.null = null_tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stats: Counter = Counter()
        self.next = 0  # pool index of the next timed op

    def run_op(self, k, tr, facts=None):
        """One checked op; returns its latency, or None if it failed."""
        self.attempted += 1
        tr.op = self.attempted
        try:
            start = perf_counter()
            with tr.span("op"):
                out = self.wl.op(k, tr)
            latency = perf_counter() - start
            problems = self.wl.check(k, out, self.stats)
            if self.golden is not None and self.wl.digest(k, out) != self.golden[k]:
                problems.append("output differs from the golden digest")
            if facts is not None:
                facts["ops"] += 1
                problems += self.wl.probe(k, out, tr, facts)
        except Exception as exc:  # a failing op is counted, the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"op {self.attempted} (input {k}): {problems[0]}")
            return None
        return latency

    def setup(self, workdir) -> float:
        """Sample the inputs, write their files, run one warm-up op."""
        start = perf_counter()
        self.wl.setup(self.seed, workdir)
        self.run_op(0, self.null)
        return perf_counter() - start

    def phase(self, seconds, tr=None, facts=None) -> list[float]:
        """Closed loop over the input pool.  Untraced, it runs until the
        ops themselves have taken ``seconds`` (or three times that in wall
        time, should ops keep failing); traced, until ``seconds`` of wall
        time have passed, probes included."""
        tr = tr or self.null
        latencies = []
        busy = 0.0
        start = perf_counter()
        while (busy if facts is None else perf_counter() - start) < seconds:
            if perf_counter() - start > 3 * seconds:
                break
            latency = self.run_op(self.next % self.wl.pool, tr, facts)
            self.next += 1
            if latency is not None:
                latencies.append(latency)
                busy += latency
        return latencies


def end_to_end(latencies, setup_times, runner) -> dict:
    n = len(latencies)
    tail_value, beyond = tail(latencies) if n else (0.0, 0)
    out = {
        "ops_per_s": {"value": n / sum(latencies) if n else 0.0, "n": n},
        "op_p50_s": {"value": statistics.median(latencies) if n else 0.0, "n": n},
        "op_tail_s": {
            "value": tail_value, "n": n, "percentile": 100 * TAIL_LEVEL, "beyond": beyond
        },
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "n": 1},
        "setup_s": {"value": statistics.median(setup_times), "n": len(setup_times)},
    }
    for name, row in out.items():
        row["unit"] = END_TO_END_UNITS.get(name, "s")
    out["failed_op_ratio"] = {
        "value": runner.failed / runner.attempted, "unit": "ratio", "n": runner.attempted
    }
    trials = runner.stats["envelope_trials"]
    if trials:
        out["within_envelope_ratio"] = {
            "value": runner.stats["envelope_passes"] / trials, "unit": "ratio", "n": trials
        }
    return out


PER_LAYER_UNITS = {
    "matrix.parse_s": "s",
    "matrix.parse_ns_per_byte": "ns/byte",
    "matrix.to_text_s": "s",
    "matrix.transpose_s": "s",
    "model.encode_s": "s",
    "model.negative_rows": "count",
    "model.gap_rows": "count",
    "disjunct.generate_s": "s",
    "disjunct.generate_ns_per_entry": "ns/entry",
    "disjunct.verify_s": "s",
    "disjunct.verify_pairs": "count",
    "disjunct.verify_ns_per_pair": "ns/pair",
    "disjunct.verify_pass_ratio": "ratio",
    "decode.family_s": "s",
    "decode.family_subsets": "count",
    "decode.family_edges": "count",
    "decode.family_ns_per_subset": "ns/subset",
    "decode.alg1_s": "s",
    "decode.alg2_s": "s",
    "decode.alg3_s": "s",
    "decode.search_s": "s",
    "analysis.thm7_family_term": "count",
    "analysis.thm6_extension_term": "count",
    "simulate.run_experiment_s": "s",
    "simulate.overhead_s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: the public calls a run_experiment replay times one by one
REPLAY_CALLS = ("io.read", "matrix.parse", "model.encode", "decode.alg1", "decode.check_envelope")


def per_layer(tr, facts, terms, untraced_ops_per_s, traced_ops_per_s, experiment: bool) -> dict:
    """Per-op layer times and work counts from the traced phase.  A layer
    that does not run on the workload reads 0."""
    total = tr.totals()
    ops = facts["ops"]

    def t(name):
        return total.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    decode_s = t("decode.alg1") + t("decode.alg2") + t("decode.alg3")
    values = {
        "matrix.parse_s": per(t("matrix.parse"), ops),
        "matrix.parse_ns_per_byte": per(t("matrix.parse"), facts["parse_bytes"], 1e9),
        "matrix.to_text_s": per(t("matrix.to_text"), ops),
        "matrix.transpose_s": per(t("matrix.BinaryMatrix"), ops),
        "model.encode_s": per(t("model.encode"), ops),
        "model.negative_rows": per(facts["negative_rows"], facts["outcomes"]),
        "model.gap_rows": per(facts["gap_rows"], facts["outcomes"]),
        "disjunct.generate_s": per(t("disjunct.generate"), ops),
        "disjunct.generate_ns_per_entry": per(
            t("disjunct.generate"), facts["generate_entries"], 1e9
        ),
        "disjunct.verify_s": per(t("disjunct.verify_disjunct"), ops),
        "disjunct.verify_pairs": per(facts["verify_pairs"], ops),
        "disjunct.verify_ns_per_pair": per(
            t("disjunct.verify_disjunct"), facts["verify_pairs"], 1e9
        ),
        "disjunct.verify_pass_ratio": per(facts["verify_passes"], facts["verify_ops"]),
        "decode.family_s": per(t("decode.build_family"), ops),
        "decode.family_subsets": per(facts["family_subsets"], ops),
        "decode.family_edges": per(facts["family_edges"], ops),
        "decode.family_ns_per_subset": per(
            t("decode.build_family"), facts["family_subsets"], 1e9
        ),
        "decode.alg1_s": per(t("decode.alg1"), ops),
        "decode.alg2_s": per(t("decode.alg2"), ops),
        "decode.alg3_s": per(t("decode.alg3"), ops),
        "decode.search_s": per(decode_s - t("decode.build_family"), ops) if decode_s else 0.0,
        "analysis.thm7_family_term": terms[0],
        "analysis.thm6_extension_term": terms[1],
        "simulate.run_experiment_s": per(t("simulate.run_experiment"), ops),
        "simulate.overhead_s": (
            per(t("simulate.run_experiment") - sum(t(c) for c in REPLAY_CALLS), ops)
            if experiment
            else 0.0
        ),
        "trace.op_s": per(t("op"), ops),
        "trace.overhead_ratio": per(untraced_ops_per_s, traced_ops_per_s) - 1.0,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def shares(layers: dict) -> dict:
    """Each layer's time as a share of the traced op time."""
    op_s = layers["trace.op_s"]["value"]
    return {
        name: round(row["value"] / op_s, 4)
        for name, row in layers.items()
        if row["unit"] == "s" and name != "trace.op_s" and row["value"] and op_s
    }


def run_one(args) -> int:
    workloads, tgtkit, NullTracer, Tracer = import_workloads()
    warnings.simplefilter("ignore")  # decoder precondition notices
    wl = workloads.WORKLOADS[args.workload]()
    golden = load_golden(wl.name, args.seed)
    runner = Runner(wl, args.seed, golden, NullTracer())
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        # the set-ups are spread over the untraced phase, so that their
        # median does not rest on one spell of the machine's speed
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        setup_times, latencies = [], []
        for _ in range(SETUP_REPEATS):
            setup_times.append(runner.setup(workdir))
            latencies += runner.phase(untraced_s / SETUP_REPEATS)
        e2e = end_to_end(latencies, setup_times, runner)
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "params": wl.params,
            "golden": "checked" if golden is not None else "no golden digests for this seed",
            "end_to_end": e2e,
            "failures": runner.failures,
        }
        if args.trace:
            tr = Tracer()
            facts: Counter = Counter()
            traced = runner.phase(args.seconds / 2, tr, facts)
            tr.op = None
            terms = (
                tr.call("analysis.complexity", tgtkit.complexity, "thm7", *wl.cost_params).term_family,
                tr.call("analysis.complexity", tgtkit.complexity, "thm6", *wl.cost_params).term_extension,
            )
            layers = per_layer(
                tr, facts, terms, e2e["ops_per_s"]["value"],
                len(traced) / sum(traced) if traced else 0.0,
                wl.name == "experiment-extend",
            )
            spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tr.write(spans_path)
            report.update(
                traced_ops=facts["ops"],
                per_layer=layers,
                shares=shares(layers),
                self_times=tr.self_times(),
                spans=str(spans_path.relative_to(ROOT)),
            )
            metrics = layers
        else:
            metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in END_TO_END_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload);
    one table of every end-to-end metric with its unit and sample count."""
    correct = True
    attempted = failed = 0
    print(f"{'workload':<18} {'metric':<22} {'value':>14} {'unit':<6} {'n':>6}  note")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, row in report["end_to_end"].items():
            note = f"p{row['percentile']:g}" if "percentile" in row else ""
            print(f"{name:<18} {metric:<22} {row['value']:>14.6g} {row['unit']:<6} {row['n']:>6}  {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
