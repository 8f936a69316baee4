#!/usr/bin/env python3
"""Record the golden digests that ``run.py`` compares each op against.

    python3 perfbench/record_golden.py --seeds 0-20 [--workloads verify,design-io]

Runs every input of each workload's pool once per seed, checks it with the
same invariants as a benchmark run, and merges one digest per pool index
into ``--out`` (default ``perfbench/golden.json``).  Re-record only when a
change to tgtkit's outputs is intended, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from run import HERE, OUT, WORKLOAD_NAMES, import_workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def dump(golden: dict) -> str:
    """JSON with one line per (workload, seed), so diffs stay readable."""
    blocks = []
    for name in sorted(golden):
        rows = [f"  {json.dumps(seed)}: {json.dumps(golden[name][seed])}"
                for seed in sorted(golden[name], key=int)]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-20"))
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    ap.add_argument("--out", type=Path, default=HERE / "golden.json")
    args = ap.parse_args()
    workloads, _, NullTracer, _ = import_workloads()
    warnings.simplefilter("ignore")
    golden = json.loads(args.out.read_text()) if args.out.exists() else {}
    tr = NullTracer()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT))
    try:
        for name in args.workloads.split(","):
            wl = workloads.WORKLOADS[name]()
            for seed in args.seeds:
                wl.setup(seed, workdir)
                digests = []
                for k in range(wl.pool):
                    out = wl.op(k, tr)
                    problems = wl.check(k, out, Counter())
                    if problems:
                        sys.exit(f"{name} seed {seed} input {k}: {problems[0]}")
                    digests.append(wl.digest(k, out))
                golden.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {wl.pool} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
