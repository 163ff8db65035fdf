"""The benchmark's own test.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs the traced benchmark twice at the configs' base
seed 20240815 and checks that

- both invocations report correct outputs and no failed run;
- the deterministic counters (CFL sub-steps, objective and distance calls,
  penalty updates) repeat exactly, in total and seed by seed;
- the per-layer self times sum to no more than the traced block time;
- each seed's ``trace.csv`` digest equals that of a plain ``run_experiment``
  of the same config and seed, so tracing does not perturb the run.

Exits with status 1 and names every check that failed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from baseline import BASE_SEED, ROOT, invoke
from run import CONFIGS, K, SRC, THREAD_VARS, WORKLOADS

COUNTERS = ["macro.lax_friedrichs_step", "objectives.objective", "objectives.distance",
            "penalty.update"]


def plain_digests(workload, base_seed, work_dir):
    from swarmscale.config import load_config
    from swarmscale.runner import run_experiment

    cfg = load_config(CONFIGS / f"{WORKLOADS[workload].config}.yaml")
    digests = []
    for k in range(K):
        report = run_experiment(replace(cfg, seed=base_seed + k, output=f"{work_dir}/{k}"))
        digests.append(hashlib.sha256(Path(report.csv_path).read_bytes()).hexdigest())
    return digests


def check(workload, base_seed, work_dir):
    problems = []
    (d1, r1), (d2, r2) = (invoke(workload, base_seed, 1, 1) for _ in range(2))
    for r in (r1, r2):
        if not r["correct"] or r["failed"]:
            problems.append(f"correct={r['correct']} failed={r['failed']}")
    for key in COUNTERS:
        a, b = r1["metrics"][f"{key}.calls"]["value"], r2["metrics"][f"{key}.calls"]["value"]
        if a != b:
            problems.append(f"{key}.calls differs between invocations: {a} != {b}")
    if [s["calls"] for s in d1["runs"]] != [s["calls"] for s in d2["runs"]]:
        problems.append("per-seed call counts differ between invocations")
    for r in (r1, r2):
        self_total = sum(m["value"] for name, m in r["metrics"].items() if name.endswith(".self_s"))
        block = r["metrics"]["trace.block_s"]["value"]
        if self_total > block:
            problems.append(f"self times sum to {self_total:.6f} s > traced block {block:.6f} s")
    traced = [s["digest"] for s in d1["runs"]]
    plain = plain_digests(workload, base_seed, work_dir)
    if traced != plain:
        problems.append(f"traced digests {traced} differ from plain run_experiment {plain}")
    first = d1["runs"][0]["calls"]
    print(f"{workload}: seed {base_seed} counters "
          + ", ".join(f"{key}={first.get(key, 0)}" for key in COUNTERS), flush=True)
    return [f"{workload}: {p}" for p in problems]


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=ROOT / ".perfbench")
    try:
        problems = [p for w in WORKLOADS for p in check(w, BASE_SEED, work_dir)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    if problems:
        raise SystemExit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
