"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Every workload runs ``RUNS`` times untraced, one process after another,
each with its own base seed (disjoint seed blocks), and once traced at the
configs' seed 20240815.  For each end-to-end metric the output gives the
median, the quartiles and the spread, which is the distance between the
quartiles as a share of the median; the spread of every metric except
``setup_s`` must stay within its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_SEED = 20240815
SEED_STRIDE = 16  # more than any block's length, so the blocks share no seed
RUNS = 10


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        runs = []
        for i in range(RUNS):
            seed = BASE_SEED + SEED_STRIDE * i
            detail, out = invoke(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
                         "failed": out["failed"], "block_wall_s": detail["block_wall_s"],
                         "block_scaled_s": detail["block_scaled_s"],
                         "digests": [r["digest"] for r in detail["runs"]]})
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  out["correct"], out["failed"], file=sys.stderr, flush=True)
        entry = {
            "end_to_end": {name: summarise(v, bounds[name]) for name, v in values.items()},
            "runs": runs,
            "python": detail["python"], "numpy": detail["numpy"], "nproc": detail["nproc"],
        }
        detail, out = invoke(workload, BASE_SEED, seconds, 1)
        entry["per_layer"] = {"base_seed": BASE_SEED, "correct": out["correct"],
                              "failed": out["failed"], "metrics": out["metrics"],
                              "runs": detail["runs"]}
        result["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", file=sys.stderr, flush=True)

    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
