"""Write a BENCH_<n>.json file: HEAD and a parent commit, in alternating pairs.

Usage, from the repository root, once the change is committed:

    python3 tools/bench.py BENCH_<n>.json REV

It measures commits, so it stops if ``git status --porcelain -- src perfbench
BENCHMARK.json`` prints anything.  REV and then HEAD are exported with ``git
archive``, each into its own directory under one temporary directory, and each
tree's own ``perfbench/run.py``, unedited, runs it from its own ``src/``.  Each
workload that BENCHMARK.json lists runs ``PAIRS`` pairs with ``--trace 0``, one
run of each tree in turn, so no two runs share the cores, and the tree that
goes first alternates, since the second of two back-to-back runs can read a few
percent slower on the same code.  ``parent.workloads[<workload>][<metric>]``
records, per end-to-end metric, each side's values in pair order, median,
quartiles (``statistics.quantiles``, inclusive method) and IQR, so HEAD's
median is its ``change.median``; ``wins``, the pairs in which HEAD read lower;
and ``difference``, the median, quartiles and IQR of ``change - parent`` over
the pairs, which the box's slow load swings move far less than either side.
Compare two files by their ``difference``, not by one side's median.

HEAD then runs ``TRACED_RUNS`` times with ``--trace 1``, and REV once.  The
per-layer counters (every ``.calls`` and ``.points``, ``macro.substeps_per_step``,
``micromacro.active_share`` and ``runner.trace_bytes``) depend on no clock, so
if they differ between HEAD's traced runs the script names them, writes no file
and exits non-zero; ``counters_differ`` names those that differ from REV's.
``runs`` keeps every result line, perfbench's last, with its workload, side and
``--trace``; a line that is not JSON, or not ``"correct": true`` with
``"failed": 0``, stops the script, naming the run.  The file also records
``git_head``, the HEAD that was measured, the python and numpy versions, the
kernel numpy dispatches float64 ``exp`` to (digests and counters depend on it),
the usable cores, and both trees' ``src_lines`` (``cat src/swarmscale/*.py |
wc -l``).  Every run lasts ``run_seconds`` and uses perfbench's base seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3
PAIRS = 10  # parent/HEAD pairs per workload, the fewest a gain may be claimed on
COUNTERS = {"macro.substeps_per_step", "micromacro.active_share", "runner.trace_bytes"}


def counters(metrics):
    """The clock-free per-layer metrics of one run."""
    return {name: m["value"] for name, m in metrics.items()
            if name in COUNTERS or name.endswith((".calls", ".points"))}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def exp_target():
    """The kernel numpy dispatches float64 exp to in this process, such as X86_V4."""
    (info,) = opt_func_info(func_name="^exp$", signature="float64.*")["exp"].values()
    return info["current"]


def src_lines(root):
    """The newlines in the package's sources, the number ``cat src/swarmscale/*.py | wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in Path(root, "src", "swarmscale").glob("*.py"))


def result_line(workload, trace, seconds, root):
    """The last stdout line of a perfbench run of the tree at root; exits with stderr if it fails."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return done.stdout.strip().rpartition("\n")[2]


def measure(runs, workload, side, trace, seconds, root):
    """One run's metrics, its line kept in runs; exits, naming the run, if its outputs are wrong."""
    line = result_line(workload, trace, seconds, root)
    name = f"{workload} {side} --trace {trace}"
    print(f"{name}: {line}", flush=True)
    runs.append({"workload": workload, "side": side, "trace": trace, "result": line})
    try:
        result = json.loads(line)
    except ValueError:
        raise SystemExit(f"{name} printed no result: {line}") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise SystemExit(f"{name} reports wrong outputs: {line}")
    return result["metrics"]


def export(rev, into):
    """Write the files of commit rev into the new directory into, and return it; .git is untouched."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    os.mkdir(into)
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def spread(values):
    """The median, the quartiles and their distance, of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3], "iqr": q3 - q1}


def paired(sides, end_to_end):
    """Per end-to-end metric: each side's values and spread, wins, and the per-pair differences."""
    summary = {}
    for name in end_to_end:
        parent, change = ([run[name]["value"] for run in sides[s]] for s in ("parent", "change"))
        summary[name] = {"parent": {"values": parent, **spread(parent)},
                         "change": {"values": change, **spread(change)},
                         "wins": sum(c < p for p, c in zip(parent, change)),
                         "difference": spread([c - p for p, c in zip(parent, change)])}
    return summary


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the file to write, BENCH_<n>.json")
    parser.add_argument("rev", help="the parent commit, measured beside HEAD")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    commits = {side: git("rev-parse", "--verify", f"{c}^{{commit}}")
               for side, c in (("parent", args.rev), ("change", "HEAD"))}
    if dirty := git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"):
        raise SystemExit(f"commit these first, since HEAD is what gets measured:\n{dirty}")

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        roots = {side: export(c, os.path.join(tmp, side)) for side, c in commits.items()}
        runs, workloads, drift = [], {}, []
        payload = {
            "git_head": commits["change"],
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "exp_float64": exp_target(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines(roots["change"]),
            "seconds": seconds,
            "runs": runs,
            "parent": {"rev": commits["parent"], "src_lines": src_lines(roots["parent"]),
                       "pairs": PAIRS, "workloads": workloads},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            sides = {"parent": [], "change": []}
            for k in range(PAIRS):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    sides[side].append(measure(runs, workload, side, 0, seconds, roots[side]))
            traced = [counters(measure(runs, workload, "change", 1, seconds, roots["change"]))
                      for _ in range(TRACED_RUNS)]
            drift += [f"{workload} {name}: {[run.get(name) for run in traced]}"
                      for name in sorted(set().union(*traced))
                      if any(run.get(name) != traced[0].get(name) for run in traced)]
            theirs = counters(measure(runs, workload, "parent", 1, seconds, roots["parent"]))
            ours = traced[0]
            workloads[workload] = {
                **paired(sides, end_to_end),
                "counters": {"parent": theirs, "change": ours},
                "counters_differ": sorted(name for name in set(theirs) | set(ours)
                                          if theirs.get(name) != ours.get(name)),
            }
    if drift:
        raise SystemExit("counters differ between the traced runs:\n" + "\n".join(drift))
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
