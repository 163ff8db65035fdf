"""Write a BENCH_<n>.json file: perfbench's result line for every workload, plain and traced.

Usage, from the repository root:

    python3 tools/bench.py BENCH_<n>.json [--parent REV]

Each workload that BENCHMARK.json lists is run by ``perfbench/run.py`` as a
subprocess, three times with ``--trace 0`` (the end-to-end metrics) and three
times with ``--trace 1`` (the per-layer metrics), one after another so that no
two runs share the cores.  The last line a run prints, its result, is copied
verbatim, and ``<metric>_median`` records each workload's median of every
end-to-end metric (``block_s``, ``setup_s`` and ``peak_rss_mb``) over its plain
runs, since one run's figures move with the box's load; ``<metric>_range``
records their ``[min, max]`` beside it, so each file shows its own spread.
The per-layer counters (every ``.calls`` and ``.points``,
``macro.substeps_per_step``, ``micromacro.active_share`` and
``runner.trace_bytes``) depend on no clock, so if they differ between the
three traced runs of a workload the script names them, writes no file and
exits non-zero.  The file also records the git HEAD the sources were read at
and whether the working tree differed from it, the python and numpy versions,
the kernel numpy dispatches float64 ``exp`` to (digests and counters depend
on it), the number of usable cores and ``src_lines``, the line count of
``src/swarmscale/*.py`` as ``cat src/swarmscale/*.py | wc -l`` prints it.
Every run lasts the benchmark's ``run_seconds`` and uses perfbench's own
base seed.

With ``--parent REV`` the file also measures the commit REV beside the working
tree.  REV is exported with ``git archive`` into a temporary directory, and
that tree's own ``perfbench/run.py``, unedited, runs it from its own ``src/``.
Each workload then runs ``PAIRS`` plain pairs, one run of each tree, and the
tree that goes first alternates from pair to pair, since the second of two
back-to-back runs can read a few percent slower on the same code.
``parent`` records, per workload and end-to-end metric, each side's values in
pair order, their median and quartiles (``statistics.quantiles``, inclusive
method) and IQR, and ``wins``, the pairs in which the working tree read lower.
One traced run of REV per workload gives its counters, which are recorded
beside the working tree's, and ``counters_differ`` names those that are not
equal.
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
PLAIN_RUNS = 3
TRACED_RUNS = 3
PAIRS = 10  # parent/working-tree pairs per workload, the fewest a gain may be claimed on
COUNTERS = {"macro.substeps_per_step", "micromacro.active_share", "runner.trace_bytes"}


def counters(line):
    """The clock-free per-layer metrics of one result line."""
    metrics = json.loads(line)["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name in COUNTERS or name.endswith((".calls", ".points"))}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def exp_target():
    """The kernel numpy dispatches float64 exp to in this process, such as X86_V4."""
    (info,) = opt_func_info(func_name="^exp$", signature="float64.*")["exp"].values()
    return info["current"]


def src_lines():
    """The newlines in the package's sources, the number ``cat src/swarmscale/*.py | wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "swarmscale").glob("*.py"))


def result_line(workload, trace, seconds, root=ROOT):
    """The last stdout line of a perfbench run of the tree at root; exits with stderr if it fails."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def export(rev, into):
    """Write the files of commit rev under the directory into, leaving .git untouched."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def spread(values):
    """The median, the quartiles and their distance, of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3], "iqr": q3 - q1}


def paired(workload, seconds, parent_root, end_to_end):
    """PAIRS alternating plain pairs of the parent tree and the working tree, per metric."""
    sides = {"parent": [], "change": []}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            line = result_line(workload, 0, seconds, parent_root if side == "parent" else ROOT)
            sides[side].append(json.loads(line)["metrics"])
            print(f"{workload} pair {k} {side}: {line}", flush=True)
    summary = {}
    for name in end_to_end:
        values = {side: [run[name]["value"] for run in runs] for side, runs in sides.items()}
        summary[name] = {side: {"values": v, **spread(v)} for side, v in values.items()}
        summary[name]["wins"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
    return summary


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the file to write, BENCH_<n>.json")
    parser.add_argument("--parent", metavar="REV",
                        help="a commit to measure beside the working tree, in alternating pairs")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    end_to_end = [m["name"] for m in bench["end_to_end"]]

    payload = {
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "exp_float64": exp_target(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "seconds": seconds,
        "runs": [],
        **{f"{name}_{stat}": {} for name in end_to_end for stat in ("median", "range")},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        if args.parent:
            rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
            export(rev, parent_root)
            payload["parent"] = {"rev": rev, "pairs": PAIRS, "workloads": {}}
        drift = []
        for workload in (w["name"] for w in bench["workloads"]):
            plain, traced = [], []
            for trace in (0,) * PLAIN_RUNS + (1,) * TRACED_RUNS:
                line = result_line(workload, trace, seconds)
                payload["runs"].append({"workload": workload, "trace": trace, "result": line})
                print(f"{workload} --trace {trace}: {line}", flush=True)
                if trace:
                    traced.append(counters(line))
                else:
                    plain.append(json.loads(line)["metrics"])
            for name in end_to_end:
                values = [run[name]["value"] for run in plain]
                payload[f"{name}_median"][workload] = statistics.median(values)
                payload[f"{name}_range"][workload] = [min(values), max(values)]
            names = sorted(set().union(*traced))
            drift += [f"{workload} {name}: {[run.get(name) for run in traced]}" for name in names
                      if any(run.get(name) != traced[0].get(name) for run in traced)]
            if args.parent:
                line = result_line(workload, 1, seconds, parent_root)
                print(f"{workload} parent --trace 1: {line}", flush=True)
                theirs, ours = counters(line), traced[0]
                payload["parent"]["workloads"][workload] = {
                    **paired(workload, seconds, parent_root, end_to_end),
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
