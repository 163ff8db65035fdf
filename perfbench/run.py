"""Seed-block benchmark of the particle, grid and coupled solvers.

Usage, from the repository root:

    python3 perfbench/run.py --workload swarm_balls_2d --seed 20240815 --seconds 30 --trace 0

A workload is one bundled config run over the seed block ``seed + k``,
k = 0..K-1, the way ``tests/test_acceptance.py`` drives it.  The block is
repeated until ``--seconds`` are spent, at least twice, so that every seed
is rerun and its ``trace.csv`` digest compared with the first run.

A run fails if it raises ``RunError`` or its digest differs from the first
run of that seed.  Each seed is also judged by the workload's acceptance
gate; the outputs are reported incorrect if a digest differs, a trace is
short, or more than half of a block's seeds miss the gate.  The gates are
statistical (the acceptance tests allow 1 miss in 5 seeds), so a single
miss is not an error, but a solver that misses on most seeds is.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced:

- ``block_s``: median time to load the config and run the whole block;
- ``setup_s``: median time from a fresh interpreter to a loaded config
  (``import swarmscale`` plus ``load_config``), over several interpreters;
- ``peak_rss_mb``: peak resident memory of this process.

On the shared 2-core box used for the baseline, the speed of any CPU-bound
loop swings by up to 40% within seconds.  So a fixed numpy loop is timed
before and after each seed run (and before each set-up sample), and each
interval is scaled by ``CAL_REF_S`` over the loop's time: the times above
are seconds on a box where the loop takes ``CAL_REF_S``.  Raw wall times
are kept in the detail line.

With ``--trace 1`` the metrics are per layer, from traced blocks (see
``tracer.py``), each paired with an untraced block of the same seeds whose
digests must match.  The line before the result holds the details:
versions, every block time, and each seed's digest and accuracy verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "swarmscale" / "configs"

# numpy reads these at import; one thread keeps runs comparable on a shared box
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the calibration loop's median time on the 2-core reference box
CAL_REF_S = 0.018
CAL_ITERS = 1000

SETUP_SAMPLES = 7
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import swarmscale\n"
    "swarmscale.load_config(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)

# feasible balls of ackley2d_constrained, as listed in tests/test_acceptance.py
SIX_BALLS = [
    ((-0.5, 2.2), 0.4),
    ((1.3, -0.8), 0.2),
    ((1.0, -1.3), 0.1),
    ((1.0, -1.0), 0.1),
    ((2.1, -2.0), 0.65),
    ((-1.0, -2.0), 0.3),
]


def scanned_ball_minimiser(np, ackley):
    """The acceptance test's 1e-3 scan of the six balls, one grid row at a time."""
    best_val, best_pt = math.inf, None
    for (cx, cy), r2 in SIX_BALLS:
        r = math.sqrt(r2)
        xs = np.arange(cx - r, cx + r + 1e-3, 1e-3)
        for y in np.arange(cy - r, cy + r + 1e-3, 1e-3):
            pts = np.stack([xs, np.full_like(xs, y)], axis=-1)
            pts = pts[(xs - cx) ** 2 + (y - cy) ** 2 <= r2]
            if len(pts) == 0:
                continue
            vals = ackley(pts)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_pt = float(vals[i]), pts[i]
    return best_pt


# Accuracy gates, copied from tests/test_acceptance.py.  Each returns
# (met, distance from the estimate to the known minimiser).

def gate_swarm(np, report, cfg, target):
    s = report.summary
    x = np.asarray(s["final_consensus"]["micro"])
    met = (float(np.abs(x - target).max()) < 0.25
           and cfg.build_feasible_set().distance(x) < 0.05
           and s["final_violation"]["micro"] < 0.05)
    return bool(met), float(np.linalg.norm(x - target))


def gate_coupled_free(np, report, cfg, target):
    rows = report.rows
    total0 = rows[0]["mass_total"]
    conserved = all(abs(row["mass_total"] - total0) <= 1e-10 * total0 for row in rows)
    met = report.summary["final_zeta"] < 0.2 and conserved
    return bool(met), abs(report.summary["argmin_estimate"][0] - target)


def gate_coupled_halfline(np, report, cfg, target):
    dx = (cfg.macro.x_max - cfg.macro.x_min) / cfg.macro.n_cells
    err = abs(report.summary["argmin_estimate"][0] - target)
    return err <= 2 * dx, err


K = 6  # seeds per block

CORE = ["objectives.objective", "micro.step_euler_maruyama", "micro.consensus_point",
        "runner", "config.load_config"]
GRID = ["macro.lax_friedrichs_step", "macro.consensus_point_macro", "macro.cfl_dt",
        "macro.max_wavespeed", "micromacro.transfer_mass", "micromacro.compute_zeta"]
PENALTY = ["objectives.distance", "penalty.violation_micro", "penalty.update"]


@dataclass(frozen=True)
class Workload:
    config: str
    gate: object
    minimiser: object  # function of (np, ackley) giving the known minimiser
    required: list     # layers that must record calls when traced


WORKLOADS = {
    "swarm_balls_2d": Workload(
        "ackley2d_constrained", gate_swarm, scanned_ball_minimiser,
        CORE + PENALTY + ["micro.softmin_gap"]),
    "coupled_free_1d": Workload(
        "rastrigin1d_micromacro", gate_coupled_free, lambda np, ackley: 0.0,
        CORE + GRID),
    "coupled_halfline_1d": Workload(
        "rastrigin1d_micromacro_constrained", gate_coupled_halfline, lambda np, ackley: -1.0,
        CORE + GRID + PENALTY + ["penalty.violation_macro"]),
}


def calibrate(np):
    """Seconds for a fixed numpy loop shaped like the solvers' inner work."""
    x = np.linspace(-3.0, 3.0, 960).reshape(480, 2)
    t0 = perf_counter()
    for _ in range(CAL_ITERS):
        w = np.exp(-np.sum(x * x, axis=-1))
        float(w @ x[:, 0] / w.sum())
    return perf_counter() - t0


class Bench:
    """One workload's seed block, run plain or under a tracer."""

    def __init__(self, name, base_seed, work_dir):
        import numpy as np

        import swarmscale
        from swarmscale import config, objectives, runner

        if Path(swarmscale.__file__).resolve().parent != (SRC / "swarmscale").resolve():
            raise SystemExit(f"swarmscale was imported from {swarmscale.__file__}, not {SRC}")
        self.np, self.config, self.runner = np, config, runner
        self.name, self.workload = name, WORKLOADS[name]
        self.base_seed, self.work_dir = base_seed, work_dir
        self.config_path = CONFIGS / f"{self.workload.config}.yaml"
        self.n_steps = config.load_config(self.config_path).n_steps
        self.target = self.workload.minimiser(np, objectives.ackley)

    def measure_setup(self):
        """Scaled and raw seconds from a fresh interpreter to a loaded config."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", SETUP_CHILD, str(self.config_path)]
        scaled, raw = [], []
        # the first child writes the bytecode caches; it is not counted
        for i in range(SETUP_SAMPLES + 1):
            speed = CAL_REF_S / calibrate(self.np)
            out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                 timeout=120, check=True)
            if i:
                raw.append(float(out.stdout.strip().splitlines()[-1]))
                scaled.append(raw[-1] * speed)
        return scaled, raw

    def run_block(self, tracer=None):
        """Run every seed once; returns (raw s, scaled s, per-seed outcomes).

        The tracer, if any, is installed only while the seeds run.  Each timed
        interval is scaled by the mean of the calibrations just before and
        just after it.
        """
        cals, intervals, runs = [calibrate(self.np)], [], []
        with tracer or nullcontext():
            t0 = perf_counter()
            cfg = self.config.load_config(self.config_path)
            intervals.append(perf_counter() - t0)
            for k in range(K):
                sub = replace(cfg, seed=self.base_seed + k,
                              output=os.path.join(self.work_dir, f"seed{k}"))
                calls_before = dict(tracer.calls) if tracer else {}
                cals.append(calibrate(self.np))
                t0 = perf_counter()
                try:
                    report, error = self.runner.run_experiment(sub), None
                except self.runner.RunError as exc:
                    report, error = None, str(exc)
                intervals.append(perf_counter() - t0)
                calls = ({key: n - calls_before.get(key, 0) for key, n in tracer.calls.items()}
                         if tracer else None)
                runs.append((sub, report, error, calls))
        cals.append(calibrate(self.np))
        scaled = sum(2.0 * CAL_REF_S * t / (before + after)
                     for t, before, after in zip(intervals, cals, cals[1:]))
        return sum(intervals), scaled, [self._outcome(*run) for run in runs]

    def _outcome(self, sub, report, error, calls):
        out = {"seed": sub.seed, "error": error, "digest": None, "met": False,
               "argmin_err": None, "trace_bytes": 0}
        if report is not None:
            data = Path(report.csv_path).read_bytes()
            branches = [value for row in report.rows
                        for col, value in row.items() if col.startswith("branch")]
            met, err = self.workload.gate(self.np, report, sub, self.target)
            out.update(
                digest=hashlib.sha256(data).hexdigest(),
                trace_bytes=len(data),
                complete=len(report.rows) == sub.n_steps + 1,
                met=met,
                argmin_err=err,
                controller_updates=sum(b != "none" for b in branches),
                failure_branches=branches.count("failure"),
            )
        if calls is not None:
            out["calls"] = calls
        return out


class Tally:
    """Attempted and failed runs, and whether every output checked out."""

    def __init__(self):
        self.reference = None
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, outcomes):
        """Count a block; a run fails if it raised or its trace differs from the first run."""
        self.reference = self.reference or outcomes
        self.attempted += len(outcomes)
        for ref, out in zip(self.reference, outcomes):
            if out["error"] is not None or out["digest"] != ref["digest"]:
                self.failed += 1
            if out["digest"] != ref["digest"] or not out.get("complete", True):
                self.correct = False
        if sum(not out["met"] for out in outcomes) > K // 2:
            self.correct = False


def end_to_end(bench, seconds, tally):
    setup_scaled, setup_raw = bench.measure_setup()
    walls, scaled = [], []
    start = perf_counter()
    while True:
        wall, block_scaled, outcomes = bench.run_block()
        walls.append(wall)
        scaled.append(block_scaled)
        tally.add(outcomes)
        if len(walls) >= 2 and perf_counter() - start + wall > seconds:
            break
    metrics = {
        "block_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    times = {"block_wall_s": walls, "block_scaled_s": scaled,
             "setup_wall_s": setup_raw, "setup_scaled_s": setup_scaled}
    return metrics, times


def per_layer(bench, seconds, tally):
    from tracer import LAYERS, Tracer

    plain, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        wall_plain, _, plain_out = bench.run_block()
        tracer = Tracer()
        wall_traced, _, traced_out = bench.run_block(tracer)
        if not tracers:
            missing = [key for key in bench.workload.required if tracer.calls[key] == 0]
            if missing:
                raise SystemExit(f"{bench.name}: traced layers recorded no calls: {missing}")
        elif tracer.calls != tracers[0].calls:
            tally.correct = False
        plain.append(wall_plain)
        traced.append(wall_traced)
        tracers.append(tracer)
        tally.add(traced_out)
        tally.add(plain_out)
        if perf_counter() - start + wall_plain + wall_traced > seconds:
            break

    # self times come from the traced block of median length, so they sum to at most its time
    mid = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    first, runs = tracers[0], tally.reference
    steps = K * bench.n_steps
    metrics = {}
    for key in LAYERS:
        metrics[f"{key}.calls"] = (first.calls[key], "count")
        metrics[f"{key}.self_s"] = (tracers[mid].self_s[key], "s")
    for key in ("objectives.objective", "objectives.distance"):
        metrics[f"{key}.points"] = (first.points[key], "count")
    metrics["objectives.evals_per_step"] = (first.calls["objectives.objective"] / steps, "1/step")
    metrics["macro.substeps_per_step"] = (first.calls["macro.lax_friedrichs_step"] / steps, "1/step")
    updates = sum(o.get("controller_updates", 0) for o in runs)
    failures = sum(o.get("failure_branches", 0) for o in runs)
    metrics["penalty.failure_share"] = (failures / updates if updates else 0.0, "share")
    transfers = first.calls["micromacro.transfer_mass"]
    metrics["micromacro.active_share"] = (
        first.calls["micromacro.compute_zeta"] / transfers if transfers else 0.0, "share")
    metrics["runner.trace_bytes"] = (sum(o["trace_bytes"] for o in runs), "bytes")
    metrics["trace.block_s"] = (traced[mid], "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["quality.miss_rate"] = (sum(not o["met"] for o in runs) / len(runs), "share")
    errs = [o["argmin_err"] for o in runs if o["argmin_err"] is not None]
    metrics["quality.argmin_err_p50"] = (statistics.median(errs), "x")
    return metrics, {"block_wall_s": plain, "traced_block_wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240815,
                        help="base seed of the block (default: the configs' seed)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "swarmscale" / "__init__.py").is_file():
        raise SystemExit(f"no swarmscale sources under {SRC}")
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    tally = Tally()
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, times = measure(bench, args.seconds, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "config": bench.workload.config,
        "base_seed": args.seed,
        "seeds_per_block": K,
        "python": sys.version.split()[0],
        "numpy": bench.np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **times,
        "runs": tally.reference,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
