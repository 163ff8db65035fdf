"""Experiment drivers: single runs and seeded ensembles with CSV/JSON output.

A run holds one or both scales of the swarm, the particles and the grid
density, and drives them through one loop.  Each outer iteration advances
every active scale to the shared time n * dt (the swarm takes one SDE step,
the grid solver takes its own sub-steps) and lets it update its own penalty
controller; a coupled grid, the last scale, ends its move with the transfer,
and each scale then observes its consensus point.  Given (config, seed) every
written file except timings.json is byte-identical across repeat runs.

Until the first transfer, at step t_star, the grid draws no random number
and reads no particle, and a lone grid never reads one, so those steps are
the same for every seed.  The runs of one config share them: the first run
computes each such step and keeps the grid's arrays, time and controller
after it in a module-level slot, and the next runs load them (see
_shared_steps).  The outputs are the same bytes whichever run computed them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .macro import MacroState, advance_macro, consensus_point_macro, init_macro
from .micro import consensus_point, gibbs_weights, init_swarm, softmin_gap, step_euler_maruyama
from .micromacro import init_coupling, micro_cell_density, transfer_mass
from .objectives import PenalizedObjective
from .penalty import PenaltyController, violation_macro, violation_micro


class RunError(RuntimeError):
    """A solver hard error, annotated with the failing step and a state digest."""

    def __init__(self, message, step, digest):
        super().__init__(f"{message} (step {step}, state digest {digest})")
        self.step = step
        self.digest = digest


@dataclass
class RunReport:
    csv_path: str
    json_path: str
    summary: dict
    rows: list


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_snapshot(out_dir, step, grid, macro):
    _write_csv(os.path.join(out_dir, f"fields_{step:06d}.csv"), ["x", "rho", "rho_u"],
               zip(grid.centers.tolist(), macro.rho.tolist(), macro.rho_u.tolist()))


class _Scale:
    """One representation of the swarm, with its own penalized objective and controller.

    Each scale declares its trace ``columns`` when it is built, and its
    ``row()`` returns the values in that order as Python ints, floats and
    strs, which csv writes as ``str(v)``: a float's shortest round-trip
    repr.  A scale that runs alone uses bare names and reports extra columns
    (the particle gap, or the grid mass and peak); a coupled scale suffixes
    its name, and the coupled grid also reports zeta and the masses.
    """

    def __init__(self, cfg, name, alone):
        self.name = name
        self.alone = alone
        self.suffix = "" if alone else "_" + name
        self.penalty_columns = [c + self.suffix for c in ("beta", "kappa", "violation", "branch")]
        # one coefficient set for both scales: the grid solves the moments of the particles' SDE
        self.params = cfg.micro
        # both scales start from the one penalty section; each then moves its own controller
        self.pf = PenalizedObjective(cfg.objective, cfg.feasible_set)
        self.ctrl = PenaltyController(cfg.penalty)

    def evaluate(self, points):
        """The objective and the distance at this scale's points, and their weights."""
        self.parts = self.pf.parts(points)
        self.weigh()

    def weigh(self):
        """Gibbs weights of F_beta at the controller's beta; the scale's averages read them."""
        self.weights = gibbs_weights(self.pf.combine(*self.parts, self.ctrl.beta),
                                     self.params.alpha)

    def penalize(self):
        """One (beta, kappa) update from the current violation; unconstrained runs skip it."""
        if self.pf.feasible_set is None:
            return
        beta = self.ctrl.beta
        self.ctrl = self.ctrl.update(self.measure_violation())
        if self.ctrl.beta != beta:
            self.weigh()

    def move(self, n):
        """Advance to step n, then update the penalty controller."""
        self.advance(n)
        self.penalize()

    def penalty_row(self):
        return [self.ctrl.beta, self.ctrl.kappa, self.ctrl.violation, self.ctrl.branch]


class _Particles(_Scale):
    """The particle swarm: one Euler-Maruyama step per outer step.

    The objective and the penalty are evaluated, and the particles' Gibbs
    weights built, once after each move; the step's violation, consensus
    and gap all read those weights.
    """

    def __init__(self, cfg, rng, mass, alone):
        super().__init__(cfg, "micro", alone)
        self.rng = rng
        self.swarm = init_swarm(cfg.n_particles, cfg.objective.dim, rng,
                                box=cfg.micro.init_box, particle_mass=mass / cfg.n_particles)
        # the lone swarm names each coordinate and reports its gap; a coupled run is 1D
        self.columns = ([f"consensus_{k}" for k in range(cfg.objective.dim)] + ["softmin_gap"]
                        if alone else ["consensus" + self.suffix]) + self.penalty_columns
        self.evaluate(self.swarm.positions)

    def advance(self, n):
        # the drift target is the consensus observed after the last step: the
        # positions and beta have not changed since, only the particle mass
        self.swarm = step_euler_maruyama(self.swarm, self.params, self.target, self.rng)
        self.evaluate(self.swarm.positions)

    def measure_violation(self):
        return violation_micro(self.weights, self.parts[1])

    def observe(self):
        self.target = consensus_point(self.swarm.positions, self.weights)
        self.consensus = [float(c) for c in self.target]
        if self.alone:
            self.gap = softmin_gap(self.weights, self.params.alpha)
            if __debug__:
                assert self.gap <= np.log(self.swarm.n_particles) / self.params.alpha + 1e-9

    def mass(self):
        return self.swarm.total_mass

    def arrays(self):
        return self.swarm.positions, self.swarm.velocities

    def row(self):
        return self.consensus + ([self.gap] if self.alone else []) + self.penalty_row()


@functools.lru_cache(maxsize=1)
def _shared_steps(key):
    """The records of the grid's seed-free steps of the last config run, loaded by its next runs.

    The key is every field of the config except seed, output, n_particles
    and n_steps: the grid's steps up to the first transfer follow from the
    others alone.  Record n holds the grid's arrays and time, and its controller
    (with the update's violation and branch) and weights, after step n's
    move and penalty update and before its transfer, which from t_star on
    reads the particles.
    The arrays are kept read-only, not as a live MacroState, so no velocity
    is cached across runs.  A run of another key evicts the list; a step
    that fails records nothing.  Runs fill the list one after another, never
    from two threads at once.
    """
    return []


class _Grid(_Scale):
    """The density on the 1D grid, advanced by its own solver to the shared time.

    The cell centers never move, so the cells' Gibbs weights change only
    with beta: they are built once per run and again after each penalty
    update that raises beta.  The steps before the first transfer are
    loaded from the shared slot when an earlier run of the config made them.
    A coupled grid holds the particles and the coupling state, and ends each
    move, loaded or computed, with the step's transfer of mass.
    """

    def __init__(self, cfg, mass, particles=None):
        super().__init__(cfg, "macro", particles is None)
        self.grid = cfg.macro  # the section is the grid, with its solver's settings
        self.state = init_macro(self.grid, total_mass=mass)
        self.columns = ["consensus" + self.suffix] + self.penalty_columns
        if self.alone:
            self.columns += ["total_mass", "argmax_center"]
        else:
            self.particles = particles
            self.coupling = init_coupling(particles.swarm, self.grid, cfg.coupling)
            self.columns += ["zeta", "mass_micro", "mass_macro", "mass_total"]
        self.evaluate(self.grid.centers[:, None])  # the centers never move
        # a lone grid never reads a particle; a coupled one first does after transfer t_star
        self.last_shared = cfg.n_steps if self.alone else cfg.coupling.t_star
        self.shared = _shared_steps(tuple(
            getattr(cfg, f.name) for f in fields(cfg)
            if f.name not in ("seed", "output", "n_particles", "n_steps")))
        self.steps_shared = 0  # steps this run loaded rather than computed

    def move(self, n):
        if n > self.last_shared:
            super().move(n)
        elif n <= len(self.shared):
            rho, rho_u, t, self.ctrl, self.weights = self.shared[n - 1]
            self.state = MacroState._unchecked(rho, rho_u, t)  # checked when computed
            self.steps_shared += 1
        else:
            super().move(n)
            for a in (*self.arrays(), self.weights):
                a.flags.writeable = False  # every later run of the config reads them
            self.shared.append((*self.arrays(), self.state.time, self.ctrl, self.weights))
        # a loaded step transfers too: step t_star - 1 takes the first active transfer's snapshot
        if not self.alone:
            self.coupling, self.particles.swarm, self.state = transfer_mass(
                self.coupling, self.particles.swarm, self.state, self.grid, n)

    def advance(self, n):
        # the PDE sub-steps, but the penalty loop lives on the shared outer
        # grid n * dt so its cadence is physical time
        self.state = advance_macro(self.state, self.grid, self.params, self.weights,
                                   n * self.params.dt)

    def measure_violation(self):
        return violation_macro(self.state, self.weights, self.parts[1])

    def observe(self):
        self.consensus = consensus_point_macro(self.state, self.grid, self.weights)

    def mass(self):
        return float(self.state.rho.sum() * self.grid.dx)

    def peak(self, density):
        """Center of the cell where density is largest."""
        return float(self.grid.centers[int(np.argmax(density))])

    def arrays(self):
        return self.state.rho, self.state.rho_u

    def row(self):
        row = [self.consensus] + self.penalty_row()
        if self.alone:
            return row + [self.mass(), self.peak(self.state.rho)]
        mass_micro, mass_macro = self.particles.mass(), self.mass()
        return row + [self.coupling.zeta, mass_micro, mass_macro, mass_micro + mass_macro]


def _build_scales(cfg):
    """The active scales in step order: the swarm, the grid, or the swarm and its coupled grid."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "micro":
        return [_Particles(cfg, rng, 1.0, alone=True)]
    if cfg.mode == "macro":
        return [_Grid(cfg, 1.0)]
    zeta0 = cfg.coupling.zeta0
    particles = _Particles(cfg, rng, zeta0, alone=False)
    return [particles, _Grid(cfg, 1.0 - zeta0, particles)]


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured run and write trace.csv, summary.json and timings.json.

    Each trace row is written as soon as it is made, under a header built at
    step 0 from the columns each scale declares, so a run that fails keeps its
    completed rows on disk.
    """
    os.makedirs(cfg.output, exist_ok=True)
    started = time.perf_counter()
    snap = cfg.macro.snapshot_every if cfg.mode != "micro" else 0  # the grid steps last
    scales, rows = [], []

    csv_path = os.path.join(cfg.output, "trace.csv")
    with open(csv_path, "w", newline="") as fh:
        trace = csv.writer(fh, lineterminator="\n")
        # step 0 builds the scales, so a config the solvers reject fails there
        for n in range(cfg.n_steps + 1):
            try:
                if n == 0:
                    scales = _build_scales(cfg)
                else:
                    for s in scales:
                        s.move(n)
                for s in scales:
                    s.observe()
            except Exception as exc:
                arrays = (a for s in scales for a in s.arrays())
                raise RunError(str(exc), n, _digest(*arrays)) from exc
            if n == 0:
                header = ["step", "time"] + [c for s in scales for c in s.columns]
                trace.writerow(header)
            values = [n, n * cfg.micro.dt] + [v for s in scales for v in s.row()]
            rows.append(dict(zip(header, values, strict=True)))
            trace.writerow(values)
            if snap and n and n % snap == 0:
                _write_snapshot(cfg.output, n, scales[-1].grid, scales[-1].state)

    summary = _summary(cfg, scales)
    json_path = os.path.join(cfg.output, "summary.json")
    _write_json(json_path, summary)
    _write_json(os.path.join(cfg.output, "timings.json"),
                {"wall_time_s": time.perf_counter() - started,
                 "grid_steps_shared": scales[-1].steps_shared if cfg.mode != "micro" else 0})
    return RunReport(csv_path=csv_path, json_path=json_path, summary=summary, rows=rows)


def _summary(cfg, scales):
    """Final state keyed by scale name, None for a scale the run does not hold."""
    by_name = {s.name: s for s in scales}

    def per_scale(value):
        return {name: value(by_name[name]) if name in by_name else None
                for name in ("micro", "macro")}

    masses = per_scale(lambda s: s.mass())
    masses["total"] = sum(m for m in masses.values() if m is not None)
    grid = by_name.get("macro")
    if grid is None:
        estimate = by_name["micro"].consensus
    else:
        # the peak of the combined density on the grid
        density = grid.state.rho
        if "micro" in by_name:
            density = density + micro_cell_density(by_name["micro"].swarm, grid.grid)
        estimate = [grid.peak(density)]
    return {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "n_steps": cfg.n_steps,
        "final_consensus": per_scale(lambda s: s.consensus),
        "final_beta": per_scale(lambda s: s.ctrl.beta),
        "final_kappa": per_scale(lambda s: s.ctrl.kappa),
        "final_violation": per_scale(lambda s: s.ctrl.violation),
        "final_zeta": grid.coupling.zeta if cfg.mode == "micromacro" else None,
        "final_masses": masses,
        "argmin_estimate": estimate,
        "objective_at_estimate": float(cfg.objective(estimate)),
        "final_time": cfg.n_steps * cfg.micro.dt,
    }


@dataclass
class EnsembleReport:
    pooled_csv: str
    json_path: str
    runs: list


def run_ensemble(cfg: ExperimentConfig, n_runs: int) -> EnsembleReport:
    """Independent runs with seeds cfg.seed + k; failures are recorded, not fatal.

    Raises ConfigError, before it makes any directory, when n_runs is below 1
    or the last seed fails the ``seed`` key's check.
    """
    if n_runs < 1:
        raise ConfigError(["n_runs: must be at least 1"])
    last = cfg.seed + n_runs - 1
    try:
        replace(cfg, seed=last)
    except ConfigError as exc:
        raise ConfigError([f"run {n_runs - 1} (seed {last}): {e}" for e in exc.errors]) from None
    os.makedirs(cfg.output, exist_ok=True)

    cons_cols, records, pooled_rows = [], [], []
    for k in range(n_runs):
        seed = cfg.seed + k
        sub = replace(cfg, seed=seed, output=os.path.join(cfg.output, f"run_{k:03d}"))
        try:
            report = run_experiment(sub)
        except RunError as exc:
            records.append({"run": k, "seed": seed, "ok": False,
                            "error": str(exc), "failed_step": exc.step})
            continue
        # the leading scale's consensus point, one column per coordinate
        cons_cols = [c for c in report.rows[0] if c.startswith("consensus")][: cfg.objective.dim]
        pooled_rows += ([k, seed, row["step"], row["time"]] + [row[c] for c in cons_cols]
                        for row in report.rows)
        records.append({"run": k, "seed": seed, "ok": True,
                        "summary": report.summary})

    pooled_csv = os.path.join(cfg.output, "ensemble_consensus.csv")
    _write_csv(pooled_csv, ["run", "seed", "step", "time"] + cons_cols, pooled_rows)
    payload = {"n_runs": n_runs, "base_seed": cfg.seed, "runs": records}
    json_path = os.path.join(cfg.output, "ensemble.json")
    _write_json(json_path, payload)
    return EnsembleReport(pooled_csv=pooled_csv, json_path=json_path, runs=records)
