"""Experiment drivers: single runs and seeded ensembles with CSV/JSON output.

A run holds one or both scales of the swarm, the particles and the grid
density, and drives them through one loop.  Each outer iteration advances
every active scale to the shared time n * dt (the swarm takes one SDE step,
the grid solver takes its own sub-steps) and lets it update its own penalty
controller; a coupled run then transfers mass between the scales, and each
scale finally observes its consensus point.  Given (config, seed) every
written file except timings.json is byte-identical across repeat runs.

Until the first transfer, at step t_star, the grid draws no random number
and reads no particle, and a lone grid never reads one, so those steps are
the same for every seed.  The runs of one config share them: the first run
computes each such step and keeps the grid's arrays, time and controller
after it in a module-level slot, and the next runs load them (see
_SharedSteps).  The outputs are the same bytes whichever run computed them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .macro import MacroState, advance_macro, consensus_point_macro, init_macro
from .micro import consensus_point, gibbs_weights, init_swarm, softmin_gap, step_euler_maruyama
from .micromacro import init_coupling, micro_cell_density, transfer_mass
from .penalty import violation_macro, violation_micro


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


def _fmt(value) -> str:
    if isinstance(value, float):  # checked first: most values are floats, numpy float64 among them
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_snapshot(out_dir, step, grid, macro):
    _write_csv(os.path.join(out_dir, f"fields_{step:06d}.csv"), ["x", "rho", "rho_u"],
               zip(grid.centers, macro.rho, macro.rho_u))


class _Scale:
    """One representation of the swarm, with its own penalized objective and controller.

    Each scale names its own trace columns when it is built: a scale that runs
    alone uses bare names and reports extra columns (the particle gap, or the
    grid mass and peak); a coupled scale suffixes its name, and the transfer
    reports the masses.
    """

    def __init__(self, cfg, name, alone):
        self.name = name
        self.alone = alone
        self.suffix = "" if alone else "_" + name
        self.penalty_columns = [c + self.suffix for c in ("beta", "kappa", "violation", "branch")]
        # one coefficient set for both scales: the grid solves the moments of the particles' SDE
        self.params = cfg.micro
        # both scales start from the one penalty section; each then moves its own controller
        self.pf = cfg.build_penalized()
        self.ctrl = cfg.build_controller()
        self.violation, self.branch = 0.0, "none"

    def evaluate(self, points):
        """The objective and the distance at this scale's points, and their weights."""
        self.parts = self.pf.parts(points)
        self.weigh()

    def weigh(self):
        """Gibbs weights of F_beta at the current beta; each average of the scale reads them."""
        self.weights = gibbs_weights(self.pf.combine(*self.parts), self.params.alpha)

    def penalize(self):
        """One (beta, kappa) update from the current violation; unconstrained runs skip it."""
        if self.pf.feasible_set is None:
            return
        self.violation = self.measure_violation()
        self.branch = "success" if self.ctrl.accepts(self.violation) else "failure"
        beta = self.ctrl.beta
        self.ctrl = self.ctrl.update(self.violation)
        if self.ctrl.beta != beta:
            self.pf = self.pf.with_beta(self.ctrl.beta)
            self.weigh()

    def move(self, n):
        """Advance to step n, then update the penalty controller."""
        self.advance(n)
        self.penalize()

    def penalty_items(self):
        values = (self.ctrl.beta, self.ctrl.kappa, self.violation, self.branch)
        return list(zip(self.penalty_columns, values))


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
        # the lone swarm names each coordinate; a coupled run is 1D
        self.consensus_columns = ([f"consensus_{k}" for k in range(cfg.objective.dim)]
                                  if alone else ["consensus" + self.suffix])
        self.evaluate(self.swarm.positions)

    def clock(self, n):
        return n * self.params.dt

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

    def mass(self):
        return self.swarm.total_mass

    def arrays(self):
        return self.swarm.positions, self.swarm.velocities

    def row_items(self):
        items = list(zip(self.consensus_columns, self.consensus))
        if self.alone:
            if __debug__:
                assert self.gap <= np.log(self.swarm.n_particles) / self.params.alpha + 1e-9
            items.append(("softmin_gap", self.gap))
        return items + self.penalty_items()


class _SharedSteps:
    """The grid's seed-free steps of the last config run, loaded by its next runs.

    The grid's steps up to the first transfer follow from the sections in
    the key alone: not from the seed, the output, the particle count or the
    run length.  Record n holds the grid's arrays and time, and its
    controller, penalized objective, weights, violation and branch, after
    step n's move and penalty update.  The arrays are kept read-only, not
    as a live MacroState, so no velocity is cached across runs.  A run of
    another key empties the slot; a step that fails records nothing.  Runs
    fill the slot one after another, never from two threads at once.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.key, self.steps = None, []

    def claim(self, cfg):
        """The records of cfg's grid, emptied first if the last run had another key."""
        key = (cfg.mode, cfg.objective, cfg.feasible_set, cfg.micro, cfg.macro, cfg.penalty,
               cfg.coupling)
        if key != self.key:
            self.key, self.steps = key, []
        return self.steps


_shared = _SharedSteps()


class _Grid(_Scale):
    """The density on the 1D grid, advanced by its own solver to the shared time.

    The cell centers never move, so the cells' Gibbs weights change only
    with beta: they are built once per run and again after each penalty
    update that raises beta.  The steps before the first transfer are
    loaded from the shared slot when an earlier run of the config made them.
    """

    def __init__(self, cfg, mass, alone):
        super().__init__(cfg, "macro", alone)
        self.grid = cfg.macro  # the section is the grid, with its solver's settings
        self.state = init_macro(self.grid, total_mass=mass)
        self.consensus_column = "consensus" + self.suffix
        self.evaluate(self.grid.centers[:, None])  # the centers never move
        # a lone grid never reads a particle; a coupled one first does after transfer t_star
        self.last_shared = cfg.n_steps if alone else cfg.coupling.t_star
        self.shared = _shared.claim(cfg)
        self.steps_shared = 0  # steps this run loaded rather than computed

    def move(self, n):
        if n > self.last_shared:
            return super().move(n)
        if n <= len(self.shared):
            (rho, rho_u, t, self.ctrl, self.pf, self.weights, self.violation,
             self.branch) = self.shared[n - 1]
            self.state = MacroState._unchecked(rho, rho_u, t)  # checked when computed
            self.steps_shared += 1
            return
        super().move(n)
        for a in (*self.arrays(), self.weights):
            a.flags.writeable = False  # every later run of the config reads them
        self.shared.append((*self.arrays(), self.state.time, self.ctrl, self.pf, self.weights,
                            self.violation, self.branch))

    def clock(self, n):
        return self.state.time

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

    def row_items(self):
        items = [(self.consensus_column, self.consensus)] + self.penalty_items()
        if self.alone:
            items += [("total_mass", self.mass()), ("argmax_center", self.peak(self.state.rho))]
        return items


class _Transfer:
    """Post-step hook of a coupled run: re-splits the mass between the two scales."""

    def __init__(self, cfg, particles, grid):
        self.particles, self.grid = particles, grid
        self.state = init_coupling(particles.swarm, grid.grid, cfg.coupling)

    def __call__(self, n):
        p, g = self.particles, self.grid
        self.state, p.swarm, g.state = transfer_mass(self.state, p.swarm, g.state, g.grid, n)

    def row_items(self):
        mass_micro, mass_macro = self.particles.mass(), self.grid.mass()
        return [("zeta", self.state.zeta), ("mass_micro", mass_micro),
                ("mass_macro", mass_macro), ("mass_total", mass_micro + mass_macro)]


def _build_scales(cfg):
    """The active scales in step order, and the transfer hook of a coupled run or None."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "micro":
        return [_Particles(cfg, rng, 1.0, alone=True)], None
    if cfg.mode == "macro":
        return [_Grid(cfg, 1.0, alone=True)], None
    zeta0 = cfg.coupling.zeta0
    particles = _Particles(cfg, rng, zeta0, alone=False)
    grid = _Grid(cfg, 1.0 - zeta0, alone=False)
    return [particles, grid], _Transfer(cfg, particles, grid)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured run and write trace.csv, summary.json and timings.json.

    Each trace row is written as soon as it is made, under a header taken from
    the keys of row 0, so a run that fails keeps its completed rows on disk.
    """
    os.makedirs(cfg.output, exist_ok=True)
    started = time.perf_counter()
    snap = cfg.macro.snapshot_every if cfg.mode != "micro" else 0  # the grid steps last
    scales, transfer, rows = [], None, []

    def row(n):
        # the row time is the leading scale's clock: n * dt for the swarm,
        # the accumulated sub-step time for a lone grid
        values = {"step": n, "time": scales[0].clock(n)}
        for s in scales:
            values.update(s.row_items())
        if transfer is not None:
            values.update(transfer.row_items())
        return values

    csv_path = os.path.join(cfg.output, "trace.csv")
    with open(csv_path, "w", newline="") as fh:
        trace = csv.writer(fh, lineterminator="\n")
        # step 0 builds the scales, so a config the solvers reject fails there
        for n in range(cfg.n_steps + 1):
            try:
                if n == 0:
                    scales, transfer = _build_scales(cfg)
                else:
                    for s in scales:
                        s.move(n)
                    if transfer is not None:
                        transfer(n)
                for s in scales:
                    s.observe()
            except Exception as exc:
                arrays = (a for s in scales for a in s.arrays())
                raise RunError(str(exc), n, _digest(*arrays)) from exc
            rows.append(row(n))
            if n == 0:
                trace.writerow(rows[0])  # the header: row 0's keys
            trace.writerow([_fmt(v) for v in rows[-1].values()])
            if snap and n and n % snap == 0:
                _write_snapshot(cfg.output, n, scales[-1].grid, scales[-1].state)

    summary = _summary(cfg, scales, transfer, rows[-1]["time"])
    json_path = os.path.join(cfg.output, "summary.json")
    _write_json(json_path, summary)
    _write_json(os.path.join(cfg.output, "timings.json"),
                {"wall_time_s": time.perf_counter() - started,
                 "grid_steps_shared": scales[-1].steps_shared if cfg.mode != "micro" else 0})
    return RunReport(csv_path=csv_path, json_path=json_path, summary=summary, rows=rows)


def _summary(cfg, scales, transfer, final_time):
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
        "final_violation": per_scale(lambda s: s.violation),
        "final_zeta": transfer.state.zeta if transfer is not None else None,
        "final_masses": masses,
        "argmin_estimate": estimate,
        "objective_at_estimate": float(cfg.objective(np.asarray(estimate))),
        "final_time": final_time,
    }


@dataclass
class EnsembleReport:
    n_runs: int
    pooled_csv: str
    json_path: str
    runs: list


def run_ensemble(cfg: ExperimentConfig, n_runs: int) -> EnsembleReport:
    """Independent runs with seeds cfg.seed + k; failures are recorded, not fatal.

    Raises ConfigError before the first run when the last seed fails the
    ``seed`` key's check.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
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
    return EnsembleReport(n_runs=n_runs, pooled_csv=pooled_csv, json_path=json_path,
                          runs=records)
