"""Command-line front end: single runs, seeded ensembles, config validation."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import ConfigError, load_bundled, load_config
from .runner import RunError, run_ensemble, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmscale",
        description="Multi-scale swarm optimization runs with CSV/JSON output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="config file path, or the name of a bundled config")

    run = sub.add_parser("run", help="execute one experiment")
    add_common(run)
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", help="override the output directory")

    ens = sub.add_parser("ensemble", help="execute independent seeded runs")
    add_common(ens)
    ens.add_argument("--runs", type=int, default=1, help="number of runs (default 1)")
    ens.add_argument("--seed", type=int, help="base seed (run k uses base + k)")
    ens.add_argument("--out", help="override the output directory")

    val = sub.add_parser("validate-config", help="check a config and exit")
    add_common(val)
    return parser


def predicted_work(cfg) -> list[str]:
    """The least work a run of cfg does: its particle steps, grid sub-steps and largest array."""
    lines, values = [], []
    if cfg.mode != "macro":
        lines.append(f"particle steps: {cfg.n_steps} of {cfg.n_particles} particles")
        values.append(cfg.n_particles * cfg.objective.dim)
    if cfg.mode != "micro":
        least = max(cfg.n_steps * cfg.macro.least_substeps(cfg.micro.dt), 0.0)
        lines.append(f"grid sub-steps: at least {least:.6g}")
        values.append(cfg.macro.n_cells + 2)  # the step's rows with their ghost cells
    return lines + [f"largest array: {max(values) * 8} bytes of float64"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a name that is not a file falls back to the configs shipped with the package
        if os.path.exists(args.config):
            cfg = load_config(args.config)
        else:
            cfg = load_bundled(args.config)

        if args.command == "validate-config":
            print(f"config valid: mode={cfg.mode}, "
                  f"objective={cfg.objective.name} (dim {cfg.objective.dim}), "
                  f"{cfg.n_steps} steps")
            print("\n".join(predicted_work(cfg)))
            return 0

        # --seed and --out set config keys, so the config's own checks bound them
        overrides = {key: value for key, value in [("seed", args.seed), ("output", args.out)]
                     if value is not None}
        cfg = replace(cfg, **overrides)

        if args.command == "run":
            report = run_experiment(cfg)
            s = report.summary
            print(f"wrote {report.csv_path}")
            print(f"wrote {report.json_path}")
            print(f"argmin estimate: {s['argmin_estimate']} "
                  f"(objective {s['objective_at_estimate']:.6g})")
            return 0

        report = run_ensemble(cfg, args.runs)
        failures = [r for r in report.runs if not r["ok"]]
        print(f"wrote {report.pooled_csv}")
        print(f"wrote {report.json_path}")
        print(f"{len(report.runs) - len(failures)}/{len(report.runs)} runs succeeded")
        for f in failures:
            print(f"run {f['run']} (seed {f['seed']}) failed: {f['error']}",
                  file=sys.stderr)
        return 1 if failures else 0
    except ConfigError as exc:  # the file, an override, or an ensemble's run count or last seed
        print(exc, file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
