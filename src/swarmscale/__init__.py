"""Multi-scale penalized particle swarm optimization.

A particle swarm driven by an inertial SDE, a finite-volume solver for its
two-moment system, an adaptive exact-penalty controller for constrained
problems, and a mass-shifting coupling between the two scales.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_bundled,
    load_config,
    save_config,
)
from .macro import (
    Grid1D,
    MacroState,
    advance_macro,
    cfl_dt,
    consensus_point_macro,
    init_macro,
    lax_friedrichs_step,
)
from .micro import (
    MicroParams,
    SwarmState,
    consensus_point,
    diffusion_diagonal,
    gibbs_weights,
    init_swarm,
    softmin_gap,
    step_euler_maruyama,
)
from .micromacro import (
    CouplingState,
    compute_zeta,
    init_coupling,
    micro_cell_density,
    transfer_mass,
)
from .objectives import (
    BallUnion,
    FeasibleSet,
    Halfspace1D,
    IntervalUnion,
    ObjectiveFunction,
    PenalizedObjective,
    ackley,
    rastrigin,
)
from .penalty import PenaltyController, violation_macro, violation_micro
from .runner import (
    EnsembleReport,
    RunError,
    RunReport,
    run_ensemble,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_from_dict",
    "config_to_dict",
    "load_bundled",
    "load_config",
    "save_config",
    "Grid1D",
    "MacroState",
    "advance_macro",
    "cfl_dt",
    "consensus_point_macro",
    "init_macro",
    "lax_friedrichs_step",
    "MicroParams",
    "SwarmState",
    "consensus_point",
    "diffusion_diagonal",
    "gibbs_weights",
    "init_swarm",
    "softmin_gap",
    "step_euler_maruyama",
    "CouplingState",
    "compute_zeta",
    "init_coupling",
    "micro_cell_density",
    "transfer_mass",
    "BallUnion",
    "FeasibleSet",
    "Halfspace1D",
    "IntervalUnion",
    "ObjectiveFunction",
    "PenalizedObjective",
    "ackley",
    "rastrigin",
    "PenaltyController",
    "violation_macro",
    "violation_micro",
    "EnsembleReport",
    "RunError",
    "RunReport",
    "run_ensemble",
    "run_experiment",
    "__version__",
]
