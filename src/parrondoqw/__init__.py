"""Discrete-time quantum walks with site- and time-dependent coins.

Building blocks for Parrondo-style quantum walk games: coin operators
(uniform, tanh site-dependent, general three-parameter, random-phase),
strategy schedules (single, m-n composite, even/odd alternation,
probabilistic mixing), trajectory recording, ensemble averaging with a
classical baseline, 2D phase-diagram sweeps, and CSV/JSON emission behind a
small CLI.
"""

__version__ = "0.1.0"

from .coins import (
    CoinSpec,
    GeneralCoin,
    LocalCoin,
    RandomPhaseAlpha,
    RandomPhaseBeta,
    SiteTanhRotation,
    UniformRotation,
    general_coin_matrix,
    realize,
    rotation_matrix,
    site_theta,
)
from .config import (
    RunConfig,
    build_grid_spec,
    build_initial_state,
    build_schedule,
    config_to_flat,
    dumps_config,
    parse_and_validate,
    parse_angle,
)
from .ensemble import (
    ClassicalWalkResult,
    EnsembleResult,
    classical_walk,
    ensemble_expectation,
    variance_scaling_exponent,
)
from .errors import (
    BoundaryLeakageError,
    ConfigError,
    DegenerateEnsembleWarning,
    GeometryTooSmallError,
    InsufficientDataError,
    InvalidPositionError,
    MissingRandomnessError,
    OutputError,
    WalkError,
)
from .evolution import (
    AlternatingEvenOdd,
    Composite,
    ProbabilisticChoice,
    Single,
    StrategySchedule,
    Trajectory,
    apply_coin,
    collect_seeds,
    is_stochastic_schedule,
    run,
    shift,
    step,
    with_derived_seeds,
)
from .output import (
    OutputBundle,
    emit_classical,
    emit_ensemble,
    emit_sweep,
    emit_trajectory,
)
from .rng import RNG_ALGORITHM, StepStream, child_seed
from .state import (
    SPIN_DOWN,
    SPIN_UP,
    SYMMETRIC,
    BlochCoinState,
    LatticeGeometry,
    WalkerState,
)
from .sweep import (
    LOSING,
    NEUTRAL,
    WINNING,
    GridAxis,
    GridSpec,
    ScheduleTemplate,
    SweepResult,
    classify,
    sweep_coin_params,
    sweep_initial_state,
)
