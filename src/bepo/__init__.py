"""Invariant-measure statistics of a white-noise-driven bilinear
elasto-plastic oscillator, by a resolvent-PDE finite-difference route and by
Monte Carlo simulation of the projected dynamics."""

__version__ = "0.1.0"

from .model import ForceSpec, LyapunovReport, ModelParams, drift_beta
from .grid import Grid, GridSpec, build_grid
from .observables import (
    Observable,
    constant_observable,
    mollified_crossing_speed,
    plastic_band,
)
from .assembly import SparseSystem, assemble_matrix, assemble_rhs, oracle_assemble
from .solver import (
    ResolventSolver,
    SolveReport,
    SolverConfig,
    evaluate_statistic,
    solve_resolvent,
)
from .sde import (
    OscState,
    Phase,
    PhaseEvent,
    SimConfig,
    crossing_frequency_mc,
    ergodic_average_mc,
    lyapunov_check_mc,
    serviceability_mc,
    simulate_trajectory,
    step_euler,
)
from .convergence import empirical_order, refine_nested, sup_diff_on_common
from .config import RunConfig, parse_config, serialize_config
