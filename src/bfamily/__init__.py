"""Pseudospectral laboratory for the Holm-Staley b-family of equations."""

from .diagnostics import (
    ConservationReport,
    conservation_residual,
    pushforward_reconstruct,
)
from .diffeo import (
    Diffeomorphism,
    compose_field,
    evaluate_field,
    identity,
    invert,
)
from .dynamics import (
    BParams,
    SolverConfig,
    SprayState,
    Trajectory,
    default_dt,
    eulerian_from_lagrangian,
    exp_and_differential,
    exp_map,
    momentum,
    solve_eulerian,
    solve_geodesic,
    time_one_map,
    transported_momentum,
)
from .experiments import (
    ExperimentReport,
    ExperimentRow,
    NonUniformityConfig,
    build_bump,
    estimate_probe_geometry,
    nonuniformity_experiment,
)
from .spectral import (
    Field,
    Grid,
    derivative,
    hs_norm,
    make_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
