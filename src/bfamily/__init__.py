"""Pseudospectral laboratory for the Holm-Staley b-family of equations."""

from .diagnostics import (
    ConservationReport,
    conservation_residual,
    disjoint_support_ratio,
    momentum,
    pushforward_reconstruct,
)
from .diffeo import (
    Diffeomorphism,
    compose_field,
    evaluate_field,
    from_displacement,
    identity,
    invert,
)
from .dynamics import (
    BParams,
    SolverConfig,
    SprayState,
    Trajectory,
    christoffel_at,
    christoffel_id,
    default_dt,
    dexp,
    eulerian_from_lagrangian,
    exp_map,
    flow_from_velocity,
    rhs_eulerian,
    solve_eulerian,
    solve_geodesic,
    transported_momentum,
)
from .experiments import (
    ExperimentReport,
    ExperimentRow,
    NonUniformityConfig,
    build_bump,
    estimate_probe_geometry,
    nonuniformity_experiment,
    scaling_check,
    time_one_map,
)
from .spectral import (
    Field,
    Grid,
    derivative,
    helmholtz_inverse,
    homogeneous_hs_norm,
    hs_norm,
    make_grid,
    multiply,
    slobodeckij_seminorm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
