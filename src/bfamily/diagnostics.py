"""Verifiable identities along the flow.

The transported momentum q(t) = (y o phi) * phi_x^b is constant along
geodesics; its deviation from q(0) is pure discretization error and is
reported in both the H^{s-2} norm and the sup norm.  q is computed in flow
coordinates as phi_x^(b-1) * S phi_t, with S the self-adjoint operator of
the Christoffel solve, so the check never inverts phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffeo import Diffeomorphism, compose_field, invert
from .dynamics import Trajectory, transported_momentum
from .spectral import Field, hs_norm


@dataclass(eq=False)
class ConservationReport:
    times: np.ndarray
    residual_s_minus_2: np.ndarray
    residual_sup: np.ndarray
    relative: bool  # False when q(0) = 0 and the residuals are absolute

    def __post_init__(self):
        n = len(self.times)
        if len(self.residual_s_minus_2) != n or len(self.residual_sup) != n:
            raise ValueError("report arrays must share a length")

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual_s_minus_2))


def conservation_residual(traj: Trajectory) -> ConservationReport:
    """Deviation of (y o phi) phi_x^b from its initial value per snapshot.

    b and s are traj.params.  Residuals are relative to q(0)'s norms, or
    absolute when q(0) = 0 (report.relative).  The t = 0 entry vanishes.
    """
    params = traj.params
    if not traj.states or isinstance(traj.states[0], Field):
        raise TypeError("conservation check expects a Lagrangian trajectory")
    q0 = transported_momentum(traj.states[0], params.b)
    norm0 = hs_norm(q0, params.s - 2)
    sup0 = float(np.max(np.abs(q0.values)))
    res_norm, res_sup = [], []
    for state in traj.states:
        q = transported_momentum(state, params.b)
        diff = q - q0
        r_n = hs_norm(diff, params.s - 2)
        r_s = float(np.max(np.abs(diff.values)))
        if norm0 > 0.0:
            r_n /= norm0
            r_s /= sup0
        res_norm.append(r_n)
        res_sup.append(r_s)
    return ConservationReport(
        traj.times.copy(), np.array(res_norm), np.array(res_sup), norm0 > 0.0
    )


def pushforward_reconstruct(y0: Field, phi: Diffeomorphism, b: float) -> Field:
    """Time-one momentum predicted from the flow alone: (y0/phi_x^b) o phi^{-1}."""
    weighted = Field(y0.grid, y0.values / phi.phi_x ** float(b))
    return compose_field(weighted, invert(phi))
