"""Diffeomorphisms of the periodic cell, stored as identity plus displacement.

A map phi(x) = x + f(x) with periodic displacement f automatically satisfies
phi(x + 2L) = phi(x) + 2L; the orientation invariant phi_x = 1 + f_x > 0 is
checked spectrally at construction and is a hard error when violated.

Off-grid values are produced by trigonometric interpolation: the unique
band-limited interpolant of the samples, evaluated by direct summation over
modes (exact for band-limited data).  The unpaired Nyquist mode is split
symmetrically so the interpolant is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, InversionError, PositivityError
from .spectral import Field, Grid, derivative

_RENORM_EVERY = 64  # fresh complex exponential every this many running powers
_MARGIN = 1e-6  # smallest min phi_x that invert accepts
_TOL = 1e-12  # Newton step size at which an inverse point has converged
_MAX_NEWTON = 50


def evaluate_field(f: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    O(N) per point via running powers of e^{i pi (y-x_0)/L}, renormalized
    periodically to keep the accumulated rounding at the 1e-13 level.
    Points outside [-L, L) are handled by periodicity of the interpolant.
    """
    grid = f.grid
    n = grid.n_points
    half = n // 2
    L = grid.half_length
    coeffs = grid.rfft(f.values)  # modes 0..N/2
    theta = (np.pi / L) * (np.asarray(points, dtype=np.float64) - grid.x[0])
    z = np.exp(1j * theta)
    acc = np.zeros(theta.shape, dtype=np.complex128)
    w = np.ones_like(z)
    for k in range(1, half):
        if k % _RENORM_EVERY == 0:
            w = np.exp(1j * k * theta)
        else:
            w = w * z
        acc += coeffs[k] * w
    # conjugate modes double the real part; Nyquist contributes a cosine
    out = coeffs[0].real + 2.0 * acc.real + coeffs[half].real * np.cos(half * theta)
    return out / n


@dataclass(eq=False)
class Diffeomorphism:
    """phi(x) = x + f(x) with strictly positive spectral derivative."""

    grid: Grid
    displacement: Field
    _phi_x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.displacement.grid != self.grid:
            raise GridError("displacement lives on a different grid")
        phi_x = 1.0 + derivative(self.displacement, 1).values
        if np.min(phi_x) <= 0.0:
            raise PositivityError(
                f"phi_x must stay positive; min over grid is {np.min(phi_x):.3e}"
            )
        self._phi_x = phi_x

    @property
    def phi_x(self) -> np.ndarray:
        """Samples of the derivative 1 + f_x."""
        return self._phi_x

    def positions(self) -> np.ndarray:
        """phi evaluated at the grid points."""
        return self.grid.x + self.displacement.values

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """phi at arbitrary points (trigonometric interpolation of f)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts + evaluate_field(self.displacement, pts)


def identity(grid: Grid) -> Diffeomorphism:
    return Diffeomorphism(grid, Field.zeros(grid))


def from_displacement(f: Field) -> Diffeomorphism:
    return Diffeomorphism(f.grid, f)


def compose_field(g: Field, phi: Diffeomorphism) -> Field:
    """Samples of g' = g o phi at the grid points."""
    if g.grid != phi.grid:
        raise GridError("field and diffeomorphism live on different grids")
    if not np.any(phi.displacement.values):
        return Field(g.grid, g.values)  # composing with the identity is exact
    return Field(g.grid, evaluate_field(g, phi.positions()))


def invert(phi: Diffeomorphism) -> Diffeomorphism:
    """Gridwise inverse by an exact one-cell bracket plus safeguarded Newton.

    The samples phi(x_j) = x_j + f_j are exact values of the interpolant.  If
    they increase over one period (the wrap phi(x_0) + 2L included), each
    target x_k, moved by whole periods into [phi(x_0), phi(x_0) + 2L), lies in
    a cell phi(x_j) <= x_k < phi(x_{j+1}) that holds a root of phi(y) = x_k.
    Newton with the spectral derivative starts from the secant point in that
    cell and keeps its iterates inside the shrinking bracket.  An inverse
    whose spectral derivative is not positive is not resolved on the grid
    and raises InversionError.
    """
    if np.min(phi.phi_x) < _MARGIN:
        raise PositivityError(
            f"inversion needs min phi_x >= {_MARGIN:.1e}, got {np.min(phi.phi_x):.3e}"
        )
    if not np.any(phi.displacement.values):
        return phi  # the identity is its own inverse
    grid = phi.grid
    n = grid.n_points
    x = grid.x
    period = 2.0 * grid.half_length
    disp = phi.displacement
    disp_x = derivative(disp, 1)

    nodes = np.append(x, x[0] + period)
    pos = phi.positions()
    samples = np.append(pos, pos[0] + period)
    steps = np.diff(samples)
    if np.min(steps) <= 0.0:
        worst = int(np.argmin(steps))
        raise InversionError(
            f"phi is not increasing on the grid samples at index {worst}", index=worst
        )
    wraps = period * np.floor((x - samples[0]) / period)
    # x - wraps can round just outside [samples[0], samples[n]]; clip to a cell
    cell = np.clip(np.searchsorted(samples, x - wraps, side="right") - 1, 0, n - 1)
    lo = nodes[cell] + wraps
    hi = nodes[cell + 1] + wraps
    y = lo + (x - wraps - samples[cell]) / steps[cell] * (hi - lo)

    converged = np.zeros(n, dtype=bool)
    for _ in range(_MAX_NEWTON):
        resid = y + evaluate_field(disp, y) - x
        slope = 1.0 + evaluate_field(disp_x, y)
        step = resid / slope
        below = resid < 0.0
        lo = np.where(below, y, lo)
        hi = np.where(below, hi, y)
        y_new = np.clip(y - step, lo, hi)
        converged = np.abs(y_new - y) < _TOL
        y = y_new
        if np.all(converged):
            break
    if not np.all(converged):
        worst = int(np.argmax(np.abs(y + evaluate_field(disp, y) - x)))
        raise InversionError(
            f"Newton failed to reach {_TOL:.1e} at grid index {worst}", index=worst
        )
    inverse = Field(grid, y - x)
    try:
        return Diffeomorphism(grid, inverse)
    except PositivityError:  # Newton converged, but too steep for the grid
        inv_x = 1.0 + derivative(inverse, 1).values
        raise InversionError(
            "the inverse is not resolved on the grid: min of its spectral "
            f"derivative is {np.min(inv_x):.3e}",
            index=int(np.argmin(inv_x)),
        ) from None
