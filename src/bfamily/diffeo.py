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


def shift(grid: Grid, c: float) -> Diffeomorphism:
    return Diffeomorphism(grid, Field(grid, np.full(grid.n_points, float(c))))


def from_displacement(f: Field) -> Diffeomorphism:
    return Diffeomorphism(f.grid, f)


def compose_field(g: Field, phi: Diffeomorphism) -> Field:
    """Samples of g' = g o phi at the grid points."""
    if g.grid != phi.grid:
        raise GridError("field and diffeomorphism live on different grids")
    if not np.any(phi.displacement.values):
        return Field(g.grid, g.values)  # composing with the identity is exact
    return Field(g.grid, evaluate_field(g, phi.positions()))


def compose_diffeo(phi: Diffeomorphism, psi: Diffeomorphism) -> Diffeomorphism:
    """(phi o psi)(x) = psi(x) + f_phi(psi(x)); displacement f_psi + f_phi o psi."""
    if phi.grid != psi.grid:
        raise GridError("diffeomorphisms live on different grids")
    disp = psi.displacement.values + evaluate_field(phi.displacement, psi.positions())
    return Diffeomorphism(phi.grid, Field(phi.grid, disp))


def invert(
    phi: Diffeomorphism,
    margin: float = 1e-6,
    tol: float = 1e-12,
    max_newton: int = 50,
    n_bisect: int = 12,
) -> Diffeomorphism:
    """Gridwise inverse by bracketing bisection plus safeguarded Newton.

    Solves phi(y) = x_j for every grid point, using the spectral derivative
    inside Newton and keeping iterates inside the shrinking bracket.
    """
    if np.min(phi.phi_x) < margin:
        raise PositivityError(
            f"inversion needs min phi_x >= {margin:.1e}, got {np.min(phi.phi_x):.3e}"
        )
    if not np.any(phi.displacement.values):
        return phi  # the identity is its own inverse
    grid = phi.grid
    x = grid.x
    disp = phi.displacement
    disp_x = derivative(disp, 1)
    f_min = float(np.min(disp.values))
    f_max = float(np.max(disp.values))

    # the interpolant can overshoot the sampled extrema between grid points;
    # pad by the classical h^2/8 * max|f''| bound and verify the bracket
    pad = 0.125 * grid.spacing**2 * float(
        np.max(np.abs(derivative(disp, 2).values))
    ) + 1e-13 * (1.0 + abs(f_max) + abs(f_min))
    lo = x - f_max - pad
    hi = x - f_min + pad
    for _ in range(8):
        bad_lo = lo + evaluate_field(disp, lo) > x
        bad_hi = hi + evaluate_field(disp, hi) < x
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        pad = 2.0 * pad + grid.spacing
        lo = np.where(bad_lo, x - f_max - pad, lo)
        hi = np.where(bad_hi, x - f_min + pad, hi)
    else:
        raise InversionError("could not bracket the inverse", index=None)

    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        below = mid + evaluate_field(disp, mid) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)

    y = 0.5 * (lo + hi)
    converged = np.zeros(grid.n_points, dtype=bool)
    for _ in range(max_newton):
        resid = y + evaluate_field(disp, y) - x
        slope = 1.0 + evaluate_field(disp_x, y)
        step = resid / slope
        below = resid < 0.0
        lo = np.where(below, y, lo)
        hi = np.where(below, hi, y)
        y_new = np.clip(y - step, lo, hi)
        converged = np.abs(y_new - y) < tol
        y = y_new
        if np.all(converged):
            break
    if not np.all(converged):
        worst = int(np.argmax(np.abs(y + evaluate_field(disp, y) - x)))
        raise InversionError(
            f"Newton failed to reach {tol:.1e} at grid index {worst}", index=worst
        )
    return Diffeomorphism(grid, Field(grid, y - x))


def conjugated_derivative(phi: Diffeomorphism, f: Field, k: int) -> Field:
    """Conjugated derivative R_phi d^k R_{phi^{-1}} f without inverting phi.

    k=1 gives f_x/phi_x and k=2 gives f_xx/phi_x^2 - f_x phi_xx/phi_x^3 by
    the chain rule (validated against the literal invert/compose pipeline).
    """
    if k not in (1, 2):
        raise ValueError(f"conjugated derivative order must be 1 or 2, got {k}")
    if f.grid != phi.grid:
        raise GridError("field and diffeomorphism live on different grids")
    phi_x = phi.phi_x
    f_x = derivative(f, 1).values
    if k == 1:
        return Field(f.grid, f_x / phi_x)
    f_xx = derivative(f, 2).values
    phi_xx = derivative(phi.displacement, 2).values
    return Field(f.grid, f_xx / phi_x**2 - f_x * phi_xx / phi_x**3)
