"""Periodic grid, real-FFT spectral kernel, and fractional Sobolev norms.

Everything lives on a uniform grid over the cell [-L, L) with N a power of
two.  Fields are real, so the kernel works on the half spectrum k = 0..N/2
(numpy's rfft/irfft) with wavenumbers xi_k = pi*k/L; the grid carries the
multipliers of the derivative D (every order a power of D), the Helmholtz
inverse and the 2/3 dealiasing mask on that half spectrum.  Norms are
normalized so that the s = 0 Sobolev norm coincides with the rectangle-rule
L^2 norm of the samples, sqrt(h * sum(values**2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, GridError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with N points, N a power of two.

    Construction also fixes the sample points x and the half-spectrum
    symbols (modes k = 0..N/2) that the array kernel below uses:
      xi         wavenumbers pi*k/L
      d1         D = d/dx: i xi, with the unpaired Nyquist mode zeroed
      helmholtz  1/(1 + xi^2), the flat preconditioner and flux multiplier; its
                 Nyquist entry reaches no result (times d1, a zero mode, or in CG)
      keep       1.0 on the dealiased band |k| <= N//3, else 0.0
      weights    L^2 weights of |c_k|^2 (modes 0 < k < N/2 count twice)
    The dealiased product of two truncated fields, keep * rfft(a * b), is
    tests/helpers.dealiased_product; the solvers square truncated fields.
    """

    half_length: float
    n_points: int

    def __post_init__(self):
        L, N = self.half_length, self.n_points
        if not (np.isfinite(L) and L > 0):
            raise GridError(f"half_length must be positive and finite, got {L}")
        if N < 16 or (N & (N - 1)) != 0:
            raise GridError(f"n_points must be a power of two >= 16, got {N}")
        h = 2.0 * L / N
        k = np.arange(N // 2 + 1)
        xi = (np.pi / L) * k
        d1 = 1j * xi
        d1[-1] = 0.0
        weights = np.full(k.shape, 2.0 * h / N)
        weights[[0, -1]] = h / N
        for name, value in (
            ("x", -L + h * np.arange(N)),
            ("xi", xi),
            ("d1", d1),
            ("helmholtz", 1.0 / (1.0 + xi**2)),
            ("keep", (k <= N // 3).astype(float)),
            ("weights", weights),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum (modes k = 0..N/2) of real samples."""
        return np.fft.rfft(values)

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        """Real samples whose half spectrum is spec."""
        return np.fft.irfft(spec, self.n_points)

    def truncated(self, spec: np.ndarray) -> np.ndarray:
        """Samples of the field with half spectrum spec, cut to |k| <= N//3."""
        return self.irfft(self.keep * spec)

    def norm(self, spec: np.ndarray, s: float = 0.0) -> float:
        """H^s norm sqrt(sum (1+xi^2)^s |c_k|^2) of the field with half spectrum spec."""
        weights = self.weights if s == 0 else self.weights * (1.0 + self.xi**2) ** s
        return float(np.sqrt(np.sum(weights * np.abs(spec) ** 2)))


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid on [-L, L); rejects bad L or non-power-of-two N."""
    return Grid(float(L), int(N))


@dataclass(eq=False)
class Field:
    """Real-valued samples of a function at the grid points."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_points,):
            raise FieldError(
                f"expected {self.grid.n_points} samples, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise FieldError("field values must be finite")
        v = v.copy()
        v.flags.writeable = False
        self.values = v

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_points))

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def derivative(f: Field, k: int) -> Field:
    """Spectral derivative D^k of order k in {1, 2, 3}.

    Every order zeroes the unpaired Nyquist mode (the standard convention
    for even N), so derivative(f, 2) is D(D f) up to rounding.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")
    g = f.grid
    return Field(g, g.irfft(g.d1**k * g.rfft(f.values)))


def hs_norm(f: Field, s: float) -> float:
    """Sobolev H^s norm: sqrt(sum (1+xi^2)^s |c_k|^2); s = 0 is the L^2 norm."""
    return f.grid.norm(f.grid.rfft(f.values), s)
