"""Exception types shared across the package."""


class BFamilyError(Exception):
    """Base class for all package-specific failures."""


class GridError(BFamilyError, ValueError):
    """Invalid grid construction or mixing fields from different grids."""


class FieldError(BFamilyError, ValueError):
    """Invalid field data (non-finite values, wrong shape)."""


class PositivityError(BFamilyError):
    """A flow map lost the phi_x > 0 invariant."""


class InversionError(BFamilyError):
    """Monotone inversion failed: samples not increasing, Newton unconverged,
    or the inverse not resolved on the grid."""


class SolverError(BFamilyError):
    """Time integration aborted (NaN state, unconverged solve) at the time its message quotes."""


class ExpDomainError(BFamilyError):
    """Initial velocity outside the numerical domain of the exponential map."""


class UnderResolvedError(BFamilyError, ValueError):
    """Requested bump support is too small for the grid spacing."""


class ConfigError(BFamilyError, ValueError):
    """Run configuration failed to parse or validate."""
