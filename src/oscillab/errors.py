"""Exception types shared across the package."""


class OscillabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(OscillabError):
    """A parameter value is outside its admissible range."""


class InvalidFieldError(OscillabError):
    """A field contains non-finite samples."""


class ShapeError(OscillabError):
    """Array sizes are inconsistent with the requested operation."""


class BlowUpError(OscillabError):
    """Time integration produced non-finite values, in the listed rows of a
    stacked state (row 0 of a single field)."""

    def __init__(self, step, rows=(0,), message=None):
        self.step, self.rows = step, list(rows)
        super().__init__(message or f"non-finite state after step {step}")


class ExistenceError(OscillabError):
    """A closed-form solution does not exist; names the failed inequality."""

    def __init__(self, inequality):
        self.inequality = inequality
        super().__init__(f"existence condition violated: {inequality}")


class SingularReductionError(OscillabError):
    """An amplitude reduction is singular for these parameters."""


class DegenerateReductionError(OscillabError):
    """The solvability inner product is too small to divide by."""


class CriticalForcingNotFoundError(OscillabError):
    """No subharmonic instability threshold was found in the scanned range."""

    def __init__(self, f_lo, f_hi, message=None):
        self.f_lo = f_lo
        self.f_hi = f_hi
        super().__init__(
            message or f"no critical forcing found for F in [{f_lo:g}, {f_hi:g}]"
        )


class DivergenceError(OscillabError):
    """Newton iteration failed to converge; carries the last residual norm."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"Newton diverged, last residual {residual:.3e}")


class StalledBranchError(OscillabError):
    """Continuation stalled; carries the partial branch computed so far."""

    def __init__(self, branch, message=None):
        self.branch = branch
        super().__init__(message or "continuation step size underflow")


class ConfigError(OscillabError):
    """A run configuration file or override is invalid."""
