"""Shared exception types."""


class SmecticError(Exception):
    """Base class for all package-specific errors."""


class NonAdmissibleInput(SmecticError):
    """Field has k1 = 0 spectral content above tolerance; |d1|^-1 undefined."""


class BandLimitExceeded(SmecticError):
    """Field occupies the outer spectral band; nonlinear terms untrustworthy."""


class DegenerateEnergy(SmecticError):
    """Estimate ratio requested for a field with zero energy but nonzero LHS."""


class IncompatibleProfile(SmecticError):
    """Jump profile violates the Rankine-Hugoniot compatibility condition."""


class WidthOutOfRange(SmecticError):
    """Mollification width outside the resolvable bracket for this grid."""


class LineSearchFailure(SmecticError):
    """Backtracking line search exhausted its budget without an accepted step;
    `report` is the minimizer's report, with termination "line-search"."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report
