"""smectic: pseudo-spectral laboratory for a 2D periodic smectic energy.

The energy of an admissible field w (periodic, vanishing x1-mean) at layer
scale eps is

    E_eps(w) = ( || |d1|^-1 (d2 w - d1 w^2/2) ||^2 / eps + eps ||d1 w||^2 ) / 2,

with eps-independent value E(w) = sqrt(compression * bending).  The package
provides the field/operator calculus, the energy and its L^2 gradient, a
verification suite for the difference-quotient and L^p estimates the energy
controls, entropy/jump-cost machinery for shock profiles, a mollified
two-shock ansatz with eps-sweeps, a first-order minimizer, and a CLI.
"""

from .energy import EnergyLine, EnergyReport, energy_eps, energy_indep, gradient_eps
from .errors import (BandLimitExceeded, DegenerateEnergy, IncompatibleProfile,
                     LineSearchFailure, NonAdmissibleInput, SmecticError,
                     WidthOutOfRange)
from .fields import (GridSpec, TorusField, as_admissible, inner, load_field,
                     project_vanishing_x1_mean, random_band_limited, regrid,
                     require_admissible, save_field)
from .operators import (cube_dealiased, d1, d2, diff1, diff2, eta,
                        frac_abs_d1, inv_abs_d1, multiply_dealiased, shift1,
                        shift2, square_dealiased)

__all__ = [
    "BandLimitExceeded", "DegenerateEnergy", "EnergyLine", "EnergyReport", "GridSpec",
    "IncompatibleProfile", "LineSearchFailure", "NonAdmissibleInput",
    "SmecticError", "TorusField", "WidthOutOfRange", "as_admissible",
    "cube_dealiased", "d1", "d2", "diff1", "diff2", "energy_eps",
    "energy_indep", "eta", "frac_abs_d1", "gradient_eps", "inner",
    "inv_abs_d1", "load_field", "multiply_dealiased",
    "project_vanishing_x1_mean", "random_band_limited", "regrid",
    "require_admissible", "save_field", "shift1", "shift2", "square_dealiased",
]

__version__ = "0.1.0"
