"""Compression/bending energy of periodic fields and its L^2 gradient.

For an admissible field w the energy at layer-scale eps is

    energy_eps = ( compression / eps + eps * bending ) / 2

with compression = || |d1|^-1 (d2 w - d1 w^2/2) ||^2 and bending = ||d1 w||^2.
The eps-independent value sqrt(compression * bending) is the minimum of
energy_eps over eps > 0 (AM-GM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import TorusField, derived, project_vanishing_x1_mean
from .operators import d1, d2, eta_with_residual, inv_abs_d1, multiply_dealiased


@dataclass(frozen=True)
class EnergyReport:
    compression: float
    bending: float
    eps: float
    energy_eps: float
    energy_indep: float
    eta_k1zero_residual: float

    @classmethod
    def weighted(cls, compression: float, bending: float, eps: float,
                 eta_k1zero_residual: float) -> EnergyReport:
        """The report of a field with this compression and bending at eps."""
        if not 0.0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        return cls(
            compression=compression,
            bending=bending,
            eps=eps,
            energy_eps=0.5 * (compression / eps + eps * bending),
            energy_indep=(compression * bending) ** 0.5,
            eta_k1zero_residual=eta_k1zero_residual,
        )

    def at_eps(self, eps: float) -> EnergyReport:
        """The same field's report at another eps: only the weighting of
        compression and bending changes, so no field is evaluated."""
        return self.weighted(self.compression, self.bending, eps,
                             self.eta_k1zero_residual)


@derived
def _energy(w: TorusField) -> EnergyReport:
    """w's report at eps = 1, built once per field instance."""
    e, residual = eta_with_residual(w)
    return EnergyReport.weighted(inv_abs_d1(e).l2() ** 2, d1(w).l2() ** 2, 1.0, residual)


def energy_eps(w: TorusField, eps: float) -> EnergyReport:
    """The eps-energy of w with all diagnostics: w is evaluated once per
    instance (`_energy`); another eps only reweights (`EnergyReport.at_eps`)."""
    return _energy(w).at_eps(eps)


def energy_indep(w: TorusField) -> float:
    """sqrt(compression * bending) = min over eps > 0 of energy_eps."""
    return energy_eps(w, 1.0).energy_indep


def gradient_eps(w: TorusField, eps: float) -> TorusField:
    """L^2 gradient of energy_eps at w, projected onto the admissible subspace.

    Derived from the adjoint of the linearization
    d/dt eta(w + t v)|_0 = d2 v - d1(w v):

        g = (1/eps) * (-d2 G + w * d1 G) - eps * d11 w,   G = |d1|^-2 eta_w.

    Validated against central finite differences of energy_eps (see the test
    suite); do not modify one without the other.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    e, _ = eta_with_residual(w)
    big_g = inv_abs_d1(inv_abs_d1(e))
    compression_part = multiply_dealiased(w, d1(big_g)) - d2(big_g)
    g = (1.0 / eps) * compression_part - eps * d1(d1(w))
    return project_vanishing_x1_mean(g)
