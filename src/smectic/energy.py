"""Compression/bending energy of periodic fields and its L^2 gradient.

For an admissible field w the energy at layer-scale eps is

    energy_eps = ( compression / eps + eps * bending ) / 2

with compression = || |d1|^-1 (d2 w - d1 w^2/2) ||^2 and bending = ||d1 w||^2.
The eps-independent value sqrt(compression * bending) is the minimum of
energy_eps over eps > 0 (AM-GM).  eta is quadratic in w, so along a line
w - a d the energy is a quartic in a, read off with no transform
(`EnergyLine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonAdmissibleInput
from .fields import (TorusField, _freeze, _made, derived, keep, kept, k1zero_residual,
                     spectral_inner)
from .operators import (_abs_d1_symbol, _dealiased_product, _derivative_symbol, d1,
                        eta_with_residual, inv_abs_d1, product_plan, require_band_headroom,
                        samples_on, support)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


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
        _check_eps(eps)
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
    suite); do not modify one without the other.  Evaluated on half spectra,
    in the order of the field operators (d1, d2, inv_abs_d1,
    multiply_dealiased, project_vanishing_x1_mean) and to their bits: the
    product w * d1 G is operators._dealiased_product's on its plan's grid,
    where w's kept samples are read in place of a transform.  w is checked
    where it enters, by eta_with_residual, and nowhere else.
    """
    _check_eps(eps)
    grid = w.grid
    s1, s2 = _derivative_symbol(grid, 1), _derivative_symbol(grid, 2)
    inv = _abs_d1_symbol(grid, -1.0)
    big_g = eta_with_residual(w)[0].spectrum * inv * inv
    # in place, each step the field operators' own: (1/eps) (w d1 G - d2 G) - eps d1 d1 w
    # (no temporaries; plain expressions give the same bits, 256^2 timings in CHANGES.md)
    g = _dealiased_product([w, _made(grid, big_g * s1)])
    g -= big_g * s2
    g *= 1.0 / eps
    bending = w.spectrum * s1
    bending *= s1
    bending *= eps
    g -= bending
    g[0] = 0.0  # as project_vanishing_x1_mean zeroes it
    return _made(grid, g)


class EnergyLine:
    """energy_eps(w - a d, eps) at every step a, with no transform.

    eta is quadratic in the field, so along the line

        eta(a) = eta_w + a (d1(w d) - d2 d) - (a^2 / 2) d1(d^2)

    and the energy is a quartic in a.  Each dealiased product is the exact
    product cut to one band (see operators), so the identity holds for them
    too, up to roundoff.  The line is built from w's kept eta and two
    products, w d and d^2, on half spectra in the order of the field
    operators; after that, the energy at a is two norms of spectra quadratic
    in a, and a point's eta a sum of three spectra.

    Both products come from operators._dealiased_product on `fine`, the
    grid that product_plan gives the product w * d1 G which gradient_eps
    makes at a point of the line.  The line keeps w's and d's samples there,
    so the products read them, and `point` keeps the point's on the point,
    so that gradient reads them in place of a transform (and a line from the
    point reads them for its w).  w and d must hold exactly zero k1 = 0
    rows, as the minimizer's iterates and directions do.
    """

    def __init__(self, w: TorusField, d: TorusField, eps: float):
        _check_eps(eps)
        if w.spectrum[0].any() or d.spectrum[0].any():
            raise NonAdmissibleInput("a line needs w and d with exactly zero k1 = 0 rows")
        require_band_headroom(d)
        self.w, self.d, self.eps = w, d, eps
        grid = w.grid
        # a point's support is generically the larger of w's and d's: the line
        # runs on the grid of the point's product with d1 G, whose support is
        # the band of the point's square
        s = tuple(max(a, b) for a, b in zip(support(w), support(d)))
        self.fine = product_plan(grid, (s, product_plan(grid, (s, s))[1]))[0]
        for f in (w, d):
            keep(f, self.fine, _freeze(samples_on(f, self.fine)))
        s1, s2 = _derivative_symbol(grid, 1), _derivative_symbol(grid, 2)
        # eta(a) = e0 + a (e1 + a e2), as half spectra: e1 = d1(w d) - d2 d and
        # e2 = -d1(d^2) / 2, in place
        e1 = _dealiased_product([w, d], self.fine)
        e1 *= s1
        e1 -= d.spectrum * s2
        e2 = _dealiased_product([d, d], self.fine)
        e2 *= s1
        e2 *= -0.5
        self._etas = (eta_with_residual(w)[0].spectrum, e1, e2)
        # the spectra of |d1|^-1 eta(a) and d1(w - a d) are quadratic in a
        self._compression = [e * _abs_d1_symbol(grid, -1.0) for e in self._etas]
        self._bending = [w.spectrum * s1, d.spectrum * s1]

    def energy(self, a: float) -> float:
        """energy_eps(w - a d): the squared norms of the spectra of
        |d1|^-1 eta(a) and d1(w - a d), weighted as energy_eps weights them."""
        c0, c1, c2 = self._compression
        b0, b1 = self._bending
        q = a * c2  # q = c0 + a (c1 + a c2) and b = b0 - a b1, in place
        # (no temporaries; plain expressions give the same bits, 256^2 timings in CHANGES.md)
        q += c1
        q *= a
        q += c0
        b = a * b1
        np.subtract(b0, b, out=b)
        return 0.5 * (spectral_inner(q, q) / self.eps + self.eps * spectral_inner(b, b))

    def point(self, a: float) -> TorusField:
        """The field w - a d, with its eta (and k1 = 0 residual) and its
        samples on `fine` kept: its energy needs no transform, and its
        gradient only the inverse transform of d1 G and the forward one of
        the product."""
        e0, e1, e2 = self._etas
        p = _made(self.w.grid, self.w.spectrum - a * self.d.spectrum)
        eta = a * e2  # e0 + a (e1 + a e2), in place
        # (no temporaries; plain expressions give the same bits, 256^2 timings in CHANGES.md)
        eta += e1
        eta *= a
        eta += e0
        e = _made(p.grid, eta)
        keep(p, eta_with_residual.key, (e, k1zero_residual(e)))
        samples = a * kept(self.d, self.fine)
        np.subtract(kept(self.w, self.fine), samples, out=samples)
        keep(p, self.fine, _freeze(samples))
        return p
