"""Fourier-multiplier operators and dealiased nonlinearities.

All derivative symbols zero the Nyquist mode so that derivatives of real
fields stay real.  Per axis, a product keeps the band |m| <= R =
min(S, n/2 - 1), S being the sum of its factors' supports (largest |m| of a
nonzero coefficient, n/2 for a nonzero Nyquist mode), alias-free on N >=
S + R + 1 points rounded up to an even 2,3,5-smooth size in [8, 3n/2] (two
factors) or [8, 2n] (three).  Each factor's Nyquist row and column is split
evenly between -n/2 and +n/2; the product is exactly zero beyond R.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BandLimitExceeded
from .fields import (GridSpec, TorusField, _band, _freeze, derived,
                     k1zero_residual, project_vanishing_x1_mean,
                     relative_mass, require_admissible)

#: Relative spectral mass allowed in the outer band (|m| > 7/16 * n) before a
#: nonlinear evaluation is refused as under-resolved.
HEADROOM_TOL = 1e-6


def _nyquist(grid: GridSpec, axis: int) -> np.ndarray:
    """Mask of the Nyquist mode |m| = n/2 along x_axis."""
    m, n = (grid.modes1(), grid.n1) if axis == 1 else (grid.modes2(), grid.n2)
    return np.abs(m) == n // 2


@functools.lru_cache(maxsize=None)
def _derivative_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """Read-only symbol i*k of d_axis with the Nyquist mode zeroed."""
    k = grid.k1() if axis == 1 else grid.k2()
    return _freeze(np.where(_nyquist(grid, axis), 0.0, 1j * k))


@functools.lru_cache(maxsize=None)
def _abs_d1_symbol(grid: GridSpec, s: float) -> np.ndarray:
    """Read-only symbol |k1|^s, 0 at k1 = 0."""
    k1 = np.abs(grid.k1())
    return _freeze(np.power(k1, s, out=np.zeros_like(k1), where=k1 != 0.0))


def d1(f: TorusField) -> TorusField:
    """Spectral x1-derivative (symbol i*k1, Nyquist zeroed)."""
    return TorusField.from_spectrum(f.grid, f.spectrum * _derivative_symbol(f.grid, 1))


def d2(f: TorusField) -> TorusField:
    """Spectral x2-derivative (symbol i*k2, Nyquist zeroed)."""
    return TorusField.from_spectrum(f.grid, f.spectrum * _derivative_symbol(f.grid, 2))


def inv_abs_d1(f: TorusField) -> TorusField:
    """|d1|^-1: divide by |k1|, defined only on vanishing-x1-mean input."""
    require_admissible(f)
    return TorusField.from_spectrum(f.grid, f.spectrum * _abs_d1_symbol(f.grid, -1.0))


def frac_abs_d1(f: TorusField, s: float) -> TorusField:
    """|d1|^s for s in (0, 1]: multiply by |k1|^s on the admissible subspace."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    require_admissible(f)
    return TorusField.from_spectrum(f.grid, f.spectrum * _abs_d1_symbol(f.grid, s))


def shift_symbol(grid: GridSpec, h: float, axis: int) -> np.ndarray:
    """Fourier symbol of the translation by h along x_axis: exp(i k h), with
    cos(k h) at the Nyquist mode.  That keeps real fields real and makes the
    shift by 0 the identity exactly."""
    k = grid.k1() if axis == 1 else grid.k2()
    return np.cos(k * h) + 1j * np.where(_nyquist(grid, axis), 0.0, np.sin(k * h))


def _shift(f: TorusField, h: float, axis: int) -> TorusField:
    return TorusField.from_spectrum(f.grid, f.spectrum * shift_symbol(f.grid, h, axis))


def shift1(f: TorusField, h: float) -> TorusField:
    """Translate by h in x1: exact for the trigonometric interpolant at any
    real h, not only grid multiples."""
    return _shift(f, h, axis=1)


def shift2(f: TorusField, h: float) -> TorusField:
    """Translate by h in x2."""
    return _shift(f, h, axis=2)


def diff1(f: TorusField, h: float) -> TorusField:
    """Directional finite difference f(. + h e1) - f."""
    return shift1(f, h) - f


def diff2(f: TorusField, h: float) -> TorusField:
    """Directional finite difference f(. + h e2) - f."""
    return shift2(f, h) - f


@functools.lru_cache(maxsize=None)
def outer_band(grid: GridSpec) -> np.ndarray:
    """Read-only mask of the outer spectral band |m1| > 7 n1/16 or
    |m2| > 7 n2/16, which must stay empty for alias-controlled products;
    built once per grid."""
    return _freeze((np.abs(grid.modes1()) > 7 * grid.n1 / 16) |
                   (np.abs(grid.modes2()) > 7 * grid.n2 / 16))


def band_headroom_residual(f: TorusField) -> float:
    """Relative L^2 mass in the outer band (see outer_band)."""
    return relative_mass(f.spectrum, outer_band(f.grid))


def require_band_headroom(f: TorusField, tol: float = HEADROOM_TOL) -> None:
    res = band_headroom_residual(f)
    if res > tol:
        raise BandLimitExceeded(
            f"outer-band spectral mass {res:.3e} exceeds {tol:.1e}; "
            "grid too coarse for alias-controlled products")


def _fine_size(n: int, full: int) -> int:
    """The smallest even 2,3,5-smooth integer >= max(n, 8) (an even m < 2**64
    is one iff it divides 30**64), at most `full` rounded up to even."""
    n = max(n + n % 2, 8)
    while 30 ** 64 % n and n < full:
        n += 2
    return n


def _padded_half(spec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The half spectrum on `grid` of the field whose half spectrum is
    `spec`, which has no mode |m| >= grid.n/2 but its Nyquist mode: split
    evenly on a finer axis (the Nyquist row reduced to its Hermitian part, as
    the inverse transform reads it), dropped on an axis no finer."""
    h1, h2 = spec.shape[0] - 1, spec.shape[1] // 2
    out = _band(spec, grid.spectrum_shape, min(h1, grid.n1 // 2 - 1), min(h2, grid.n2 // 2 - 1))
    if grid.n2 > 2 * h2:
        out[:h1 + 1, [h2, -h2]] *= 0.5
    if grid.n1 > 2 * h1:
        row = out[h1]
        out[h1] = 0.25 * (row + np.conj(np.roll(row[::-1], 1)))  # row(m2) + conj row(-m2)
    return out


def _padded_product(fields: list[TorusField]) -> TorusField:
    """The factors' product on the grid their supports need, cut to |m| <= R:
    one inverse real transform per distinct factor, one forward transform."""
    grid, distinct = fields[0].grid, {id(f): f for f in fields}
    held = {k: f.spectrum != 0 for k, f in distinct.items()}
    sizes, band = [], []
    for axis, m in enumerate((grid.modes1()[:, 0], np.abs(grid.modes2()[0]))):
        s = sum(int(m[held[id(f)].any(axis=1 - axis)].max(initial=0)) for f in fields)
        band.append(min(s, grid.shape[axis] // 2 - 1))
        sizes.append(_fine_size(s + band[-1] + 1, (len(fields) + 1) * grid.shape[axis] // 2))
    fine = GridSpec(*sizes)
    physical = {k: TorusField.from_spectrum(fine, _padded_half(f.spectrum, fine)).samples
                for k, f in distinct.items()}
    prod = functools.reduce(np.multiply, [physical[id(f)] for f in fields])
    spec = TorusField.from_samples(fine, prod).spectrum
    return TorusField.from_spectrum(grid, _band(spec, grid.spectrum_shape, *band))


def multiply_dealiased(f: TorusField, g: TorusField) -> TorusField:
    """Alias-free f * g on the band |m| <= R, for any input."""
    return _padded_product([f, g])


def square_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^2 on the band |m| <= R."""
    require_band_headroom(f)
    return _padded_product([f, f])


def cube_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^3 on the band |m| <= R."""
    require_band_headroom(f)
    return _padded_product([f, f, f])


def eta(w: TorusField) -> TorusField:
    """Burgers quantity eta_w = d2 w - d1(w^2/2).

    Analytically the result has no k1 = 0 content; roundoff there is removed
    by projection (eta_with_residual also reports its size).
    """
    return eta_with_residual(w)[0]


@derived
def eta_with_residual(w: TorusField) -> tuple[TorusField, float]:
    """eta_w together with the relative k1 = 0 residual before projection,
    built once per field instance."""
    require_admissible(w)
    raw = d2(w) - 0.5 * d1(square_dealiased(w))
    return project_vanishing_x1_mean(raw), k1zero_residual(raw)
