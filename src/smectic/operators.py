"""Fourier-multiplier operators and dealiased nonlinearities.

All derivative symbols zero the Nyquist mode so that derivatives of real
fields stay real.  Products are evaluated on zero-padded grids (3/2 rule for
quadratic, factor 2 for cubic terms), each factor with its Nyquist row and
column split evenly between -n/2 and +n/2.  The product is truncated back by
`regrid`'s rule: it keeps the modes |m| < n/2, alias-free regardless of the
input band, and its Nyquist row and column are zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BandLimitExceeded
from .fields import (AdmissibleField, GridSpec, TorusField,
                     k1zero_residual, project_vanishing_x1_mean, regrid,
                     relative_mass, require_admissible)

#: Relative spectral mass allowed in the outer band (|m| > 7/16 * n) before a
#: nonlinear evaluation is refused as under-resolved.
HEADROOM_TOL = 1e-6


def _nyquist(grid: GridSpec, axis: int) -> np.ndarray:
    """Mask of the Nyquist mode |m| = n/2 along x_axis."""
    m, n = (grid.modes1(), grid.n1) if axis == 1 else (grid.modes2(), grid.n2)
    return np.abs(m) == n // 2


def d1(f: TorusField) -> TorusField:
    """Spectral x1-derivative (symbol i*k1, Nyquist zeroed)."""
    sym = np.where(_nyquist(f.grid, 1), 0.0, 1j * f.grid.k1())
    return type(f).from_spectrum(f.grid, f.spectrum * sym)


def d2(f: TorusField) -> TorusField:
    """Spectral x2-derivative (symbol i*k2, Nyquist zeroed)."""
    sym = np.where(_nyquist(f.grid, 2), 0.0, 1j * f.grid.k2())
    return TorusField.from_spectrum(f.grid, f.spectrum * sym)


def inv_abs_d1(f: TorusField) -> AdmissibleField:
    """|d1|^-1: divide by |k1|, defined only on vanishing-x1-mean input."""
    require_admissible(f)
    k1 = f.grid.k1()
    with np.errstate(divide="ignore"):
        sym = np.where(k1 == 0.0, 0.0, 1.0 / np.abs(k1))
    return AdmissibleField.from_spectrum(f.grid, f.spectrum * sym)


def frac_abs_d1(f: TorusField, s: float) -> AdmissibleField:
    """|d1|^s for s in (0, 1]: multiply by |k1|^s on the admissible subspace."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    require_admissible(f)
    k1 = f.grid.k1()
    sym = np.where(k1 == 0.0, 0.0, np.abs(k1) ** s)
    return AdmissibleField.from_spectrum(f.grid, f.spectrum * sym)


def shift_symbol(grid: GridSpec, h: float, axis: int) -> np.ndarray:
    """Fourier symbol of the translation by h along x_axis: exp(i k h), with
    cos(k h) at the Nyquist mode.  That keeps real fields real and makes the
    shift by 0 the identity exactly."""
    k = grid.k1() if axis == 1 else grid.k2()
    return np.cos(k * h) + 1j * np.where(_nyquist(grid, axis), 0.0, np.sin(k * h))


def _shift(f: TorusField, h: float, axis: int) -> TorusField:
    return type(f).from_spectrum(f.grid, f.spectrum * shift_symbol(f.grid, h, axis))


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
    mask = (np.abs(grid.modes1()) > 7 * grid.n1 / 16) | \
           (np.abs(grid.modes2()) > 7 * grid.n2 / 16)
    mask.flags.writeable = False
    return mask


def band_headroom_residual(f: TorusField) -> float:
    """Relative L^2 mass in the outer band (see outer_band)."""
    return relative_mass(f.spectrum, outer_band(f.grid))


def require_band_headroom(f: TorusField, tol: float = HEADROOM_TOL) -> None:
    if not f.spectrum[outer_band(f.grid)].any():
        return  # an empty outer band: residual 0 (or NaN), never above tol
    res = band_headroom_residual(f)
    if res > tol:
        raise BandLimitExceeded(
            f"outer-band spectral mass {res:.3e} exceeds {tol:.1e}; "
            "grid too coarse for alias-controlled products")


def _even(n: int) -> int:
    return n + (n % 2)


def _padded_half(spec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The half spectrum on the finer `grid` of the field whose half spectrum
    is `spec`: the Nyquist column split evenly between m2 = -n2/2 and +n2/2,
    and the Nyquist row, an interior row on the finer grid, reduced to its
    Hermitian part (as the coarse inverse transform reads it) and halved
    between m1 = +n1/2 and its implied partner -n1/2."""
    h1, h2 = spec.shape[0] - 1, spec.shape[1] // 2
    out = np.zeros(grid.spectrum_shape, dtype=complex)
    out[:h1 + 1, :h2 + 1] = spec[:, :h2 + 1]
    out[:h1 + 1, -h2:] = spec[:, h2:]
    out[:h1 + 1, [h2, -h2]] *= 0.5
    row = out[h1]
    out[h1] = 0.25 * (row + np.conj(np.roll(row[::-1], 1)))  # row(m2) + conj row(-m2)
    return out


def _padded_product(fields: list[TorusField], factor: float) -> TorusField:
    """Product of the factors on a zero-padded grid, truncated back by
    `regrid`: one inverse real transform per distinct factor, one forward
    transform for the product."""
    grid = fields[0].grid
    fine = GridSpec(_even(int(np.ceil(factor * grid.n1))), _even(int(np.ceil(factor * grid.n2))))
    physical: dict[int, np.ndarray] = {}
    prod = np.ones(fine.shape)
    for f in fields:
        if id(f) not in physical:
            physical[id(f)] = TorusField.from_spectrum(fine, _padded_half(f.spectrum, fine)).samples
        prod = prod * physical[id(f)]
    return regrid(TorusField.from_samples(fine, prod), grid)


def multiply_dealiased(f: TorusField, g: TorusField) -> TorusField:
    """Pointwise product on a 3/2 zero-padded grid, truncated back; the
    retained band is alias-free for any input."""
    return _padded_product([f, g], 1.5)


def square_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^2 (3/2-rule zero padding)."""
    require_band_headroom(f)
    return _padded_product([f, f], 1.5)


def cube_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^3 (factor-2 zero padding)."""
    require_band_headroom(f)
    return _padded_product([f, f, f], 2.0)


def eta(w: AdmissibleField) -> AdmissibleField:
    """Burgers quantity eta_w = d2 w - d1(w^2/2).

    Analytically the result has no k1 = 0 content; roundoff there is removed
    by projection (eta_with_residual also reports its size).
    """
    return eta_with_residual(w)[0]


def eta_with_residual(w: AdmissibleField) -> tuple[AdmissibleField, float]:
    """eta_w together with the relative k1 = 0 residual before projection.

    Computed once per field instance: a successful evaluation is stored on w
    (fields are immutable), so a failing one raises again on every call.
    """
    if w._eta is None:
        require_admissible(w)
        raw = d2(w) - 0.5 * d1(square_dealiased(w))
        object.__setattr__(w, "_eta", (project_vanishing_x1_mean(raw), k1zero_residual(raw)))
    return w._eta
