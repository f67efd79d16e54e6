"""Fourier-multiplier operators and dealiased nonlinearities.

All derivative symbols zero the Nyquist mode so that derivatives of real
fields stay real.  Products are evaluated on zero-padded grids (3/2 rule for
quadratic, factor 2 for cubic terms), which leaves every retained mode
|m| < n/2 alias-free regardless of the input band.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BandLimitExceeded
from .fields import (AdmissibleField, GridSpec, TorusField,
                     k1zero_residual, negated_modes, project_vanishing_x1_mean,
                     require_admissible)

#: Relative spectral mass allowed in the outer band (|m| > 7/16 * n) before a
#: nonlinear evaluation is refused as under-resolved.
HEADROOM_TOL = 1e-6


def _nyquist_mask1(grid: GridSpec) -> np.ndarray:
    return grid.modes1() == -grid.n1 // 2


def _nyquist_mask2(grid: GridSpec) -> np.ndarray:
    return grid.modes2() == -grid.n2 // 2


def d1(f: TorusField) -> TorusField:
    """Spectral x1-derivative (symbol i*k1, Nyquist zeroed)."""
    sym = 1j * f.grid.k1()
    sym = np.where(_nyquist_mask1(f.grid), 0.0, sym)
    return type(f).from_spectrum(f.grid, f.spectrum * sym)


def d2(f: TorusField) -> TorusField:
    """Spectral x2-derivative (symbol i*k2, Nyquist zeroed)."""
    sym = 1j * f.grid.k2()
    sym = np.where(_nyquist_mask2(f.grid), 0.0, sym)
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
    if axis == 1:
        k, nyq = grid.k1(), _nyquist_mask1(grid)
    else:
        k, nyq = grid.k2(), _nyquist_mask2(grid)
    return np.cos(k * h) + 1j * np.where(nyq, 0.0, np.sin(k * h))


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
    norm = f.l2()
    if norm == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(f.spectrum[outer_band(f.grid)]) ** 2)) / norm)


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


def _hermitian_half(spec: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Columns 0..S2/2 of the Hermitian part (P(m) + conj P(-m))/2 of the
    zero-padded spectrum P = _embed_band(spec, shape), built from spec alone.

    irfft2 of this half equals real(ifft2(P)) for any spec.  On the padded
    grid the source Nyquist row and column lose their conjugate partners, so
    their mass is split between -n/2 and +n/2."""
    n1, n2 = spec.shape
    h1, h2 = n1 // 2, n2 // 2
    mirror = np.conj(negated_modes(spec))
    out = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    out[:h1, :h2] = spec[:h1, :h2]
    out[-h1:, :h2] = spec[-h1:, :h2]
    # mirror row/column h (n-grid index of mode -n/2) lands on mode +n/2
    out[:h1 + 1, :h2 + 1] += mirror[:h1 + 1, :h2 + 1]
    out[-(h1 - 1):, :h2 + 1] += mirror[h1 + 1:, :h2 + 1]
    out *= 0.5
    return out


def _padded_product(fields: list[TorusField], factor: float) -> TorusField:
    """Product of the factors on a zero-padded grid, truncated back, in real
    transforms: one irfft2 per distinct factor, one rfft2 for the product."""
    grid = fields[0].grid
    shape = (_even(int(np.ceil(factor * grid.n1))), _even(int(np.ceil(factor * grid.n2))))
    scale = shape[0] * shape[1]
    physical: dict[int, np.ndarray] = {}
    prod = np.ones(shape)
    for f in fields:
        if id(f) not in physical:
            physical[id(f)] = np.fft.irfft2(_hermitian_half(f.spectrum, shape), s=shape) * scale
        prod = prod * physical[id(f)]
    half = np.fft.rfft2(prod) / scale  # modes m2 = 0..S2/2
    h2 = grid.n2 // 2
    m1 = grid.modes1()[:, 0]
    spec = np.empty(grid.shape, dtype=complex)
    spec[:, :h2] = half[m1 % shape[0], :h2]
    # m2 = -h2..-1 from the conjugate symmetry of a real product
    spec[:, h2:] = np.conj(half[-m1 % shape[0], h2:0:-1])
    return TorusField.from_spectrum(grid, spec)


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
