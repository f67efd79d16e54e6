"""Fourier-multiplier operators and dealiased nonlinearities.

All derivative symbols zero the Nyquist mode so that derivatives of real
fields stay real.  Per axis, a product keeps the band |m| <= R =
min(S, n/2 - 1), S being the sum of its factors' supports (largest |m| of a
nonzero coefficient, n/2 for a nonzero Nyquist mode), alias-free on N >=
S + R + 1 points rounded up to an even 2,3,5-smooth size in [2, 3n/2] (two
factors) or [2, 2n] (three), the upper ends rounded up to even: an x2-free
factor's product takes 2 columns.  Each factor's Nyquist row and column is
split evenly between -n/2 and +n/2; the product is exactly zero beyond R.

`product_plan` is the one place that turns the factors' supports into that
fine grid and band, and `_dealiased_product` the one entry that plans, pads
and multiplies: it returns the product's half spectrum, which the field
operators wrap and the descent's gradient and line (energy.py) use as an
array.  A factor's samples kept on the fine grid are read in place of its
inverse transform.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BandLimitExceeded
from .fields import (GridSpec, TorusField, _band, _freeze, _made, derived, kept,
                     k1zero_residual, project_vanishing_x1_mean, relative_mass,
                     require_admissible)

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
    return _made(f.grid, f.spectrum * _derivative_symbol(f.grid, 1))


def d2(f: TorusField) -> TorusField:
    """Spectral x2-derivative (symbol i*k2, Nyquist zeroed)."""
    return _made(f.grid, f.spectrum * _derivative_symbol(f.grid, 2))


def inv_abs_d1(f: TorusField) -> TorusField:
    """|d1|^-1: divide by |k1|, defined only on vanishing-x1-mean input."""
    require_admissible(f)
    return _made(f.grid, f.spectrum * _abs_d1_symbol(f.grid, -1.0))


def frac_abs_d1(f: TorusField, s: float) -> TorusField:
    """|d1|^s for s in (0, 1]: multiply by |k1|^s on the admissible subspace."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    require_admissible(f)
    return _made(f.grid, f.spectrum * _abs_d1_symbol(f.grid, s))


def shift_symbol(grid: GridSpec, h: float, axis: int) -> np.ndarray:
    """Fourier symbol of the translation by h along x_axis: exp(i k h), with
    cos(k h) at the Nyquist mode.  That keeps real fields real and makes the
    shift by 0 the identity exactly."""
    k = grid.k1() if axis == 1 else grid.k2()
    return np.cos(k * h) + 1j * np.where(_nyquist(grid, axis), 0.0, np.sin(k * h))


def _shift(f: TorusField, h: float, axis: int) -> TorusField:
    return _made(f.grid, f.spectrum * shift_symbol(f.grid, h, axis))


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


def require_band_headroom(f: TorusField) -> None:
    res = band_headroom_residual(f)
    if res > HEADROOM_TOL:
        raise BandLimitExceeded(
            f"outer-band spectral mass {res:.3e} exceeds {HEADROOM_TOL:.1e}; "
            "grid too coarse for alias-controlled products")


def _fine_size(n: int, full: int) -> int:
    """The smallest even 2,3,5-smooth integer >= n (an even m < 2**64 is one
    iff it divides 30**64), at most `full` rounded up to even."""
    n += n % 2
    while 30 ** 64 % n and n < full:
        n += 2
    return n


@derived
def support(f: TorusField) -> tuple[int, int]:
    """Per axis, the largest |m| of f's nonzero coefficients (n/2 for a
    nonzero Nyquist mode, 0 for none): what a product's plan is built from;
    built once per field instance."""
    held = f.spectrum.view(float) != 0  # real and imaginary parts side by side
    rows = held.any(axis=1).nonzero()[0]  # row index = m1
    columns = held.any(axis=0)
    columns = columns[::2] | columns[1::2]
    return (int(rows[-1]) if rows.size else 0,
            int(np.maximum.reduce(np.abs(f.grid.modes2()[0]), where=columns, initial=0)))


@functools.lru_cache(maxsize=None)
def product_plan(grid: GridSpec, supports: tuple[tuple[int, int], ...]
                 ) -> tuple[GridSpec, tuple[int, int]]:
    """The fine grid and the kept band (R1, R2) of a product on `grid` of
    factors with these supports (s1, s2); built once per key."""
    total = [sum(axis) for axis in zip(*supports)]
    band = tuple(min(s, n // 2 - 1) for s, n in zip(total, grid.shape))
    return GridSpec(*(_fine_size(s + r + 1, (len(supports) + 1) * n // 2)
                      for s, r, n in zip(total, band, grid.shape))), band


def padded_samples(spec: np.ndarray, s: tuple[int, int], fine: GridSpec) -> np.ndarray:
    """The samples on the finer grid `fine` of the field whose half spectrum
    is spec and whose support is s: one inverse real transform of spec
    padded.  Each Nyquist row or column of spec is split evenly between -n/2
    and +n/2 on a finer axis (the row reduced to its Hermitian part, as the
    inverse transform reads it) and dropped on an axis no finer."""
    s1, s2 = s
    h1, h2 = spec.shape[0] - 1, spec.shape[1] // 2
    out = _band(spec, fine.spectrum_shape, min(s1, fine.n1 // 2 - 1), min(s2, fine.n2 // 2 - 1))
    if s2 == h2 and fine.n2 > 2 * h2:
        out[:h1 + 1, [h2, -h2]] *= 0.5
    if s1 == h1 and fine.n1 > 2 * h1:
        row = out[h1]
        out[h1] = 0.25 * (row + np.conj(np.roll(row[::-1], 1)))  # row(m2) + conj row(-m2)
    samples = np.fft.irfftn(out, s=(fine.n2, fine.n1), axes=(1, 0))
    samples *= fine.npoints
    return samples


def samples_on(f: TorusField, fine: GridSpec) -> np.ndarray:
    """f's samples on the finer grid `fine`: the ones kept on f for that grid
    (see fields.keep), else padded_samples of its spectrum."""
    samples = kept(f, fine)
    return padded_samples(f.spectrum, support(f), fine) if samples is None else samples


def _padded_product(grid: GridSpec, samples: list[np.ndarray], band: tuple[int, int]
                    ) -> np.ndarray:
    """The half spectrum on `grid`, cut to |m| <= band, of the product of the
    factors whose samples on one fine grid are `samples`: one forward real
    transform."""
    prod = functools.reduce(np.multiply, samples)
    # s spelled out: numpy then takes it as given instead of deriving it
    spec = _band(np.fft.rfftn(prod, s=prod.shape[::-1], axes=(1, 0)), grid.spectrum_shape, *band)
    spec /= prod.size
    return spec


def _dealiased_product(fields: list[TorusField], fine: GridSpec | None = None) -> np.ndarray:
    """The half spectrum of the factors' product, cut to |m| <= R: on the
    fine grid of their plan, or on `fine`, a grid at least as fine.  One
    inverse real transform per distinct factor without samples kept on that
    grid, one forward transform."""
    grid = fields[0].grid
    plan, band = product_plan(grid, tuple(support(f) for f in fields))
    # fields hash by identity: each distinct factor is transformed once
    physical = {f: samples_on(f, fine or plan) for f in dict.fromkeys(fields)}
    return _padded_product(grid, [physical[f] for f in fields], band)


def multiply_dealiased(f: TorusField, g: TorusField) -> TorusField:
    """Alias-free f * g on the band |m| <= R, for any input."""
    return _made(f.grid, _dealiased_product([f, g]))


def square_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^2 on the band |m| <= R."""
    require_band_headroom(f)
    return _made(f.grid, _dealiased_product([f, f]))


def cube_dealiased(f: TorusField) -> TorusField:
    """Alias-free f^3 on the band |m| <= R."""
    require_band_headroom(f)
    return _made(f.grid, _dealiased_product([f, f, f]))


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
