"""Numerical checks for the difference-quotient estimates controlled by the energy.

Each check produces VerificationRecords: for exact identities the residual is
compared against a hard tolerance, for one-sided estimates with unspecified
universal constants the measured ratio is recorded and judged for finiteness
and refinement stability by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEnergy
from .energy import energy_eps, energy_indep, gradient_eps
from .fields import (TorusField, _freeze, _scaled_squares, as_admissible, derived, inner,
                     mode_masses)
from .operators import _derivative_symbol, d1, eta, shift1, shift_symbol


#: the h values of every difference-quotient check, in place of the sup over h in (0, 1]
DEFAULT_HGRID = tuple(2.0 ** -j for j in range(1, 13))


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    lhs: float
    rhs: float
    ratio_or_residual: float
    params: dict = field(default_factory=dict)
    passed: bool = True
    tolerance: float = 0.0

    @classmethod
    def checked(cls, name: str, lhs: float, rhs: float, residual: float,
                tol: float, params: dict) -> "VerificationRecord":
        """Record of an identity or a check: it passes iff residual <= tol."""
        return cls(name=name, lhs=lhs, rhs=rhs, ratio_or_residual=residual,
                   params=params, passed=bool(residual <= tol), tolerance=tol)


def _mean(samples: np.ndarray) -> float:
    return float(np.mean(samples))


def parseval(w: TorusField, params: dict) -> VerificationRecord:
    """Spectral against grid L2 norm, both from scaled squares (squares that
    underflow hide no difference), at relative tolerance 1e-12."""
    sq, e = _scaled_squares(w.samples)
    spec_norm, grid_norm = w.l2(), float(np.ldexp(np.sqrt(np.mean(sq)), e))
    res = abs(spec_norm - grid_norm) / grid_norm if grid_norm else float(spec_norm > 0.0)
    return VerificationRecord.checked("parseval", spec_norm, grid_norm, res, 1e-12, params)


def adjointness(f: TorusField, g: TorusField, params: dict) -> VerificationRecord:
    """<d1 f, g> = -<f, d1 g>, at relative tolerance 1e-12."""
    lhs, rhs = inner(d1(f), g), -inner(f, d1(g))
    res = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return VerificationRecord.checked("adjointness", lhs, rhs, res, 1e-12, params)


def shift_group_law(w: TorusField, params: dict) -> VerificationRecord:
    """shift1 by 0.3 then 0.45 against shift1 by 0.75, relative L2 residual
    at tolerance 1e-12 (0.0 when the difference is exactly zero, as for
    the zero field)."""
    diff = (shift1(shift1(w, 0.3), 0.45) - shift1(w, 0.75)).l2()
    res = diff / w.l2() if diff else 0.0
    return VerificationRecord.checked("shift_group_law", res, 0.0, res, 1e-12, params)


def hkm2_residual(w: TorusField, h: float) -> VerificationRecord:
    """x2-integrated cubic balance law: exact identity for smooth fields.

    -(1/6) d/dh int (diff1 w)^3 = int diff1(eta_w) * diff1(w), with the
    h-derivative evaluated exactly via d/dh diff1(w, h) = (d1 w)(. + h e1).
    Every term is an x1 translate (`_x1_translate`): at a whole-cell h the
    differences read the samples of w and eta_w; any other term, d1 w's at
    any h, is one x1 transform of w's or eta_w's kept x1-coefficients.
    """
    dw = _x1_translate(w, h)
    # the shifted derivative dies with the lhs, before the rhs allocates (a lower peak)
    lhs = -0.5 * _mean(dw ** 2 * _x1_translate(w, h, minus=False, derivative=True))
    rhs = _mean(_x1_translate(eta(w), h) * dw)
    return VerificationRecord.checked("hkm2_integrated", lhs, rhs, abs(lhs - rhs),
                                      1e-8 * (1.0 + w.l2() ** 3), {"h": h})


def hkm1_balance(w: TorusField, h: float) -> VerificationRecord:
    """Absolute-value cubic balance law, h-derivative by central differences.

    d/dh int |diff1 w|^3 = -6 int diff1(eta_w) * |diff1 w|; the |.| term
    breaks analyticity in h, so the derivative uses step h/100 and the check
    is at relative tolerance 1e-4.  All differences come from `_x1_translate`;
    those at h +- dh fall between cells on power-of-two grids: x1 transforms
    of w's kept x1-coefficients.
    """
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    dh = h / 100.0
    plus, minus = (_mean_abs_cubed(_x1_translate(w, hh)) for hh in (h + dh, h - dh))
    lhs = (plus - minus) / (2.0 * dh)
    v = _x1_translate(w, h)
    rhs = -6.0 * _mean(_x1_translate(eta(w), h) * np.abs(v, out=v))
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return VerificationRecord.checked("hkm1_balance", lhs, rhs, residual, 1e-4,
                                      {"h": h, "dh": dh})


def _ratio_record(name: str, lhs: float, rhs: float, e_val: float,
                  params: dict) -> VerificationRecord:
    """Record of an estimate lhs <= C * rhs with an unknown constant C: the
    measured ratio, judged for finiteness.  At zero energy e_val the record
    is degenerate (ratio 0) if lhs vanishes too, and DegenerateEnergy is
    raised otherwise."""
    if e_val > 0.0:
        ratio = lhs / rhs
        return VerificationRecord(name=name, lhs=lhs, rhs=rhs, ratio_or_residual=ratio,
                                  params=params, passed=math.isfinite(ratio))
    if lhs > 1e-14:
        raise DegenerateEnergy(f"{name}: zero energy but lhs = {lhs:.3e}")
    return VerificationRecord(name=name, lhs=lhs, rhs=rhs, ratio_or_residual=0.0,
                              params={**params, "degenerate": True})


@derived
def _x1_coefficients(w: TorusField) -> np.ndarray:
    """x1-Fourier coefficients c(m1; x2), m1 = 0..n1/2 (the last row is the Nyquist mode),
    of every grid row x2, kept read-only: one 1D transform along x2; c(-m1) = conj c(m1)."""
    return _freeze(np.fft.ifft(w.spectrum, axis=1) * w.grid.n2)


def _x1_samples(c: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Samples of the field whose x1-coefficients are c * sym, sym a symbol of
    m1 alone (one value per row): one 1D transform along x1."""
    n1 = 2 * (c.shape[0] - 1)
    return np.fft.irfft(c * sym, n=n1, axis=0) * n1


def _x1_translate(f: TorusField, h: float, minus: bool = True,
                  derivative: bool = False) -> np.ndarray:
    """Samples of f translated along x1, the one kernel of this module's
    differences: diff1(f, h) = f(. + h e1) - f, or f(. + h e1) with
    `minus=False`, in a new array; with `derivative=True`, the same of d1 f.

    A whole-cell translate (h n1 a whole number j) reads the samples j rows
    on, into one buffer: there the shift symbol, Nyquist mode included, is
    exactly exp(i k h).  Those are f's own samples, with no x1 transform, or
    d1 f's from one x1 transform of f's kept x1-coefficients.  Any other h
    takes one x1 transform of those coefficients times the symbols.
    """
    n1, cells = f.grid.n1, float(h) * f.grid.n1
    d1_sym = _derivative_symbol(f.grid, 1) if derivative else 1.0
    if cells.is_integer():
        j = int(cells) % n1
        s = _x1_samples(_x1_coefficients(f), d1_sym) if derivative else f.samples
        out = np.empty_like(s)
        if minus:
            np.subtract(s[j:], s[:n1 - j], out=out[:n1 - j])
            np.subtract(s[:j], s[n1 - j:], out=out[n1 - j:])
        else:
            out[:n1 - j], out[n1 - j:] = s[j:], s[:j]
        return out
    sym = shift_symbol(f.grid, h, axis=1)
    if minus:
        sym -= 1.0
    return _x1_samples(_x1_coefficients(f), sym * d1_sym)


def _mean_abs_cubed(v: np.ndarray) -> float:
    """mean |v|^3, formed in v's buffer by multiplication: `** 3` calls pow
    for every point, about three times the cost."""
    np.abs(v, out=v)
    v *= v * v
    return _mean(v)


def verify_l3(w: TorusField,
              hs: tuple[float, ...] = DEFAULT_HGRID) -> list[VerificationRecord]:
    """Cubed-difference estimate: int |diff1(w, h)|^3 <= C * h * E(w).  The
    differences come from `_x1_translate`: a whole-cell h (h n1 whole, 2^-1
    … 2^-8 of DEFAULT_HGRID on 256^2) reads w's samples, any other h takes
    one x1 transform of w's kept x1-coefficients."""
    e_val = energy_indep(w)
    return [_ratio_record("l3_estimate", _mean_abs_cubed(_x1_translate(w, h)), h * e_val,
                          e_val, {"h": h})
            for h in hs]


def verify_b2s(w: TorusField,
               hs: tuple[float, ...] = DEFAULT_HGRID) -> list[VerificationRecord]:
    """Layer estimate: sup over x2 of the (0, h] difference-mass is bounded by
    h E + h^(5/3) E^(2/3); also cross-checks the elementary averaging bound
    int |diff1(w,h)|^2 dx1 <= (4/h) * layer-integral, row by row.

    Both sides are exact: per row, int_0^1 |diff1(w, h')|^2 dx1 is the sum of
    the masses |c(m1; x2)|^2 times |sigma - 1|^2, sigma the shift1 symbol,
    and the layer integral over h' in (0, h] has a closed form.  The
    averaging bound holds mode by mode for a translation (ratio <= 3/4), but
    the Nyquist symbol cos kh is none: there (1 - cos x)^2 against
    4(3/2 - 2 sin x/x + sin 2x/(4x)) goes like x^4/4 against x^4/5.  So the
    check leaves the Nyquist row out of both sides and keeps the stated
    relative slack 1e-3; the record's lhs and rhs are the full row maxima.
    """
    e_val = energy_indep(w)
    mass = mode_masses(_x1_coefficients(w))[1:]  # m1 = 1..n1/2, with -m1
    k = w.grid.k1()[1:, 0]
    records = []
    for h in hs:
        # |sigma - 1|^2 = 2(1 - cos kh), or (1 - cos kh)^2 at the Nyquist
        # mode, where sigma = cos kh; and their integrals over (0, h]
        sin_kh, cos_kh, kn = np.sin(k * h), np.cos(k * h), k[-1]
        diff_sq = 2.0 * (1.0 - cos_kh)
        diff_sq[-1] = (1.0 - cos_kh[-1]) ** 2
        layer = 2.0 * (h - sin_kh / k)
        layer[-1] = 1.5 * h - 2.0 * sin_kh[-1] / kn + np.sin(2.0 * kn * h) / (4.0 * kn)
        rows = layer @ mass
        rhs = h * e_val + h ** (5.0 / 3.0) * e_val ** (2.0 / 3.0)
        records.append(_ratio_record("b2s_estimate", float(np.max(rows)), rhs,
                                     e_val, {"h": h}))
        if e_val <= 0.0:
            continue
        row_l2 = diff_sq @ mass
        bound = (4.0 / h) * rows
        # both sides without the Nyquist row's share
        lemma_l2 = row_l2 - diff_sq[-1] * mass[-1]
        lemma_bound = bound - (4.0 / h) * layer[-1] * mass[-1]
        worst = float(np.max(lemma_l2 - lemma_bound))
        records.append(VerificationRecord(
            name="avebd_crosscheck", lhs=float(np.max(row_l2)),
            rhs=float(np.max(bound)), ratio_or_residual=worst,
            params={"h": h},
            passed=bool(np.all(lemma_l2 <= lemma_bound * (1.0 + 1e-3))),
            tolerance=1e-3))
    return records


def verify_lp(w: TorusField, p: float) -> VerificationRecord:
    """||w||_Lp against the eps-independent energy; the measured ratio plays
    the role of the unknown constant C(p)."""
    if not 1.0 <= p < 10.0 / 3.0:
        raise ValueError(f"p must lie in [1, 10/3), got {p}")
    alpha = max(2.0, p)
    e_val = energy_indep(w)
    rhs = e_val ** (2.0 / (3.0 * alpha)) * (e_val + e_val ** (2.0 / 3.0)) ** ((alpha - 2.0) / (2.0 * alpha))
    return _ratio_record("lp_estimate", w.lp(p), rhs, e_val, {"p": p})


def verify_lp_eps(w: TorusField, p: float, eps: float) -> VerificationRecord:
    """||w||_Lp against the eps-energy (valid for the wider range p < 6)."""
    if not 1.0 <= p < 6.0:
        raise ValueError(f"p must lie in [1, 6), got {p}")
    alpha = max(2.0, p)
    e_val = energy_eps(w, eps).energy_eps
    rhs = eps ** (-1.0 / alpha) * e_val ** (1.0 / alpha) * (e_val + e_val ** (2.0 / 3.0)) ** ((alpha - 2.0) / (2.0 * alpha))
    return _ratio_record("lp_eps_estimate", w.lp(p), rhs, e_val, {"p": p, "eps": eps})


def gradient_check(w: TorusField, v: TorusField, eps: float,
                   params: dict | None = None) -> VerificationRecord:
    """Central finite difference (step 1e-5) of energy_eps along v against the
    analytic pairing <gradient_eps(w), v>, at relative tolerance 1e-5; the
    record's params are `params` followed by eps."""
    t = 1e-5
    plus = energy_eps(as_admissible(w + t * v, tol=1e-6), eps).energy_eps
    minus = energy_eps(as_admissible(w + (-t) * v, tol=1e-6), eps).energy_eps
    numeric = (plus - minus) / (2 * t)
    analytic = inner(gradient_eps(w, eps), v)
    res = abs(numeric - analytic) / max(abs(numeric), 1e-300)
    return VerificationRecord.checked("gradient_check", numeric, analytic, res, 1e-5,
                                      {**(params or {}), "eps": eps})


def tail_mass(w: TorusField, m1: int, m2: int) -> float:
    """Spectral mass outside the frequency box |m1'| <= m1, |m2'| <= m2."""
    outside = (w.grid.modes1() > m1) | (np.abs(w.grid.modes2()) > m2)
    return float(np.sum(mode_masses(w.spectrum)[outside]))


def tail_decay(w: TorusField) -> tuple[dict[int, float], list[VerificationRecord]]:
    """Tail mass outside each box |m1| <= m, |m2| <= m^4 for m = 4, 8, 16, 32,
    and a tail_monotone record per box after the first: its mass may not
    exceed the previous one's."""
    boxes = (4, 8, 16, 32)
    masses = {m: tail_mass(w, m, m ** 4) for m in boxes}
    records = [VerificationRecord.checked("tail_monotone", masses[m], masses[prev],
                                          masses[m] - masses[prev], 0.0, {"m": m})
               for prev, m in zip(boxes, boxes[1:])]
    return masses, records
