"""First-order descent minimization of the eps-energy over the admissible set.

Safeguarded Barzilai-Borwein steps, gated by an Armijo backtracking line
search.  The zero field is the global minimizer, so meaningful experiments
anchor the iterate by freezing a set of spectral modes (mode pinning does not
perturb the energy landscape away from the pins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .besov import gradient_check
from .energy import energy_eps, gradient_eps
from .errors import LineSearchFailure
from .fields import (AdmissibleField, GridSpec, TorusField, inner,
                     project_vanishing_x1_mean, random_band_limited)
from .operators import outer_band

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
#: first trial step; Barzilai-Borwein steps are clipped to BB_CLIP
INITIAL_STEP = 1.0
BB_CLIP = (1e-6, 1e3)


@dataclass(frozen=True)
class AnchorPins:
    """Spectral coefficients held fixed: ((m1, m2), value) pairs.

    Conjugate modes are pinned implicitly so the field stays real.
    """

    pins: tuple[tuple[tuple[int, int], complex], ...]


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_rel_tol: float = 1e-14
    anchor: AnchorPins | None = None

    def __post_init__(self):
        if self.max_iters < 0 or self.grad_tol <= 0 or self.energy_rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class MinimizeReport:
    iterations: int
    final_energy: object
    grad_norm_history: list[float] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    termination: str = "max-iters"

    def to_json(self) -> str:
        return json.dumps({
            "iterations": self.iterations,
            "final_energy": self.final_energy.__dict__,
            "grad_norm_history": self.grad_norm_history,
            "energy_history": self.energy_history,
            "termination": self.termination,
        }, indent=2)


# -- gradient validity gate --------------------------------------------------

_GRADIENT_CERTIFICATES: dict[tuple[int, int], bool] = {}


def gradient_certificate(grid: GridSpec) -> bool:
    """Finite-difference check of the analytic gradient, cached per grid."""
    key = (grid.n1, grid.n2)
    if key not in _GRADIENT_CERTIFICATES:
        kmax = max(2, min(grid.n1, grid.n2) // 8)
        w = random_band_limited(grid, seed=20240, kmax=kmax, amplitude=0.5)
        v = random_band_limited(grid, seed=20241, kmax=kmax, amplitude=0.5)
        _GRADIENT_CERTIFICATES[key] = gradient_check(w, v, 0.0625).passed
    return _GRADIENT_CERTIFICATES[key]


def _admissible(f: TorusField) -> AdmissibleField:
    """Project onto the admissible subspace and filter the outer spectral band
    so iterates keep dealiasing headroom."""
    spec = np.where(outer_band(f.grid), 0.0, f.spectrum)
    return project_vanishing_x1_mean(TorusField.from_spectrum(f.grid, spec))


# -- anchoring helpers -------------------------------------------------------

def lowest_mode_pins(w: AdmissibleField, count: int) -> AnchorPins:
    """Pin the `count` admissible modes of smallest |k| at their coefficients
    in w (conjugate pairs counted once, zero values pinned as zero).

    The representative of a pair is its member with m1 > 0; ties in |m|^2
    are broken by (m1, m2).
    """
    half = slice(1, w.grid.n1 // 2)  # rows m1 = 1 .. n1/2 - 1
    m1, m2 = np.broadcast_arrays(w.grid.modes1()[half], w.grid.modes2())
    m1, m2 = m1.ravel(), m2.ravel()
    spec = w.spectrum[half].ravel()
    order = np.lexsort((m2, m1, m1 * m1 + m2 * m2))[:count]
    return AnchorPins(pins=tuple(((int(m1[k]), int(m2[k])), complex(spec[k]))
                                 for k in order))


def _pin_indices(grid: GridSpec, pins: AnchorPins) -> list[tuple[int, int, complex]]:
    out = []
    for (a, b), val in pins.pins:
        out.append((a % grid.n1, b % grid.n2, val))
        out.append(((-a) % grid.n1, (-b) % grid.n2, np.conj(val)))
    return out


def _apply_pins(f: AdmissibleField, idx: list[tuple[int, int, complex]]) -> AdmissibleField:
    spec = f.spectrum.copy()
    for i, j, val in idx:
        spec[i, j] = val
    return AdmissibleField.from_spectrum(f.grid, spec)


def _zero_pins(f: AdmissibleField, idx: list[tuple[int, int, complex]]) -> AdmissibleField:
    spec = f.spectrum.copy()
    for i, j, _ in idx:
        spec[i, j] = 0.0
    return AdmissibleField.from_spectrum(f.grid, spec)


# -- descent -----------------------------------------------------------------

def _precondition(g: AdmissibleField, eps: float, step: float) -> AdmissibleField:
    """Semi-implicit damping of the stiff bending modes."""
    k1 = g.grid.k1()
    return AdmissibleField.from_spectrum(g.grid, g.spectrum / (1.0 + step * eps * k1 ** 2))


def descent_step(w: AdmissibleField, g: AdmissibleField, step: float,
                 objective, f_w: float,
                 direction: AdmissibleField | None = None):
    """One Armijo-gated step along -direction (default -g).

    Returns (w_next, accepted, f_next).  A zero gradient is a fixed point and
    counts as accepted.
    """
    d = direction if direction is not None else g
    slope = inner(g, d)
    if slope <= 0.0:
        return w, True, f_w
    alpha = step
    for _ in range(MAX_BACKTRACKS):
        cand = _admissible(w + (-alpha) * d)
        f_cand = objective(cand)
        if f_cand <= f_w - ARMIJO_C * alpha * slope:
            return cand, True, f_cand
        alpha *= 0.5
    return w, False, f_w


def minimize(w0: AdmissibleField, eps: float, opts: MinimizeOptions
             ) -> tuple[AdmissibleField, MinimizeReport]:
    """Descent on energy_eps from w0.

    Every accepted step decreases the objective; the iterate stays admissible
    and, when pinned, keeps the pinned coefficients bit-fixed.
    """
    if not gradient_certificate(w0.grid):
        raise RuntimeError("gradient finite-difference certificate failed for "
                           f"grid {w0.grid.n1}x{w0.grid.n2}; refusing to run")

    pins_idx = []
    if opts.anchor is not None:
        pins_idx = _pin_indices(w0.grid, opts.anchor)
        for i, j, val in pins_idx:
            if abs(w0.spectrum[i, j] - val) > 1e-12 * (1.0 + abs(val)):
                raise ValueError("w0 does not satisfy the pinned modes")

    def objective(w: AdmissibleField) -> float:
        return energy_eps(w, eps).energy_eps

    def gradient(w: AdmissibleField) -> AdmissibleField:
        g = gradient_eps(w, eps)
        if pins_idx:
            g = _zero_pins(g, pins_idx)
        return g

    w = _admissible(w0)
    if pins_idx:
        w = _apply_pins(w, pins_idx)
    f_w = objective(w)
    g = gradient(w)
    report = MinimizeReport(iterations=0, final_energy=energy_eps(w, eps),
                            energy_history=[f_w],
                            grad_norm_history=[g.l2()])
    step = INITIAL_STEP
    prev_w = prev_g = None
    termination = "max-iters"

    for it in range(opts.max_iters):
        gnorm = g.l2()
        if gnorm <= opts.grad_tol:
            termination = "gradient"
            break

        if prev_w is not None:
            s = _admissible(w - prev_w)
            sy = inner(s, _admissible(g - prev_g))
            if sy > 0.0:
                bb = inner(s, s) / sy
                step = float(np.clip(bb, *BB_CLIP))

        direction = _precondition(g, eps, step)
        if pins_idx:
            direction = _zero_pins(direction, pins_idx)
        prev_w, prev_g = w, g
        w_next, accepted, f_next = descent_step(
            w, g, step, objective, f_w, direction)
        report.iterations = it + 1
        if not accepted:
            # LineSearchFailure: reported, terminates with max-iters status
            report.termination = "max-iters"
            report.final_energy = energy_eps(w, eps)
            raise LineSearchFailure(
                f"no Armijo decrease after {MAX_BACKTRACKS} backtracks at "
                f"iteration {it} (grad norm {gnorm:.3e})")
        stalled = abs(f_w - f_next) <= opts.energy_rel_tol * max(1.0, abs(f_w))
        w, f_w = w_next, f_next
        g = gradient(w)
        report.energy_history.append(f_w)
        report.grad_norm_history.append(g.l2())
        if stalled:
            termination = "energy-stall"
            break
    report.termination = termination
    report.final_energy = energy_eps(w, eps)
    return w, report
