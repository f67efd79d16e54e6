"""First-order descent minimization of the eps-energy over the admissible set.

Safeguarded Barzilai-Borwein steps, gated by an Armijo backtracking line
search.  The zero field is the global minimizer, so meaningful experiments
anchor the iterate by freezing a set of spectral modes (mode pinning does not
perturb the energy landscape away from the pins).

The energy along a step is an exact quartic in the step length
(energy.EnergyLine), so the Armijo trials read their energies off the line
and make no transform; the accepted point arrives with its eta and its
padded samples kept.

Cost model of one iteration after the first: five transforms (d, w d and
d^2 for the line, d1 G and w d1 G for the gradient at the new point; each
product by operators._dealiased_product), five TorusFields (the direction,
the point and its eta, d1 G, the gradient), and half-spectrum arrays in
between: the gradient and the direction, the Barzilai-Borwein pair, the pin
and k1 = 0 masks, the inner products and the l2 norm never become fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .besov import VerificationRecord, gradient_check
from .energy import EnergyLine, energy_eps, gradient_eps
from .errors import LineSearchFailure
from .fields import (GridSpec, TorusField, _freeze, _made, random_band_limited, regrid,
                     spectral_inner, spectral_l2)
from .operators import outer_band

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
#: first trial step; Barzilai-Borwein steps are clipped to BB_CLIP
INITIAL_STEP = 1.0
BB_CLIP = (1e-6, 1e3)


@dataclass(frozen=True)
class MinimizeOptions:
    """`pins` is the number of lowest admissible modes of the start field
    held at their values (see lowest_mode_pins); 0 runs unanchored."""

    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_rel_tol: float = 1e-14
    pins: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.pins < 0:
            raise ValueError(f"pins must be >= 0, got {self.pins}")
        for name in ("grad_tol", "energy_rel_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also refuses NaN
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class MinimizeReport:
    iterations: int
    final_energy: object
    grad_norm_history: list[float]
    energy_history: list[float]
    termination: str  # gradient, energy-stall, max-iters or line-search
    grid: GridSpec  # the grid the descent ran on
    step_history: list[float]  # per iteration: the step taken, 0.0 if none
    backtrack_history: list[int]  # per iteration: the Armijo halvings

    def monotone_record(self, eps: float) -> VerificationRecord:
        """minimize_monotone: residual 0 if the energy history never rises,
        1 otherwise."""
        hist = self.energy_history
        monotone = all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
        return VerificationRecord.checked(
            "minimize_monotone", hist[-1], hist[0], 0.0 if monotone else 1.0, 0.0,
            {"eps": eps, "termination": self.termination})


# -- gradient validity gate --------------------------------------------------

_GRADIENT_CERTIFICATES: dict[tuple[int, int], bool] = {}


def gradient_certificate(grid: GridSpec) -> bool:
    """Finite-difference check of the analytic gradient on `grid`, cached per
    grid.  The random pair is drawn with each side raised to at least 8, as
    random_band_limited needs, and regridded to `grid`: the check runs on the
    grid the descent runs on, on the x2-free n1 x 2 with an x2-free pair."""
    key = (grid.n1, grid.n2)
    if key not in _GRADIENT_CERTIFICATES:
        drawn = GridSpec(max(grid.n1, 8), max(grid.n2, 8))
        kmax = max(2, min(drawn.shape) // 8)
        w, v = (regrid(random_band_limited(drawn, seed=seed, kmax=kmax, amplitude=0.5), grid)
                for seed in (20240, 20241))
        _GRADIENT_CERTIFICATES[key] = gradient_check(w, v, 0.0625).passed
    return _GRADIENT_CERTIFICATES[key]


@functools.lru_cache(maxsize=None)
def _dropped(grid: GridSpec) -> np.ndarray:
    """Read-only mask of the modes no iterate holds: the m1 = 0 row and the
    outer band; built once per grid."""
    return _freeze((grid.modes1() == 0) | outer_band(grid))


def _admissible(grid: GridSpec, spec: np.ndarray) -> TorusField:
    """The field of the half spectrum spec projected onto the admissible
    subspace (the m1 = 0 row zeroed) and filtered of the outer spectral band,
    so iterates keep dealiasing headroom."""
    return _made(grid, np.where(_dropped(grid), 0.0, spec))


# -- anchoring helpers -------------------------------------------------------

def lowest_mode_pins(w: TorusField, count: int) -> np.ndarray:
    """Mask of the `count` admissible held modes of smallest |k|, among the
    rows 0 < m1 < n1/2 (each stands for its partner -m).  Ties in |m|^2 are
    broken by (m1, m2)."""
    half = slice(1, w.grid.n1 // 2)  # rows m1 = 1 .. n1/2 - 1
    m1, m2 = np.broadcast_arrays(w.grid.modes1()[half], w.grid.modes2())
    order = np.lexsort((m2.ravel(), m1.ravel(), (m1 * m1 + m2 * m2).ravel()))
    lowest = np.zeros(m1.size, dtype=bool)
    lowest[order[:count]] = True
    mask = np.zeros(w.grid.spectrum_shape, dtype=bool)
    mask[half] = lowest.reshape(m1.shape)
    return mask


# -- descent -----------------------------------------------------------------

def descent_step(line: EnergyLine, slope: float, step: float, f_w: float):
    """One Armijo-gated step from line.w along the line, whose energy falls
    at rate `slope` at a = 0 (<g, direction> in the minimizer, for the
    direction whose k1 = 0 row and outer band the line's d drops).  Every
    trial reads its energy off the line, with no transform.

    Returns (w_next, accepted, f_next, rejected trial steps).  A direction
    with no descent slope (a zero gradient) is a fixed point, accepted.
    """
    if slope <= 0.0:
        return line.w, True, f_w, 0
    alpha = step
    for halvings in range(MAX_BACKTRACKS):
        f_cand = line.energy(alpha)
        if f_cand <= f_w - ARMIJO_C * alpha * slope:
            return line.point(alpha), True, f_cand, halvings
        alpha *= 0.5
    return line.w, False, f_w, MAX_BACKTRACKS


def minimize(w0: TorusField, eps: float, opts: MinimizeOptions
             ) -> tuple[TorusField, MinimizeReport]:
    """Descent on energy_eps from w0, holding its `opts.pins` lowest modes.

    Every accepted step decreases the objective; the iterate stays admissible
    and keeps the pinned coefficients bit-fixed, as the gradient and so the
    direction are zero on them.  Every iterate, the first included, is cut to
    the band below `outer_band`, pins too.  A failed line search raises
    LineSearchFailure carrying the report up to the last accepted iterate.

    A w0 whose spectrum is exactly zero off m2 = 0 keeps that x2-independence,
    as do eta, G = |d1|^-2 eta and the gradient of such a field, so the
    descent runs on `w0.grid.x2_free()` and its result is regridded to w0's
    grid.  The pins are chosen on w0's grid; those off m2 = 0 hold zeros that
    the descent never changes.
    """
    requested, lean = w0.grid, w0.grid.x2_free()
    held = lowest_mode_pins(w0, opts.pins)
    if not w0.spectrum[:, 1:].any():
        w0 = regrid(w0, lean)
    if w0.grid != requested:
        held = held[:, :1] & (lean.modes2() == 0)
    grid = w0.grid
    if not gradient_certificate(grid):
        raise RuntimeError("gradient finite-difference certificate failed for "
                           f"grid {grid.n1}x{grid.n2}; refusing to run")
    k1_squared = grid.k1() ** 2

    def gradient(w: TorusField) -> np.ndarray:
        return np.where(held, 0.0, gradient_eps(w, eps).spectrum)

    # w is the iterate; g, the direction and the Barzilai-Borwein pair are
    # half spectra
    w = _admissible(grid, w0.spectrum)
    f_w = energy_eps(w, eps).energy_eps
    g = gradient(w)
    energies, grad_norms, steps, backtracks = [f_w], [spectral_l2(g)], [], []
    step = INITIAL_STEP
    prev_w = prev_g = None
    iterations, termination = 0, "max-iters"

    for it in range(opts.max_iters):
        if grad_norms[-1] <= opts.grad_tol:
            termination = "gradient"
            break

        if prev_w is not None:
            s = w.spectrum - prev_w
            sy = spectral_inner(s, g - prev_g)
            if sy > 0.0:
                step = min(max(spectral_inner(s, s) / sy, BB_CLIP[0]), BB_CLIP[1])

        # semi-implicit damping of the stiff bending modes
        direction = g / (1.0 + step * eps * k1_squared)
        line = EnergyLine(w, _admissible(grid, direction), eps)
        prev_w, prev_g = w.spectrum, g
        w_next, accepted, f_next, halvings = descent_step(
            line, spectral_inner(g, direction), step, f_w)
        iterations = it + 1
        steps.append(0.0 if w_next is w else step * 0.5 ** halvings)
        backtracks.append(halvings)
        if not accepted:
            termination = "line-search"
            break
        stalled = abs(f_w - f_next) <= opts.energy_rel_tol * max(1.0, abs(f_w))
        w, f_w = w_next, f_next
        g = gradient(w)
        energies.append(f_w)
        grad_norms.append(spectral_l2(g))
        if stalled:
            termination = "energy-stall"
            break

    report = MinimizeReport(iterations=iterations, final_energy=energy_eps(w, eps),
                            grad_norm_history=grad_norms, energy_history=energies,
                            termination=termination, grid=w.grid,
                            step_history=steps, backtrack_history=backtracks)
    if termination == "line-search":
        raise LineSearchFailure(
            f"no Armijo decrease after {MAX_BACKTRACKS} backtracks at "
            f"iteration {iterations - 1} (grad norm {grad_norms[-1]:.3e})", report)
    return (w if w.grid == requested else regrid(w, requested)), report
