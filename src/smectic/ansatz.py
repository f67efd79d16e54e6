"""Admissible test sequences: sharp two-shock profiles, their mollifications,
and the eps-sweep comparing optimized ansatz energies with the sharp jump cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import energy_eps
from .entropy import Interface, JumpProfile, jump_cost
from .errors import WidthOutOfRange
from .fields import AdmissibleField, GridSpec

#: log-spaced probe points used to validate a golden-section bracket
N_BRACKET_PROBE = 16
#: fallback grid-scan resolution when no interior bracket exists
N_FALLBACK_SCAN = 64


def vertical_two_shock(c: float) -> JumpProfile:
    """w = +c on x1 in [0, 1/2), -c on [1/2, 1): the stationary entropy
    two-shock configuration, compatible by odd traces."""
    if c <= 0.0:
        raise ValueError(f"amplitude must be positive, got {c}")
    return JumpProfile(interfaces=(
        # normals point toward increasing x1 (right-hand rule, upward tangent)
        Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=-c, w_plus=c),
        Interface(start=(0.5, 0.0), end=(0.5, 1.0), w_minus=c, w_plus=-c),
    ))


def _vertical_jumps(p: JumpProfile) -> list[tuple[float, float]]:
    """(position, jump) pairs for an x2-independent profile; the jump is the
    increase of w when crossing rightward."""
    jumps = []
    for itf in p.interfaces:
        if abs(itf.start[0] - itf.end[0]) > 1e-14:
            raise ValueError("profile is not x2-independent (non-vertical interface)")
        nu1 = itf.normal[0]
        jumps.append((itf.start[0] % 1.0, (itf.w_plus - itf.w_minus) * (1.0 if nu1 > 0 else -1.0)))
    if abs(sum(j for _, j in jumps)) > 1e-12:
        raise ValueError("interface jumps do not close up periodically")
    return sorted(jumps)


def sharp_profile_samples(p: JumpProfile, n1: int) -> np.ndarray:
    """Sample the piecewise-constant x2-independent profile on the x1 grid,
    normalized to zero mean."""
    jumps = _vertical_jumps(p)
    x = np.arange(n1) / n1
    w = np.zeros(n1)
    for a, j in jumps:
        w += j * (x >= a)
    w -= np.mean(w)
    # consistency: traces at each interface must match the accumulated steps
    for itf in p.interfaces:
        a = itf.start[0] % 1.0
        i = int(round(a * n1)) % n1
        right, left = w[i], w[i - 1]
        lo = itf.w_minus if itf.normal[0] > 0 else itf.w_plus
        hi = itf.w_plus if itf.normal[0] > 0 else itf.w_minus
        if abs(right - hi) > 1e-10 or abs(left - lo) > 1e-10:
            raise ValueError("interface traces inconsistent with accumulated regions")
    return w


def mollify(p: JumpProfile, delta: float, grid: GridSpec) -> AdmissibleField:
    """Gaussian mollification (width delta) of an x2-independent profile.

    The smoothed profile is evaluated in closed form as a superposition of
    error functions over periodic images, so its energy agrees with 1D
    composite-quadrature oracles of the continuum mollified profile; this is
    equivalent to the spectral multiplier exp(-delta^2 k1^2 / 2) up to the
    sampling error of the sharp step.
    """
    from scipy.special import erf  # only the sweep needs scipy

    if not (2.0 / grid.n1 <= delta <= 0.125):
        raise WidthOutOfRange(
            f"delta {delta} outside [2/n1, 1/8] = [{2.0 / grid.n1}, 0.125]")
    jumps = _vertical_jumps(p)
    x = np.arange(grid.n1) / grid.n1
    w = np.zeros(grid.n1)
    scale = 1.0 / (math.sqrt(2.0) * delta)
    for a, j in jumps:
        for image in (-2, -1, 0, 1, 2):
            w += 0.5 * j * erf((x - a - image) * scale)
    w -= np.mean(w)
    return AdmissibleField.from_samples(grid, np.repeat(w[:, None], grid.n2, axis=1))


@dataclass(frozen=True)
class SweepRecord:
    """The optimized ansatz at one eps, and how its optimum was found:
    `n_evals` objective evaluations, golden section inside an interior
    bracket (`bracketed`) or the fallback scan, and whether delta_star sits
    on an end of the width range (`at_bound`), a box value, not an optimum."""

    eps: float
    delta_star: float
    energy_eps: float
    jump_cost: float
    gap: float
    grid: GridSpec
    n_evals: int
    bracketed: bool
    at_bound: bool

    def csv_row(self) -> list[str]:
        return [repr(self.eps), repr(self.delta_star), repr(self.energy_eps),
                repr(self.jump_cost), repr(self.gap), repr(self.n_evals),
                str(int(self.bracketed)), str(int(self.at_bound))]


SWEEP_CSV_HEADER = ["eps", "delta_star", "energy_eps", "jump_cost", "gap",
                    "n_evals", "bracketed", "at_bound"]


def minimize_scalar(fun, **kwargs):
    """scipy.optimize.minimize_scalar, imported on first call so that no
    command but the sweep loads scipy.  `_optimize_delta` calls it by this
    module-level name: perfbench's tracer rebinds it (span ansatz.golden)."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(fun, **kwargs)


def _optimize_delta(objective, lo: float, hi: float) -> tuple[float, float, bool]:
    """Minimize over [lo, hi]: golden section inside a validated bracket,
    falling back to a log-spaced grid scan when no interior bracket exists.
    Returns (argmin, min, whether a bracket was found)."""
    probes = np.geomspace(lo, hi, N_BRACKET_PROBE)
    values = [objective(d) for d in probes]
    bracket = None
    for i in range(1, N_BRACKET_PROBE - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            bracket = (probes[i - 1], probes[i], probes[i + 1])
            break
    if bracket is not None:
        res = minimize_scalar(objective, bracket=bracket, method="golden",
                              options={"xtol": 1e-6})
        d_star, e_star = float(res.x), float(res.fun)
        # the scan may still have seen a lower point elsewhere
        i_min = int(np.argmin(values))
        if values[i_min] < e_star:
            d_star, e_star = float(probes[i_min]), float(values[i_min])
        return d_star, e_star, True
    # no interior bracket among the probes: fine log-spaced scan instead
    scan = np.geomspace(lo, hi, N_FALLBACK_SCAN)
    scan_values = [objective(d) for d in scan]
    i_min = int(np.argmin(scan_values))
    return float(scan[i_min]), float(scan_values[i_min]), False


def eps_sweep(p: JumpProfile, eps_list: list[float], grid: GridSpec) -> list[SweepRecord]:
    """For each eps, optimize the mollification width and compare the ansatz
    energy with the sharp jump cost of the profile.

    The mollified profile does not depend on x2, so its energy is evaluated
    on n1 x 8, the fewest columns a grid may have; only n1 of `grid` matters
    (it also sets the smallest width 2/n1).  The records report `grid`."""
    jc = jump_cost(p)
    lo, hi = 2.0 / grid.n1, 0.125
    lean = GridSpec(grid.n1, 8)

    def run_one(eps: float) -> SweepRecord:
        n_evals = 0

        def objective(delta: float) -> float:
            nonlocal n_evals
            n_evals += 1
            return energy_eps(mollify(p, delta, lean), eps).energy_eps

        d_star, e_star, bracketed = _optimize_delta(objective, lo, hi)
        return SweepRecord(eps=eps, delta_star=d_star, energy_eps=e_star,
                           jump_cost=jc, gap=e_star - jc, grid=grid, n_evals=n_evals,
                           bracketed=bracketed, at_bound=d_star in (lo, hi))

    return [run_one(eps) for eps in eps_list]
