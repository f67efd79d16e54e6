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
from .fields import GridSpec, TorusField

#: log-spaced widths probed before golden section refines the best of them
N_BRACKET_PROBE = 16


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


def mollify(p: JumpProfile, delta: float, grid: GridSpec) -> TorusField:
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
    return TorusField.from_samples(grid, np.repeat(w[:, None], grid.n2, axis=1))


@dataclass(frozen=True)
class SweepRecord:
    """The optimized ansatz at one eps, and how its optimum was found:
    `n_evals` objective evaluations (N_BRACKET_PROBE when no golden section
    ran), whether golden section refined the best probe between its two
    higher neighbours (`bracketed`) or the best probe itself is returned,
    and whether delta_star sits on an end of the width range (`at_bound`),
    a box value, not an optimum."""

    eps: float
    delta_star: float
    energy_eps: float
    jump_cost: float
    gap: float
    grid: GridSpec
    n_evals: int
    bracketed: bool
    at_bound: bool


def minimize_scalar(fun, **kwargs):
    """scipy.optimize.minimize_scalar, imported on first call so that no
    command but the sweep loads scipy.  `_optimize_delta` calls it by this
    module-level name: perfbench's tracer rebinds it (span ansatz.golden)."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(fun, **kwargs)


def _optimize_delta(objective, lo: float, hi: float) -> tuple[float, float, bool]:
    """Minimize over [lo, hi]: the best of N_BRACKET_PROBE log-spaced probes,
    refined by golden section when both its neighbours are strictly higher.
    Golden section keeps the best point it evaluates, the probe among them,
    so refining never returns more than the probe's value; on a tie with a
    neighbour there is no bracket and the probe is returned as it is.
    Returns (argmin, min, whether golden section produced it)."""
    probes = np.geomspace(lo, hi, N_BRACKET_PROBE)
    values = [objective(d) for d in probes]
    i = int(np.argmin(values))
    if 0 < i < N_BRACKET_PROBE - 1 and values[i - 1] > values[i] < values[i + 1]:
        res = minimize_scalar(objective, bracket=tuple(probes[i - 1:i + 2]),
                              method="golden", options={"xtol": 1e-6})
        return float(res.x), float(res.fun), True
    return float(probes[i]), float(values[i]), False


def eps_sweep(p: JumpProfile, eps_list: list[float], grid: GridSpec) -> list[SweepRecord]:
    """For each eps, optimize the mollification width and compare the ansatz
    energy with the sharp jump cost of the profile.

    The mollified profile does not depend on x2, so its energy is evaluated
    on `grid.x2_free()`; only n1 of `grid` matters (it also sets the
    smallest width 2/n1).  The records report `grid`."""
    lo, hi = 2.0 / grid.n1, 0.125
    if lo > hi:
        raise ValueError(f"width range [2/n1, 1/8] = [{lo}, {hi}] is empty: sweep needs n1 >= 16")
    jc = jump_cost(p)
    lean = grid.x2_free()

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
