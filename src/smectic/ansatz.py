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
from .fields import GridSpec, TorusField, _made

#: log-spaced widths probed before golden section refines the best of them
N_BRACKET_PROBE = 16

#: erf(t) is exactly +-1 in double precision from |t| = 6 on: erfc(6) < 2.2e-17
#: is less than half an ulp of 1, so libm rounds erf(t) to sign(t) there
ERF_SATURATION = 6.0

#: relative width tolerance of golden section, |x3 - x0| <= GOLDEN_XTOL (|x1| + |x2|)
GOLDEN_XTOL = 1e-6


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


def _erf(t: np.ndarray) -> np.ndarray:
    """erf elementwise: the C library's `math.erf` where |t| < ERF_SATURATION,
    sign(t) beyond, where erf rounds to +-1 anyway."""
    out = np.sign(t)
    inner = np.abs(t) < ERF_SATURATION
    out[inner] = list(map(math.erf, t[inner].tolist()))
    return out


def mollify(p: JumpProfile, delta: float, grid: GridSpec) -> TorusField:
    """Gaussian mollification (width delta) of an x2-independent profile.

    The smoothed profile is evaluated in closed form as a superposition of
    error functions over periodic images (`_erf`, within 4e-16 of
    `scipy.special.erf`, the tests' reference), so its energy agrees with
    1D composite-quadrature oracles of the continuum mollified profile;
    this is equivalent to the spectral multiplier exp(-delta^2 k1^2 / 2) up
    to the sampling error of the sharp step.  At small widths almost every
    point is saturated: only those within ERF_SATURATION / scale of a jump
    call `math.erf`.
    """
    if not (2.0 / grid.n1 <= delta <= 0.125):
        raise WidthOutOfRange(
            f"delta {delta} outside [2/n1, 1/8] = [{2.0 / grid.n1}, 0.125]")
    jumps = _vertical_jumps(p)
    x = np.arange(grid.n1) / grid.n1
    w = np.zeros(grid.n1)
    scale = 1.0 / (math.sqrt(2.0) * delta)
    for a, j in jumps:
        for image in (-2, -1, 0, 1, 2):
            w += 0.5 * j * _erf((x - a - image) * scale)
    w -= np.mean(w)
    return _made(grid, samples=np.repeat(w[:, None], grid.n2, axis=1))


@dataclass(frozen=True)
class SweepRecord:
    """The optimized ansatz at one eps, and how its optimum was found:
    `n_evals` objective evaluations (N_BRACKET_PROBE when no golden section
    ran, N_BRACKET_PROBE + 1 + its iterations when it did, 43-44 at
    n1 = 1024, and 1 when the range is the one width 2/n1 = 1/8), whether
    golden section refined the best probe between its two higher neighbours
    (`bracketed`) or the best probe itself is returned, and whether
    delta_star sits on an end of the width range (`at_bound`), a box value,
    not an optimum."""

    eps: float
    delta_star: float
    energy_eps: float
    jump_cost: float
    gap: float
    grid: GridSpec
    n_evals: int
    bracketed: bool
    at_bound: bool


def minimize_scalar(fun, bracket: tuple[float, float, float],
                    f_middle: float) -> tuple[float, float]:
    """Golden section search in a strict bracket xa < xb < xc whose middle
    value f(xb) = f_middle lies below f(xa) and f(xc); returns (x, f(x)).

    A step-for-step port of scipy's `minimize_scalar(method="golden")` at
    xtol = GOLDEN_XTOL: the same points, stop rule and final choice of the
    lower inner point, so the same x and f(x) bit for bit.  It reuses
    f_middle where scipy evaluates the three bracket points again and the
    middle one a fourth time: 4 evaluations fewer, one per iteration plus
    one to start.  scipy's cap of 5000 iterations is left out: the bracket
    shrinks by g_r per iteration, so on widths the rule holds within ~30.
    `_optimize_delta` calls it by this module-level name:
    perfbench's tracer rebinds it (span ansatz.golden)."""
    g_r = 0.61803399  # scipy's rounding of the golden ratio conjugate 2 / (1 + sqrt 5)
    g_c = 1.0 - g_r
    x0, xb, x3 = bracket
    if x3 - xb > xb - x0:
        x1, f1 = xb, f_middle
        x2 = xb + g_c * (x3 - xb)
        f2 = fun(x2)
    else:
        x2, f2 = xb, f_middle
        x1 = xb - g_c * (xb - x0)
        f1 = fun(x1)
    while abs(x3 - x0) > GOLDEN_XTOL * (abs(x1) + abs(x2)):
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = g_r * x1 + g_c * x3
            f2 = fun(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = g_r * x2 + g_c * x0
            f1 = fun(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _optimize_delta(objective, lo: float, hi: float) -> tuple[float, float, bool]:
    """Minimize over [lo, hi]: the best of N_BRACKET_PROBE log-spaced probes
    (each distinct width once, so one when lo == hi), refined by golden
    section when both its neighbours are strictly higher.
    Golden section keeps the best point it evaluates, the probe among them,
    so refining never returns more than the probe's value; on a tie with a
    neighbour there is no bracket and the probe is returned as it is.
    Returns (argmin, min, whether golden section produced it)."""
    probes = np.unique(np.geomspace(lo, hi, N_BRACKET_PROBE))  # one when lo == hi
    values = [objective(d) for d in probes]
    i = int(np.argmin(values))
    if 0 < i < len(probes) - 1 and values[i - 1] > values[i] < values[i + 1]:
        x, f = minimize_scalar(objective, bracket=tuple(probes[i - 1:i + 2]),
                               f_middle=values[i])
        return float(x), float(f), True
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
