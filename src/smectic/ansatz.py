"""Admissible test sequences: sharp two-shock profiles, their Gaussian
mollifications (built from their half spectra in closed form), and the
eps-sweep comparing optimized ansatz energies with the sharp jump cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import energy_eps
from .entropy import Interface, JumpProfile, jump_cost
from .errors import WidthOutOfRange
from .fields import GridSpec, TorusField, _made

#: log-spaced widths probed before golden section refines the best of them
N_BRACKET_PROBE = 16

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


def mollify(p: JumpProfile, delta: float, grid: GridSpec) -> TorusField:
    """Gaussian mollification (width delta) of an x2-independent profile,
    built from its half spectrum in closed form.

    The profile's derivative is sum_j J_j delta(x1 - a_j), so for
    0 < m1 < n1/2, k1 = 2 pi m1, the m2 = 0 column holds
    sum_j J_j exp(-i k1 a_j) / (i k1) * exp(-delta^2 k1^2 / 2); the mean,
    the Nyquist row and every column off m2 = 0 are zero.  This is the
    band-limited part of the continuum mollified profile: its samples differ
    from the continuum's by the aliased modes |m1| >= n1/2, at most
    exp(-(pi n1 delta)^2 / 2) per unit jump (2.7e-9 at delta = 2/n1).
    """
    if not (2.0 / grid.n1 <= delta <= 0.125):
        raise WidthOutOfRange(
            f"delta {delta} outside [2/n1, 1/8] = [{2.0 / grid.n1}, 0.125]")
    m1, k1 = grid.modes1()[1:-1, 0], grid.k1()[1:-1, 0]
    # k1 a reduced mod 2 pi through m1 a mod 1: unreduced, the rounding of a
    # phase up to pi n1 costs digits (twice the samples' roundoff at n1 = 4096)
    jumps = sum(j * np.exp(-2j * np.pi * (m1 * a % 1.0)) for a, j in _vertical_jumps(p))
    spec = np.zeros(grid.spectrum_shape, dtype=complex)
    spec[1:-1, 0] = jumps / (1j * k1) * np.exp(-0.5 * (delta * k1) ** 2)
    return _made(grid, spec)


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
