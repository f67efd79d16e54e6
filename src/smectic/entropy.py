"""Entropy vector fields, shock compatibility, and the sharp jump-cost functional.

The entropy pair is Sigma(w) = (-w^3/3, w^2/2) and sigma(w) = (-w^2/2, w).
For smooth fields div Sigma(w) = w * eta_w; for piecewise-constant fields the
divergence is carried entirely by the interfaces, where compatibility of the
traces with the shock-slope law makes the per-length cost

    |w+ - w-|^3 / (12 * sqrt(1 + (w+ + w-)^2 / 4)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .besov import VerificationRecord
from .energy import energy_eps
from .errors import IncompatibleProfile
from .fields import TorusField, _sampled, derived, inner
from .operators import cube_dealiased, d1, d2, eta, multiply_dealiased, square_dealiased

RH_TOL = 1e-12


def sigma_pair(w: float) -> tuple[float, float]:
    """Flux pair sigma(w) whose divergence is eta_w."""
    return (-0.5 * w * w, w)


def entropy_pair(w: float) -> tuple[float, float]:
    """Entropy flux Sigma(w) whose divergence is w * eta_w."""
    return (-w ** 3 / 3.0, 0.5 * w * w)


@dataclass(frozen=True)
class Interface:
    """Straight jump segment with traces relative to its right-hand normal.

    The unit normal is the tangent rotated by -90 degrees:
    nu = (t2, -t1) for tangent t = (end - start)/|end - start|.
    w_plus is the trace on the side nu points into, w_minus the other side.
    """

    start: tuple[float, float]
    end: tuple[float, float]
    w_minus: float
    w_plus: float

    def __post_init__(self):
        values = (*self.start, *self.end, self.w_minus, self.w_plus)
        if not (len(self.start) == len(self.end) == 2  # a bool is an int, not a number
                and all(isinstance(v, float) or type(v) is int for v in values)):
            raise ValueError(f"interface needs two numbers per endpoint and number traces, "
                             f"got {self!r}")
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"interface from {self.start} to {self.end} has no finite "
                             "nonzero length")
        if not (math.isfinite(self.w_minus) and math.isfinite(self.w_plus)):
            raise ValueError(f"interface traces must be finite, got {self.w_minus}, {self.w_plus}")
        object.__setattr__(self, "w_minus", float(self.w_minus))
        object.__setattr__(self, "w_plus", float(self.w_plus))

    @property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])

    @property
    def normal(self) -> tuple[float, float]:
        t1 = (self.end[0] - self.start[0]) / self.length
        t2 = (self.end[1] - self.start[1]) / self.length
        return (t2, -t1)

    @property
    def jump(self) -> float:
        return self.w_plus - self.w_minus

    def normal_jump(self, pair) -> float:
        """|(F(w+) - F(w-)) . nu| for a flux pair F, such as sigma_pair or entropy_pair."""
        (a1, a2), (b1, b2), (nu1, nu2) = pair(self.w_plus), pair(self.w_minus), self.normal
        return abs((a1 - b1) * nu1 + (a2 - b2) * nu2)

    def rh_residual(self) -> float:
        """|(sigma(w+) - sigma(w-)) . nu| -- zero iff the shock slope law holds."""
        return self.normal_jump(sigma_pair)


@dataclass(frozen=True)
class JumpProfile:
    """Piecewise-constant field described by its straight-line interfaces."""

    interfaces: tuple[Interface, ...]

    @classmethod
    def from_json(cls, text: str) -> "JumpProfile":
        data = json.loads(text)
        try:
            return cls(tuple(
                Interface(start=tuple(e["start"]), end=tuple(e["end"]),
                          w_minus=e["w_minus"], w_plus=e["w_plus"])
                for e in data["interfaces"]))
        except KeyError as exc:
            raise ValueError(f"jump profile: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # e.g. a list for an object, one coordinate
            raise ValueError(f"jump profile: {exc}") from exc


def rankine_hugoniot_check(p: JumpProfile) -> list[VerificationRecord]:
    """Per-interface compatibility residual |(sigma(w+) - sigma(w-)) . nu|."""
    return [VerificationRecord.checked(
        "rankine_hugoniot", res, 0.0, res, RH_TOL,
        {"interface": idx, "w_minus": itf.w_minus, "w_plus": itf.w_plus,
         "normal": list(itf.normal)})
        for idx, itf in enumerate(p.interfaces) for res in [itf.rh_residual()]]


def jump_cost(p: JumpProfile) -> float:
    """Sharp asymptotic cost of a compatible profile.

    Refuses profiles outside the compatible class: the formula is only the
    proven lower bound there.
    """
    bad = [r for r in rankine_hugoniot_check(p) if not r.passed]
    if bad:
        raise IncompatibleProfile(
            f"{len(bad)} interface(s) violate the shock slope law; "
            f"worst residual {max(r.ratio_or_residual for r in bad):.3e}")
    total = 0.0
    for itf in p.interfaces:
        mean = 0.5 * (itf.w_plus + itf.w_minus)
        total += itf.length * abs(itf.jump) ** 3 / (12.0 * math.sqrt(1.0 + mean * mean))
    return total


def div_sigma_jump_measure(p: JumpProfile) -> float:
    """Total variation of div Sigma for the piecewise-constant field:
    sum of length * |(Sigma(w+) - Sigma(w-)) . nu|.  Well defined even for
    incompatible profiles; equals jump_cost on the compatible class."""
    return sum(itf.length * itf.normal_jump(entropy_pair) for itf in p.interfaces)


@derived
def div_sigma(w: TorusField) -> TorusField:
    """div Sigma(w) = d1(-w^3/3) + d2(w^2/2) with dealiased powers, once per field."""
    return (-1.0 / 3.0) * d1(cube_dealiased(w)) + 0.5 * d2(square_dealiased(w))


def div_sigma_identity(w: TorusField) -> VerificationRecord:
    """Residual of div Sigma(w) = w * eta_w for smooth (band-limited) fields."""
    lhs_field = div_sigma(w)
    rhs_field = multiply_dealiased(w, eta(w))
    return VerificationRecord.checked(
        "div_sigma_identity", lhs_field.l2(), rhs_field.l2(),
        (lhs_field - rhs_field).l2(), 1e-10 * (1.0 + w.l2() ** 3), {})


def entropy_production(w: TorusField) -> float:
    """L^1 grid norm of div Sigma(w) - the discrete entropy production."""
    return float(np.mean(np.abs(div_sigma(w).samples)))


def duality_gap(w: TorusField, phi: TorusField,
                eps_values: list[float]) -> list[VerificationRecord]:
    """Pairing bound |int Sigma(w) . grad phi| = |<div Sigma(w), phi>| (by parts:
    d1, d2 are skew-adjoint) against the energy, one record per eps, passed iff
    lhs / rhs <= 1 + 1e-8.

    The implementation constant is taken as 1; the proven bound only asserts
    existence of some C, so the record's ratio (not its pass flag) is the
    quantity of interest for boundedness sweeps.
    """
    lhs, d1_phi_linf = abs(inner(div_sigma(w), phi)), d1(phi).linf()
    records = []
    for eps in eps_values:
        e_val = energy_eps(w, eps).energy_eps
        rhs = e_val * phi.linf() + math.sqrt(eps) * math.sqrt(e_val) * w.l2() * d1_phi_linf
        ratio = lhs / rhs if rhs > 0.0 else 0.0
        records.append(VerificationRecord.checked(
            "duality_bound", lhs, rhs, ratio, 1.0 + 1e-8, {"eps": eps}))
    return records


def field_records(w: TorusField, eps_values: list[float]) -> list[VerificationRecord]:
    """The entropy checks of a smooth field: the div Sigma identity, the
    entropy production (a diagnostic that always passes) and the duality
    bound per eps against the test function phi = sin(2 pi x1) / (2 pi)."""
    identity = div_sigma_identity(w)
    production = entropy_production(w)
    phi = _sampled(w.grid, np.sin(
        2 * np.pi * np.repeat(w.grid.x1(), w.grid.n2, axis=1)) / (2 * np.pi))
    return [identity,
            VerificationRecord(name="entropy_production", lhs=production, rhs=0.0,
                               ratio_or_residual=production, params={}),
            *duality_gap(w, phi, eps_values)]
