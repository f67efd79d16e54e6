"""Span and FFT tracer that wraps `smectic` from the outside.

The package imports functions by name (`from .operators import d1`), so a
wrapper has to be rebound in every `smectic.*` namespace that holds the
original object.  FFTs are counted by wrapping the `numpy.fft` entry points;
each one is attributed to the innermost open span.  The `TorusField`
representation getters are wrapped on the class and open a span only when
they actually transform (the cached representation is missing).

Spans are kept in memory as parallel lists (group, parent, start, end, FFTs,
info) and reduced to per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _records(args, kwargs, result):
    recs = result if isinstance(result, list) else [result]
    return {"records": len(recs), "failed": sum(not r.passed for r in recs)}


def _sweep_points(args, kwargs, result):
    at_bound = 0
    for r in result:
        lo, hi = 2.0 / r.grid.n1, 0.125
        if min(abs(r.delta_star - lo) / lo, abs(r.delta_star - hi) / hi) <= 1e-9:
            at_bound += 1
    return {"points": len(result), "at_bound": at_bound}


def _field_bytes(args, kwargs, result):
    path = Path(args[1] if len(args) > 1 else args[0])
    if path.suffix == ".json":
        path = path.with_suffix("")
    return {"bytes": sum(path.with_suffix(path.suffix + ext).stat().st_size
                         for ext in (".json", ".bin"))}


def _iterations(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _accepted(args, kwargs, result):
    return {"accepted": int(bool(result[1]))}


#: module -> {public function name: (span group, result hook)}
SPAN_TARGETS = {
    "smectic.fields": {
        "save_field": ("fields.io", _field_bytes),
        "load_field": ("fields.io", _field_bytes),
        "regrid": ("fields.regrid", None),
        "random_band_limited": ("fields.random", None),
        "as_admissible": ("fields.admissible", None),
        "project_vanishing_x1_mean": ("fields.admissible", None),
        "inner": ("fields.inner", None),
    },
    "smectic.operators": {
        "square_dealiased": ("operators.product", None),
        "cube_dealiased": ("operators.product", None),
        "multiply_dealiased": ("operators.product", None),
        "shift1": ("operators.shift", None),
        "shift2": ("operators.shift", None),
        "diff1": ("operators.shift", None),
        "diff2": ("operators.shift", None),
        "eta": ("operators.eta", None),
        "eta_with_residual": ("operators.eta", None),
        "d1": ("operators.multiplier", None),
        "d2": ("operators.multiplier", None),
        "inv_abs_d1": ("operators.multiplier", None),
        "frac_abs_d1": ("operators.multiplier", None),
    },
    "smectic.energy": {
        "energy_eps": ("energy.energy_eps", None),
        "gradient_eps": ("energy.gradient_eps", None),
    },
    "smectic.besov": {
        "verify_b2s": ("besov.b2s", _records),
        "verify_l3": ("besov.l3", _records),
        "hkm1_balance": ("besov.hkm", _records),
        "hkm2_residual": ("besov.hkm", _records),
        "verify_lp": ("besov.lp", _records),
        "verify_lp_eps": ("besov.lp", _records),
        "tail_mass": ("besov.tail", None),
    },
    "smectic.entropy": {
        "div_sigma": ("entropy.div_sigma", None),
        "div_sigma_identity": ("entropy.identity", _records),
        "duality_gap": ("entropy.duality", _records),
        "rankine_hugoniot_check": ("entropy.rankine_hugoniot", _records),
        "entropy_production": ("entropy.production", None),
    },
    "smectic.ansatz": {
        "mollify": ("ansatz.mollify", None),
        "eps_sweep": ("ansatz.eps_sweep", _sweep_points),
        # scipy's golden section as bound in the ansatz namespace: one call
        # per sweep point that found an interior bracket
        "minimize_scalar": ("ansatz.golden", None),
    },
    "smectic.minimize": {
        "minimize": ("minimize.minimize", _iterations),
        "descent_step": ("minimize.descent_step", _accepted),
        "gradient_certificate": ("minimize.certificate", None),
        "lowest_mode_pins": ("minimize.pins", None),
    },
}


class Tracer:
    """Records spans and FFT counts while installed; `reset` starts a pass."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.groups: list[str] = []
        self.parents: list[int] = []
        self.outer: list[bool] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ffts: list[int] = []
        self.info: list[dict | None] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_bytes = 0
        self.fft_busy = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, group: str) -> int:
        idx = len(self.groups)
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        self.groups.append(group)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer.append(depth == 0)
        self.ffts.append(0)
        self.info.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.groups[idx]] -= 1

    @contextmanager
    def span(self, group: str):
        idx = self._open(group)
        try:
            yield idx
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, group, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.info[idx] = hook(args, kwargs, result)
            return result
        return wrapper

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            self.fft_busy += time.perf_counter() - t0
            self.fft_calls += 1
            self.fft_points += np.size(a)
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            if self._stack:
                self.ffts[self._stack[-1]] += 1
            return out
        return wrapper

    def _wrap_getter(self, prop, group):
        has = "has_samples" if group == "fields.to_samples" else "has_spectrum"
        fget = prop.fget

        def getter(field):
            if getattr(field, has):
                return fget(field)
            idx = self._open(group)
            try:
                return fget(field)
            finally:
                self._close(idx)
        return property(getter, doc=prop.__doc__)

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Rebind every traced function in all `smectic.*` namespaces."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smectic" or n.startswith("smectic."))]
        for modname, targets in SPAN_TARGETS.items():
            home = sys.modules[modname]
            for fname, (group, hook) in targets.items():
                orig = getattr(home, fname)
                wrapped = self._wrap(group, orig, hook)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)
        fft_mod = sys.modules["numpy.fft"]
        for fname in FFT_FUNCS:
            self._set(fft_mod, fname, self._wrap_fft(getattr(fft_mod, fname)))
        torus = sys.modules["smectic.fields"].TorusField
        self._set(torus, "samples",
                  self._wrap_getter(vars(torus)["samples"], "fields.to_samples"))
        self._set(torus, "spectrum",
                  self._wrap_getter(vars(torus)["spectrum"], "fields.to_spectrum"))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()


# -- reduction to per-layer metrics ------------------------------------------

#: every `smectic` CLI command; each gets a `cli.<command>.busy_s` metric
CLI_COMMANDS = ("besov", "sweep", "minimize", "verify", "energy", "entropy", "tail")


def _quantile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(t: Tracer, cli_write_bytes: int) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics named in BENCHMARK.json.

    `busy_s` and `calls` count outermost spans of a group only (a `diff1`
    calling `shift1` is one shift call); `self_s` is span duration minus the
    time its child spans cover; FFT counts of a group are inclusive.
    """
    n = len(t.groups)
    dur = [t.ends[i] - t.starts[i] for i in range(n)]
    child = [0.0] * n
    incl_fft = list(t.ffts)
    for i in range(n - 1, -1, -1):
        p = t.parents[i]
        if p >= 0:
            child[p] += dur[i]
            incl_fft[p] += incl_fft[i]

    by_group: dict[str, list[int]] = {}
    for i, g in enumerate(t.groups):
        by_group.setdefault(g, []).append(i)

    def outer(g):
        return [i for i in by_group.get(g, ()) if t.outer[i]]

    def calls(g):
        return len(outer(g))

    def busy(g):
        return sum(dur[i] for i in outer(g))

    def self_s(prefix):
        return sum(dur[i] - child[i] for i, g in enumerate(t.groups)
                   if g.startswith(prefix))

    def info(prefix, key):
        return sum((t.info[i] or {}).get(key, 0) for i, g in enumerate(t.groups)
                   if g.startswith(prefix))

    def ancestors(i):
        p = t.parents[i]
        while p >= 0:
            yield t.groups[p]
            p = t.parents[p]

    def under(g, anc, exclude=None):
        found = []
        for i in outer(g):
            chain = set(ancestors(i))
            if anc in chain and exclude not in chain:
                found.append(i)
        return found

    def per_call(g):
        c = calls(g)
        return sum(incl_fft[i] for i in outer(g)) / c if c else 0.0

    points = info("ansatz.eps_sweep", "points")
    sweep_evals = len(under("energy.energy_eps", "ansatz.eps_sweep"))
    step_evals = len(under("energy.energy_eps", "minimize.descent_step"))
    steps = [dur[i] for i in outer("minimize.descent_step")]
    m = {
        "fft.calls": t.fft_calls,
        "fft.points": t.fft_points,
        "fft.bytes_computed": t.fft_bytes,
        "fft.busy_s": t.fft_busy,
        "fields.to_samples.calls": calls("fields.to_samples"),
        "fields.to_samples.busy_s": busy("fields.to_samples"),
        "fields.to_spectrum.calls": calls("fields.to_spectrum"),
        "fields.to_spectrum.busy_s": busy("fields.to_spectrum"),
        "fields.io.bytes": info("fields.io", "bytes"),
        "fields.io.busy_s": busy("fields.io"),
        "fields.regrid.busy_s": busy("fields.regrid"),
        "operators.product.calls": calls("operators.product"),
        "operators.product.busy_s": busy("operators.product"),
        "operators.product.fft_calls": sum(incl_fft[i] for i in outer("operators.product")),
        "operators.shift.calls": calls("operators.shift"),
        "operators.shift.busy_s": busy("operators.shift"),
        "operators.eta.calls": calls("operators.eta"),
        "operators.eta.busy_s": busy("operators.eta"),
        "operators.multiplier.busy_s": busy("operators.multiplier"),
        "energy.energy_eps.calls": calls("energy.energy_eps"),
        "energy.energy_eps.busy_s": busy("energy.energy_eps"),
        "energy.energy_eps.fft_per_call": per_call("energy.energy_eps"),
        "energy.gradient_eps.calls": calls("energy.gradient_eps"),
        "energy.gradient_eps.busy_s": busy("energy.gradient_eps"),
        "energy.gradient_eps.fft_per_call": per_call("energy.gradient_eps"),
        "besov.b2s.busy_s": busy("besov.b2s"),
        "besov.b2s.fft_calls": sum(incl_fft[i] for i in outer("besov.b2s")),
        "besov.l3.busy_s": busy("besov.l3"),
        "besov.hkm.busy_s": busy("besov.hkm"),
        "besov.records": info("besov.", "records"),
        "besov.records_failed": info("besov.", "failed"),
        "entropy.div_sigma.busy_s": busy("entropy.div_sigma"),
        "entropy.duality.busy_s": busy("entropy.duality"),
        "entropy.records_failed": info("entropy.", "failed"),
        "ansatz.mollify.calls": calls("ansatz.mollify"),
        "ansatz.mollify.busy_s": busy("ansatz.mollify"),
        "ansatz.objective_evals": sweep_evals,
        "ansatz.evals_per_point": sweep_evals / points if points else 0.0,
        "ansatz.bracketed_ratio": calls("ansatz.golden") / points if points else 0.0,
        "ansatz.at_bound_points": info("ansatz.eps_sweep", "at_bound"),
        "minimize.iterations": info("minimize.minimize", "iterations"),
        "minimize.descent_step.calls": len(steps),
        "minimize.descent_step.busy_s": sum(steps),
        "minimize.descent_step.p50_ms": _quantile_ms(steps, 50),
        "minimize.descent_step.p98_ms": _quantile_ms(steps, 98),
        "minimize.objective_evals": step_evals,
        "minimize.accept_ratio": (info("minimize.descent_step", "accepted") / step_evals
                                  if step_evals else 0.0),
        "minimize.gradient.busy_s": sum(
            dur[i] for i in under("energy.gradient_eps", "minimize.minimize",
                                  exclude="minimize.certificate")),
        "minimize.self_s": self_s("minimize.minimize"),
        "minimize.certificate.busy_s": busy("minimize.certificate"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = busy(f"cli.{command}")
    m["cli.self_s"] = self_s("cli.")
    m["cli.write_bytes"] = cli_write_bytes
    return m

