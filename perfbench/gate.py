"""Correctness gate: parse a CLI call's outputs and compare them with the
stored reference taken at the commit that defined the benchmark.

Every CLI call and every output record is one operation.  An operation fails
on an exception, on an exit code its records do not explain, on a record
with `passed: false`, or on a value outside the reference.  A failure that
reproduces a reference failure with matching values is *known*: it still
counts as failed, but the outputs are correct.  A reference failure that now
passes is accepted, so a later fix is not blocked.  Records are matched by
name and params; a record the reference lacks is judged by its own pass
flag, and a reference record that is missing fails.  Only the columns and
keys compared below are read, so outputs may gain new ones.

Tolerances come from those the package states:
  * exact identities and derived norms: 1e-8 relative (hkm2's 1e-8, closed
    form energies at 1e-10), plus the record's own tolerance as absolute slack;
  * b2s/avebd layer-integral records: 1e-3 relative, the avebd quadrature
    slack, wide enough for an exact layer integral (<= 2.5e-4 from today's
    32-point quadrature) and narrow enough to catch a wrong integral;
  * hkm1_balance lhs: its own 1e-4 (a central difference in h);
  * gradient_check lhs: its own 1e-5 (a central difference in t);
  * sweep energy_eps: one-sided, at most 1e-9 above the reference; a lower
    energy (a better optimum) is accepted;
  * minimize final energy: one-sided, at most 1e-3 above the reference plus
    1e-4 of the start energy.  Descent trajectories amplify roundoff: from
    one start field, relative perturbations of 1e-15..1e-11 moved the
    400-iteration energy between 1.6e-8 and 8.4e-8 (start 1.4e-2).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

PASS, KNOWN, FAIL = "pass", "known", "fail"

DEFAULT_RTOL = 1e-8
RECORD_RTOL = {"b2s_estimate": 1e-3, "avebd_crosscheck": 1e-3,
               "hkm1_balance": 1e-4, "gradient_check": 1e-5}
ENERGY_RTOL = 1e-9
SWEEP_RTOL = 1e-9
MIN_FINAL_RTOL, MIN_START_ATOL = 1e-3, 1e-4
ADMISSIBLE_TOL = 1e-10
SWEEP_COLUMNS = ("eps", "delta_star", "energy_eps", "jump_cost", "gap")
TAIL_COLUMNS = ("m", "tail_mass")
EXIT_PASS, EXIT_FAIL = 0, 1


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def collect(out: Path, exit_code: int | None) -> dict:
    """Parse everything a CLI call wrote into `out` (manifest excluded)."""
    got: dict = {"exit": exit_code, "manifest": (out / "manifest.json").is_file()}
    # tail.csv holds tail masses: the tail command overwrites its records file
    for name in ("verify", "besov", "entropy", "minimize"):
        path = out / f"{name}.csv"
        if path.is_file():
            got["records"] = [
                {"name": r["name"], "lhs": float(r["lhs"]), "rhs": float(r["rhs"]),
                 "value": float(r["ratio_or_residual"]),
                 "params": json.loads(r["params"]), "passed": r["passed"] == "1",
                 "tolerance": float(r["tolerance"])}
                for r in _read_csv(path)]
    for name, columns in (("sweep", SWEEP_COLUMNS), ("tail", TAIL_COLUMNS)):
        path = out / f"{name}.csv"
        if path.is_file():
            got[name] = [{k: float(r[k]) for k in columns} for r in _read_csv(path)]
    for name in ("energy", "entropy"):
        path = out / f"{name}.json"
        if path.is_file():
            got[name] = json.loads(path.read_text())
    if (out / "minimize.json").is_file():
        rep = json.loads((out / "minimize.json").read_text())
        got["minimize"] = {"iterations": rep["iterations"],
                           "termination": rep["termination"],
                           "start": rep["energy_history"][0],
                           "final": rep["energy_history"][-1],
                           "final_energy": rep["final_energy"]}
    return got


def _close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rtol * abs(ref) + atol


def _final_bound(final: float, start: float) -> float:
    return final * (1.0 + MIN_FINAL_RTOL) + MIN_START_ATOL * start


def _record(got: dict, ref: dict) -> str:
    if not ref["passed"] and got["passed"]:
        return PASS
    if ref["name"] == "minimize_monotone":
        close = (got["value"] == ref["value"]
                 and _close(got["rhs"], ref["rhs"], ENERGY_RTOL)
                 and got["lhs"] <= _final_bound(ref["lhs"], ref["rhs"]))
    else:
        rtol = RECORD_RTOL.get(ref["name"], DEFAULT_RTOL)
        close = all(_close(got[k], ref[k], rtol, ref["tolerance"])
                    for k in ("lhs", "rhs", "value"))
    if got["passed"]:
        return PASS if close else FAIL
    return KNOWN if close else FAIL


def _records(got: list[dict], ref: list[dict]) -> list[str]:
    pending: dict[str, list[dict]] = {}
    for r in ref:
        pending.setdefault(_key(r), []).append(r)
    outcomes = []
    for g in got:
        refs = pending.get(_key(g))
        if refs:
            outcomes.append(_record(g, refs.pop(0)))
        else:
            outcomes.append(PASS if g["passed"] else FAIL)
    return outcomes + [FAIL] * sum(len(v) for v in pending.values())


def _key(record: dict) -> str:
    return record["name"] + json.dumps(record["params"], sort_keys=True)


def _sweep_row(got: dict, ref: dict) -> str:
    ok = (got["eps"] == ref["eps"]
          and _close(got["jump_cost"], ref["jump_cost"], 1e-12)
          and got["energy_eps"] <= ref["energy_eps"] * (1.0 + SWEEP_RTOL)
          and _close(got["gap"], got["energy_eps"] - got["jump_cost"], 0.0, 1e-12)
          and got["delta_star"] > 0.0)
    return PASS if ok else FAIL


def _tail_row(got: dict, ref: dict) -> str:
    ok = got["m"] == ref["m"] and _close(got["tail_mass"], ref["tail_mass"], DEFAULT_RTOL)
    return PASS if ok else FAIL


def _energy_entry(got: dict, ref: dict) -> str:
    ok = (all(_close(got[k], ref[k], ENERGY_RTOL)
              for k in ("compression", "bending", "eps", "energy_eps", "energy_indep"))
          and abs(got["eta_k1zero_residual"]) <= ADMISSIBLE_TOL)
    return PASS if ok else FAIL


def _minimize(got: dict, ref: dict) -> str:
    fe = got["final_energy"]
    consistent = _close(fe["energy_eps"],
                        0.5 * (fe["compression"] / fe["eps"] + fe["eps"] * fe["bending"]),
                        1e-12, 1e-300)
    ok = (got["termination"] == ref["termination"]
          and (got["termination"] != "max-iters" or got["iterations"] == ref["iterations"])
          and _close(got["start"], ref["start"], ENERGY_RTOL)
          and got["final"] <= _final_bound(ref["final"], ref["start"])
          and consistent)
    return PASS if ok else FAIL


def _pairwise(got: list, ref: list, judge) -> list[str]:
    out = [judge(g, r) for g, r in zip(got, ref)]
    return out + [FAIL] * abs(len(got) - len(ref))


def check_call(got: dict, ref: dict) -> list[str]:
    """Outcome of every operation of one CLI call: the call itself first."""
    records = got.get("records", [])
    expected_exit = EXIT_PASS if all(r["passed"] for r in records) else EXIT_FAIL
    same_files = set(got) == set(ref)
    outcomes = [PASS if got["exit"] == expected_exit and got["manifest"] and same_files
                else FAIL]
    outcomes += _records(records, ref.get("records", []))
    outcomes += _pairwise(got.get("sweep", []), ref.get("sweep", []), _sweep_row)
    outcomes += _pairwise(got.get("tail", []), ref.get("tail", []), _tail_row)
    if "energy" in ref or "energy" in got:
        e_got, e_ref = got.get("energy", {}), ref.get("energy", {})
        outcomes += [_energy_entry(e_got[k], e_ref[k]) if k in e_got and k in e_ref
                     else FAIL for k in sorted(set(e_got) | set(e_ref))]
    if "entropy" in ref or "entropy" in got:
        e_got, e_ref = got.get("entropy"), ref.get("entropy")
        ok = (e_got is not None and e_ref is not None
              and all(_close(e_got.get(k, math.nan), e_ref[k], 1e-12) for k in e_ref))
        outcomes.append(PASS if ok else FAIL)
    if "minimize" in ref or "minimize" in got:
        ok = "minimize" in got and "minimize" in ref
        outcomes.append(_minimize(got["minimize"], ref["minimize"]) if ok else FAIL)
    return outcomes
