"""Tests of the benchmark itself: exact counters and the correctness gate.

Run from the root of a checkout (not part of the package's test suite):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_smectic, run_pass  # noqa: E402

CLI_MAIN = import_smectic()

from gate import FAIL, KNOWN, PASS, check_call  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import PARTS, WORKLOADS  # noqa: E402

EXACT = ("fft.calls", "fft.points", "ansatz.objective_evals", "minimize.iterations",
         "energy.energy_eps.calls", "energy.gradient_eps.calls",
         "operators.product.fft_calls")


def _reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())["0"]


def _traced_pass(name: str, work: Path) -> dict:
    wl = PARTS[name]
    wl.make_inputs(work, 0)
    tracer = Tracer()
    tracer.install()
    try:
        _, outcomes, written = run_pass(wl, 0, work, _reference(name), CLI_MAIN, tracer)
    finally:
        tracer.uninstall()
    assert FAIL not in outcomes
    return layer_metrics(tracer, written)


@pytest.mark.parametrize("name", ["sweep", "descent"])
def test_counts_repeat_exactly(name, tmp_path):
    first = _traced_pass(name, tmp_path)
    shutil.rmtree(tmp_path)
    tmp_path.mkdir()
    second = _traced_pass(name, tmp_path)
    for key in EXACT:
        assert first[key] == second[key], key
    assert first["fft.calls"] > 0
    key = "ansatz.objective_evals" if name == "sweep" else "minimize.iterations"
    assert first[key] > 0


def test_fft_per_call_on_spectral_field(record_property):
    import smectic.energy as energy
    from smectic.fields import GridSpec, random_band_limited

    counts = []
    for _ in range(2):
        w = random_band_limited(GridSpec(64, 64), seed=3, kmax=8, amplitude=0.5)
        assert w.has_spectrum and not w.has_samples
        tracer = Tracer()
        tracer.install()
        try:  # through the module: the tracer rebinds module attributes
            energy.energy_eps(w, 0.0625)
            energy.gradient_eps(w, 0.0625)
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer, 0)
        counts.append((m["energy.energy_eps.fft_per_call"],
                       m["energy.gradient_eps.fft_per_call"]))
    assert counts[0] == counts[1]
    assert all(c >= 1 and c == int(c) for c in counts[0])
    record_property("energy_eps_fft_per_call", counts[0][0])
    record_property("gradient_eps_fft_per_call", counts[0][1])


def test_tracer_restores_the_package():
    import numpy
    import smectic.operators as ops
    from smectic.fields import TorusField
    before = (ops.d1, ops.shift1, numpy.fft.ifft2, TorusField.samples)
    tracer = Tracer()
    tracer.install()
    assert ops.d1 is not before[0]
    tracer.uninstall()
    assert (ops.d1, ops.shift1, numpy.fft.ifft2, TorusField.samples) == before


def _first_call(name: str) -> dict:
    return _reference(name)["calls"][0]


def test_gate_accepts_reference_and_counts_known_failure():
    ref = _first_call("estimates")
    outcomes = check_call(copy.deepcopy(ref), ref)
    assert FAIL not in outcomes
    assert outcomes.count(KNOWN) == 1  # hkm1_balance at h = 0.125


def test_gate_b2s_tolerance():
    ref = _first_call("estimates")
    i = next(i for i, r in enumerate(ref["records"]) if r["name"] == "b2s_estimate")
    for rel, expected in ((2.5e-4, PASS), (1e-2, FAIL)):
        got = copy.deepcopy(ref)
        for key in ("lhs", "value"):
            got["records"][i][key] *= 1.0 + rel
        assert check_call(got, ref)[1 + i] == expected


def test_gate_fixed_failure_passes_and_wrong_identity_fails():
    ref = _first_call("estimates")
    i = next(i for i, r in enumerate(ref["records"]) if r["name"] == "hkm1_balance")
    got = copy.deepcopy(ref)
    got["records"][i].update(passed=True, lhs=got["records"][i]["rhs"], value=0.0)
    got["exit"] = 0
    assert FAIL not in check_call(got, ref)
    j = next(j for j, r in enumerate(ref["records"]) if r["name"] == "l3_estimate")
    got = copy.deepcopy(ref)
    got["records"][j]["lhs"] *= 1.0 + 1e-6
    assert check_call(got, ref)[1 + j] == FAIL


def test_gate_matches_records_by_name_and_params():
    ref = _first_call("estimates")
    got = copy.deepcopy(ref)
    got["records"].reverse()
    extra = dict(ref["records"][0], name="new_diagnostic")
    got["records"].append(extra)
    outcomes = check_call(got, ref)
    assert FAIL not in outcomes and outcomes.count(KNOWN) == 1
    got["records"] = got["records"][1:]
    assert FAIL in check_call(got, ref)


def test_gate_sweep_energy_is_one_sided():
    ref = _first_call("sweep")
    for factor, expected in ((1.0 - 1e-6, PASS), (1.0 + 1e-6, FAIL)):
        got = copy.deepcopy(ref)
        row = got["sweep"][0]
        row["energy_eps"] *= factor
        row["gap"] = row["energy_eps"] - row["jump_cost"]
        assert check_call(got, ref)[1] == expected


def test_gate_wrong_exit_code_fails():
    ref = _first_call("sweep")
    got = dict(ref, exit=2)
    assert check_call(got, ref)[0] == FAIL


def test_workloads_join_their_parts_references():
    from run import load_reference
    for wl in WORKLOADS.values():
        for variant in range(4):
            ref = load_reference(wl, variant)
            assert ref["argv"] == wl.calls(variant)
            assert len(ref["calls"]) == len(wl.part_of_calls(variant))
