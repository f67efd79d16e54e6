import csv
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smectic import ansatz
from smectic import minimize as minimize_module
from smectic.cli import main
from smectic.entropy import Interface, JumpProfile
from smectic.fields import GridSpec, TorusField, random_band_limited, save_field


def run(args):
    return main(args)


SRC = Path(__file__).resolve().parents[1] / "src"


class TestImportContract:
    @pytest.mark.parametrize("module", ["smectic", "smectic.cli"])
    def test_import_loads_no_scipy(self, module):
        """Only the sweep needs scipy; every other command starts without it.
        numpy.fft is loaded, as perfbench's tracer wraps it when it installs."""
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                "'numpy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.split() == ["[]", "True"]

    def test_golden_section_called_by_module_name(self, monkeypatch):
        """perfbench's tracer rebinds `smectic.ansatz.minimize_scalar` (span
        ansatz.golden): the sweep must call that module-level function."""
        assert inspect.isfunction(ansatz.minimize_scalar)
        assert ansatz.minimize_scalar.__qualname__ == "minimize_scalar"
        calls = []
        golden = ansatz.minimize_scalar

        def counted(fun, **kwargs):
            calls.append(kwargs["method"])
            return golden(fun, **kwargs)

        monkeypatch.setattr(ansatz, "minimize_scalar", counted)
        d_star, _, bracketed = ansatz._optimize_delta(
            lambda d: (np.log(d) - np.log(0.03)) ** 2, 0.01, 0.125)
        assert bracketed and calls == ["golden"]
        assert d_star == pytest.approx(0.03, rel=1e-4)


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["bogus"]) == 2

    def test_bad_grid(self, tmp_path):
        assert run(["verify", "--grid", "banana", "--out", str(tmp_path)]) == 2

    def test_bad_eps_range(self, tmp_path):
        assert run(["sweep", "--eps", "1..2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [["verify", "--field", "X"],
                                      ["sweep", "--seed", "1"],
                                      ["tail", "--eps", "0.1"]])
    def test_flag_the_command_does_not_read(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_minimize_takes_one_eps(self, tmp_path):
        argv = ["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                "--out", str(tmp_path)]
        assert run(argv + ["--eps", "2^-4..2^-5"]) == 2
        assert not (tmp_path / "manifest.json").exists()
        assert run(argv + ["--eps", "0.0625"]) == 0


class TestIntegerRanges:
    @pytest.mark.parametrize("argv", [
        ["verify", "--nfields", "0"], ["verify", "--nfields", "-2"]])
    def test_nfields_at_least_one(self, tmp_path, argv, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["verify", "energy", "besov", "minimize", "tail"])
    @pytest.mark.parametrize("kmax", ["0", "-5"])
    def test_kmax_at_least_one(self, tmp_path, command, kmax, capsys):
        assert run([command, "--kmax", kmax, "--out", str(tmp_path)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_pins_not_negative(self, tmp_path, capsys):
        assert run(["minimize", "--pins", "-3", "--out", str(tmp_path)]) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_max_iters_not_negative(self, tmp_path, capsys):
        assert run(["minimize", "--max-iters", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "must be >= 0" in err and "tolerances" not in err
        assert not (tmp_path / "manifest.json").exists()

    def test_config_value_checked_too(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nfields": 0}))
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_lower_bounds_accepted(self, tmp_path):
        assert run(["minimize", "--grid", "32x32", "--kmax", "1", "--pins", "0",
                    "--max-iters", "0", "--out", str(tmp_path)]) == 0


#: the records every command makes on the small inputs of TestRecordsFile
RECORD_NAMES = {
    "verify": {"parseval", "adjointness", "shift_group_law", "hkm2_integrated",
               "div_sigma_identity", "gradient_check"},
    "besov": {"l3_estimate", "b2s_estimate", "avebd_crosscheck", "lp_estimate",
              "lp_eps_estimate", "hkm2_integrated", "hkm1_balance"},
    "entropy": {"rankine_hugoniot", "div_sigma_identity", "entropy_production",
                "duality_bound"},
    "minimize": {"minimize_monotone"},
    "tail": {"tail_monotone"},
    "energy": set(),
    "sweep": set(),
}
#: each command's own output files
OWN_FILES = {"verify": set(), "besov": set(), "entropy": {"entropy.json"},
             "minimize": {"minimize.json"}, "tail": {"tail.csv"},
             "energy": {"energy.json"}, "sweep": {"sweep.csv"}}


class TestRecordsFile:
    ARGV = {
        "verify": ["--grid", "32x32", "--kmax", "4", "--nfields", "2"],
        "energy": ["--grid", "32x32", "--kmax", "4"],
        "besov": ["--grid", "32x32", "--kmax", "4"],
        "entropy": ["--field", "{field}", "--eps", "2^-2..2^-3"],
        "sweep": ["--eps", "0.25", "--grid", "256x16"],
        "minimize": ["--grid", "32x32", "--kmax", "4", "--max-iters", "5"],
        "tail": ["--grid", "32x32", "--kmax", "8"],
    }

    # energy and sweep make no records and read no --format
    @pytest.mark.parametrize("command,fmt", [
        (c, f) for c in sorted(RECORD_NAMES) if RECORD_NAMES[c] for f in ("csv", "json")
    ] + [("energy", None), ("sweep", None)])
    def test_records_file_holds_the_records(self, tmp_path, capsys, command, fmt):
        """Records go to <command>.<format>, or to <command>_records.<format>
        when the command writes <command>.<format> itself; no file is
        overwritten."""
        save_field(random_band_limited(GridSpec(32, 32), seed=1, kmax=4, amplitude=0.5),
                   tmp_path / "w")
        out = tmp_path / "out"
        argv = [a.replace("{field}", str(tmp_path / "w")) for a in self.ARGV[command]]
        if fmt is not None:
            argv += ["--format", fmt]
        run([command] + argv + ["--out", str(out)])
        summary = capsys.readouterr().out.split()
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        if fmt is None:
            assert summary == [f"{command}:", "done"]
            assert written == OWN_FILES[command]
            return
        own = f"{command}.{fmt}"
        records_file = f"{command}_records.{fmt}" if own in OWN_FILES[command] else own
        assert written == OWN_FILES[command] | {records_file}
        text = (out / records_file).read_text()
        if fmt == "csv":
            records = list(csv.DictReader(io.StringIO(text)))
        else:
            records = json.loads(text)
        assert len(records) == int(summary[1].split("/")[1])
        assert {r["name"] for r in records} == RECORD_NAMES[command]


class TestVerify:
    def test_passes_and_writes(self, tmp_path, capsys):
        code = run(["verify", "--grid", "64x64", "--seed", "7", "--kmax", "8",
                    "--nfields", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "verify"

    def test_json_format(self, tmp_path):
        code = run(["verify", "--grid", "64x64", "--kmax", "8", "--nfields", "1",
                    "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        records = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["passed"] for r in records)


class TestEnergy:
    def test_zero_field_report(self, tmp_path):
        grid = GridSpec(32, 32)
        save_field(TorusField.zero(grid), tmp_path / "zero")
        code = run(["energy", "--field", str(tmp_path / "zero"), "--eps", "0.1",
                    "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "energy.json").read_text())["0.1"]
        assert report["energy_eps"] == 0.0
        assert report["energy_indep"] == 0.0

    def test_nan_field_is_usage_error(self, tmp_path):
        samples = np.zeros((32, 32))
        samples[0, 0] = np.nan
        save_field(TorusField.from_samples(GridSpec(32, 32), samples), tmp_path / "nan")
        code = run(["energy", "--field", str(tmp_path / "nan"), "--eps", "0.1",
                    "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "energy.json").exists()


class TestSweep:
    def test_csv_jump_cost_column(self, tmp_path):
        code = run(["sweep", "--c", "0.5", "--eps", "2^-4..2^-5",
                    "--grid", "256x16", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("eps,delta_star,energy_eps,jump_cost,gap,"
                            "n_evals,bracketed,at_bound")
        for line in lines[1:]:
            jump = float(line.split(",")[3])
            assert abs(jump - 1.0 / 6.0) <= 1e-10

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sweep", "--c", "0.5", "--eps", "0.25",
                        "--grid", "256x16", "--out", str(out)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


class TestConfigFile:
    def test_config_merged_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "64x64", "seed": 3, "kmax": 8,
                                   "nfields": 9}))
        code = run(["verify", "--config", str(cfg), "--nfields", "1",
                    "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["nfields"] == 1

    def test_values_coerced_through_option_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "64x64", "kmax": "8", "nfields": 1}))
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["kmax"] == 8

    @pytest.mark.parametrize("command,config", [
        ("verify", {"kmax": "eight"}), ("verify", {"seed": 1.5}),
        ("verify", {"nfields": True}), ("verify", {"format": "xml"}),
        ("minimize", {"save_final": "yes"}), ("verify", {"kmax": None})],
        ids=[f"config{i}" for i in range(6)])
    def test_bad_value_is_usage_error(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "64x64", **config}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp": 9}))
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,config", [("sweep", {"seed": 1}),
                                                ("verify", {"eps": 0.1})])
    def test_key_of_another_command_rejected(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()


class TestEntropyAndTail:
    def test_entropy_default_two_shock(self, tmp_path):
        code = run(["entropy", "--c", "0.5", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "entropy.json").read_text())
        assert data["jump_cost"] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_incompatible_profile_records_name(self, tmp_path, capsys):
        """A failed slope law writes no jump-cost file, yet the records keep
        their name: the name does not depend on the verdict."""
        profile = tmp_path / "profile.json"
        profile.write_text(JumpProfile((
            Interface(start=(0.0, 0.0), end=(0.0, 1.0), w_minus=-0.5, w_plus=0.5),
            Interface(start=(0.0, 0.5), end=(1.0, 0.5), w_minus=-1.0, w_plus=1.0),
        )).to_json())
        out = tmp_path / "out"
        assert run(["entropy", "--profile", str(profile), "--format", "json",
                    "--out", str(out)]) == 1
        assert {p.name for p in out.iterdir()} == {"entropy_records.json", "manifest.json"}
        records = json.loads((out / "entropy_records.json").read_text())
        assert [r["passed"] for r in records] == [True, False]
        assert capsys.readouterr().out.split() == ["entropy:", "1/2", "records", "passed"]

    def test_tail(self, tmp_path):
        code = run(["tail", "--grid", "128x128", "--seed", "3", "--kmax", "40",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tail.csv").read_text().splitlines()
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert masses == sorted(masses, reverse=True)


class TestMinimizeCommand:
    def test_runs_and_reports(self, tmp_path):
        code = run(["minimize", "--grid", "32x32", "--seed", "7", "--kmax", "4",
                    "--eps", "0.0625", "--max-iters", "50",
                    "--save-final", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "minimize.json").read_text())
        hist = report["energy_history"]
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
        assert (tmp_path / "final.bin").exists()

    def test_line_search_failure_writes_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(minimize_module, "MAX_BACKTRACKS", 0)
        code = run(["minimize", "--grid", "32x32", "--kmax", "4",
                    "--max-iters", "5", "--out", str(tmp_path)])
        assert code == 1
        assert "no Armijo decrease" in capsys.readouterr().err
        report = json.loads((tmp_path / "minimize.json").read_text())
        assert report["termination"] == "line-search"


class TestManifest:
    def test_failed_command_writes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(minimize_module, "MAX_BACKTRACKS", 0)
        code = run(["minimize", "--grid", "32x32", "--kmax", "4",
                    "--max-iters", "5", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert code == manifest["exit_code"] == 1
        assert manifest["error"].startswith("no Armijo decrease")
        assert manifest["command"] == "minimize"
        assert manifest["config"]["max_iters"] == 5

    def test_usage_failure_writes_manifest(self, tmp_path):
        code = run(["energy", "--field", str(tmp_path / "missing"),
                    "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert code == manifest["exit_code"] == 2
        assert "missing" in manifest["error"]

    def test_passing_command_manifest_has_no_error(self, tmp_path):
        assert run(["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                    "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 0 and manifest["error"] is None

    def test_failed_record_manifest_has_exit_code(self, tmp_path):
        # hkm1_balance at h = 1/8 fails on this field (a known record failure)
        assert run(["besov", "--grid", "256x256", "--kmax", "32", "--out", str(tmp_path)]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["error"] is None
