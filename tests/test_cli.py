import argparse
import csv
import dataclasses
import importlib.util
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smectic
from smectic import ansatz, cli
from smectic import minimize as minimize_module
from smectic.besov import (VerificationRecord, verify_b2s, verify_l3, verify_lp,
                           verify_lp_eps)
from smectic.cli import _encode, main
from smectic.energy import EnergyReport, energy_eps, gradient_eps
from smectic.fields import (GridSpec, TorusField, inner, load_field,
                            random_band_limited, save_field)
from smectic.minimize import MinimizeOptions, minimize
from smectic.operators import d1


def run(args):
    return main(args)


SRC = Path(__file__).resolve().parents[1] / "src"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def one_error_line(capsys) -> bool:
    """Whether stderr holds exactly one `error:` line and no traceback."""
    err = capsys.readouterr().err
    return "Traceback" not in err and sum("error:" in line for line in err.splitlines()) == 1


class TestImportContract:
    @pytest.mark.parametrize("module", ["smectic", "smectic.cli"])
    def test_import_loads_no_scipy(self, module):
        """Importing the package loads no scipy, which no command needs, and
        no importlib.metadata, as the manifest's version is `smectic.__version__`.
        numpy.fft is loaded, as perfbench's tracer wraps it when it installs."""
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                "'importlib.metadata' in sys.modules, 'numpy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.split() == ["[]", "False", "True"]

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        """No command needs scipy: in an interpreter where `import scipy`
        fails, each returns its usual exit code (besov's known failure on a
        small grid is 1) and golden section refines the interior sweep points."""
        usual = {
            "verify": (["--grid", "32x32", "--kmax", "4", "--nfields", "1"], 0),
            "energy": (["--grid", "32x32", "--kmax", "4"], 0),
            "besov": (["--grid", "32x32", "--kmax", "4"], 1),
            "entropy": ([], 0),
            "minimize": (["--grid", "32x32", "--kmax", "4", "--max-iters", "5"], 0),
            "tail": (["--grid", "32x32", "--kmax", "8"], 0),
            "sweep": (["--c", "0.5", "--eps", "2^-8..2^-9", "--grid", "1024x64"], 0),
        }
        argvs = [[c, *argv, "--out", str(tmp_path / c)] for c, (argv, _) in usual.items()]
        code = ("import json, sys; sys.modules['scipy'] = None; "
                f"sys.path.insert(0, {str(SRC)!r}); from smectic.cli import main; "
                "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                             capture_output=True, text=True, timeout=300)
        assert out.stderr == "" and out.returncode == 0
        assert json.loads(out.stdout.splitlines()[-1]) == [e for _, e in usual.values()]
        rows = list(csv.DictReader(io.StringIO((tmp_path / "sweep" / "sweep.csv").read_text())))
        assert [r["bracketed"] for r in rows] == ["1", "1"]

    def test_golden_section_called_by_module_name(self, monkeypatch):
        """perfbench's tracer rebinds `smectic.ansatz.minimize_scalar` (span
        ansatz.golden): the sweep must call that module-level function."""
        assert inspect.isfunction(ansatz.minimize_scalar)
        assert ansatz.minimize_scalar.__qualname__ == "minimize_scalar"
        calls = []
        golden = ansatz.minimize_scalar

        def counted(*args, **kwargs):
            calls.append("golden")
            return golden(*args, **kwargs)

        monkeypatch.setattr(ansatz, "minimize_scalar", counted)
        d_star, _, bracketed = ansatz._optimize_delta(
            lambda d: (np.log(d) - np.log(0.03)) ** 2, 0.01, 0.125)
        assert bracketed and calls == ["golden"]
        assert d_star == pytest.approx(0.03, rel=1e-4)


class TestTracerContract:
    """perfbench's tracer wraps `smectic` by name from the outside, so a
    deleted or renamed traced name would fail only in a traced replay."""

    def test_every_traced_function_exists(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [f"{module}.{name}" for module, targets in tracer.SPAN_TARGETS.items()
                   for name in targets
                   if not callable(getattr(importlib.import_module(module), name, None))]
        assert missing == []

    def test_representation_getters_are_properties(self):
        """The tracer rewraps `samples` and `spectrum` from the class dict and
        reads `has_samples`/`has_spectrum` as booleans on an instance."""
        for name in ("samples", "spectrum", "has_samples", "has_spectrum"):
            assert isinstance(vars(TorusField)[name], property), name

    def test_every_exported_name_resolves_once(self):
        import smectic
        assert len(set(smectic.__all__)) == len(smectic.__all__)
        assert [n for n in smectic.__all__ if not hasattr(smectic, n)] == []


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["bogus"]) == 2

    def test_bad_grid(self, tmp_path):
        assert run(["verify", "--grid", "banana", "--out", str(tmp_path)]) == 2

    def test_bad_eps_range(self, tmp_path):
        assert run(["sweep", "--eps", "1..2", "--out", str(tmp_path)]) == 2

    def test_lone_dyadic_eps(self, tmp_path, capsys):
        """A lone `2^-k` is read like the range `2^-k..2^-k`; `2^x` is refused."""
        parser = cli.build_parser()
        for eps in ("2^-8", "2^-8..2^-8"):
            assert parser.parse_args(["sweep", "--eps", eps]).eps == [2.0 ** -8]
        assert run(["sweep", "--eps", "2^x", "--out", str(tmp_path)]) == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("argv", [["verify", "--field", "X"],
                                      ["sweep", "--seed", "1"],
                                      ["tail", "--eps", "0.1"]])
    def test_flag_the_command_does_not_read(self, tmp_path, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["energy", "--eps", "nan"], ["energy", "--eps", "1e400"], ["energy", "--eps", "inf"],
        ["energy", "--eps", "2^2000..2^2001"], ["energy", "--eps", "2^2000"],
        ["sweep", "--eps", "nan"],
        ["sweep", "--eps", "2^-1..2^1024"], ["sweep", "--c", "nan"],
        ["minimize", "--eps", "nan"], ["besov", "--eps", "nan"], ["besov", "--p", "inf"],
        ["entropy", "--c", "inf"]], ids=lambda argv: "-".join(a.strip("-") for a in argv))
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, argv):
        small = [] if argv[0] == "entropy" else ["--grid", "32x32"]
        assert run(argv + small + ["--out", str(tmp_path)]) == 2
        assert one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,config", [
        ("energy", '{"eps": NaN}'), ("sweep", '{"eps": "inf"}'), ("entropy", '{"c": Infinity}'),
        ("minimize", '{"eps": -Infinity}')], ids=["energy", "sweep", "entropy", "minimize"])
    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert one_error_line(capsys)
        assert not out.exists()

    def test_minimize_takes_one_eps(self, tmp_path):
        argv = ["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                "--out", str(tmp_path)]
        assert run(argv + ["--eps", "2^-4..2^-5"]) == 2
        assert not (tmp_path / "manifest.json").exists()
        assert run(argv + ["--eps", "0.0625"]) == 0

    @pytest.mark.parametrize("spelling", ["2^-6", "0.015625", "config"])
    def test_minimize_eps_in_either_spelling(self, tmp_path, spelling):
        """`minimize --eps` takes one value as a float or a dyadic `2^-k`,
        from the command line and from a config file alike."""
        if spelling == "config":
            (tmp_path / "cfg.json").write_text('{"eps": "2^-6"}')
            eps = ["--config", str(tmp_path / "cfg.json")]
        else:
            eps = ["--eps", spelling]
        out = tmp_path / "out"
        assert run(["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                    "--out", str(out)] + eps) == 0
        assert json.loads((out / "minimize.json").read_text())["final_energy"]["eps"] == 0.015625


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
    COMMANDS = pytest.mark.parametrize("command,fmt", [
        (c, f) for c in sorted(RECORD_NAMES) if RECORD_NAMES[c] for f in ("csv", "json")
    ] + [("energy", None), ("sweep", None)])

    def run_command(self, tmp_path, command, fmt) -> Path:
        """Run `command` on its small inputs; returns the --out directory."""
        save_field(random_band_limited(GridSpec(32, 32), seed=1, kmax=4, amplitude=0.5),
                   tmp_path / "w")
        out = tmp_path / "out"
        argv = [a.replace("{field}", str(tmp_path / "w")) for a in self.ARGV[command]]
        if fmt is not None:
            argv += ["--format", fmt]
        run([command] + argv + ["--out", str(out)])
        return out

    @COMMANDS
    def test_records_file_holds_the_records(self, tmp_path, capsys, command, fmt):
        """Records go to <command>.<format>, or to <command>_records.<format>
        when the command writes <command>.<format> itself; no file is
        overwritten."""
        out = self.run_command(tmp_path, command, fmt)
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

    @COMMANDS
    def test_every_file_ends_its_lines_in_lf(self, tmp_path, command, fmt):
        """Every CSV and JSON file, the manifest too, holds no CR and ends in
        exactly one LF."""
        for path in self.run_command(tmp_path, command, fmt).iterdir():
            data = path.read_bytes()
            assert b"\r" not in data, path.name
            assert data.endswith(b"\n") and not data.endswith(b"\n\n"), path.name


class TestEncode:
    """The one encoder of every output file, on the data the commands hand it."""

    def test_records_csv_columns_follow_the_record_and_round_trip(self):
        recs = verify_l3(random_band_limited(GridSpec(256, 256), seed=3, kmax=8,
                                             amplitude=0.5), (0.5, 0.125))
        rows = list(csv.reader(io.StringIO(_encode("besov.csv", [vars(r) for r in recs]))))
        assert rows[0] == [f.name for f in dataclasses.fields(VerificationRecord)]
        for rec, row in zip(recs, rows[1:], strict=True):
            cells = dict(zip(rows[0], row, strict=True))
            assert cells["name"] == rec.name
            for key in ("lhs", "rhs", "ratio_or_residual", "tolerance"):
                assert float(cells[key]) == getattr(rec, key)
            assert json.loads(cells["params"]) == rec.params
            assert cells["passed"] == str(int(rec.passed))

    def test_zero_field_ratio_records_json(self):
        # the degenerate record of each ratio estimate, key order included
        # (--format json writes params as built); b2s then has no avebd record
        z = TorusField.zero(GridSpec(256, 256))
        recs = (verify_l3(z, (0.5,)) + verify_b2s(z, (0.5,))
                + [verify_lp(z, 2.0), verify_lp_eps(z, 2.0, 0.1)])
        params = [{"h": 0.5}, {"h": 0.5}, {"p": 2.0}, {"p": 2.0, "eps": 0.1}]
        expected = [
            {"name": name, "lhs": 0.0, "rhs": 0.0, "ratio_or_residual": 0.0,
             "params": {**par, "degenerate": True}, "passed": True, "tolerance": 0.0}
            for name, par in zip(("l3_estimate", "b2s_estimate", "lp_estimate",
                                  "lp_eps_estimate"), params)]
        assert (_encode("besov.json", [vars(r) for r in recs])
                == json.dumps(expected, indent=2) + "\n")

    def test_sweep_row_cells(self, monkeypatch):
        """The sweep table leaves out the grid; counts are ints, flags 0/1."""
        rec = ansatz.SweepRecord(eps=0.25, delta_star=0.1, energy_eps=0.2,
                                 jump_cost=1.0 / 6.0, gap=0.2 - 1.0 / 6.0,
                                 grid=GridSpec(256, 8), n_evals=19, bracketed=True,
                                 at_bound=False)
        monkeypatch.setattr(cli, "eps_sweep", lambda p, eps, grid: [rec])
        _, files = cli._cmd_sweep(argparse.Namespace(c=0.5, eps=[0.25],
                                                     grid=GridSpec(256, 8)))
        assert _encode("sweep.csv", files["sweep.csv"]) == (
            "eps,delta_star,energy_eps,jump_cost,gap,n_evals,bracketed,at_bound\n"
            f"0.25,0.1,0.2,{1.0 / 6.0!r},{0.2 - 1.0 / 6.0!r},19,1,0\n")

    @pytest.mark.parametrize("pins,max_iters", [(0, 5), (4, 30)])
    def test_minimize_report_json(self, pins, max_iters):
        grid = GridSpec(64, 64)
        w0 = random_band_limited(grid, seed=15, kmax=8, amplitude=0.2)
        _, rep = minimize(w0, 0.0625, MinimizeOptions(max_iters=max_iters, pins=pins))
        data = json.loads(_encode("minimize.json", rep))
        assert list(data) == [f.name for f in dataclasses.fields(rep)]
        assert data["grid"] == [64, 64]
        assert data["step_history"] == rep.step_history
        assert data["backtrack_history"] == rep.backtrack_history
        assert data["termination"] == rep.termination
        assert data["final_energy"] == dataclasses.asdict(rep.final_energy)

    def test_energy_json_fields(self):
        report = energy_eps(random_band_limited(GridSpec(32, 32), seed=1, kmax=4,
                                                amplitude=0.5), 0.25)
        data = json.loads(_encode("energy.json", {"0.25": report, "0.5": report.at_eps(0.5)}))
        assert list(data) == ["0.25", "0.5"]
        assert list(data["0.25"]) == [f.name for f in dataclasses.fields(EnergyReport)]
        assert data["0.25"] == dataclasses.asdict(report)
        assert data["0.5"]["eps"] == 0.5
        assert data["0.25"]["eta_k1zero_residual"] <= 1e-12


class TestVerify:
    def test_passes_and_writes(self, tmp_path, capsys):
        code = run(["verify", "--grid", "64x64", "--seed", "7", "--kmax", "8",
                    "--nfields", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "verify"

    def test_single_field_pairs_with_the_next_seed(self, tmp_path):
        """With --nfields 1 the field of seed s is paired with that of seed
        s + 1 (not with itself), in the adjointness and gradient records."""
        code = run(["verify", "--grid", "32x32", "--seed", "3", "--kmax", "4",
                    "--nfields", "1", "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        records = json.loads((tmp_path / "verify.json").read_text())
        assert {r["params"].get("seed") for r in records} <= {3, None}
        w, g = (random_band_limited(GridSpec(32, 32), seed=s, kmax=4, amplitude=0.5)
                for s in (3, 4))
        adjoint = next(r for r in records if r["name"] == "adjointness")
        assert adjoint["lhs"] == inner(d1(w), g)
        assert adjoint["rhs"] == -inner(w, d1(g))
        check = next(r for r in records if r["name"] == "gradient_check")
        assert check["rhs"] == inner(gradient_eps(w, 0.0625), g)

    def test_fields_pair_in_a_ring_each_drawn_once(self, tmp_path, monkeypatch):
        """Field i is paired with field i + 1 and the last with field 0,
        whose spectrum comes back bare; each field is drawn once."""
        drawn, draw = [], cli._input_field

        def counted(args, seed=0, **kwargs):
            drawn.append(seed)
            return draw(args, seed, **kwargs)

        monkeypatch.setattr(cli, "_input_field", counted)
        code = run(["verify", "--grid", "32x32", "--seed", "3", "--kmax", "4",
                    "--nfields", "3", "--format", "json", "--out", str(tmp_path)])
        assert code == 0 and drawn == [0, 1, 2]
        records = json.loads((tmp_path / "verify.json").read_text())
        fields = [random_band_limited(GridSpec(32, 32), seed=s, kmax=4, amplitude=0.5)
                  for s in (3, 4, 5)]
        adjoint = [r for r in records if r["name"] == "adjointness"]
        checks = [r for r in records if r["name"] == "gradient_check"]
        for i, (w, g) in enumerate(zip(fields, fields[1:] + fields[:1])):
            assert adjoint[i]["params"] == {"seed": 3 + i}
            assert adjoint[i]["lhs"] == inner(d1(w), g)
            assert checks[i]["rhs"] == inner(gradient_eps(w, 0.0625), g)

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

    @pytest.mark.parametrize("header", [{"n2": 32}, [32, 32], {"n1": 32.7, "n2": 32}],
                             ids=["no-n1", "list", "float-n1"])
    def test_malformed_header_is_usage_error(self, tmp_path, capsys, header):
        save_field(TorusField.zero(GridSpec(32, 32)), tmp_path / "w")
        if isinstance(header, dict):
            header = {"layout": "row-major-x1-fastest", "dtype": "f64-le", **header}
        (tmp_path / "w.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        assert run(["energy", "--field", str(tmp_path / "w"), "--out", str(out)]) == 2
        assert one_error_line(capsys)
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2
        assert not (out / "energy.json").exists()

    def test_nan_field_is_usage_error(self, tmp_path):
        samples = np.zeros((32, 32))
        samples[0, 0] = np.nan
        save_field(TorusField.from_samples(GridSpec(32, 32), samples), tmp_path / "nan")
        code = run(["energy", "--field", str(tmp_path / "nan"), "--eps", "0.1",
                    "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "energy.json").exists()

    @pytest.mark.parametrize("command", ["energy", "entropy", "minimize"])
    def test_field_with_x1_mean_is_usage_error(self, tmp_path, capsys, command):
        """A --field file that is not admissible (here 1 + cos 2 pi x1, whose
        k1 = 0 row is the constant 1) is bad input, not a failed record."""
        grid = GridSpec(32, 32)
        samples = np.repeat(1.0 + np.cos(2 * np.pi * grid.x1()), grid.n2, axis=1)
        save_field(TorusField.from_samples(grid, samples), tmp_path / "mean")
        out = tmp_path / "out"
        assert run([command, "--field", str(tmp_path / "mean"), "--out", str(out)]) == 2
        assert one_error_line(capsys)
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2
        assert {p.name for p in out.iterdir()} == {"manifest.json"}


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
        """The sweep table, the besov records file and the energy and entropy
        files of a field file, rerun, are the same bytes."""
        field = tmp_path / "w"
        save_field(random_band_limited(GridSpec(64, 64), seed=5, kmax=8, amplitude=0.5), field)
        on_field = ["--field", str(field), "--eps", "2^-2..2^-4"]
        for argv, name in ((["sweep", "--c", "0.5", "--eps", "0.25", "--grid", "256x16"],
                            "sweep.csv"),
                           (["besov", "--grid", "64x64", "--kmax", "8"],
                            "besov.csv"),
                           (["energy", *on_field], "energy.json"),
                           (["entropy", *on_field], "entropy.csv")):
            a, b = tmp_path / name / "a", tmp_path / name / "b"
            codes = [run([*argv, "--out", str(out)]) for out in (a, b)]
            assert codes[0] == codes[1] and (a / name).exists()
            assert (a / name).read_bytes() == (b / name).read_bytes()


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
        profile.write_text(json.dumps({"interfaces": [
            {"start": [0.0, 0.0], "end": [0.0, 1.0], "w_minus": -0.5, "w_plus": 0.5},
            {"start": [0.0, 0.5], "end": [1.0, 0.5], "w_minus": -1.0, "w_plus": 1.0}]}))
        out = tmp_path / "out"
        assert run(["entropy", "--profile", str(profile), "--format", "json",
                    "--out", str(out)]) == 1
        assert {p.name for p in out.iterdir()} == {"entropy_records.json", "manifest.json"}
        records = json.loads((out / "entropy_records.json").read_text())
        assert [r["passed"] for r in records] == [True, False]
        assert capsys.readouterr().out.split() == ["entropy:", "1/2", "records", "passed"]

    @pytest.mark.parametrize("interface", [
        {"start": [0, 0], "w_minus": -0.5, "w_plus": 0.5},
        {"start": [0, 0], "end": [0, 0], "w_minus": -0.5, "w_plus": 0.5},
        {"start": [0, 0], "end": [0, 1], "w_minus": -0.5, "w_plus": "nan"},
        {"start": [0, 0, 7], "end": [0, 1, "x"], "w_minus": -0.5, "w_plus": 0.5},
        {"start": [0, 0], "end": [0, 1], "w_minus": "-0.5", "w_plus": "0.5"},
        {"start": [0, 0], "end": [0, 1], "w_minus": True, "w_plus": 0.5},
        {"start": [True, 0], "end": [0, 1], "w_minus": -0.5, "w_plus": 0.5}],
        ids=["no-end", "zero-length", "nan-trace", "three-coordinates", "string-traces",
             "bool-trace", "bool-coordinate"])
    def test_malformed_profile_is_usage_error(self, tmp_path, capsys, interface):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"interfaces": [interface]}))
        out = tmp_path / "out"
        assert run(["entropy", "--profile", str(profile), "--out", str(out)]) == 2
        assert one_error_line(capsys)
        assert {p.name for p in out.iterdir()} == {"manifest.json"}

    @pytest.mark.parametrize("grid", ["8x8", "14x8"])
    def test_sweep_with_no_width_to_search_is_usage_error(self, tmp_path, capsys, grid):
        """For n1 < 16 the width range [2/n1, 1/8] is empty."""
        assert run(["sweep", "--grid", grid, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "[2/n1, 1/8]" in err and "Traceback" not in err
        assert {p.name for p in tmp_path.iterdir()} == {"manifest.json"}

    def test_sweep_at_the_smallest_width_range(self, tmp_path):
        assert run(["sweep", "--grid", "16x8", "--eps", "0.25", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "sweep.csv").read_text())))
        assert [float(r["delta_star"]) for r in rows] == [0.125]
        assert [int(r["n_evals"]) for r in rows] == [1]  # the one width, probed once

    def test_tail(self, tmp_path):
        code = run(["tail", "--grid", "128x128", "--seed", "3", "--kmax", "40",
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tail.csv").read_text().splitlines()
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert masses == sorted(masses, reverse=True)


class TestUnusableOut:
    """An --out that cannot hold the outputs is a usage error for every
    command: exit 2 with one `error:` line and no traceback."""

    ARGV = {
        "verify": ["--grid", "16x16", "--kmax", "2", "--nfields", "1"],
        "energy": ["--grid", "16x16", "--kmax", "2"],
        "besov": ["--grid", "16x16", "--kmax", "2"],
        "entropy": [],
        "sweep": ["--eps", "0.25", "--grid", "16x8"],
        "minimize": ["--grid", "16x16", "--kmax", "2", "--max-iters", "2"],
        "tail": ["--grid", "16x16", "--kmax", "2"],
    }
    CALLS = pytest.mark.parametrize(
        "argv", [[c, *a] for c, a in ARGV.items()] + [["minimize", *ARGV["minimize"],
                                                        "--save-final"]],
        ids=[*ARGV, "minimize-save-final"])

    @CALLS
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_regular_file(self, tmp_path, capsys, argv, under):
        """--out a regular file, or a path under one, is refused before the
        command runs; the file is left as it was."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "out" if under else taken
        assert run(argv + ["--out", str(out)]) == 2
        assert one_error_line(capsys)
        assert taken.read_text() == "kept\n"

    @CALLS
    def test_records_file_name_taken_by_a_directory(self, tmp_path, capsys, argv):
        """The first file the command writes cannot replace a directory: the
        write fails after the work, and the manifest says why."""
        command = argv[0]
        if RECORD_NAMES[command]:
            name = f"{command}.csv"
            name = f"{command}_records.csv" if name in OWN_FILES[command] else name
        else:
            (name,) = OWN_FILES[command]
        (tmp_path / name).mkdir()
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert one_error_line(capsys)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and name in manifest["error"]


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
        assert report["grid"] == [32, 32]

    def test_save_final_into_a_missing_directory(self, tmp_path):
        """--out is made before the final field is saved into it, and the
        saved field is the descent's result."""
        out = tmp_path / "new" / "dir"
        code = run(["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                    "--save-final", "--out", str(out)])
        assert code == 0
        w0 = random_band_limited(GridSpec(32, 32), seed=0, kmax=4, amplitude=0.05)
        w, _ = minimize(w0, 2.0 ** -4, MinimizeOptions(max_iters=5))
        saved = np.fromfile(out / "final.bin", dtype="<f8").reshape(32, 32).T
        assert np.array_equal(saved, w.samples)

    def test_x2_independent_field_descends_on_the_lean_grid(self, tmp_path):
        shock = ansatz.mollify(ansatz.vertical_two_shock(0.5), 0.125, GridSpec(64, 16))
        save_field(shock, tmp_path / "shock")
        code = run(["minimize", "--field", str(tmp_path / "shock"), "--pins", "8",
                    "--max-iters", "20", "--save-final", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "minimize.json").read_text())["grid"] == [64, 2]
        header = json.loads((tmp_path / "final.json").read_text())
        assert (header["n1"], header["n2"]) == (64, 16)
        samples = load_field(tmp_path / "final").samples
        assert np.all(samples == samples[:, :1])

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

    def test_version_is_the_package_version(self, tmp_path):
        """The manifest names the code that ran, also when run from the sources."""
        assert run(["entropy", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == smectic.__version__

    def test_passing_command_manifest_has_no_error(self, tmp_path):
        assert run(["minimize", "--grid", "32x32", "--kmax", "4", "--max-iters", "5",
                    "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 0 and manifest["error"] is None

    def test_grid_is_n1_n2(self, tmp_path):
        """The manifest writes a GridSpec as every output file does: [n1, n2]."""
        assert run(["tail", "--grid", "32x16", "--kmax", "4", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["grid"] == [32, 16]

    def test_failed_record_manifest_has_exit_code(self, tmp_path):
        # hkm1_balance at h = 1/8 fails on this field (a known record failure)
        assert run(["besov", "--grid", "256x256", "--kmax", "32", "--out", str(tmp_path)]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["error"] is None
