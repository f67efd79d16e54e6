"""Command-line front end: verification suites, energy evaluation, sweeps,
minimization, and tail diagnostics, with CSV/JSON outputs and a run manifest.

Exit codes: 0 all pass-gated records passed, 1 at least one record failed,
2 usage or configuration error.  Outputs are written atomically (temp file +
rename) into the --out directory; timestamps live only in the manifest so the
data files are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from .ansatz import SWEEP_CSV_HEADER, eps_sweep, vertical_two_shock
from .besov import (HGrid, VerificationRecord, gradient_check, hkm1_balance,
                    hkm2_residual, records_to_csv, records_to_json, verify_b2s,
                    verify_l3, verify_lp, verify_lp_eps, tail_mass)
from .energy import energy_eps
from .entropy import (JumpProfile, div_sigma_identity, duality_gap,
                      entropy_production, jump_cost, div_sigma_jump_measure,
                      rankine_hugoniot_check)
from .errors import LineSearchFailure, SmecticError
from .fields import (GridSpec, TorusField, as_admissible, inner, load_field,
                     random_band_limited, save_field)
from .minimize import MinimizeOptions, lowest_mode_pins, minimize
from .operators import d1, shift1

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


# -- config and argument plumbing -------------------------------------------

def _parse_grid(text: str) -> GridSpec:
    try:
        n1, n2 = text.lower().split("x")
        return GridSpec(int(n1), int(n2))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"expected N1xN2, got {text!r}: {exc}") from exc


def _parse_eps_list(text: str) -> list[float]:
    """Either a single float or a dyadic range `2^-a..2^-b`."""
    try:
        if ".." not in text:
            return [float(text)]
        lo, hi = text.split("..")
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise ValueError("range endpoints must be dyadic 2^-k")
        a, b = int(lo[2:]), int(hi[2:])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    step = -1 if a > b else 1
    return [2.0 ** e for e in range(a, b + step, step)]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_records(records: list[VerificationRecord], out: Path, stem: str,
                   fmt: str) -> None:
    if fmt == "csv":
        _atomic_write(out / f"{stem}.csv", records_to_csv(records))
    else:
        _atomic_write(out / f"{stem}.json", records_to_json(records))


def _manifest(out: Path, args: argparse.Namespace, t0: float, exit_code: int,
              error: str | None = None) -> None:
    try:
        version = metadata.version("smectic")
    except metadata.PackageNotFoundError:
        version = "unknown"
    config = {k: (repr(v) if isinstance(v, GridSpec) else v) for k, v in vars(args).items()}
    _atomic_write(out / "manifest.json", json.dumps({
        "command": args.command,
        "config": config,
        "version": version,
        "exit_code": exit_code,
        "error": error,
        "elapsed_seconds": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }, indent=2) + "\n")


# -- commands ----------------------------------------------------------------

def _cmd_verify(args) -> tuple[list[VerificationRecord], dict]:
    grid = args.grid
    records = []
    rng_fields = [random_band_limited(grid, seed=args.seed + i, kmax=args.kmax,
                                      amplitude=0.5) for i in range(args.nfields)]
    for i, w in enumerate(rng_fields):
        # Parseval: spectral vs grid L2 norm
        spec_norm = float(np.sqrt(np.sum(np.abs(w.spectrum) ** 2)))
        grid_norm = float(np.sqrt(np.mean(w.samples ** 2)))
        res = abs(spec_norm - grid_norm) / max(grid_norm, 1e-300)
        records.append(VerificationRecord(
            name="parseval", lhs=spec_norm, rhs=grid_norm,
            ratio_or_residual=res, params={"seed": args.seed + i},
            passed=res <= 1e-12, tolerance=1e-12))
        # multiplier adjointness: <d1 f, g> = -<f, d1 g>
        g2 = rng_fields[(i + 1) % len(rng_fields)]
        lhs, rhs = inner(d1(w), g2), -inner(w, d1(g2))
        res = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        records.append(VerificationRecord(
            name="adjointness", lhs=lhs, rhs=rhs, ratio_or_residual=res,
            params={"seed": args.seed + i}, passed=res <= 1e-12, tolerance=1e-12))
        # shift group law
        res = (shift1(shift1(w, 0.3), 0.45) - shift1(w, 0.75)).l2() / w.l2()
        records.append(VerificationRecord(
            name="shift_group_law", lhs=res, rhs=0.0, ratio_or_residual=res,
            params={"seed": args.seed + i}, passed=res <= 1e-12, tolerance=1e-12))
        records.append(hkm2_residual(w, 0.1))
        records.append(div_sigma_identity(w))
        rec = gradient_check(w, g2, 0.0625)
        records.append(dataclasses.replace(
            rec, params={"seed": args.seed + i, **rec.params}))
    return records, {}


def _cmd_energy(args) -> tuple[list[VerificationRecord], dict]:
    if args.field:
        w = as_admissible(load_field(args.field))
    else:
        w = random_band_limited(args.grid, seed=args.seed, kmax=args.kmax,
                                amplitude=0.5)
    report = energy_eps(w, args.eps[0])
    reports = {repr(eps): dataclasses.asdict(report.at_eps(eps)) for eps in args.eps}
    return [], {"energy.json": json.dumps(reports, indent=2) + "\n"}


def _cmd_besov(args) -> tuple[list[VerificationRecord], dict]:
    w = random_band_limited(args.grid, seed=args.seed, kmax=args.kmax,
                            amplitude=0.5)
    hs = HGrid()
    records = list(verify_l3(w, hs)) + list(verify_b2s(w, hs))
    records.append(verify_lp(w, args.p))
    for eps in args.eps:
        records.append(verify_lp_eps(w, args.p, eps))
    records.append(hkm2_residual(w, 0.125))
    records.append(hkm1_balance(w, 0.125))
    return records, {}


def _cmd_entropy(args) -> tuple[list[VerificationRecord], dict]:
    if args.profile:
        profile = JumpProfile.from_json(Path(args.profile).read_text())
    else:
        profile = vertical_two_shock(args.c)
    records = rankine_hugoniot_check(profile)
    extra = {}
    if all(r.passed for r in records):
        jc = jump_cost(profile)
        extra["entropy.json"] = json.dumps({
            "jump_cost": jc,
            "div_sigma_jump_measure": div_sigma_jump_measure(profile),
        }, indent=2) + "\n"
    if args.field:
        w = as_admissible(load_field(args.field))
        records.append(div_sigma_identity(w))
        production = entropy_production(w)
        records.append(VerificationRecord(
            name="entropy_production", lhs=production, rhs=0.0,
            ratio_or_residual=production, params={}, passed=True))
        phi = TorusField.from_samples(w.grid, np.sin(
            2 * np.pi * np.repeat(w.grid.x1(), w.grid.n2, axis=1)) / (2 * np.pi))
        records += duality_gap(w, phi, args.eps)
    return records, extra


def _cmd_sweep(args) -> tuple[list[VerificationRecord], dict]:
    profile = vertical_two_shock(args.c)
    recs = eps_sweep(profile, args.eps, args.grid)
    lines = [",".join(SWEEP_CSV_HEADER)]
    for r in recs:
        lines.append(",".join(r.csv_row()))
    return [], {"sweep.csv": "\n".join(lines) + "\n"}


def _cmd_minimize(args) -> tuple[list[VerificationRecord], dict]:
    eps = args.eps
    if args.field:
        w0 = as_admissible(load_field(args.field))
    else:
        w0 = random_band_limited(args.grid, seed=args.seed, kmax=args.kmax,
                                 amplitude=0.05)
    anchor = None
    if args.pins > 0:
        anchor = lowest_mode_pins(w0, args.pins)
    opts = MinimizeOptions(max_iters=args.max_iters, anchor=anchor)
    try:
        w, report = minimize(w0, eps, opts)
    except LineSearchFailure as exc:
        _atomic_write(Path(args.out) / "minimize.json", exc.report.to_json() + "\n")
        raise
    extra = {"minimize.json": report.to_json() + "\n"}
    if args.save_final:
        save_field(w, Path(args.out) / "final")
    hist = report.energy_history
    monotone = all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
    records = [VerificationRecord(
        name="minimize_monotone", lhs=hist[-1], rhs=hist[0],
        ratio_or_residual=0.0 if monotone else 1.0,
        params={"eps": eps, "termination": report.termination},
        passed=monotone)]
    return records, extra


def _cmd_tail(args) -> tuple[list[VerificationRecord], dict]:
    w = random_band_limited(args.grid, seed=args.seed, kmax=args.kmax,
                            amplitude=0.5)
    lines = ["m,tail_mass"]
    prev = None
    records = []
    for m in (4, 8, 16, 32):
        t = tail_mass(w, m, m ** 4)
        lines.append(f"{m},{t!r}")
        if prev is not None:
            records.append(VerificationRecord(
                name="tail_monotone", lhs=t, rhs=prev, ratio_or_residual=t - prev,
                params={"m": m}, passed=t <= prev))
        prev = t
    return records, {"tail.csv": "\n".join(lines) + "\n"}


#: every flag of the CLI: name -> argparse keyword arguments
_FLAGS = {
    "grid": {"type": _parse_grid, "default": "256x256"},
    "seed": {"type": int, "default": 0},
    "eps": {"type": _parse_eps_list, "default": "0.0625",
            "help": "single value or dyadic range 2^-a..2^-b"},
    "p": {"type": float, "default": 2.0},
    "c": {"type": float, "default": 0.5},
    "kmax": {"type": int, "default": 16},
    "nfields": {"type": int, "default": 5},
    "max-iters": {"type": int, "default": 500},
    "pins": {"type": int, "default": 0},
    "field": {"default": None, "help": "input field (NAME or NAME.json)"},
    "profile": {"default": None, "help": "jump profile JSON path"},
    "save-final": {"action": "store_true"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"default": "."},
    "config": {"default": None, "help": "JSON config file; flags override"},
}
#: minimize descends at a single eps
_MINIMIZE_EPS = {"type": float, "default": 0.0625}

#: command -> (handler, the flags it reads besides --out and --config)
_COMMANDS = {
    "verify": (_cmd_verify, ("grid", "seed", "kmax", "nfields", "format")),
    "energy": (_cmd_energy, ("field", "grid", "seed", "kmax", "eps")),
    "besov": (_cmd_besov, ("grid", "seed", "kmax", "p", "eps", "format")),
    "entropy": (_cmd_entropy, ("profile", "c", "field", "eps", "format")),
    "sweep": (_cmd_sweep, ("c", "eps", "grid")),
    "minimize": (_cmd_minimize, ("eps", "field", "grid", "seed", "kmax", "pins",
                                 "max-iters", "save-final", "format")),
    "tail": (_cmd_tail, ("grid", "seed", "kmax", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smectic",
        description="Pseudo-spectral smectic energy laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags + ("out", "config"):
            kwargs = _MINIMIZE_EPS if (name, flag) == ("minimize", "eps") else _FLAGS[flag]
            p.add_argument("--" + flag, **kwargs)
    return parser


def _config_argv(args: argparse.Namespace) -> list[str]:
    """Spell the JSON config file's values as options, so that argparse
    type-checks them as it does flags given on the command line."""
    config = json.loads(Path(args.config).read_text())
    options = []
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool):  # store_true flag
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            options += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            options.append(f"{flag}={value}")
        else:
            raise ValueError(f"config key {key!r} has unsupported value {value!r}")
    return options


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values first, so that command-line flags override them
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    t0 = time.time()
    out = Path(args.out)
    try:
        records, extra = _COMMANDS[args.command][0](args)
    except (SmecticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_FAIL if isinstance(exc, SmecticError) else EXIT_USAGE
        try:
            _manifest(out, args, t0, code, str(exc))
        except OSError as write_exc:  # the failure may be the --out directory
            print(f"error: no manifest written: {write_exc}", file=sys.stderr)
        return code

    if records:
        _write_records(records, out, args.command, args.format)
    for name, text in extra.items():
        _atomic_write(out / name, text)
    n_fail = sum(not r.passed for r in records)
    code = EXIT_FAIL if n_fail else EXIT_PASS
    _manifest(out, args, t0, code)
    print(f"{args.command}: {len(records) - n_fail}/{len(records)} records passed"
          if records else f"{args.command}: done")
    return code


if __name__ == "__main__":
    sys.exit(main())
