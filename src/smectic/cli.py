"""Command-line front end: verification suites, energy evaluation, sweeps,
minimization, and tail diagnostics, with CSV/JSON outputs and a run manifest.
Every output file goes through `_encode`; the library modules return data.

Exit codes: 0 all pass-gated records passed, 1 at least one record failed,
2 usage or configuration error.  Outputs are written atomically (temp file +
rename) into the --out directory; timestamps live only in the manifest so the
data files are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from .ansatz import eps_sweep, vertical_two_shock
from .besov import (VerificationRecord, adjointness, gradient_check,
                    hkm1_balance, hkm2_residual, parseval, shift_group_law,
                    tail_decay, verify_b2s, verify_l3, verify_lp, verify_lp_eps)
from .energy import energy_eps
from .entropy import (JumpProfile, div_sigma_identity, div_sigma_jump_measure,
                      field_records, jump_cost, rankine_hugoniot_check)
from .errors import LineSearchFailure, SmecticError
from .fields import (GridSpec, TorusField, as_admissible, load_field,
                     random_band_limited, save_field)
from .minimize import MinimizeOptions, minimize

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


# -- config and argument plumbing -------------------------------------------

def _parse_grid(text: str) -> GridSpec:
    try:
        n1, n2 = text.lower().split("x")
        return GridSpec(int(n1), int(n2))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"expected N1xN2, got {text!r}: {exc}") from exc


def _finite(text: str) -> float:
    """argparse type: a finite float; nan, inf and a literal beyond the float
    range (1e400) are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


_finite.__name__ = "float"  # argparse names the type in its error messages


def _parse_eps_list(text: str) -> list[float]:
    """Either a single value or a dyadic range `2^-a..2^-b`, every value finite."""
    try:
        if ".." not in text:
            return [_finite(text)]
        lo, hi = text.split("..")
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise ValueError("range endpoints must be dyadic 2^-k")
        a, b = int(lo[2:]), int(hi[2:])
        step = -1 if a > b else 1
        return [2.0 ** e for e in range(a, b + step, step)]
    except OverflowError as exc:  # 2.0 ** e beyond the float range
        raise argparse.ArgumentTypeError(f"{text!r}: must be finite, a power overflows") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def _plain(obj):
    """json.dumps default: a GridSpec as [n1, n2], a dataclass by its fields
    (vars raises the TypeError json.dumps expects on an object with no __dict__)."""
    return [obj.n1, obj.n2] if isinstance(obj, GridSpec) else vars(obj)


def _cell(value):
    """A CSV cell: a dict as sorted JSON, a bool as 0/1, a str or int as is, a float by repr."""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return int(value)
    return value if isinstance(value, (str, int)) else repr(value)


def _encode(name: str, data) -> str:
    """The text of output file `name`: indented JSON for a .json name, else a CSV
    table of the dict rows `data` under the first row's keys; LF ends every line."""
    if name.endswith(".json"):
        return json.dumps(data, indent=2, default=_plain) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data[0])
    writer.writerows([_cell(v) for v in row.values()] for row in data)
    return buf.getvalue()


def _write(path: Path, data) -> None:
    """Write `_encode(path.name, data)` atomically: temp file, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(_encode(path.name, data))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(out: Path, args: argparse.Namespace, t0: float, exit_code: int,
              error: str | None = None) -> None:
    try:
        version = metadata.version("smectic")
    except metadata.PackageNotFoundError:
        version = "unknown"
    _write(out / "manifest.json", {
        "command": args.command,
        "config": vars(args),
        "version": version,
        "exit_code": exit_code,
        "error": error,
        "elapsed_seconds": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })


# -- commands ----------------------------------------------------------------

def _input_field(args, seed: int = 0, amplitude: float = 0.5) -> TorusField:
    """The --field file when given, else a random band-limited field drawn
    with --seed plus `seed`."""
    if getattr(args, "field", None):
        return as_admissible(load_field(args.field))
    return random_band_limited(args.grid, seed=args.seed + seed, kmax=args.kmax,
                               amplitude=amplitude)


def _cmd_verify(args) -> tuple[list[VerificationRecord], dict]:
    # field i is paired with field i + 1: a lone field with the next seed's
    fields = [_input_field(args, i) for i in range(max(2, args.nfields))]
    records = []
    for i, w in enumerate(fields[:args.nfields]):
        g, label = fields[(i + 1) % len(fields)], {"seed": args.seed + i}
        records += [parseval(w, label), adjointness(w, g, label),
                    shift_group_law(w, label), hkm2_residual(w, 0.1),
                    div_sigma_identity(w), gradient_check(w, g, 0.0625, label)]
    return records, {}


def _cmd_energy(args) -> tuple[list[VerificationRecord], dict]:
    report = energy_eps(_input_field(args), args.eps[0])
    return [], {"energy.json": {repr(eps): report.at_eps(eps) for eps in args.eps}}


def _cmd_besov(args) -> tuple[list[VerificationRecord], dict]:
    w = _input_field(args)
    return [*verify_l3(w), *verify_b2s(w), verify_lp(w, args.p),
            *(verify_lp_eps(w, args.p, eps) for eps in args.eps),
            hkm2_residual(w, 0.125), hkm1_balance(w, 0.125)], {}


def _cmd_entropy(args) -> tuple[list[VerificationRecord], dict]:
    if args.profile:
        profile = JumpProfile.from_json(Path(args.profile).read_text())
    else:
        profile = vertical_two_shock(args.c)
    records = rankine_hugoniot_check(profile)
    extra = {}
    if all(r.passed for r in records):
        extra["entropy.json"] = {
            "jump_cost": jump_cost(profile),
            "div_sigma_jump_measure": div_sigma_jump_measure(profile),
        }
    if args.field:
        records += field_records(_input_field(args), args.eps)
    return records, extra


def _cmd_sweep(args) -> tuple[list[VerificationRecord], dict]:
    recs = eps_sweep(vertical_two_shock(args.c), args.eps, args.grid)
    # the grid is the --grid flag's, the same on every row
    return [], {"sweep.csv": [{k: v for k, v in vars(r).items() if k != "grid"}
                              for r in recs]}


def _cmd_minimize(args) -> tuple[list[VerificationRecord], dict]:
    opts = MinimizeOptions(max_iters=args.max_iters, pins=args.pins)
    try:
        w, report = minimize(_input_field(args, amplitude=0.05), args.eps, opts)
    except LineSearchFailure as exc:
        _write(Path(args.out) / "minimize.json", exc.report)
        raise
    if args.save_final:
        save_field(w, Path(args.out) / "final")
    return [report.monotone_record(args.eps)], {"minimize.json": report}


def _cmd_tail(args) -> tuple[list[VerificationRecord], dict]:
    masses, records = tail_decay(_input_field(args))
    return records, {"tail.csv": [{"m": m, "tail_mass": t} for m, t in masses.items()]}


#: the files the commands write themselves, whatever their verdict
_OWN_FILES = frozenset({"energy.json", "entropy.json", "sweep.csv",
                        "minimize.json", "tail.csv"})

#: every flag of the CLI: name -> argparse keyword arguments
_FLAGS = {
    "grid": {"type": _parse_grid, "default": "256x256"},
    "seed": {"type": int, "default": 0},
    "eps": {"type": _parse_eps_list, "default": "0.0625",
            "help": "single value or dyadic range 2^-a..2^-b"},
    "p": {"type": _finite, "default": 2.0},
    "c": {"type": _finite, "default": 0.5},
    "kmax": {"type": _at_least(1), "default": 16},
    "nfields": {"type": _at_least(1), "default": 5},
    "max-iters": {"type": _at_least(0), "default": 500},
    "pins": {"type": _at_least(0), "default": 0,
             "help": "hold the N lowest modes of the start field"},
    "field": {"default": None, "help": "input field (NAME or NAME.json)"},
    "profile": {"default": None, "help": "jump profile JSON path"},
    "save-final": {"action": "store_true"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"default": "."},
    "config": {"default": None, "help": "JSON config file; flags override"},
}
#: minimize descends at a single eps
_MINIMIZE_EPS = {"type": _finite, "default": 0.0625}

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
        # records go to <command>.<format>, or to <command>_records.<format>
        # when the command can write a file of that name itself
        name = f"{args.command}.{args.format}"
        if name in _OWN_FILES:
            name = f"{args.command}_records.{args.format}"
        _write(out / name, [vars(r) for r in records])
    for name, data in extra.items():
        _write(out / name, data)
    n_fail = sum(not r.passed for r in records)
    code = EXIT_FAIL if n_fail else EXIT_PASS
    _manifest(out, args, t0, code)
    print(f"{args.command}: {len(records) - n_fail}/{len(records)} records passed"
          if records else f"{args.command}: done")
    return code


if __name__ == "__main__":
    sys.exit(main())
