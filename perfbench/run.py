"""Benchmark of the `smectic` CLI: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload records --seed 0 --seconds 55 --trace 0

The run imports `smectic` from the checkout's `src/`, writes the workload's
input files (set-up), then replays the workload's CLI calls as in-process
`smectic.cli.main(argv)` calls, pass after pass, for about `--seconds`
seconds (at least three passes).  After every pass it checks each output
against the stored reference in `perfbench/reference/`.  `wall_s` is the sum
over the CLI calls of each call's median time over the passes.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes plus `trace.overhead_s`.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
PINNED_ENV = {"SMECTIC_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository (the benchmark also runs from exported checkouts)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "threads": {k: os.environ[k] for k in PINNED_ENV}}


def import_smectic():
    """Pin thread counts, then import `smectic` from the checkout's `src/`.

    Returns `smectic.cli.main`, or None (with a message) when the sources are
    missing or another installation shadows them.
    """
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    src = ROOT / "src"
    if not (src / "smectic" / "__init__.py").is_file():
        print(f"error: no smectic sources under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import smectic
    from smectic.cli import main as cli_main
    if Path(smectic.__file__).resolve().parent != (src / "smectic").resolve():
        print(f"error: imported smectic from {smectic.__file__}, not {src}", file=sys.stderr)
        return None
    return cli_main


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports `smectic.cli` (with
    numpy and scipy) from the checkout's `src/` and exits."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import smectic.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, **PINNED_ENV})
    return time.perf_counter() - t0


def median_per_call(passes: list[list[float]]) -> list[float]:
    """Each CLI call's median time over the passes.  A burst of load on the
    host slows only the calls it overlaps, so the sum of these medians is
    steadier than the median of whole passes."""
    return [statistics.median(c) for c in zip(*passes)]


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def load_reference(wl, variant: int) -> dict | None:
    """The stored outputs of the workload's calls: its parts' references
    joined in call order.  None (with a message) when one was stored for
    other CLI calls."""
    argv, calls = [], []
    for part in wl.parts:
        path = HERE / "reference" / f"{part.name}.json"
        ref = json.loads(path.read_text())[str(variant)]
        if ref["argv"] != part.calls(variant):
            print(f"error: {path} was stored for other CLI calls", file=sys.stderr)
            return None
        argv += ref["argv"]
        calls += ref["calls"]
    return {"argv": argv, "calls": calls}


def run_pass(wl, variant, work, reference, cli_main, tracer=None):
    """One timed replay of the workload's CLI calls, then the output check.

    Returns (wall seconds of each call, operation outcomes, bytes written by
    the CLI).
    """
    from gate import FAIL, check_call, collect
    from workloads import resolve

    calls = wl.calls(variant)
    outs = [work / f"call{i}" for i in range(len(calls))]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    # each pass replays a fresh `smectic` process: drop the per-grid
    # gradient certificate cached by the previous pass
    certificates = getattr(sys.modules["smectic.minimize"], "_GRADIENT_CERTIFICATES", None)
    if isinstance(certificates, dict):
        certificates.clear()

    exits, walls = [], []
    for argv, out in zip(calls, outs):
        argv = resolve(argv, work) + ["--out", str(out)]
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                exits.append(cli_main(argv))
        except Exception:  # a crashing call is a failed operation
            print(f"error: {' '.join(argv)} raised:", file=sys.stderr)
            traceback.print_exc()
            exits.append(None)
        walls.append(time.perf_counter() - t0)

    outcomes, written = [], 0
    for i, (code, out) in enumerate(zip(exits, outs)):
        got = collect(out, code)
        ops = check_call(got, reference["calls"][i])
        if FAIL in ops:
            print(f"error: {wl.name} call {i} ({calls[i][0]}): "
                  f"{ops.count(FAIL)} operation(s) outside the reference", file=sys.stderr)
        outcomes += ops
        if out.is_dir():
            written += sum(p.stat().st_size for p in out.iterdir())
    return walls, outcomes, written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = import_smectic()
    if cli_main is None:
        return 2
    from gate import FAIL, KNOWN, PASS
    from tracer import Tracer, layer_metrics
    from workloads import N_VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    variant = args.seed % N_VARIANTS
    reference = load_reference(wl, variant)
    if reference is None:
        return 2
    t_import = time.perf_counter() - T_START

    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup, imports = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            wl.make_inputs(work, variant)
            setup.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setup)

        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}  # per pass: each call's seconds
        layers: list[dict] = []
        outcomes: list[str] = []
        t_passes = time.perf_counter()
        need = 2 * MIN_PASSES - 2 if args.trace else MIN_PASSES
        n = 0
        while True:
            traced = bool(args.trace) and n % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                call_walls, ops, written = run_pass(wl, variant, work, reference,
                                                    cli_main, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(call_walls)
            outcomes += ops
            if traced:
                layers.append(layer_metrics(tracer, written))
            n += 1
            elapsed = time.perf_counter() - t_passes
            if n >= need and elapsed + sum(call_walls) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = len(outcomes)
    failed = sum(o != PASS for o in outcomes)
    correct = FAIL not in outcomes
    call_medians = median_per_call(walls[False])
    wall_s = sum(call_medians)
    pass_totals = [sum(p) for p in walls[False]]
    parts: dict[str, float] = {}
    for part, t in zip(wl.part_of_calls(variant), call_medians):
        parts[part] = parts.get(part, 0.0) + t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} variant {variant} passes {n}")
    print("passes " + " ".join(f"{w:.3f}" for w in pass_totals))
    print("pass median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} n {n} s".format(
        **summary(pass_totals)))
    print(f"wall_s {wall_s:.4f} s (sum of call medians; "
          + ", ".join(f"{k} {v:.4f}" for k, v in parts.items()) + ")")
    print(f"setup_s {setup_s:.4f} s (medians of {SETUP_REPEATS}: fresh-interpreter import "
          f"{statistics.median(imports):.4f} s, inputs {statistics.median(setup):.4f} s; "
          f"this process imported in {t_import:.4f} s)")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted} operations, "
          f"{outcomes.count(KNOWN)} known from the reference)")
    print(f"verdict {'correct' if correct else 'INCORRECT'}")

    if args.trace:
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = sum(median_per_call(walls[True])) - wall_s
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": rss_mb, "ok_ratio": 1.0 - failed / attempted}
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
