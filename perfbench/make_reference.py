"""Store the reference outputs the correctness gate compares against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the benchmark stores those of the commit that defined it):

    python3 perfbench/make_reference.py [--part NAME ...]

For every workload part and input variant it runs the part's CLI calls once
and writes the parsed outputs to `perfbench/reference/<part>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

from run import HERE, ROOT, import_smectic


def main() -> int:
    cli_main = import_smectic()
    if cli_main is None:
        return 2
    from gate import collect
    from workloads import N_VARIANTS, PARTS, resolve

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--part", action="append", choices=sorted(PARTS))
    args = parser.parse_args()
    work = ROOT / ".perfbench_work" / "reference"
    for name in args.part or sorted(PARTS):
        wl = PARTS[name]
        stored = {}
        for variant in range(N_VARIANTS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl.make_inputs(work, variant)
            calls = []
            for i, argv in enumerate(wl.calls(variant)):
                out = work / f"call{i}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(resolve(argv, work) + ["--out", str(out)])
                calls.append(collect(out, code))
            stored[str(variant)] = {"argv": wl.calls(variant), "calls": calls}
            print(f"{name} variant {variant}: exits {[c['exit'] for c in calls]}")
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
