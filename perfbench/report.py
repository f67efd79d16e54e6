"""Run the benchmark over workloads and seeds and print per-workload tables.

From the root of a checkout:

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --seeds 0-9 --out perfbench/results/x.json
    python3 perfbench/report.py --trace 1 --seeds 0-1

Each (workload, seed) is one fresh `perfbench/run.py` process, run one at a
time.  For every metric the table gives the median over seeds, the
quartiles, and the spread (q3 - q1) / median; end-to-end tables also give
fail_ratio (failed / attempted operations) and the correctness verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, summary


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"seed": seed, "env": env, **result}


def aggregate(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = summary(values)
        table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": s["median"],
                       "q1": s["q1"], "q3": s["q3"],
                       "spread": (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0,
                       "values": values}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"runs": len(runs), "correct": all(r["correct"] for r in runs),
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "metrics": table,
            "seeds": [r["seed"] for r in runs]}


def markdown(name: str, agg: dict, bounds: dict) -> str:
    lines = [f"### {name} ({agg['runs']} runs, seeds {agg['seeds']}; "
             f"{'correct' if agg['correct'] else 'INCORRECT'}; fail_ratio "
             f"{agg['fail_ratio']:.4f} = {agg['failed']}/{agg['attempted']})", "",
             "| metric | unit | median | q1 | q3 | spread | bound |",
             "|---|---|---|---|---|---|---|"]
    for metric, m in agg["metrics"].items():
        bound = bounds.get(metric, "")
        lines.append(f"| {metric} | {m['unit']} | {m['median']:.6g} | {m['q1']:.6g} "
                     f"| {m['q3']:.6g} | {m['spread']:.4f} | {bound} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0", help="N, N-M or N,M,...")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write all runs and tables as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [run_one(name, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        agg = aggregate(runs)
        results["env"] = runs[0]["env"]
        results["workloads"][name] = agg
        print(markdown(name, agg, bounds), flush=True)
    print("env " + json.dumps(results["env"], sort_keys=True))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
