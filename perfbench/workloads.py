"""The benchmark's workloads: CLI argument lists and input files from a seed.

A workload replays the CLI calls of its parts, one part after another.  A
part is a group of calls with one stored reference file
(`reference/<part>.json`); its name tells the per-part times apart in a
run's output.

A seed selects one of `N_VARIANTS` input variants (`seed % N_VARIANTS`), so
that every seed has a stored reference output.  Variants change the data,
never the amount of work: the field seed of a random band-limited field, or
the two-shock amplitude c (every c below has the same scan/bracket split on
the sweep).  `{work}` in an argument stands for the run's work directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_VARIANTS = 4
C_VALUES = (0.5, 0.45, 0.55, 0.6)


@dataclass(frozen=True)
class Part:
    name: str
    calls: Callable[[int], list[list[str]]]
    make_inputs: Callable[[Path, int], None] = lambda work, variant: None


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]

    def calls(self, variant: int) -> list[list[str]]:
        return [argv for p in self.parts for argv in p.calls(variant)]

    def part_of_calls(self, variant: int) -> list[str]:
        return [p.name for p in self.parts for _ in p.calls(variant)]

    def make_inputs(self, work: Path, variant: int) -> None:
        for p in self.parts:
            p.make_inputs(work, variant)


def _estimates(v: int) -> list[list[str]]:
    # 256^2 and 512^2 complex arrays are 1 MB and 4 MB: either side of L2
    return [["besov", "--grid", g, "--kmax", "32", "--seed", str(v)]
            for g in ("256x256", "512x512")]


def _sweep(v: int) -> list[list[str]]:
    # 2^-6 falls back to the 64-point scan, 2^-7 goes through golden section
    return [["sweep", "--c", repr(C_VALUES[v]), "--eps", "2^-6..2^-7",
             "--grid", "1024x64"]]


def _descent_inputs(work: Path, v: int) -> None:
    from smectic.ansatz import mollify, vertical_two_shock
    from smectic.fields import GridSpec, save_field
    field = mollify(vertical_two_shock(C_VALUES[v]), 0.125, GridSpec(1024, 64))
    save_field(field, work / "two_shock")


def _descent(v: int) -> list[list[str]]:
    # The unanchored start field is the same for every seed: its line-search
    # backtracks, and so its time, vary by ~20% from one start field to the
    # next.  --max-iters 400 lies below every energy stall seen (552-891).
    return [["minimize", "--grid", "64x64", "--kmax", "8", "--eps", "0.0625",
             "--max-iters", "400"],
            ["minimize", "--field", "{work}/two_shock", "--eps", "0.015625",
             "--pins", "8"]]


def _identities_inputs(work: Path, v: int) -> None:
    from smectic.fields import GridSpec, random_band_limited, save_field
    field = random_band_limited(GridSpec(256, 256), seed=v, kmax=32, amplitude=0.5)
    save_field(field, work / "field")


def _identities(v: int) -> list[list[str]]:
    return [["verify", "--grid", "256x256", "--kmax", "32", "--nfields", "5",
             "--seed", str(v)],
            ["energy", "--field", "{work}/field", "--eps", "2^-2..2^-6"],
            ["entropy", "--field", "{work}/field", "--eps", "2^-2..2^-6"],
            ["tail", "--kmax", "48", "--seed", str(v)]]


PARTS = {p.name: p for p in (
    Part("estimates", _estimates),
    Part("identities", _identities, _identities_inputs),
    Part("sweep", _sweep),
    Part("descent", _descent, _descent_inputs),
)}

# why each workload was chosen: BENCHMARK.json and README.md.  Two workloads
# with long runs are steadier on a shared host than four with short ones.
WORKLOADS = {w.name: w for w in (
    Workload("records", (PARTS["estimates"], PARTS["identities"])),
    Workload("search", (PARTS["sweep"], PARTS["descent"])),
)}


def resolve(argv: list[str], work: Path) -> list[str]:
    return [a.replace("{work}", str(work)) for a in argv]
