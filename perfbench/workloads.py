"""The benchmark's workloads: config documents generated from shipped presets.

Each workload starts from decaylab's shipped presets and changes only the
fields listed here.  The full-size workloads shorten the horizon `t_max` so
that one scenario run fits a benchmark run several times over, and pin the
truncation radius at the value the shipped horizon gives (`x_max = auto`
would otherwise shrink the grid with the horizon), so every step does the
same amount of work as in the shipped preset.  The smoke variants drop the
pin and shorten the horizon further; they exist for a quick end-to-end check
of the harness, not for measurement.

The seed names the scenarios and, for the suite, fixes their order; it does
not change the physics, so every seed runs the same computation.
"""

from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple            # preset names, in catalogue order
    copies: int               # renamed copies of each preset
    workers: int              # run_suite parallelism; 1 means run_scenario
    overrides: dict           # {section: {key: value}} for the full size
    smoke: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="compact-2d",
            presets=("t3-compact-2d",), copies=1, workers=1,
            overrides={"time": {"t_max": "3"}, "grid": {"r_out": "27"}},
            smoke={"time": {"t_max": "3"}}),
        Workload(
            name="compact-1d",
            presets=("t3-compact-1d",), copies=1, workers=1,
            overrides={"time": {"t_max": "150"}, "grid": {"x_max": "505.5"}},
            smoke={"time": {"t_max": "20"}}),
        Workload(
            name="suite-weighted-1d",
            presets=("t2-poly-1d", "t1-log-desk", "t1-honest-b-bounds"),
            copies=2, workers=2,
            overrides={"time": {"t_max": "30"}},
            smoke={"time": {"t_max": "10"}}),
    )
}


def _document(text: str, name: str, seed: int, overrides: dict) -> str:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    cp.set("scenario", "name", name)
    cp.set("scenario", "seed", str(seed))
    for section, values in overrides.items():
        for key, value in values.items():
            cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def generate(catalog: dict, workload: str, seed: int,
             smoke: bool = False) -> list[str]:
    """Config documents of one workload, in the order the suite submits them."""
    w = WORKLOADS[workload]
    overrides = w.smoke if smoke else w.overrides
    jobs = [(preset, copy) for preset in w.presets for copy in range(w.copies)]
    if w.copies > 1:
        random.Random(seed).shuffle(jobs)
    docs = []
    for preset, copy in jobs:
        suffix = f"-c{copy}" if w.copies > 1 else ""
        docs.append(_document(catalog[preset], f"{preset}{suffix}-s{seed}",
                              seed, overrides))
    return docs
