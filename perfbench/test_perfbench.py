"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at the smoke horizon through the same checks as a real
run, untraced and traced; afterwards no process the command started may be
left.  The checks themselves are shown to reject broken outputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks                      # noqa: E402
from decaylab.presets import CATALOG  # noqa: E402
from spans import Tracer           # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "node_steps_per_s", "peak_rss_mb"}


def _bench(cwd: Path, *args: str):
    """Run the command in its own session; return (exit code, stdout, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)          # nothing left in its process group
    return proc.returncode, out, err


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    code, out, err = _bench(ROOT, "--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace), "--smoke")
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, err
    assert result["attempted"] >= len(generate(CATALOG, workload, 7, True))
    spec = _declared()
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for m in spec["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        coverage = result["metrics"]["trace.layer_coverage"]["value"]
        assert abs(coverage - 1.0) <= 0.05
    else:
        assert all(result["metrics"][n]["value"] > 0 for n in END_TO_END)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out, _ = _bench(bare, "--workload", "compact-1d", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and out == ""


def test_suite_order_follows_the_seed():
    a = generate(CATALOG, "suite-weighted-1d", 1)
    assert a == generate(CATALOG, "suite-weighted-1d", 1)
    orders = {tuple(d.split("name = ")[1].split("\n")[0] for d in
                    generate(CATALOG, "suite-weighted-1d", s))
              for s in range(6)}
    assert len(orders) > 1


def test_bump_energy_closed_forms():
    # 1D: (1/2) int |u'|^2 = 4608 A^2 / (3465 radius); 2D: 0.6 pi A^2
    e1, _ = checks.bump_energy(1, 2.0, 0.7, 0.05)
    assert e1 == pytest.approx(4 * 4608 / (3465 * 0.7), rel=1e-13)
    e2, tol = checks.bump_energy(2, 1.0, 1.0, 0.1)
    assert e2 == pytest.approx(0.6 * math.pi, rel=1e-13)
    assert tol == pytest.approx(0.01 / 12 * 2 * math.pi * 48 / 5, rel=1e-12)


def test_checks_reject_broken_series():
    t = np.linspace(0.0, 10.0, 101)
    E = 2.0 * (1.0 + t) ** -1.0
    series = {"t": t, "E": E, "diag.E_solver": E.copy(),
              "D_cum": 2.0 - E, "high_energy": np.ones_like(t)}
    assert checks.check_monotone(series) == []
    series["diag.E_solver"][50] = series["diag.E_solver"][49] * (1.0 + 1e-9)
    series["D_cum"][60] = 0.0
    assert len(checks.check_monotone(series)) == 2
    report = {"config": {"theorem": "T2", "T1_threshold": 1.0, "T_max": 10.0,
                         "margin": 0.8, "gamma": 1.0},
              "fits": {"PolyDecay": {"gamma_hat": 1.0}}}
    assert checks.check_fit(report, series) == []
    report["config"]["gamma"] = 1.5             # needs gamma_hat >= 1.2
    assert len(checks.check_fit(report, series)) == 1


def test_damping_residual_flags_an_unconverged_solve():
    rng = np.random.default_rng(0)
    c = rng.uniform(0.0, 0.1, 1000)
    w = rng.normal(size=1000)
    v = w.copy()
    for _ in range(200):                 # plain fixed point, converges here
        v = w / (1.0 + c * np.abs(v) ** 0.5)
    assert checks.damping_residual(c, w, 1.5, v) <= checks.RESIDUAL_TOL
    v[3] += 1e-9
    assert checks.damping_residual(c, w, 1.5, v) > checks.RESIDUAL_TOL


def test_attribution_splits_overlapping_threads():
    tr = Tracer()
    tr.spans += [
        (0.0, 10.0, 1, "scenarios.run_suite", "scenarios"),
        (1.0, 9.0, 2, "scenarios.run_scenario", "scenarios"),
        (2.0, 4.0, 2, "solver.step", "solver"),
        (3.0, 9.0, 3, "solver.run", "solver"),
    ]
    att = tr.attribute({"solver.run_s": {"solver.run"},
                        "kick": {"solver.step"}})
    # 0-1 and 9-10 waiting root alone; 1-3 thread 2 alone (2-3 in step);
    # 3-9 split between threads 2 and 3
    assert att["self_layer"]["scenarios"] == pytest.approx(1 + 1 + 2.5 + 1)
    assert att["self_layer"]["solver"] == pytest.approx(1 + 1 + 2.5)
    assert sum(att["self_layer"].values()) == pytest.approx(10.0)
    assert att["incl"]["solver.run_s"] == pytest.approx(3.0)
    assert att["incl"]["kick"] == pytest.approx(1.5)
