"""One workload in one process: load, run whole rounds, check, report.

Started by run.py, never by hand.  It imports decaylab from `src/` of the
checkout, generates the workload's config documents, loads them (set-up
ends there), then runs rounds until `--seconds` have passed.  A round is
one `run_scenario` call, or one `run_suite` call over the six suite configs;
every scenario run together with its checks is one operation.  The result
goes to `--result` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks                       # noqa: E402
from spans import Tracer            # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# time-in groups reported by the traced run, as sets of span names
GROUPS = {
    "grids.build_s": {"grids.build_grid_1d", "grids.build_grid_2d_disk",
                      "grids.build_damping", "grids.build_psi"},
    "weights.constants_s": {"weights.compute_constants"},
    "solver.run_s": {"solver.run"},
    "solver.kick_s": {"solver.laplacian"},
    "solver.damping_solve_s": {"solver._solve_damping_field"},
    "solver.energy_monitor_s": {"solver.solver_energy"},
    "solver.cone_check_s": {"solver.support_radius"},
    "functionals.sample_s": {"functionals.sample"},
    "functionals.analysis_s": {
        "functionals.data_functionals", "functionals.prop1_inequality_check",
        "functionals.observability_ratio", "functionals.high_energy_check"},
    "decay.fit_s": {"decay.fit_decay"},
    "scenarios.persist_s": {"functionals.write_series_csv",
                            "scenarios._atomic_write",
                            "scenarios._write_fit_dat"},
    "trace.check_s": {"trace.check"},
}
LAYERS = ("grids", "weights", "solver", "functionals", "decay", "scenarios")
PROGRAM_LAYERS = ("solver", "functionals", "decay", "scenarios")


def import_decaylab(root: Path):
    src = root / "src"
    if not (src / "decaylab" / "__init__.py").is_file():
        raise SystemExit(f"no decaylab sources under {src}")
    sys.path.insert(0, str(src))
    import decaylab
    if Path(decaylab.__file__).resolve().parent != (src / "decaylab").resolve():
        raise SystemExit(f"imported decaylab from {decaylab.__file__}, "
                         f"not from {src}")
    return decaylab


def hooks(dl):
    """(owner, attribute, layer, after, op_of) for every traced call."""
    def check_solve(tracer, args, kwargs, v):
        c, w, r = args[:3]
        tracer.count("damping_nodes", w.size)
        tracer.count("damping_active", int((c * abs(w) != 0.0).sum()))
        if checks.damping_residual(c, w, r, v) > checks.RESIDUAL_TOL:
            tracer.count(f"bad_solve:{tracer.current_op}")

    def op_name(args, kwargs):
        return (args[0] if args else kwargs["cfg"]).name

    plain = [
        (dl.grids, "build_grid_1d", "grids"),
        (dl.grids, "build_grid_2d_disk", "grids"),
        (dl.grids, "build_damping", "grids"),
        (dl.grids, "build_psi", "grids"),
        (dl.weights, "compute_constants", "weights"),
        (dl.solver, "run", "solver"),
        (dl.solver, "step", "solver"),
        (dl.solver, "laplacian", "solver"),
        (dl.solver, "solver_energy", "solver"),
        (dl.solver, "support_radius", "solver"),
        (dl.solver, "make_initial_compact", "solver"),
        (dl.solver, "make_initial_weighted", "solver"),
        (dl.functionals.SampleTracker, "sample", "functionals"),
        (dl.functionals, "data_functionals", "functionals"),
        (dl.functionals, "prop1_inequality_check", "functionals"),
        (dl.functionals, "observability_ratio", "functionals"),
        (dl.functionals, "high_energy_check", "functionals"),
        (dl.functionals, "write_series_csv", "functionals"),
        (dl.decay, "fit_decay", "decay"),
        (dl.decay, "theorem_verdict", "decay"),
        (dl.decay, "truncation_contamination", "decay"),
        (dl.scenarios, "_atomic_write", "scenarios"),
        (dl.scenarios, "_write_fit_dat", "scenarios"),
        (dl.scenarios, "run_suite", "scenarios"),
    ]
    out = [(o, a, layer, None, None) for o, a, layer in plain]
    out.append((dl.solver, "_solve_damping_field", "solver", check_solve, None))
    out.append((dl.scenarios, "run_scenario", "scenarios", None, op_name))
    return out


class Runner:
    """Runs rounds of one workload and checks every scenario of each."""

    def __init__(self, dl, workload, cfgs, out_root: Path):
        self.dl = dl
        self.workload = workload
        self.cfgs = cfgs
        self.out_root = out_root
        self.attempted = 0
        self.failures = {}            # "round/scenario" -> [messages]
        self._n = 0

    def round(self, workers: int):
        """One timed call; returns (wall seconds, out dir, reports)."""
        self._n += 1
        out = self.out_root / f"round{self._n}"
        out.mkdir(parents=True)
        scenarios = self.dl.scenarios
        t0 = time.perf_counter()
        if self.workload.workers == 1:
            reports = [scenarios.run_scenario(self.cfgs[0], out)]
        else:
            reports = scenarios.run_suite(self.cfgs, parallelism=workers,
                                          out_dir=out)
        wall = time.perf_counter() - t0
        for rep in reports:
            self.attempted += 1
            key = f"{out.name}/{rep.name}"
            if rep.failed:
                self.failures[key] = [rep.payload.get("error", "failed")]
                continue
            try:
                report, series = checks.read_outputs(out, rep.name)
                fails = checks.check_scenario(report, series,
                                              self.workload.name)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails = [f"unreadable outputs: {type(exc).__name__}: {exc}"]
            if fails:
                self.failures[key] = fails
        return wall, out, reports

    def same_series(self, out: Path, ref: Path):
        """Each series CSV of `out` must equal the one in `ref` byte for byte."""
        for cfg in self.cfgs:
            csv = f"{cfg.name}.series.csv"
            if (out / csv).is_file() and (ref / csv).is_file() and \
                    (out / csv).read_bytes() != (ref / csv).read_bytes():
                self.failures.setdefault(f"{out.name}/{cfg.name}", []).append(
                    f"series differs from {ref.name}")

    def fail_op(self, out: Path, name: str, message: str):
        self.failures.setdefault(f"{out.name}/{name}", []).append(message)


def node_steps(reports) -> int:
    return sum(r.payload["grid"]["n_fluid"] * r.payload["solver"]["n_steps"]
               for r in reports if not r.failed)


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced rounds until `seconds` have passed."""
    walls = []
    ref = None
    start = time.perf_counter()
    while True:
        wall, out, reports = runner.round(runner.workload.workers)
        walls.append(wall)
        if ref is None:
            ref = out
        else:
            runner.same_series(out, ref)
            shutil.rmtree(out)
        if time.perf_counter() - start >= seconds:
            break
    wall_s = statistics.median(walls)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (wall_s, "s"),
        "node_steps_per_s": (node_steps(reports) / wall_s, "1/s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }


def measure_traced(runner: Runner, seconds: float, load_tracer: Tracer) -> dict:
    """Pairs of an untraced and a traced round (plus, for the suite, a serial
    round) until `seconds` have passed; every figure is a mean per round, so
    the layer self times and the traced wall time cover the same rounds."""
    dl = runner.dl
    workers = runner.workload.workers
    plain, serial, traced, busy = [], [], [], []
    totals = {}
    steps = samples = 0
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        wall, out, reports = runner.round(workers)
        plain.append(wall)
        busy.append(sum(r.payload["wall_clock_s"] for r in reports))
        if workers > 1:
            wall_1, ref, _ = runner.round(1)
            serial.append(wall_1)
            runner.same_series(out, ref)
        else:
            ref = out
            serial.append(wall)
        tracer.reset()
        with tracer.installed(hooks(dl)):
            wall_t, out_t, _ = runner.round(workers)
        traced.append(wall_t)
        runner.same_series(out_t, ref)
        for key, n in tracer.counts.items():
            if key.startswith("bad_solve:"):
                runner.fail_op(out_t, key.split(":", 1)[1],
                               f"{int(n)} nodal solves above "
                               f"{checks.RESIDUAL_TOL:g} residual")
        att = tracer.attribute(GROUPS)
        _add(totals, att["incl"])
        _add(totals, {f"{layer}.self_s": att["self_layer"].get(layer, 0.0)
                      for layer in LAYERS + ("trace",)})
        _add(totals, {
            "solver.step_self_s": att["self_name"].get("solver.step", 0.0),
            "scenarios.run_self_s":
                att["self_name"].get("scenarios.run_scenario", 0.0),
            "solver.damping_nodes": tracer.counts["damping_nodes"],
            "damping_active": tracer.counts["damping_active"],
        })
        steps += tracer.calls("solver.step")
        samples += tracer.calls("functionals.sample")
        for d in {out, ref, out_t}:
            shutil.rmtree(d)
        if time.perf_counter() - start >= seconds:
            break

    n = len(traced)
    m = {k: v / n for k, v in totals.items()}
    load = load_tracer.attribute(GROUPS)["incl"]["weights.constants_s"]
    wall_t = statistics.fmean(traced)
    wall_u = statistics.fmean(plain)
    serial_s = statistics.fmean(serial)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in PROGRAM_LAYERS)
    nodes = m["solver.damping_nodes"]
    out = {
        "grids.build_s": (m["grids.build_s"], "s"),
        "weights.constants_s": (m["weights.constants_s"] + load, "s"),
        "solver.run_s": (m["solver.run_s"], "s"),
        "solver.steps": (steps / n, "count"),
        "solver.kick_s": (m["solver.kick_s"], "s"),
        "solver.damping_solve_s": (m["solver.damping_solve_s"], "s"),
        "solver.damping_nodes": (nodes, "count"),
        "solver.damping_active_fraction":
            (m["damping_active"] / nodes if nodes else 0.0, "ratio"),
        "solver.step_self_s": (m["solver.step_self_s"], "s"),
        "solver.energy_monitor_s": (m["solver.energy_monitor_s"], "s"),
        "solver.cone_check_s": (m["solver.cone_check_s"], "s"),
        "functionals.sample_s": (m["functionals.sample_s"], "s"),
        "functionals.samples": (samples / n, "count"),
        "functionals.analysis_s": (m["functionals.analysis_s"], "s"),
        "decay.fit_s": (m["decay.fit_s"], "s"),
        "scenarios.persist_s": (m["scenarios.persist_s"], "s"),
        "scenarios.run_self_s": (m["scenarios.run_self_s"], "s"),
        "scenarios.suite_serial_s": (serial_s, "s"),
        "scenarios.suite_parallel_s": (wall_u, "s"),
        "scenarios.suite_busy_s": (statistics.fmean(busy), "s"),
        "scenarios.suite_efficiency": (serial_s / (workers * wall_u), "ratio"),
        "trace.wall_s": (wall_t, "s"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
        "trace.check_s": (m["trace.check_s"], "s"),
        "trace.layer_coverage":
            (layer_sum / (wall_t - m["trace.check_s"]), "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (m[f"{layer}.self_s"], "s")
    return out


def _add(totals: dict, values: dict):
    for k, v in values.items():
        totals[k] = totals.get(k, 0.0) + v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args(argv)

    dl = import_decaylab(args.root)
    docs = generate(dl.presets.CATALOG, args.workload, args.seed, args.smoke)
    load_tracer = Tracer()
    if args.trace:
        with load_tracer.installed(hooks(dl)):
            cfgs = [dl.scenarios.load_config(d) for d in docs]
    else:
        cfgs = [dl.scenarios.load_config(d) for d in docs]
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        runner = Runner(dl, WORKLOADS[args.workload], cfgs, args.out)
        if args.trace:
            metrics = measure_traced(runner, args.seconds, load_tracer)
        else:
            metrics = measure(runner, args.seconds)
        result.update(metrics=metrics, attempted=runner.attempted,
                      failures=runner.failures,
                      missing_hooks=load_tracer.missing)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
