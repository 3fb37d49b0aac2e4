"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expensive runs (the identity refinement pair, the three theorem
presets) are shared through module-scoped fixtures; each criterion's stated
runtime budget covers the work attributed to it.
"""

import math
import time

import numpy as np
import pytest

from decaylab import presets
from decaylab.decay import fit_decay
from decaylab.functionals import read_series_csv
from decaylab.grids import build_damping, build_grid_1d
from decaylab.scenarios import load_config, run_scenario
from decaylab.solver import SolverParams, make_initial_compact, run
from decaylab.weights import (Regime, WeightFamily, WeightKind, compute_b,
                              eval_weight, k_quadratic,
                              verify_weight_inequalities)
from oracles import reference_solve, solve_damping_scalar
from test_scenarios import _with

SEED = 20240809


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _preset_report(name, outdir, *edits):
    """Run preset `name` with each (section, key, value) of `edits` set."""
    rep = run_scenario(load_config(_with(presets.get(name), *edits)), outdir)
    assert not rep.failed, rep.payload.get("error")
    return rep


@pytest.fixture(scope="module")
def identity_runs(outdir):
    """Criterion 3's pair: h = 0.05 and h = 0.025 with dt halved (fixed cfl)."""
    t0 = time.monotonic()
    coarse = _preset_report("identity-refinement", outdir)
    fine = _preset_report("identity-refinement-h2", outdir)
    return coarse, fine, time.monotonic() - t0


@pytest.fixture(scope="module")
def t3_report(outdir):
    t0 = time.monotonic()
    rep = _preset_report("t3-compact-1d", outdir)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def t2_report(outdir):
    return _preset_report("t2-poly-1d", outdir)


@pytest.fixture(scope="module")
def t2_report_fine(outdir):
    # dt,h refinement of the t2 preset for the Prop-1 order study
    return _preset_report("t2-poly-1d", outdir, ("scenario", "name", "t2-poly-1d-fine"),
                          ("grid", "h", "0.025"))


@pytest.fixture(scope="module")
def t1_report(outdir):
    return _preset_report("t1-log-desk", outdir)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_constant_identity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_t2, worst_t3 = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        r = 1.0 + rng.uniform(1e-6, 1.0) * (2.0 / d)
        d0 = rng.uniform(1e-6, 0.05)
        target = d0 * r / (r + 1.0)
        for half in (True, False):
            k = k_quadratic(r, d0, half)[0]
            c = (0.5 - d0) if half else (1.0 - d0)
            k2 = 8.0 * k * (1.0 + d0) / ((r + 1.0) * (5.0 * k * r - 8.0 * c))
            lhs = k - r / (r + 1.0) - k2 * (8.0 / 3.0) ** r
            if half:
                worst_t2 = max(worst_t2, abs(lhs - target) / abs(target))
            else:
                worst_t3 = max(worst_t3, target - lhs)
    wall = time.monotonic() - t0
    ok = worst_t2 <= 1e-9 and worst_t3 <= 1e-12 and wall < 1.0
    _report(1, "constant-identity suite", ok,
            f"T2 rel residual {worst_t2:.2e}, T3 slack deficit {worst_t3:.2e}, "
            f"{wall:.2f}s")


def test_criterion_02_weight_inequality_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    s_grid = np.concatenate([[0.0], np.logspace(0.0, 9.0, 10_000)])
    min_margin = math.inf
    for _ in range(20):
        beta = rng.uniform(-1.0 + 1e-6, 3.0)
        r = rng.uniform(1.0 + 1e-3, 3.0)
        d0 = rng.uniform(1e-3, 0.999)
        bv = compute_b(r, beta + 1.0, d0, "lemma")
        fam = WeightFamily(Regime.LOG, beta=beta, ln_b=bv.ln_b, r=r)
        rep = verify_weight_inequalities(fam, r, s_grid)
        min_margin = min(min_margin, rep.min_margin)
    # derivative cross-check: closed forms vs central differences
    worst_rel = 0.0
    for _ in range(10):
        beta = rng.uniform(-0.9, 3.0)
        b = rng.uniform(math.e, 1e6)
        r = rng.uniform(1.05, 3.0)
        fam = WeightFamily.log_practical(gamma=beta + 1.0, b=b, r=r)
        s = rng.uniform(0.0, 1e3, size=100)
        d = 1e-6 * (b + s)
        s = np.maximum(s, d)    # keep the central stencil inside s >= 0
        for base, deriv in ((WeightKind.F, WeightKind.F_PRIME),
                            (WeightKind.F1, WeightKind.F1_PRIME),
                            (WeightKind.F2, WeightKind.F2_PRIME)):
            closed = eval_weight(fam, deriv, s)
            fd = (eval_weight(fam, base, s + d)
                  - eval_weight(fam, base, s - d)) / (2.0 * d)
            scale = np.maximum(np.abs(closed),
                               np.abs(eval_weight(fam, base, s)) / (b + s))
            worst_rel = max(worst_rel, float(np.max(
                np.abs(closed - fd) / np.maximum(scale, 1e-300))))
    wall = time.monotonic() - t0
    ok = min_margin >= 0.0 and worst_rel <= 1e-5 and wall < 5.0
    _report(2, "weight-inequality suite", ok,
            f"min margin {min_margin:.3e}, max FD rel err {worst_rel:.2e}, "
            f"{wall:.2f}s")


def test_criterion_03_energy_identity_and_refinement(identity_runs):
    coarse, fine, wall = identity_runs
    d_coarse = coarse.payload["defects"]["identity_final"]
    d_fine = fine.payload["defects"]["identity_final"]
    shrink = d_coarse / d_fine if d_fine > 0 else math.inf
    ok = d_coarse <= 1e-3 and shrink >= 1.8 and wall < 30.0
    _report(3, "discrete energy identity", ok,
            f"defect {d_coarse:.3e} @ h=0.05, shrink x{shrink:.2f} at h/2, "
            f"{wall:.1f}s")


def test_criterion_04_monotone_decay(identity_runs):
    coarse, _, _ = identity_runs
    sol = coarse.payload["solver"]
    ok = sol["mono_violations"] == 0
    _report(4, "stepwise monotone decay", ok,
            f"{sol['mono_violations']} violations over {sol['n_steps']} steps, "
            f"worst {sol['mono_worst']:.2e}")


def test_criterion_05_nodal_damping_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)

    def bisect(c, w, r):
        if w == 0.0 or c == 0.0:
            return w
        lo, hi = 0.0, abs(w)
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if mid + c * mid**r > abs(w):
                hi = mid
            else:
                lo = mid
        return math.copysign(0.5 * (lo + hi), w)

    worst_gap, worst_res = 0.0, 0.0
    for _ in range(1000):
        c = rng.uniform(0.0, 1e6)
        w = rng.uniform(-10.0, 10.0)
        r = rng.uniform(1.0 + 1e-9, 3.0)
        v = solve_damping_scalar(c, w, r, tol=1e-12)
        worst_gap = max(worst_gap, abs(v - bisect(c, w, r)))
        worst_res = max(worst_res, abs(v + c * abs(v) ** (r - 1.0) * v - w))
    wall = time.monotonic() - t0
    ok = worst_gap <= 1e-12 and worst_res <= 1e-12
    _report(5, "nodal damping oracle", ok,
            f"max |v - bisection| {worst_gap:.2e}, max residual "
            f"{worst_res:.2e}, {wall:.1f}s")


def test_criterion_06_cross_integrator():
    t0 = time.monotonic()
    grid = build_grid_1d(0.0, 10.0, 100)
    damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
    state = make_initial_compact(grid, 5.0, 2.0, 1.0, "bump_u").on(None, grid.shape)
    dt = 0.2 * grid.h
    n = int(round(5.0 / dt))
    params = SolverParams(dt=dt, r=2.0, T_max=5.0)
    main = run(grid, damping, state.copy(), params, sample_stride=1)
    fine = SolverParams(dt=dt / 8.0, r=2.0, T_max=5.0)
    ref = reference_solve(grid, damping, state.copy(), fine, sample_stride=8)
    Em = main.E_steps
    assert len(ref.E) == n + 1
    gap = float(np.max(np.abs(Em - ref.E)))
    E0 = Em[0]
    wall = time.monotonic() - t0
    ok = gap <= 5e-3 * E0 and wall < 60.0
    _report(6, "cross-integrator validation", ok,
            f"max energy gap {gap:.3e} vs 5e-3*E0 = {5e-3 * E0:.3e}, "
            f"{wall:.1f}s")


def test_criterion_07_t3_decay_consistency(t3_report):
    rep, wall = t3_report
    v = rep.payload["verdicts"]["CompactDecay"]
    gam = rep.payload["constants"]["gamma"]
    ok = (v["passed"] and v["gamma_hat"] >= 0.8 * gam and wall < 300.0
          and rep.payload["fits"]["CompactDecay"]["window"][0] >= 50.0)
    _report(7, "compact-support decay consistency", ok,
            f"gamma_hat {v['gamma_hat']:.3f} vs 0.8*gamma = {0.8 * gam:.3f}, "
            f"{wall:.0f}s")


def test_criterion_08_bundle_boundedness(t3_report, t2_report, t1_report):
    worst = (-math.inf, "")
    for rep in (t3_report[0], t2_report, t1_report):
        for name, v in rep.payload["bundle_boundedness"].items():
            if v["final_decade_fraction"] > worst[0]:
                worst = (v["final_decade_fraction"],
                         f"{rep.name}:{name}")
    ok = worst[0] <= 0.05
    _report(8, "bundle boundedness", ok,
            f"worst final-decade fraction {worst[0]:.4f} ({worst[1]})")


def test_criterion_09_prop1_inequality(t2_report, t2_report_fine):
    d_coarse = t2_report.payload["defects"]["prop1"]["max_defect"]
    d_fine = t2_report_fine.payload["defects"]["prop1"]["max_defect"]
    pos_c, pos_f = max(0.0, d_coarse), max(0.0, d_fine)
    order_ok = pos_f <= pos_c / 1.8 + 1e-12
    ok = d_coarse <= 2e-2 and order_ok
    _report(9, "weighted-energy window inequality", ok,
            f"defect {d_coarse:.3e} @ h=0.05, {d_fine:.3e} @ h=0.025")


def test_criterion_10_finite_speed(t3_report):
    rep, _ = t3_report
    cone = rep.payload["cone"]
    h = rep.payload["grid"]["h"]
    dt = rep.payload["solver"]["dt"]
    contamination = rep.payload["truncation_contamination"]
    ok = (cone["declared"] and cone["ok"]
          and cone["worst_overshoot"] <= 2.0 * h + 2.0 * dt
          and contamination < 1e-15)
    _report(10, "finite speed of propagation", ok,
            f"worst overshoot {cone['worst_overshoot']:.3f} vs slack "
            f"{2 * h + 2 * dt:.3f}, contamination {contamination:.2e}")


def test_criterion_11_fit_exactness():
    t0 = time.monotonic()
    ts = np.linspace(0.0, 200.0, 800)
    errs = [
        abs(fit_decay(ts, (1 + ts) ** -2.0, "PolyDecay", 1.0,
                      (0.0, 200.0)).gamma_hat - 2.0),
        abs(fit_decay(ts, np.log(math.e + ts) ** -3.0, "LogDecay", math.e,
                      (0.0, 200.0)).gamma_hat - 3.0),
        abs(fit_decay(ts, (2.0 / (2.0 + ts)) ** 1.7, "CompactDecay", 2.0,
                      (0.0, 200.0)).gamma_hat - 1.7),
    ]
    wall = time.monotonic() - t0
    ok = max(errs) <= 1e-6 and wall < 1.0
    _report(11, "fit exactness", ok,
            f"max gamma_hat error {max(errs):.2e}, {wall:.2f}s")


def test_criterion_12_high_energy_bound(t2_report, t3_report):
    worst = -math.inf
    for rep in (t2_report, t3_report[0]):
        he = rep.payload["defects"]["high_energy"]
        ratio = he["worst_value"] / he["bound"]
        worst = max(worst, ratio)
        assert he["holds_with_slack_1.1"], rep.name
    ok = worst <= 1.1
    _report(12, "high-energy a-priori bound", ok,
            f"worst sup/bound ratio {worst:.3f} vs 1.1")


# ---------------------------------------------------------------------------
# spec invariants that need the long run
# ---------------------------------------------------------------------------

def test_x_functional_boundedness(t3_report, outdir):
    # |X| stabilizes along a decaying run: the max over the second half of
    # the run stays within 1.05x the max over the first half
    rep, _ = t3_report
    X = np.abs(read_series_csv(outdir / rep.payload["series_csv"])["X"])
    half = len(X) // 2
    assert np.max(X) < math.inf
    assert np.max(X[half:]) <= 1.05 * np.max(X[:half])


def test_t3_verdict_margin_documented(t3_report):
    rep, _ = t3_report
    v = rep.payload["verdicts"]["CompactDecay"]
    assert v["binding_bound"] == "(1-delta0)/k"
