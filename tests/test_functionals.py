"""Functional-quadrature tests.

Derived expectations come from analytic quadrature (sin eigenmode energy),
resolution-refined re-quadrature (weighted energy at h/8), and term-by-term
independent re-summation (X at t=0, data functionals with reordered Kahan
summation).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab.functionals import (Prop1Config, SampleTracker,
                                  TrackerConfig, data_functionals, energy,
                                  grad_sq, high_energy_check,
                                  observability_ratio,
                                  prop1_inequality_check, read_series_csv,
                                  series_table, weighted_energy,
                                  weighted_energy_log, write_series_csv,
                                  X_functional)
from decaylab.grids import (CutoffPsi, build_damping, build_grid_1d,
                            build_grid_2d_disk, build_psi)
from decaylab.solver import (ConeSpec, SolverParams, WaveState, laplacian,
                             make_initial_compact, make_initial_weighted, run)
from decaylab import functionals, grids
from decaylab.weights import (WeightFamily, WeightKind, WeightOverflowError,
                              compute_constants, eval_weight, exponent_table,
                              table_weight)
from oracles import sample_as_run


def _setup_1d(n=600, x_max=30.0, alpha=0.0, kind="constant", eps0=1.0,
              L=1.0, a_max=1.0):
    grid = build_grid_1d(alpha, x_max, n)
    damping = build_damping(grid, kind, eps0, L, a_max)
    psi = build_psi(grid, L)
    return grid, damping, psi


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_state():
    grid, _, _ = _setup_1d()
    assert energy(WaveState(grid.zeros(), grid.zeros()), grid) == 0.0


def test_energy_sine_mode_analytic():
    # E = 1/2 int_0^1 pi^2 cos^2(pi x) dx = pi^2 / 4... with v = 0 the
    # energy is half the gradient integral: int pi^2 cos^2 = pi^2/2
    grid = build_grid_1d(0.0, 1.0, 256)
    u = np.sin(np.pi * grid.coords[0])
    grid.clamp_dirichlet(u)
    E = energy(WaveState(u, grid.zeros()), grid)
    assert E == pytest.approx(0.5 * np.pi**2 / 2.0, rel=1e-3)


def test_energy_quadratic_scaling():
    grid, _, _ = _setup_1d()
    st1 = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    st2 = WaveState(2.0 * st1.u, 2.0 * st1.v)
    assert energy(st2, grid) == pytest.approx(4.0 * energy(st1, grid), rel=1e-14)


# ---------------------------------------------------------------------------
# weighted energy
# ---------------------------------------------------------------------------

def test_weighted_energy_collapses_to_energy():
    # Poly beta=0 has phi(s) = 1+s; mu = lam = 0 freezes it at phi(0) = 1
    grid, _, _ = _setup_1d()
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    fam = WeightFamily.poly(gamma=1.0)
    assert weighted_energy(st, grid, fam, 0.0, 0.0) == pytest.approx(
        energy(st, grid), rel=1e-14)


def test_weighted_energy_zero_state():
    grid, _, _ = _setup_1d()
    fam = WeightFamily.poly(gamma=1.0)
    st = WaveState(grid.zeros(), grid.zeros())
    assert weighted_energy(st, grid, fam, 1.0, 1.0) == 0.0
    assert weighted_energy_log(st, grid, fam, 1.0, 1.0) == -math.inf


def test_weighted_energy_against_fine_quadrature():
    # same integrand re-quadratured at h/8 agrees within 1%
    fam = WeightFamily.poly(gamma=1.0)
    vals = {}
    for n in (400, 3200):
        grid = build_grid_1d(0.0, 20.0, n)
        st = make_initial_compact(grid, 5.0, 2.0, 1.0, "bump_u").on(None, grid.shape)
        vals[n] = weighted_energy(st, grid, fam, 1.0, 1.0)
    assert vals[400] == pytest.approx(vals[3200], rel=0.01)


def test_weighted_energy_log_consistency():
    grid, _, _ = _setup_1d()
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    fam = WeightFamily.poly(gamma=1.0)
    direct = weighted_energy(st, grid, fam, 1.0, 0.5)
    assert math.exp(weighted_energy_log(st, grid, fam, 1.0, 0.5)) == \
        pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# X functional
# ---------------------------------------------------------------------------

def test_x_zero_state():
    grid, damping, psi = _setup_1d()
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    fam = WeightFamily.poly(consts.gamma, r=1.5)
    st = WaveState(grid.zeros(), grid.zeros())
    assert X_functional(st, grid, psi, damping, consts, fam) == 0.0


def test_x_psi_one_kills_cross_term():
    grid, damping, _ = _setup_1d()
    psi_one = CutoffPsi(held=grids._radial(grid, np.ones_like, 1.0), L=1.0)
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    fam = WeightFamily.poly(consts.gamma, r=1.5)
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    x_val = X_functional(st, grid, psi_one, damping, consts, fam)
    # with v = (1-psi) u = 0 only the three u/e terms remain; recompute them
    s = grid.q + st.t
    vol = grid.cell_volume
    a = damping.values
    e = grad_sq(grid, st.u) + np.where(grid.fluid, st.v**2, 0.0)
    beta = consts.gamma - 1.0
    expected = vol * (
        0.5 * consts.k1 * float(np.sum((1 + s) ** (beta - 1) * a * st.u**2))
        + consts.k2 * float(np.sum(a * (1 + s) ** (beta - 0.5) * np.abs(st.u) ** 2.5))
        + 0.5 * consts.k * float(np.sum((1 + s) ** (beta + 1) * e)))
    assert x_val == pytest.approx(expected, rel=1e-12)


def test_x_compact_t0_term_by_term():
    grid, damping, psi = _setup_1d(alpha=0.5, x_max=30.0, n=590,
                                   kind="exterior_smooth", eps0=0.5, L=0.5)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    R = 2.0
    fam = WeightFamily.compact(consts.gamma, R, r=1.5)
    st = make_initial_compact(grid, 1.25, 0.7, 1.0, "bump_u", R=R)   # u1 = 0
    st = st.on(None, grid.shape)
    x_val = X_functional(st, grid, psi, damping, consts, fam)
    vol = grid.cell_volume
    a = damping.values
    b = consts.gamma - 1.0
    expected = (0.5 * consts.k1 * R ** (b - 1.0) * vol * float(np.sum(a * st.u**2))
                + consts.k2 * R ** (b - 0.5) * vol * float(np.sum(a * np.abs(st.u) ** 2.5))
                + consts.k * R ** (b + 1.0) * energy(st, grid))
    assert x_val == pytest.approx(expected, rel=1e-12)


def test_x_regime_mismatch_rejected():
    grid, damping, psi = _setup_1d()
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    fam = WeightFamily.compact(0.2, 2.0, r=1.5)
    st = WaveState(grid.zeros(), grid.zeros())
    with pytest.raises(ValueError):
        X_functional(st, grid, psi, damping, consts, fam)


# ---------------------------------------------------------------------------
# data functionals
# ---------------------------------------------------------------------------

def test_data_functionals_zero_data_is_one():
    grid, _, _ = _setup_1d()
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    d = data_functionals(WaveState(grid.zeros(), grid.zeros()), grid,
                         None, consts)
    assert d.value == 1.0


def test_data_functionals_monotone_in_amplitude():
    grid, _, _ = _setup_1d()
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    fam = WeightFamily.poly(consts.gamma, r=1.5)
    d1 = data_functionals(make_initial_compact(grid, 3.0, 1.0, 1.0, "both"),
                          grid, fam, consts)
    d2 = data_functionals(make_initial_compact(grid, 3.0, 1.0, 2.0, "both"),
                          grid, fam, consts)
    for name, v1 in d1.components.items():
        assert d2.components[name] > v1


def test_data_functionals_reordered_kahan_oracle():
    # independent oracle: same grid, reversed summation order with Kahan
    grid, _, _ = _setup_1d(n=500)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    st = make_initial_compact(grid, 3.0, 1.0, 1.3, "bump_u", R=5.0).on(None, grid.shape)
    d = data_functionals(st, grid, None, consts)

    def kahan(values):
        s = c = 0.0
        for x in values[::-1]:
            y = x - c
            t = s + y
            c = (t - s) - y
            s = t
        return s

    from decaylab.solver import laplacian
    vol = grid.cell_volume
    g0 = grad_sq(grid, st.u)
    lap0 = laplacian(grid, st.u)
    h2 = vol * kahan((st.u**2 + g0 + lap0**2).ravel())
    assert d.components["u0_H2_sq"] == pytest.approx(h2, rel=1e-12)
    lr1 = vol * kahan((np.abs(st.u) ** 2.5).ravel())
    assert d.components["u0_Lr1"] == pytest.approx(lr1, rel=1e-12)


@pytest.mark.parametrize("case", ["compact-1d", "sharp-2d", "weighted-1d"])
def test_data_functionals_window_matches_whole_grid(case):
    # compact data are summed on their support box; the same sums over the
    # full arrays agree to round-off, and weighted data (whose box is the
    # whole grid) give exactly the whole-grid sums
    if case == "sharp-2d":
        grid = build_grid_2d_disk(1.0, 8.0, 8.0)
        consts = compute_constants("T2", 1.5, 2, 0.01, 0.1)
        rng = np.random.default_rng(3)
        block = np.zeros(grid.shape, dtype=bool)
        block[40:49, 30:39] = True
        st = WaveState(*(np.where(block & grid.fluid,
                                  rng.normal(size=grid.shape), 0.0)
                         for _ in range(2)))
    else:
        grid, _, _ = _setup_1d(n=500)
        consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
        st = (make_initial_compact(grid, 3.0, 1.0, 1.3, "both").on(None, grid.shape)
              if case == "compact-1d" else
              make_initial_weighted(grid, 2.0, None, consts.gamma))
    fam = WeightFamily.poly(consts.gamma, r=1.5)
    d = data_functionals(st, grid, fam, consts)

    vol = grid.cell_volume
    g0 = grad_sq(grid, st.u)
    w = eval_weight(fam, WeightKind.PHI, grid.q)
    expect = {
        "u0_H2_sq": vol * float(np.sum(st.u**2 + g0 + laplacian(grid, st.u)**2)),
        "u1_H1_sq": vol * float(np.sum(st.v**2 + grad_sq(grid, st.v))),
        "u0_Lr1": vol * float(np.sum(np.abs(st.u) ** 2.5)),
        "weighted_grad_u0": vol * float(np.sum(w * g0)),
        "weighted_u1": vol * float(np.sum(np.where(grid.fluid, w * st.v**2, 0.0))),
    }
    assert (np.count_nonzero(st.u) < grid.fluid.size // 5) == (case != "weighted-1d")
    for name, value in expect.items():
        assert value > 0.0
        if case == "weighted-1d":
            assert d.components[name] == value, name
        else:
            assert d.components[name] == pytest.approx(value, rel=1e-13, abs=0.0), name


# ---------------------------------------------------------------------------
# tracker / bundles
# ---------------------------------------------------------------------------

def _tracked_run(T_max=5.0, cfl=0.5, theorem="T3", gamma=0.2):
    grid, damping, psi = _setup_1d(alpha=0.5, x_max=30.0, n=590,
                                   kind="exterior_smooth", eps0=0.5, L=0.5)
    consts = compute_constants(theorem, 1.5, 1, 0.01, gamma)
    fam = WeightFamily.compact(consts.gamma, 2.0, r=1.5)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, family=fam,
        constants=consts, bundle_sets=[("thm3", fam)],
        prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=1.0))
    params = SolverParams.for_grid(grid, cfl, 1.5, T_max=T_max)
    st = make_initial_compact(grid, 1.25, 0.7, 1.0, "bump_u", R=2.0)
    res = run(grid, damping, st, params, tracker=tracker,
              cone=ConeSpec(R=2.0, enforce=False), sample_stride=10)
    return grid, damping, tracker, res


def test_bundle_zero_trajectory():
    grid, damping, psi = _setup_1d()
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, 2.0, r=1.5)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, family=fam,
        constants=consts, bundle_sets=[("thm3", fam)]))
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=1.0)
    res = run(grid, damping, WaveState(grid.zeros(), grid.zeros()),
              params, tracker=tracker)
    last = res.samples[-1]
    assert all(v == 0.0 for k, v in last.items()
               if k.startswith("thm3"))


def test_bundle_trapezoid_constant_integrand():
    # one accumulation step of a constant integrand must equal stride * value
    grid, damping, tracker, res = _tracked_run(T_max=0.0)
    s0 = res.samples[0]
    st = WaveState(res.final_state.u.copy(), res.final_state.v.copy(), 0.5)
    s1 = sample_as_run(tracker, damping, st, 0.0, res.E_steps[0])
    g = 0.2
    dt_s = 0.5
    expect = 0.5 * dt_s * ((2.0 + 0.0) ** (g - 1.0) * s0["E"]
                           + (2.0 + 0.5) ** (g - 1.0) * s1["E"])
    assert s1["thm3.energy_tail_cum"] == pytest.approx(expect, rel=1e-12)


def test_bundle_members_finite_and_nonnegative():
    _, _, _, res = _tracked_run(T_max=5.0)
    for s in res.samples:
        for name, v in s.items():
            assert math.isfinite(v), name
            if name.endswith("_cum"):
                assert v >= 0.0, name


def _regime_tracker(theorem):
    grid, damping, psi = _setup_1d(alpha=0.5, x_max=30.0, n=590,
                                   kind="exterior_smooth", eps0=0.5, L=0.5)
    if theorem == "T1":
        consts = compute_constants("T1", 1.5, 1, 0.1, 1.0)
        fam = WeightFamily.log_practical(consts.gamma, math.e, r=1.5)
        sets = [("thm1", WeightFamily.log_honest(1.5, consts.gamma, 0.1)),
                ("thm1p", fam)]
    elif theorem == "T2":
        consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
        fam = WeightFamily.poly(consts.gamma, r=1.5)
        sets = [("thm2", fam)]
    else:
        consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
        fam = WeightFamily.compact(consts.gamma, 2.0, r=1.5)
        sets = [("thm3", fam)]
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, family=fam,
        constants=consts, bundle_sets=sets,
        prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=1.0))
    return grid, damping, psi, consts, fam, tracker


@pytest.mark.parametrize("theorem", ["T1", "T2", "T3"])
def test_tracker_E_phi_and_X_match_public_functionals(theorem):
    # the tracker shares one set of densities per sample; its E_phi and X
    # must be exactly what the public functions give on the same state
    grid, damping, psi, consts, fam, tracker = _regime_tracker(theorem)
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=1.0)
    st = make_initial_compact(grid, 1.25, 0.7, 1.0, "both", R=2.0)
    res = run(grid, damping, st, params, tracker=tracker, sample_stride=10)
    last, state = res.samples[-1], res.final_state
    assert last["t"] == state.t > 0.0
    mu = 0.0 if theorem == "T3" else 1.0    # compact weights see t alone
    assert last["E_phi"] == weighted_energy(state, grid, fam, mu, 1.0)
    assert last["X"] == X_functional(state, grid, psi, damping, consts, fam)
    assert last["X"] != 0.0


def test_t1_sample_takes_ln_b_plus_s_once_per_family(monkeypatch):
    # ln(b+s) and ln ln(b+s) are shared by every weight row of a sample
    grid, damping, psi, consts, fam, tracker = _regime_tracker("T1")
    state = make_initial_weighted(grid, 10.0, fam, consts.gamma)
    calls = []
    real = WeightFamily.ln_bs

    def counting(self, s):
        calls.append(self.ln_b)
        return real(self, s)

    monkeypatch.setattr(WeightFamily, "ln_bs", counting)
    sample = sample_as_run(tracker, damping, state, 0.0, 1.0)
    ln_bs = {f.ln_b for _, f in tracker.cfg.bundle_sets}
    assert len(ln_bs) == 2 and fam.ln_b in ln_bs
    assert sorted(calls) == sorted(ln_bs)
    assert sample["X"] != 0.0 and math.isfinite(sample["E_phi"])


class _BuildingTracker(SampleTracker):
    """A tracker that ignores the integrand `run` hands it and takes
    a |v|^(r+1) built afresh on the state's box instead."""

    def sample(self, state, D_cum, E_solver, grid, a, lap, integrand):
        built = a * np.abs(state.v) ** (self.cfg.r + 1.0)
        return super().sample(state, D_cum, E_solver, grid, a, lap, built)


def test_t3_sample_takes_the_run_integrand_byte_identical():
    # the T3 bundle sums a |v|^(r+1) and prop1 weights it per node.  The
    # sample takes the integrand `run` leaves in its workspace (the step's,
    # or formed at t = 0 by the step's operations), cut to the sample box;
    # its rows are, byte for byte, those of a tracker handed the density built
    # afresh at every sample.  The 2D sample box cuts a strided block of over
    # 8192 nodes from the window's integrand, where numpy sums a strided block
    # in other parts than a contiguous one
    grid, damping, _, _, _, tracker = _regime_tracker("T3")
    grid2 = build_grid_2d_disk(1.0, 8.0, 16.0)
    consts = compute_constants("T3", 1.5, 2, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, 6.5, r=1.5)
    damping2 = build_damping(grid2, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    cfg2 = TrackerConfig(grid=grid2, psi=build_psi(grid2, 1.0), r=1.5,
                         family=fam, constants=consts, bundle_sets=[("thm3", fam)],
                         prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=2.5)
    for cfg, damping, bump in ((tracker.cfg, damping, (1.25, 0.7, 2.0)),
                               (cfg2, damping2, ((4.0, 0.0), 2.5, 6.5))):
        grid = cfg.grid
        params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=1.0)
        for mode in ("bump_u", "both"):
            st0 = make_initial_compact(grid, *bump[:2], 1.0, mode, R=bump[2])
            res = run(grid, damping, st0, params, tracker=SampleTracker(cfg),
                      sample_stride=10)
            got = res.samples
            want = run(grid, damping, st0, params, tracker=_BuildingTracker(cfg),
                       sample_stride=10).samples
            assert len(got) > 1 and got[-1]["thm3.disp_weighted_cum"] > 0.0
            assert [list(row) for row in got] == [list(row) for row in want]
            assert (np.array([list(row.values()) for row in got]).tobytes()
                    == np.array([list(row.values()) for row in want]).tobytes())
        box = functionals._support_box(res.final_state.u, res.final_state.v, 2)
        assert (math.prod(b.stop - b.start for b in box) > 8192) == (grid.dim == 2)


def _densities_built(monkeypatch) -> list:
    """Counts every build of a `_SampleContext` density: the list of
    (sample time, density) it appends to."""
    builds = []
    for name, build in functionals._SampleContext._DENSITIES.items():
        def counting(c, name=name, build=build):
            builds.append((c.t, name))
            return build(c)
        monkeypatch.setitem(functionals._SampleContext._DENSITIES, name, counting)
    return builds


@pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "identity"])
def test_sample_builds_each_density_at_most_once(theorem, monkeypatch):
    # the sample holds what some group reads node by node and builds what is
    # only summed for its sum alone; a density read both ways (e: summed by
    # the compact E_phi, X and bundle, read per node by prop1, obs and the
    # band) must be held from its first read on, not built twice
    if theorem == "identity":
        grid, damping, psi = _setup_1d(alpha=0.5, x_max=30.0, n=590,
                                       kind="exterior_smooth", eps0=0.5, L=0.5)
        tracker = SampleTracker(TrackerConfig(
            grid=grid, psi=psi, r=1.5, prop1=Prop1Config(WeightFamily.poly(1.0))))
    else:
        grid, damping, *_, tracker = _regime_tracker(theorem)
    builds = _densities_built(monkeypatch)
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=1.0)
    st0 = make_initial_compact(grid, 1.25, 0.7, 1.0, "both", R=2.0)
    res = run(grid, damping, st0, params, tracker=tracker, sample_stride=10)
    assert len(res.samples) > 1
    assert len(builds) == len(set(builds))
    built = {name for _, name in builds}
    assert built == ({"du2", "v2", "e"} if theorem == "identity"
                     else set(functionals._SampleContext._DENSITIES))
    for row in res.samples:         # each sample builds them anew
        assert {name for t, name in builds if t == row["t"]} == built


def test_t3_sample_holds_no_density_it_only_sums():
    # under compact weights u2, |u|^(r+1) and their products with a are read
    # by their totals alone (X takes them, the bundle and obs reuse them), so
    # the sample never holds them: no group starts with one held, and every
    # group starts with e, which each reads node by node.  Outputs do not show
    # this; holding them raises a full t3-compact-2d run's peak memory by
    # about 8 MB
    grid = build_grid_2d_disk(1.0, 6.0, 8.0)
    consts = compute_constants("T3", 1.5, 2, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, 4.5, r=1.5)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=build_psi(grid, 1.0), r=1.5, family=fam,
        constants=consts, bundle_sets=[("thm3", fam)],
        prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=2.5))
    held = {}       # per group, the densities held as each of its calls starts

    def watching(prefix, fn):
        def fn_watched(c):
            held.setdefault(prefix, []).append(vars(c).keys() & c._DENSITIES.keys())
            return fn(c)
        return fn_watched

    tracker.groups = [(names, watching(names[0].split(".")[0], fn))
                      for names, fn in tracker.groups]
    st0 = make_initial_compact(grid, (3.0, 0.0), 1.0, 1.0, "both", R=4.5)
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=1.0)
    res = run(grid, damping, st0, params, tracker=tracker, sample_stride=4)
    assert len(res.samples) > 2
    summed = {"u2", "ur1", "a_u2", "a_ur1"}
    assert set(held) == {"thm3", "prop1", "obs", "diag"}
    for group, starts in held.items():
        assert len(starts) == len(res.samples)
        for names in starts:
            assert "e" in names and not names & summed, group


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 50.0),
       scale=st.floats(1e-3, 1e3), lo=st.integers(0, 580), size=st.integers(1, 590))
def test_compact_weights_scale_totals_within_round_off(seed, t, scale, lo, size):
    # a compact weight is one number per sample: E_phi, X and the obs members
    # take it times a density's total, which must match the per-node sum of
    # the terms w * density within 8 n eps of the sum of their |values|
    grid, damping, psi, consts, fam, tracker = _regime_tracker("T3")
    rng = np.random.default_rng(seed)
    block = np.zeros(grid.shape, dtype=bool)
    block[lo:lo + size] = True
    u, v = (grid.clamp_dirichlet(np.where(block, scale * rng.normal(size=grid.shape),
                                          0.0))
            for _ in range(2))
    state, a, vol, r = WaveState(u, v, t), damping.values, grid.cell_volume, consts.r
    e = grad_sq(grid, u) + np.where(grid.fluid, v * v, 0.0)

    def weight(kind, table=exponent_table(fam)):
        return table_weight(fam, table[kind], t)

    def assert_sums(got, *terms):
        flat = np.concatenate([np.ravel(x) for x in terms])
        bound = 8 * flat.size * np.finfo(float).eps * vol * float(np.sum(np.abs(flat)))
        assert abs(got - vol * math.fsum(flat)) <= bound

    assert_sums(weighted_energy(state, grid, fam, 0.0, 1.0),
                0.5 * weight(WeightKind.PHI) * e)
    table = exponent_table(fam, r=r)
    one_m_psi = 1.0 - psi.values
    assert_sums(X_functional(state, grid, psi, damping, consts, fam),
                weight(WeightKind.F, table) * (one_m_psi * u) * (one_m_psi * v),
                0.5 * consts.k1 * weight(WeightKind.F1, table) * a * u * u,
                consts.k2 * weight(WeightKind.F2, table) * a * np.abs(u) ** (r + 1.0),
                0.5 * consts.k * weight(WeightKind.PHI, table) * e)
    _, members = functionals._obs_members(tracker.cfg)
    lhs, rhs_disp, rhs_u2 = members(functionals._SampleContext(grid, state, a, r))
    f = weight(WeightKind.F)
    inside = grid.fluid & (grid.radius <= tracker.cfg.obs_R0)
    assert_sums(lhs, (f * e)[inside])
    assert_sums(rhs_disp, f * (a * v * v + a * np.abs(v) ** (2.0 * r)))
    assert_sums(rhs_u2, weight("obs_u2") * a * u * u)


def test_sample_weights_match_uncached_table_weight():
    grid, damping, psi, consts, fam, tracker = _regime_tracker("T1")
    state = make_initial_weighted(grid, 10.0, fam, consts.gamma)
    ctx = functionals._SampleContext(grid, state)
    s = ctx.s(1.0, 1.0)
    for family in (fam, tracker.cfg.bundle_sets[0][1]):
        for entry in exponent_table(family, consts.gamma, 1.5).values():
            want = table_weight(family, entry, s)
            assert ctx.weight(family, entry, 1.0, 1.0).tobytes() == want.tobytes()


def test_log_bundle_overflow_raises():
    # gamma = 100 is admissible for T1, but ln b ~ 1.8e8 makes the bundle's
    # ln^100(b+q+t) weight e^1903: sampling must raise, not cap the value
    consts = compute_constants("T1", 1.5, 1, 0.01, 100.0)
    honest = WeightFamily.log_honest(1.5, 100.0, 0.01)
    grid, damping, psi = _setup_1d()
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, constants=consts,
        bundle_sets=[("thm1", honest)]))
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    with pytest.raises(WeightOverflowError) as exc:
        sample_as_run(tracker, damping, st, 0.0, energy(st, grid))
    assert exc.value.log_value == pytest.approx(1903.0, abs=1.0)


def _window_sample_case(dim, sharp, theorem="T3"):
    """(grid, damping, fam, tracker, state) of the windowed-sample tests: a
    tracker with prop1 and observability members, and a smooth bump or (sharp)
    random values on a block, zero elsewhere.  2D runs T3 alone."""
    if dim == 1:
        grid, damping, psi, consts, fam, tracker = _regime_tracker(theorem)
        st0 = make_initial_compact(grid, 1.25, 0.7, 1.0, "both", R=2.0)
    else:
        grid = build_grid_2d_disk(1.0, 8.0, 8.0)
        damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
        psi = build_psi(grid, 1.0)
        consts = compute_constants("T3", 1.5, 2, 0.01, 0.2)
        fam = WeightFamily.compact(consts.gamma, 3.0, r=1.5)
        tracker = SampleTracker(TrackerConfig(
            grid=grid, psi=psi, r=1.5, family=fam,
            constants=consts, bundle_sets=[("thm3", fam)],
            prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=2.5))
        st0 = make_initial_compact(grid, (2.0, 0.5), 0.8, 1.0, "both", R=3.0)
    st0 = st0.on(None, grid.shape)
    if sharp:
        rng = np.random.default_rng(dim)
        block = np.zeros(grid.shape, dtype=bool)
        block[tuple(slice(n // 3, n // 3 + 9) for n in grid.shape)] = True
        st0 = WaveState(*(np.where(block & grid.fluid,
                                   rng.normal(size=grid.shape), 0.0)
                          for _ in range(2)))
    return grid, damping, fam, tracker, st0


@pytest.mark.parametrize("sharp", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_windowed_sample_matches_whole_grid_sums(dim, sharp):
    # the tracker sums over the box of the state's nonzeros; the same
    # quantities summed over the full arrays must agree to round-off.  A
    # sharp state (random values on a block, sampled at t = 0) has O(1)
    # gradients at its edge, which only the 2-node halo catches
    grid, damping, fam, tracker, st0 = _window_sample_case(dim, sharp)
    dt = SolverParams.for_grid(grid, 0.5, 1.5, T_max=0.0).dt
    n_steps = 0 if sharp else 20
    params = SolverParams(dt=dt, r=1.5, T_max=n_steps * dt)
    res = run(grid, damping, st0, params, tracker=tracker, sample_stride=10)
    last, st = res.samples[-1], res.final_state
    assert last["t"] == st.t and res.n_steps == n_steps
    u, v, h, vol = st.u, st.v, grid.h, grid.cell_volume
    assert 0 < np.count_nonzero(u) < grid.fluid.size // 5
    kin = float(np.sum(v * v))
    edges = sum(float(np.sum(np.diff(u, axis=k) ** 2)) for k in range(dim))
    e = grad_sq(grid, u) + v * v
    utt = laplacian(grid, u) - damping.values * np.abs(v) ** 0.5 * v
    utt[~grid.fluid] = 0.0
    q = np.hypot(1.0, grid.radius)
    expect = {
        "E": 0.5 * (vol * kin + h ** (dim - 2) * edges),
        "E_phi": 0.5 * vol * float(np.sum(
            eval_weight(fam, WeightKind.PHI, 0.0 * q + st.t) * e)),
        "prop1.E_phi": 0.5 * vol * float(np.sum(
            eval_weight(WeightFamily.poly(1.0), WeightKind.PHI, q + st.t) * e)),
        "high_energy": vol * float(np.sum(grad_sq(grid, v)) + np.sum(utt * utt)),
    }
    got = {name: last[name] for name in expect}
    for name, value in expect.items():
        assert value > 0.0
        assert got[name] == pytest.approx(value, rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("case", [(1, False, "T1"), (1, True, "T1"),
                                  (1, False, "T3"), (1, True, "T3"),
                                  (2, False, "T3"), (2, True, "T3")])
def test_window_sample_byte_identical_to_full_state(case):
    # `run` hands the tracker its window, the support padded by 10 nodes per
    # side, held on the window's box; two samples (so the cumulative members
    # accumulate) must match those of the full state byte for byte
    dim, sharp, theorem = case
    grid, damping, fam, tracker, st = _window_sample_case(dim, sharp, theorem)
    if not sharp:
        dt = SolverParams.for_grid(grid, 0.5, 1.5, T_max=0.0).dt
        st = run(grid, damping, st, SolverParams(dt=dt, r=1.5, T_max=20 * dt)
                 ).final_state
    box = functionals._support_box(st.u, st.v, 10)
    assert box is not None
    full, part = SampleTracker(tracker.cfg), SampleTracker(tracker.cfg)
    for t in (st.t, st.t + 0.5):
        want = sample_as_run(full, damping, WaveState(st.u, st.v, t), 0.25, 1.0)
        got = sample_as_run(part, damping, WaveState(st.u[box], st.v[box], t, box),
                            0.25, 1.0)
        assert repr(got) == repr(want)
    assert sharp or want["obs.lhs_cum"] > 0.0
    tight = functionals._support_box(st.u, st.v, 1)
    with pytest.raises(ValueError, match="halo"):
        sample_as_run(part, damping,
                      WaveState(st.u[tight], st.v[tight], st.t + 1.0, tight), 0.25, 1.0)


@pytest.mark.parametrize("sharp", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_high_energy_from_handed_laplacian_byte_identical(dim, sharp):
    # the tracker slices the run's Lap_h(u) to the sample box instead of
    # recomputing it: on windows whose 2-node halo touches their edge, and
    # on wider ones, high_energy has the bytes of the full state's sample
    grid, damping, fam, tracker, st = _window_sample_case(dim, sharp)
    want = sample_as_run(SampleTracker(tracker.cfg), damping, st, 0.25,
                         1.0)["high_energy"]
    for pad in (2, 3, 10):
        box = functionals._support_box(st.u, st.v, pad)
        g = grid.window(box)
        held = WaveState(st.u[box], st.v[box], st.t, box)
        a = damping.window(box)
        got = SampleTracker(tracker.cfg).sample(held, 0.25, 1.0, g, a, laplacian(g, held.u),
                                                a * np.abs(held.v) ** 2.5)
        assert repr(got["high_energy"]) == repr(want)
        assert got["high_energy"] > 0.0


def test_compact_weights_are_one_number():
    # T3 weights depend on t alone: one table_weight per entry and sample,
    # no weight-argument array
    grid, damping, fam, tracker, st = _window_sample_case(1, False)
    ctx = functionals._SampleContext(grid, st, damping.values, 1.5)
    entry = exponent_table(fam)[WeightKind.PHI]
    w = ctx.weight(fam, entry, 0.0, 1.0)
    assert isinstance(w, float) and not ctx._s
    assert w == table_weight(fam, entry, st.t)
    array = eval_weight(fam, WeightKind.PHI, 0.0 * grid.q + st.t)
    assert w == pytest.approx(float(array[0]), rel=1e-15)


def test_tracker_rejects_stride_change():
    grid, damping, tracker, res = _tracked_run(T_max=2.0)
    st = res.final_state
    bad = WaveState(st.u.copy(), st.v.copy(), st.t + 0.123)
    with pytest.raises(ValueError, match="stride"):
        sample_as_run(tracker, damping, bad, res.D_cum, res.E_steps[-1])


def test_prop1_zero_solution_degenerate():
    grid, damping, psi = _setup_1d()
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5,
        prop1=Prop1Config(WeightFamily.poly(1.0))))
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=2.0)
    res = run(grid, damping, WaveState(grid.zeros(), grid.zeros()),
              params, tracker=tracker)
    rep = prop1_inequality_check(series_table(res.samples), window_T=1.0)
    assert rep.degenerate and rep.max_defect == 0.0


def test_prop1_lambda_mu_zero_reduces_to_identity():
    # phi = 1 + mu q + lam t with mu = lam = 0 freezes phi = 1: the window
    # inequality collapses to the energy identity over the window, up to the
    # O(dt) gap between the scheme's right-endpoint dissipation accounting
    # and the trapezoid window integral; the defect must shrink with order 1
    defects = {}
    for n, cfl in ((600, 0.3), (1200, 0.15)):
        grid = build_grid_1d(0.0, 30.0, n)
        damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
        psi = build_psi(grid, 1.0)
        tracker = SampleTracker(TrackerConfig(
            grid=grid, psi=psi, r=1.5,
            prop1=Prop1Config(WeightFamily.poly(1.0), mu=0.0, lam=0.0)))
        params = SolverParams.for_grid(grid, cfl, 1.5, T_max=4.0)
        st = make_initial_compact(grid, 3.0, 1.0, 1.0, "bump_u")
        res = run(grid, damping, st, params, tracker=tracker)
        rep = prop1_inequality_check(series_table(res.samples), window_T=2.0,
                                     mu=0.0, lam=0.0)
        defects[n] = rep.max_defect
    assert defects[600] <= 2e-2
    assert defects[1200] <= defects[600] / 1.8


def test_observability_zero_solution_degenerate():
    grid, damping, psi = _setup_1d(alpha=0.5, x_max=30.0, n=590,
                                   kind="exterior_smooth", eps0=0.5, L=0.5)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, 2.0, r=1.5)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, family=fam,
        constants=consts, bundle_sets=[("thm3", fam)], obs_R0=1.0))
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=2.0)
    res = run(grid, damping, WaveState(grid.zeros(), grid.zeros()),
              params, tracker=tracker)
    rep = observability_ratio(series_table(res.samples), window_T=1.0)
    assert rep.degenerate


def test_observability_finite_on_real_run():
    _, _, _, res = _tracked_run(T_max=8.0)
    rep = observability_ratio(series_table(res.samples), window_T=2.0)
    finite = [x for x in rep.ratios if math.isfinite(x)]
    assert finite and all(x >= 0.0 for x in finite)


def test_high_energy_zero_data_holds():
    grid, _, _ = _setup_1d()
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    d = data_functionals(WaveState(grid.zeros(), grid.zeros()), grid, None,
                         consts)
    rep = high_energy_check({"t": np.array([]), "high_energy": np.array([])},
                            d, a_inf=1.0)
    assert rep.worst_value == -math.inf   # vacuous: 0 <= bound


def test_high_energy_holds_on_tracked_run():
    grid, damping, tracker, res = _tracked_run(T_max=5.0)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    st0 = make_initial_compact(grid, 1.25, 0.7, 1.0, "bump_u", R=2.0)
    d = data_functionals(st0, grid, None, consts)
    rep = high_energy_check(series_table(res.samples), d, damping.a_inf)
    assert rep.holds(1.1)


def _prop1_by_loop(series, wlen, mu, lam):
    """(max defect, windows) of prop1's window inequality, one window at a time."""
    E_phi, disp = series["prop1.E_phi"], series["prop1.disp_cum"]
    phip = series["prop1.absphip_cum"]
    worst, n = -math.inf, 0
    for i in range(len(E_phi) - wlen):
        j = i + wlen
        lhs = E_phi[j] + (disp[j] - disp[i])
        rhs = E_phi[i] + 0.5 * (lam + mu) * (phip[j] - phip[i])
        worst = max(worst, (lhs - rhs) / E_phi[0])
        n += 1
    return worst, n


def _obs_by_loop(series, wlen):
    """(ratios, degenerate, spread) of the observability display per window."""
    lhs = series["obs.lhs_cum"]
    rhs = series["obs.rhs_disp_cum"] + series["obs.rhs_u2_cum"]
    ratios = []
    for i in np.unique(np.linspace(0, len(lhs) - wlen - 1, 10, dtype=int)):
        dr = rhs[i + wlen] - rhs[i]
        ratios.append(math.inf if dr <= 1e-300 else (lhs[i + wlen] - lhs[i]) / dr)
    finite = [x for x in ratios if math.isfinite(x)]
    spread = max(finite) / min(finite) if finite and min(finite) > 0 else math.inf
    return tuple(ratios), math.inf in ratios, spread


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 30),
       mu=st.floats(0.0, 4.0), lam=st.floats(0.0, 4.0))
def test_checks_on_table_match_per_window_loops(data, n, mu, lam):
    # the checks read whole columns; random tables (tied maxima, an empty
    # series, E_phi(0) <= 0) must give exactly what per-sample loops give
    def column(values, first=None):
        cells = data.draw(st.lists(values, min_size=n, max_size=n))
        if first is not None and cells:
            cells[0] = data.draw(first)
        return np.array(cells, dtype=float)

    whole = st.integers(-20, 20).map(float)       # small range: many ties
    series = {"t": 0.25 * np.arange(n),
              "prop1.E_phi": column(st.floats(-1e3, 1e3),
                                    st.just(0.0) | st.floats(1e-3, 1e3)),
              "prop1.disp_cum": column(st.floats(-1e3, 1e3)),
              "prop1.absphip_cum": column(st.floats(-1e3, 1e3)),
              "obs.lhs_cum": column(whole), "obs.rhs_disp_cum": column(whole),
              "obs.rhs_u2_cum": column(whole), "high_energy": column(whole)}

    core = {"u0_H2_sq": 1.0, "u1_H1_sq": 0.0, "u1_H1_2r": 0.0}
    rep = high_energy_check(series, functionals.DataFunctionals("T3", 2.0, core), 0.5)
    worst, worst_t = -math.inf, 0.0           # the first maximum wins
    for t, value in zip(series["t"], series["high_energy"]):
        if value > worst:
            worst, worst_t = value, t
    assert (rep.bound, rep.worst_value, rep.worst_t) == (3.0, worst, worst_t)
    assert type(rep.worst_value) is float and type(rep.worst_t) is float
    if n < 2:
        return

    wlen = data.draw(st.integers(1, n - 1))
    rep = prop1_inequality_check(series, 0.25 * wlen, mu, lam)
    if series["prop1.E_phi"][0] <= 0.0:
        assert rep.degenerate and (rep.max_defect, rep.n_windows) == (0.0, 0)
    else:
        assert (rep.max_defect, rep.n_windows) == _prop1_by_loop(series, wlen, mu, lam)
        assert type(rep.max_defect) is float and not rep.degenerate
    rep = observability_ratio(series, 0.25 * wlen)
    assert (rep.ratios, rep.degenerate, rep.spread) == _obs_by_loop(series, wlen)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    _, _, tracker, res = _tracked_run(T_max=3.0)
    path = tmp_path / "series.csv"
    series = series_table(res.samples)
    write_series_csv(path, series)
    back = read_series_csv(path)
    header = list(back)
    assert header[:6] == ["t", "E", "E_phi", "X", "D_cum", "D_weighted_cum"]
    assert header[-1] == "high_energy"
    assert header == list(series) == list(res.samples[0])
    assert back["t"].size == len(res.samples)
    for name, column in series.items():     # 17 digits: bit-exact
        assert np.array_equal(back[name], column), name


# ---------------------------------------------------------------------------
# series invariants and quadrature consistency
# ---------------------------------------------------------------------------

def test_sample_series_invariants():
    _, _, _, res = _tracked_run(T_max=6.0)
    D_prev = -1.0
    for s in res.samples:
        assert s["E"] >= 0.0 and s["E_phi"] >= 0.0
        assert s["D_cum"] >= D_prev          # nondecreasing
        assert s["D_weighted_cum"] >= 0.0
        D_prev = s["D_cum"]
        assert math.isfinite(s["diag.identity_defect"])


def test_quadrature_order_under_refinement():
    # analytic bump data: each functional at h and h/2 must agree to O(h)
    from decaylab.weights import (WeightFamily, WeightOverflowError,
                              compute_constants)
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    fam = WeightFamily.poly(consts.gamma, r=1.5)
    vals = {}
    for n in (200, 400, 800):
        grid = build_grid_1d(0.0, 20.0, n)
        damping = build_damping(grid, "exterior_smooth", 0.5, 1.0, 1.0)
        psi = build_psi(grid, 1.0)
        st = make_initial_compact(grid, 5.0, 2.0, 1.0, "both").on(None, grid.shape)
        vals[n] = np.array([
            energy(st, grid),
            weighted_energy(st, grid, fam, 1.0, 1.0),
            X_functional(st, grid, psi, damping, consts, fam),
            data_functionals(st, grid, fam, consts).value,
        ])
    err_coarse = np.abs(vals[200] - vals[800])
    err_fine = np.abs(vals[400] - vals[800])
    # observed order >= 1: halving h at least halves the gap to reference
    assert np.all(err_fine <= 0.55 * err_coarse + 1e-12)


def test_weighted_energy_overflow_flag():
    from decaylab.weights import WeightFamily, WeightOverflowError, Regime
    grid, _, _ = _setup_1d()
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "both").on(None, grid.shape)
    # beta large enough that phi = ln^(beta+1)(b+s) overflows doubles
    fam = WeightFamily(Regime.LOG, beta=400.0, ln_b=100.0)
    with pytest.raises(WeightOverflowError) as exc:
        weighted_energy(st, grid, fam, 1.0, 0.0)
    assert math.isfinite(exc.value.log_value)   # ln E_phi supplied


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_energy_overflow_carries_ln_E_phi_of_compact_data(dim):
    # on compact data the sums run on the support's box; the overflow's
    # ln E_phi must come from that same box, in the public function and in
    # the tracker's E_phi alike
    if dim == 1:
        grid, damping, psi = _setup_1d()
        center = 10.0
    else:
        grid = build_grid_2d_disk(1.0, 8.0, 8.0)
        damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
        psi, center = build_psi(grid, 1.0), (5.0, 0.0)
    st = make_initial_compact(grid, center, 1.0, 1.0, "both").on(None, grid.shape)
    fam = WeightFamily.log_practical(1000.0, math.e)
    want = weighted_energy_log(st, grid, fam, 1.0, 1.0)
    assert 0.0 < want < math.inf
    with pytest.raises(WeightOverflowError) as exc:
        weighted_energy(st, grid, fam, 1.0, 1.0)
    assert exc.value.log_value == want
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5, family=fam,
        constants=compute_constants("T1", 1.5, dim, 0.1, 1.0)))
    with pytest.raises(WeightOverflowError) as exc:
        sample_as_run(tracker, damping, st, 0.0, 1.0)
    assert exc.value.log_value == want


@pytest.mark.parametrize("dim", [1, 2])
def test_public_functionals_read_a_fresh_bump(dim):
    # `make_initial_compact` holds its bump on a box with the 2-node halo of
    # the nodal densities: every public functional takes it as it is and
    # gives its value on the bump laid out on the whole grid
    if dim == 1:
        grid, damping, psi = _setup_1d()
        center, theorem = 3.0, "T2"
    else:
        grid = build_grid_2d_disk(1.0, 8.0, 8.0)
        damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
        psi, center, theorem = build_psi(grid, 1.0), (3.0, 0.5), "T3"
    consts = compute_constants(theorem, 1.5, dim, 0.01, 0.1 if theorem == "T2" else 0.2)
    fam = (WeightFamily.poly(consts.gamma, r=1.5) if theorem == "T2"
           else WeightFamily.compact(consts.gamma, 4.5, r=1.5))
    held = make_initial_compact(grid, center, 1.0, 1.0, "both")
    full = held.on(None, grid.shape)
    assert held.box is not None and held.u.size < full.u.size

    def values(st):
        return [energy(st, grid), weighted_energy(st, grid, fam, 1.0, 1.0),
                weighted_energy_log(st, grid, fam, 1.0, 1.0),
                X_functional(st, grid, psi, damping, consts, fam)]

    got = values(held)
    assert all(x != 0.0 for x in got)
    assert got == values(full)


def test_high_energy_linear_regime_holds_with_margin():
    # a == 0 run: bound still valid with the a_inf = 0 prefactor
    grid = build_grid_1d(0.0, 20.0, 400)
    from decaylab.grids import DampingProfile
    damping = DampingProfile(held=grids._radial(grid, np.zeros_like, 1.0),
                             epsilon0=1e-9, L=1.0, kind="constant", a_inf=0.0)
    psi = build_psi(grid, 1.0)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5))
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=5.0)
    st = make_initial_compact(grid, 10.0, 1.0, 0.01, "bump_u", R=11.0)
    res = run(grid, damping, st, params, tracker=tracker)
    d = data_functionals(st, grid, None, consts)
    rep = high_energy_check(series_table(res.samples), d, a_inf=0.0)
    assert rep.holds(1.0)


def test_prop1_with_log_practical_weights():
    # the window-inequality machinery is weight-agnostic: exercise the
    # logarithmic phi-role with a desk-scale b
    from decaylab.weights import WeightFamily
    grid, damping, psi = _setup_1d()
    fam = WeightFamily.log_practical(gamma=1.0, b=math.e)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=psi, r=1.5,
        prop1=Prop1Config(fam, mu=1.0, lam=1.0)))
    params = SolverParams.for_grid(grid, 0.45, 1.5, T_max=6.0)
    st = make_initial_compact(grid, 3.0, 1.0, 1.0, "bump_u")
    res = run(grid, damping, st, params, tracker=tracker)
    rep = prop1_inequality_check(series_table(res.samples), window_T=2.0)
    assert rep.max_defect <= 2e-2


def test_prop1_window_exceeding_series_rejected():
    _, _, _, res = _tracked_run(T_max=2.0)
    with pytest.raises(ValueError, match="does not fit"):
        prop1_inequality_check(series_table(res.samples), window_T=50.0)
