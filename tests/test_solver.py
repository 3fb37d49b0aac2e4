"""Solver tests: nodal damping solve, stepping, initial data, reference scheme.

The damping-root oracle is an independent plain bisection driven to 1e-14.
Energy-conservation oracles use the scheme's two-level quadratic form, which
plain leapfrog conserves exactly in the linear case.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decaylab.solver as sv
from decaylab.functionals import energy
from decaylab.grids import build_damping, build_grid_1d, build_grid_2d_disk
from decaylab.solver import (ConeSpec, SolverParams, WaveState,
                             make_initial_compact, make_initial_weighted, run)
from oracles import edge_form, reference_solve, solve_damping_scalar, whole_grid_step


def bisect_oracle(c, w, r, tol=1e-14):
    """Independent bisection on [0, |w|] for the damping root magnitude."""
    if w == 0.0 or c == 0.0:
        return w
    lo, hi = 0.0, abs(w)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + c * mid**r - abs(w) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return math.copysign(0.5 * (lo + hi), w)


# ---------------------------------------------------------------------------
# nodal damping solve
# ---------------------------------------------------------------------------

def test_damping_solve_undamped_identity():
    assert solve_damping_scalar(0.0, 3.7, 2.0) == 3.7


def test_damping_solve_quadratic_closed_form():
    # v^2 + v - 2 = 0, positive root v = 1
    v = solve_damping_scalar(1.0, 2.0, 2.0, tol=1e-14)
    assert v == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx(bisect_oracle(1.0, 2.0, 2.0), abs=1e-12)


def test_damping_solve_stiff_asymptotic():
    # c |v|^(r-1) >> 1: v ~ (w/c)^(1/r) = 1e-4 for c = 1e6, r = 1.5
    v = solve_damping_scalar(1.0e6, 1.0, 1.5)
    assert 0.9e-4 < v < 1.1e-4
    assert v == pytest.approx(bisect_oracle(1.0e6, 1.0, 1.5), abs=1e-12)


def test_damping_solve_rejects_bad_tol():
    with pytest.raises(ValueError):
        solve_damping_scalar(1.0, 1.0, 2.0, tol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=1.001, max_value=3.0))
def test_damping_solve_properties(c, w, r):
    v = solve_damping_scalar(c, w, r, tol=1e-12)
    assert abs(v + c * abs(v) ** (r - 1.0) * v - w) <= 1e-12
    assert abs(v) <= abs(w) + 1e-15
    if w != 0.0:
        assert math.copysign(1.0, v) == math.copysign(1.0, w) or v == 0.0


def dense_newton_oracle(c, w, r, tol, max_iter=90, power=pow):
    """Whole-array Newton on every node, written out plainly: no in-place
    forms, and the same order of operations as the field solve.  Powers are
    taken by `power`: `**`, which numpy takes as a square root at r - 1 =
    0.5, or np.power."""
    sign = np.sign(w)
    aw = np.abs(w)
    v = aw / (1.0 + c * power(aw, r - 1.0))
    for _ in range(max_iter):
        p = power(v, r - 1.0)
        g = v + c * v * p - aw
        if np.max(np.abs(g)) <= tol:
            break
        v = v - g / (1.0 + r * c * p)
    return sign * v


def bracketed_newton_oracle(c, w, r, tol, max_iter=90):
    """Whole-grid Newton kept inside [lo, hi], as the field solve ran while
    it carried a bisection safeguard."""
    sign = np.sign(w)
    aw = np.abs(w)
    lo = np.zeros_like(aw)
    hi = aw.copy()
    v = aw / (1.0 + c * aw ** (r - 1.0))
    for _ in range(max_iter):
        p = v ** (r - 1.0)
        g = v + c * v * p - aw
        if np.max(np.abs(g)) <= tol:
            break
        hi = np.where(g > 0.0, v, hi)
        lo = np.where(g > 0.0, lo, v)
        newton = v - g / (1.0 + r * c * p)
        outside = (newton < lo) | (newton > hi)
        v = np.where(outside, 0.5 * (lo + hi), newton)
    return sign * v


def _mixed_field(shape, n_active, seed):
    """(c, w) with n_active solved nodes (some c*w products underflow to 0)
    and the rest split among c = 0, w = 0 and w = -0.0."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    c = 10.0 ** rng.uniform(-3.0, 6.0, size)
    w = rng.uniform(-10.0, 10.0, size)
    w[w == 0.0] = 1.0
    kind = rng.permutation(np.arange(size) % 3)
    kind[rng.permutation(size)[:n_active]] = 3
    c[kind == 0] = 0.0
    w[kind == 1] = 0.0
    w[kind == 2] = -0.0
    tiny = (kind == 3) & (rng.random(size) < 0.2)
    c[tiny] = 1e-200
    w[tiny] = np.where(rng.random(np.count_nonzero(tiny)) < 0.5,
                       1e-200, -1e-200)
    return c.reshape(shape), w.reshape(shape)


@pytest.mark.parametrize("regime", ["sparse", "dense"])
@pytest.mark.parametrize("shape", [(1,), (40,), (7, 9), (45, 50)])
@settings(max_examples=40, deadline=None)
@given(frac=st.floats(min_value=0.0, max_value=1.0),
       r=st.floats(min_value=1.001, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_active_node_solve_bit_identical_to_dense(regime, shape, frac, r, seed):
    size = math.prod(shape)
    if regime == "sparse":
        n_active = int(frac * (size - 1) / 2)       # under half
    else:
        n_active = size - int(frac * size / 2)      # half or more
    c, w = _mixed_field(shape, n_active, seed)
    solved = np.count_nonzero((c != 0.0) & (w != 0.0))
    assert solved == n_active
    assert (2 * solved < size) == (regime == "sparse")
    want = dense_newton_oracle(c, w, r, 1e-12)
    got = sv._solve_damping_field(c, w, r, 1e-12)
    assert got.shape == w.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
       n=st.integers(min_value=1, max_value=3000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_matches_bracketed_newton_on_weighted_like_fields(r, n, seed):
    # the safeguard never fires on such fields: dropping it changes no bit
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.005, 0.05, n)
    w = rng.uniform(-1.6, 1.6, n)
    got = sv._solve_damping_field(c, w, r, 1e-12)
    assert got.tobytes() == bracketed_newton_oracle(c, w, r, 1e-12).tobytes()


def test_solve_within_tol_of_bisection_on_mixed_fields():
    # stiff nodes (c up to 1e6) too, where the bracketed loop bisected on
    # some fields: the solve without it stays within tol of the bisection
    changed = 0
    for seed in range(8):
        r = 1.001 + 1.999 * (seed % 4) / 3
        c, w = _mixed_field((45, 50), 1500, seed)
        got = sv._solve_damping_field(c, w, r, 1e-12)
        want = np.array([bisect_oracle(ci, wi, r)
                         for ci, wi in zip(c.ravel(), w.ravel())])
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12
        changed += got.tobytes() != bracketed_newton_oracle(c, w, r, 1e-12).tobytes()
    assert changed


def test_field_solve_raises_when_unconverged():
    # stiff node: v ~ (w/c)^(1/r) is far from the starting guess
    with pytest.raises(FloatingPointError, match="in 3 iterations"):
        sv._solve_damping_field(np.array([1.0e6]), np.array([1.0]), 1.5,
                                1e-12, max_iter=3)
    # an inactive node has a zero residual: only the stiff node is counted,
    # also when most of the nodes are inactive
    c = np.zeros(10)
    w = np.zeros(10)
    c[3], w[3] = 1.0e6, -1.0
    with pytest.raises(FloatingPointError, match=r"at 1 node\(s\)"):
        sv._solve_damping_field(c, w, 1.5, 1e-12, max_iter=3)


def test_field_solve_keeps_converged_nodes():
    # Newton falls monotonically to the root from its first update, so this
    # weighted-data-like field converges well inside max_iter = 3
    rng = np.random.default_rng(0)
    c = rng.uniform(0.005, 0.05, 2001)
    w = rng.uniform(-1.6, 1.6, 2001)
    v = sv._solve_damping_field(c, w, 1.5, 1e-12, max_iter=3)
    assert np.max(np.abs(v + c * np.abs(v) ** 0.5 * v - w)) <= 1e-12


def test_field_solve_accepts_round_off_limited_residual():
    # |w| ~ 9e3: the absolute tol 1e-12 lies below one ulp of |w|, so the
    # loop runs to max_iter; the result is the dense loop's, without error
    c = np.array([0.4941280961645296, 0.0, 0.4941280961645296])
    w = np.array([9271.797576704403, 5.0, -9271.797576704403])
    got = sv._solve_damping_field(c, w, 1.5, 1e-12)
    assert got.tobytes() == dense_newton_oracle(c, w, 1.5, 1e-12).tobytes()
    assert abs(got[0] + c[0] * got[0] ** 1.5 - w[0]) > 1e-12
    assert abs(got[0] + c[0] * got[0] ** 1.5 - w[0]) <= 1e-12 * abs(w[0])
    assert solve_damping_scalar(c[2], w[2], 1.5) == got[2]


# |w| at the edges of the double range: zeros of both signs, subnormals, 1e150
_EDGE_W = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e150, -1e150])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.just(0.0) | st.floats(0.0, 1e4),
                          _EDGE_W | st.floats(-1e150, 1e150)),
                min_size=1, max_size=40))
def test_half_power_solve_keeps_residuals_and_matches_np_power(nodes):
    # at r = 1.5 Newton's powers are square roots: every residual stays
    # within tol * max(1, |w|), the solve's limit, and the result is within
    # that of the same Newton written with np.power
    c, w = (np.array(x, dtype=float) for x in zip(*nodes))
    tol = 1e-12
    v = sv._solve_damping_field(c, w, 1.5, tol)
    limit = tol * np.maximum(1.0, np.abs(w))
    assert (np.abs(v + c * np.power(np.abs(v), 0.5) * v - w) <= limit).all()
    assert (np.abs(v - dense_newton_oracle(c, w, 1.5, tol, power=np.power)) <= limit).all()
    assert (v[c == 0.0] == w[c == 0.0]).all()


def test_large_amplitude_compact_run_matches_dense_solve(monkeypatch):
    g1 = build_grid_1d(0.5, 40.0, 790)
    # the 2D bump's early windows have fewer than half of their nodes active
    # (c != 0 and w != 0)
    g2 = build_grid_2d_disk(1.0, 6.0, 10.0)
    cases = [(g1, build_damping(g1, "exterior_smooth", 0.5, 0.5, 1.0),
              make_initial_compact(g1, 1.25, 0.7, 1.0e4, "both", R=2.0), 10.0, 200),
             (g2, build_damping(g2, "annulus_plus_exterior", 0.5, 2.0, 1.0),
              make_initial_compact(g2, (2.5, 0.0), 1.0, 1.0e4, "both", R=3.5), 6.0, 90)]
    field_solve = sv._solve_damping_field
    for g, d, s, T, min_steps in cases:
        p = SolverParams.for_grid(g, 0.9, 1.5, T_max=T)
        shares = []

        def solve(c, w, r, tol, max_iter=90, **buffers):
            shares.append(np.count_nonzero((c != 0.0) & (w != 0.0)) / w.size)
            return field_solve(c, w, r, tol, max_iter, **buffers)

        def dense(c, w, r, tol, max_iter=90, **buffers):    # fresh arrays
            return dense_newton_oracle(c, w, r, tol, max_iter)

        monkeypatch.setattr(sv, "_solve_damping_field", solve)
        res = run(g, d, s, p)
        monkeypatch.setattr(sv, "_solve_damping_field", dense)
        want = run(g, d, s, p)
        assert res.n_steps == want.n_steps > min_steps
        assert any(x < 0.5 for x in shares) == (g.dim == 2)
        assert res.final_state.u.tobytes() == want.final_state.u.tobytes()
        assert res.final_state.v.tobytes() == want.final_state.v.tobytes()


def test_field_solve_leaves_inactive_nodes_alone():
    c = np.array([0.0, 2.0, 0.0, 2.0])
    w = np.array([-3.5, 0.0, 1e-300, -0.0])
    out = sv._solve_damping_field(c, w, 1.5, 1e-12)
    assert out.tobytes() == np.array([-3.5, 0.0, 1e-300, 0.0]).tobytes()
    assert out is not w


def test_field_solve_returns_w_where_c_is_zero_at_large_r():
    # |w|^(r-1) = 1e390 overflows: the guess formed 0 * inf on the c = 0
    # nodes, whose root is w itself, and the solve raised with residual nan
    tol = 1e-12
    for c, w in ((np.array([0.0, 0.0, 1.0]), np.array([1e10, -1e10, 1e-3])),
                 (np.array([0.0, 1.0]), np.array([1e10, 1e-3]))):
        with np.errstate(all="ignore"):
            v = sv._solve_damping_field(c, w, 40.0, tol)
        free = c == 0.0
        assert v[free].tobytes() == w[free].tobytes()
        alone = sv._solve_damping_field(c[~free], w[~free], 40.0, tol)
        assert np.all(np.abs(v[~free] - alone) <= tol)


def test_field_solve_names_an_overflowing_node():
    # c > 0 and c |w|^(r-1) past the double range: Newton cannot start
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"overflows the double range at 1 node\(s\)"):
        sv._solve_damping_field(np.array([0.0, 1.0, 1.0]),
                                np.array([1e10, 1e10, 1e-3]), 40.0, 1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _box_setup(n=256, a_val=0.0, r=1.5, cfl=0.9):
    grid = build_grid_1d(0.0, 1.0, n)
    damping = build_damping(grid, "constant", a_val, 0.25, a_val) if a_val > 0 \
        else _zero_damping(grid)
    params = SolverParams.for_grid(grid, cfl, r, T_max=0.0)
    return grid, damping, params


def _zero_damping(grid):
    from decaylab.grids import DampingProfile, _radial
    return DampingProfile(held=_radial(grid, np.zeros_like, 1.0), epsilon0=1e-12,
                          L=grid.truncation_radius / 4.0, kind="constant",
                          a_inf=0.0)


def test_step_zero_state_fixed_point():
    grid, damping, params = _box_setup()
    st0 = WaveState(grid.zeros(), grid.zeros(), 0.0)
    st1, diss = whole_grid_step(st0, grid, damping.values, params)
    assert diss == 0.0
    assert not st1.u.any() and not st1.v.any()


def test_eigenmode_shadow_energy_conserved():
    # a == 0: two-level form conserved to roundoff per step, <= 1e-6 over T=100
    grid, damping, _ = _box_setup(n=256)
    params = SolverParams(dt=0.9 * grid.h, r=1.5, T_max=100.0)
    x = grid.coords[0]
    state = WaveState(np.sin(np.pi * x), grid.zeros(), 0.0)
    grid.clamp_dirichlet(state.u)
    res = run(grid, damping, state, params, sample_stride=10**9)
    E = res.E_steps
    per_step = np.max(np.abs(np.diff(E))) / E[0]
    assert per_step <= 1e-10
    assert abs(E[-1] - E[0]) / E[0] <= 1e-6
    assert res.mono_violations == 0


def test_uniform_velocity_reduces_to_nodal_solve():
    # u = 0 so the Laplacian vanishes: the step is the damping solve alone
    grid, _, params = _box_setup(a_val=2.0, r=2.0, cfl=0.5)
    damping = build_damping(grid, "constant", 2.0, 0.25, 2.0)
    v0 = 0.7
    state = WaveState(grid.zeros(), np.full(grid.shape, v0), 0.0)
    new, _ = whole_grid_step(state, grid, damping.values, params)
    expect = solve_damping_scalar(params.dt * 2.0, v0, 2.0)
    assert np.allclose(new.v[grid.fluid], expect, atol=1e-12)


def test_run_zero_tmax_single_sample():
    grid, damping, _ = _box_setup()
    params = SolverParams(dt=0.9 * grid.h, r=1.5, T_max=0.0)
    res = run(grid, damping, WaveState(grid.zeros(), grid.zeros()), params)
    assert len(res.samples) == 1 and res.samples[0][0] == 0.0


def test_run_energy_strictly_decays_with_damping():
    grid = build_grid_1d(0.0, 30.0, 600)
    damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=20.0)
    state = make_initial_compact(grid, 3.0, 1.0, 1.0, "bump_u")
    res = run(grid, damping, state, params)
    assert res.E_steps[-1] < res.E_steps[0]
    assert res.D_cum > 0.0
    assert res.mono_violations == 0


def test_run_stride_subsamples_same_trajectory():
    grid = build_grid_1d(0.0, 30.0, 300)
    damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
    params = SolverParams.for_grid(grid, 0.5, 1.5, T_max=5.0)
    state = make_initial_compact(grid, 3.0, 1.0, 1.0, "bump_u")
    r1 = run(grid, damping, state, params, sample_stride=5)
    r2 = run(grid, damping, state, params, sample_stride=10)
    assert np.array_equal(r1.E_steps, r2.E_steps)       # identical trajectory
    assert [s[0] for s in r1.samples][::2] == [s[0] for s in r2.samples]


def test_run_determinism_bit_identical():
    grid = build_grid_1d(0.0, 30.0, 300)
    damping = build_damping(grid, "exterior_smooth", 0.5, 1.0, 1.0)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=5.0)
    state = make_initial_compact(grid, 3.0, 1.0, 1.0, "both")
    r1 = run(grid, damping, state, params)
    r2 = run(grid, damping, state, params)
    assert np.array_equal(r1.final_state.u, r2.final_state.u)
    assert np.array_equal(r1.final_state.v, r2.final_state.v)
    assert np.array_equal(r1.E_steps, r2.E_steps)


@pytest.mark.parametrize("cfl", [0.0, 1.5, float("nan")])
def test_for_grid_rejects_cfl_outside_unit_interval(cfl):
    # dt is the only step size SolverParams holds: no cfl to disagree with it
    grid, _, _ = _box_setup(n=64)
    assert "cfl" not in {f.name for f in dataclasses.fields(SolverParams)}
    with pytest.raises(ValueError, match="cfl"):
        SolverParams.for_grid(grid, cfl, 1.5, T_max=1.0)


def test_unstable_dt_aborts_with_diagnostic():
    grid, damping, _ = _box_setup(n=64)
    params = SolverParams(dt=4.0 * grid.h, r=1.5, T_max=5.0)
    state = WaveState(np.sin(np.pi * grid.coords[0]), grid.zeros())
    with pytest.raises(FloatingPointError):
        run(grid, damping, state, params)


def test_finite_speed_exact_cone_at_unit_cfl():
    grid = build_grid_1d(0.5, 40.0, 790)
    damping = build_damping(grid, "exterior_smooth", 0.5, 0.5, 1.0)
    params = SolverParams(dt=grid.h, r=1.5, T_max=30.0)
    state = make_initial_compact(grid, 1.25, 0.7, 1.0, "bump_u", R=2.0)
    res = run(grid, damping, state, params,
              cone=ConeSpec(R=2.0, enforce=True))
    assert res.cone_ok
    assert res.cone_worst_overshoot <= 2.0 * grid.h + 2.0 * params.dt
    # nothing beyond the cone at all: lattice causality is exact here
    u, v = res.final_state.u, res.final_state.v
    beyond = grid.radius > 2.0 + res.final_state.t
    assert np.all(np.abs(u[beyond]) + np.abs(v[beyond]) == 0.0)


def test_cone_violation_is_hard_error():
    grid = build_grid_1d(0.0, 30.0, 600)
    damping = _zero_damping(grid)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=10.0)
    state = make_initial_compact(grid, 2.0, 1.0, 1.0, "bump_u")
    # declare an impossibly small cone: violation must abort
    with pytest.raises(sv.SupportConeError):
        run(grid, damping, state, params,
            cone=ConeSpec(R=0.1, enforce=True), sample_stride=10)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_compact_bump_zero_amplitude():
    grid = build_grid_1d(0.0, 10.0, 100)
    state = make_initial_compact(grid, 5.0, 1.0, 0.0, "both")
    assert not state.u.any() and not state.v.any()


def test_compact_bump_profile_and_support():
    grid = build_grid_1d(0.0, 10.0, 1000)
    amp = 2.5
    state = make_initial_compact(grid, 5.0, 1.0, amp, "bump_u").on(None, grid.shape)
    x = grid.coords[0]
    assert state.u[np.argmin(np.abs(x - 5.0))] == pytest.approx(amp)
    assert np.all(state.u[np.abs(x - 5.0) >= 1.0] == 0.0)
    assert not state.v.any()


def test_compact_bump_energy_matches_quadrature():
    # analytic: int |u0'|^2 over the unit-radius bump = 1024/385 (exact),
    # so E(0) = 512/385 for bump_u with v = 0
    grid = build_grid_1d(0.0, 10.0, 1000)   # h = 0.01
    state = make_initial_compact(grid, 5.0, 1.0, 1.0, "bump_u").on(None, grid.shape)
    E0 = energy(state, grid)
    assert E0 == pytest.approx(512.0 / 385.0, rel=0.02)


def test_compact_bump_validation():
    grid = build_grid_1d(0.0, 10.0, 100)
    with pytest.raises(ValueError):
        make_initial_compact(grid, 0.5, 1.0, 1.0, "bump_u")      # hits alpha
    with pytest.raises(ValueError):
        make_initial_compact(grid, 5.0, 1.0, 1.0, "bump_u", R=4.0)
    # unchecked, 0 and NaN give all-zero data and -1 an unrelated error
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            make_initial_compact(grid, 5.0, radius, 1.0)


@pytest.mark.parametrize("dim, center, R, match", [
    (1, math.nan, None, "center must be finite"),
    (2, (2.0, math.inf), None, "center must be finite"),
    (1, 5.0, math.nan, "R = nan"),
], ids=["1d-nan-center", "2d-inf-center", "nan-R"])
def test_compact_bump_rejects_non_finite_center_and_R(dim, center, R, match):
    # no later check would catch them: a non-finite centre leaves no node
    # inside the bump, and the B_R comparison is False for NaN
    if dim == 1:
        grid = build_grid_1d(0.0, 10.0, 200)
    else:
        grid = build_grid_2d_disk(1.0, 4.0, 10.0)
    with pytest.raises(ValueError, match=match):
        make_initial_compact(grid, center, 1.0, 1.0, R=R)


def _whole_grid_bump(grid, center, radius, amplitude, mode):
    """The bump evaluated on every node, as `make_initial_compact` once did."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if grid.dim == 1:
        dist = np.abs(grid.coords[0] - center[0])
    else:
        dist = np.sqrt((grid.coords[0] - center[0]) ** 2
                       + (grid.coords[1] - center[1]) ** 2)
    inside = dist < radius
    z = np.where(inside, dist / radius, 1.0)
    bump = amplitude * np.where(inside, (1.0 - z * z) ** 3, 0.0)
    u = bump if mode in ("bump_u", "both") else grid.zeros()
    v = bump if mode in ("bump_v", "both") else grid.zeros()
    return u, v


@pytest.mark.parametrize("dim, center, radius, amplitude, mode", [
    (1, 5.0, 1.0, 2.5, "bump_u"),       # support ends exactly on nodes
    (1, 5.003, 0.7, -1.0, "both"),      # -0.0 off the support
    (1, 1.0, 0.5, 1.0, "bump_v"),       # support open at the wall: box from 0
    (1, 9.5, 0.5, 3.0, "both"),         # ... and to the last node
    (2, (3.5, 0.0), 1.0, 1.0, "bump_u"),
    (2, (-2.25, 1.5), 0.75, -4.0, "both"),
    (2, (9.0, 9.0), 1.0, 1.0, "both"),  # open at the outer square's corner
])
def test_compact_bump_on_box_byte_identical_to_whole_grid(
        dim, center, radius, amplitude, mode):
    if dim == 1:
        grid = build_grid_1d(0.5, 10.0, 950)
    else:
        grid = build_grid_2d_disk(1.0, 10.0, 10.0)
    # byte for byte on the bump's box, -0.0 included; zero off it
    state = make_initial_compact(grid, center, radius, amplitude, mode)
    u, v = _whole_grid_bump(grid, center, radius, amplitude, mode)
    assert np.count_nonzero(state.u) + np.count_nonzero(state.v) > 0
    assert state.u.tobytes() == u[state.box].tobytes()
    assert state.v.tobytes() == v[state.box].tobytes()
    full = state.on(None, grid.shape)
    assert np.array_equal(full.u, u) and np.array_equal(full.v, v)
    assert state.u is not state.v


def test_weighted_data_tail_negligible_at_large_sigma():
    grid = build_grid_1d(0.0, 100.0, 2000)
    state = make_initial_weighted(grid, sigma=20.0, weight_check=None, gamma=1.0)
    dens = state.u**2 + state.v**2
    tail = float(np.sum(dens[grid.coords[0] > 50.0]))
    total = float(np.sum(dens))
    assert tail < 1e-10 * total


def test_weighted_data_zero_amplitude():
    grid = build_grid_1d(0.0, 50.0, 500)
    state = make_initial_weighted(grid, 10.0, None, 1.0, amplitude=0.0)
    assert not state.u.any() and not state.v.any()


def test_weighted_data_rejects_slow_decay():
    from decaylab.weights import WeightFamily
    grid = build_grid_1d(0.0, 50.0, 500)
    fam = WeightFamily.poly(gamma=1.0)
    with pytest.raises(ValueError, match="weighted gradient/velocity norm"):
        make_initial_weighted(grid, sigma=0.9, weight_check=fam, gamma=1.0)


def test_weighted_data_quadrature_converges_under_domain_doubling():
    # Poly gamma=1, sigma=3, d=1: the tail integrand ~ x^(1-6), integrable
    from decaylab.weights import WeightKind, WeightFamily, eval_weight
    vals = {}
    for x_max in (100.0, 200.0):
        grid = build_grid_1d(0.0, x_max, int(x_max / 0.05))
        st0 = make_initial_weighted(grid, 3.0, WeightFamily.poly(1.0), 1.0)
        w = eval_weight(WeightFamily.poly(1.0), WeightKind.PHI, grid.q)
        vals[x_max] = grid.h * float(np.sum(w * st0.v**2))
    assert vals[200.0] == pytest.approx(vals[100.0], rel=1e-6)


# ---------------------------------------------------------------------------
# reference integrator
# ---------------------------------------------------------------------------

def test_reference_zero_data():
    grid = build_grid_1d(0.0, 10.0, 100)
    damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
    params = SolverParams.for_grid(grid, 0.2, 2.0, T_max=1.0)
    res = reference_solve(grid, damping,
                          WaveState(grid.zeros(), grid.zeros()), params)
    assert np.all(res.E == 0.0)


def test_reference_linear_gap_halves_at_order_two():
    # a == 0 refinement study (the oracle is the study itself).  The main
    # stepper reads its velocity at staggered half-steps, so the consistent
    # continuum start for the reference carries the half-kick
    # v(0) = v0 + dt/2 Lap u0; with it the trajectory gap is O(dt^2) and
    # must shrink >= 3.5x when dt halves.
    grid = build_grid_1d(0.0, 10.0, 100)
    damping = _zero_damping(grid)
    state = make_initial_compact(grid, 5.0, 2.0, 1.0, "bump_u").on(None, grid.shape)
    gaps = {}
    for frac in (1.0, 0.5):
        dt = 0.2 * grid.h * frac
        params = SolverParams(dt=dt, r=2.0, T_max=5.0)
        main = run(grid, damping, state.copy(), params)
        v0_half = state.v + 0.5 * dt * sv.laplacian(grid, state.u)
        fine = SolverParams(dt=dt / 8.0, r=2.0, T_max=5.0)
        ref = reference_solve(grid, damping,
                              WaveState(state.u.copy(), v0_half, 0.0), fine)
        gaps[frac] = float(np.max(np.abs(main.final_state.u
                                         - ref.final_state.u)))
    assert gaps[1.0] / gaps[0.5] >= 3.5


def test_reference_node_cap():
    grid = build_grid_1d(0.0, 200.0, 20_000)
    damping = _zero_damping(grid)
    params = SolverParams.for_grid(grid, 0.2, 2.0, T_max=0.1)
    with pytest.raises(ValueError):
        reference_solve(grid, damping,
                        WaveState(grid.zeros(), grid.zeros()), params)


# ---------------------------------------------------------------------------
# 2D sanity
# ---------------------------------------------------------------------------

def test_2d_step_and_energy_decay():
    grid = build_grid_2d_disk(1.0, 10.0, 10.0)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=3.0)
    state = make_initial_compact(grid, (3.5, 0.0), 1.0, 1.0, "bump_u", R=4.5)
    res = run(grid, damping, state, params)
    assert res.mono_violations == 0
    assert res.E_steps[-1] < res.E_steps[0]
    assert np.isfinite(res.final_state.u).all()


def _stepping_cases():
    """(grid, damping, params, state): 1D and 2D compact data, which leave
    most nodes at rest, and weighted data, which fill the grid."""
    g1 = build_grid_1d(0.5, 40.0, 790)
    d1 = build_damping(g1, "exterior_smooth", 0.5, 0.5, 1.0)
    s1 = make_initial_compact(g1, 1.25, 0.7, 1.0, "both", R=2.0).on(None, g1.shape)
    g2 = build_grid_2d_disk(1.0, 10.0, 10.0)
    d2 = build_damping(g2, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    s2 = make_initial_compact(g2, (3.5, 0.0), 1.0, 1.0, "bump_v", R=4.5).on(None, g2.shape)
    g3 = build_grid_1d(0.0, 30.0, 300)
    d3 = build_damping(g3, "constant", 1.0, 1.0, 1.0)
    s3 = make_initial_weighted(g3, 10.0, None, 0.0)
    return [(g, d, SolverParams.for_grid(g, 0.9, 1.5, T_max=0.0), s)
            for g, d, s in ((g1, d1, s1), (g2, d2, s2), (g3, d3, s3))]


@pytest.mark.parametrize("case", range(3))
def test_step_dissipation_bit_equal_to_full_sum(case):
    grid, damping, params, state = _stepping_cases()[case]
    for _ in range(8):
        new, diss = whole_grid_step(state, grid, damping.values, params)
        full = params.dt * grid.cell_volume * float(np.sum(
            damping.values * np.abs(new.v) ** (params.r + 1.0)))
        assert diss > 0.0
        assert diss == full
        state = new


def _edge_energy(grid, state, dt):
    """E* from the edge forms, before summation by parts."""
    return (0.5 * grid.cell_volume * float(np.sum(state.v * state.v))
            + 0.5 * edge_form(grid, state.u, state.u)
            - 0.5 * dt * edge_form(grid, state.v, state.u))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("windowed", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_solver_energy_matches_edge_form(dim, windowed, seed):
    # random states, zero on the Dirichlet nodes (1D ends, 2D obstacle and
    # outer square); windowed ones are cut to their nonzeros plus a 2-node
    # halo, which leaves strided views in 2D
    rng = np.random.default_rng(seed)
    if dim == 1:
        grid, center = build_grid_1d(0.5, 12.0, 400), 4.0
    else:
        grid, center = build_grid_2d_disk(1.0, 4.0, 8.0), (2.5, 0.5)
    dt = SolverParams.for_grid(grid, 0.9, 1.5, T_max=0.0).dt
    u, v = (rng.uniform(-1.0, 1.0, grid.shape) for _ in range(2))
    if windowed:
        bump = make_initial_compact(grid, center, 1.0, 1.0, "bump_u")
        mask = bump.on(None, grid.shape).u != 0.0
        u, v = u * mask, v * mask
    state = WaveState(grid.clamp_dirichlet(u), grid.clamp_dirichlet(v))
    want = _edge_energy(grid, state, dt)
    box = sv._support_box(u, v, 2) if windowed else ...
    assert (box is not ...) == windowed
    g, sub = grid.window(box), WaveState(u[box], v[box])
    if windowed and dim == 2:
        assert not sub.u.flags.c_contiguous
    got = sv.solver_energy(g, sub, dt, sv.laplacian(g, sub.u))
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("shape", [(2_001,), (10_000,), (10_001,), (25_003,),
                                   (120, 117), (211, 200), (211, 201)])
def test_dot_hands_blas_near_equal_parts_of_at_most_10000(monkeypatch, shape):
    # OpenBLAS runs a longer dot on every core, rounding by their count; a
    # strided 2D window (the last shape, cut) is summed as its copy
    rng = np.random.default_rng(shape[0])
    a, b = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    if shape == (211, 201):
        a, b = a[:, :-1], b[:, :-1]
    vdot, sizes = np.vdot, []
    monkeypatch.setattr(np, "vdot", lambda x, y: sizes.append(x.size) or vdot(x, y))
    got = sv._dot(a, b)
    assert got == pytest.approx(math.fsum((a * b).ravel()), rel=1e-13, abs=0.0)
    assert len(sizes) == -(-a.size // 10_000) and sum(sizes) == a.size
    assert max(sizes) <= 10_000 and max(sizes) - min(sizes) <= 1
    if a.size <= 10_000:
        assert got == float(vdot(a, b))


def test_dot_bits_do_not_depend_on_blas_threads():
    # the same dots in processes with one and with two BLAS threads
    code = ("import numpy as np, decaylab.solver as sv\n"
            "x = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 25_003))\n"
            "print([sv._dot(x[0, :n], x[1, :n]).hex() for n in (10_001, 14_000, 25_003)])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    outs = {subprocess.run([sys.executable, "-c", code], check=True, text=True,
                           capture_output=True,
                           env={**env, "OPENBLAS_NUM_THREADS": n}).stdout
            for n in ("1", "2")}
    assert len(outs) == 1


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]),
       lo=st.tuples(st.integers(0, 60), st.integers(0, 60)),
       size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_laplacian_in_place_matches_the_stencil_expression(dim, lo, size, seed):
    # in place on the flattened rows, into fresh or given arrays, every bit
    # as the 3- and 5-point expressions; windows down to one row or column
    grid = build_grid_1d(0.5, 40.0, 100) if dim == 1 else build_grid_2d_disk(1.0, 6.0, 10.0)
    box = tuple(slice(a, min(a + n, m)) for a, n, m in zip(lo, size, grid.shape))
    sub = grid.window(box)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, sub.shape)
    want, h2 = np.zeros_like(u), sub.h * sub.h
    if dim == 1:
        want[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
    else:
        want[1:-1, 1:-1] = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
                            - 4.0 * u[1:-1, 1:-1]) / h2
    sub.clamp_dirichlet(want)
    out, scratch = np.full(u.shape, np.nan), np.full(u.shape, np.nan)
    assert sv.laplacian(sub, u).tobytes() == want.tobytes()
    assert sv.laplacian(sub, u, out, scratch) is out
    assert out.tobytes() == want.tobytes()


def test_whole_grid_run_takes_one_laplacian_per_step(monkeypatch):
    # Lap_h(u_n) serves E*[n] and the kick of step n + 1
    grid, damping, params, state = _stepping_cases()[2]     # weighted data
    params = SolverParams(dt=params.dt, r=params.r, T_max=25 * params.dt)
    calls = []
    real = sv.laplacian

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(sv, "laplacian", counting)
    res = run(grid, damping, state, params)
    assert res.n_steps == 25
    assert len(calls) == 26 and all(g is grid for g in calls)


def _padded_box(state, pad):
    """Bounding box of the nonzeros of u or v, widened by pad and clipped."""
    idx = np.nonzero((state.u != 0.0) | (state.v != 0.0))
    return tuple(slice(max(int(i.min()) - pad, 0), min(int(i.max()) + 1 + pad, n))
                 for i, n in zip(idx, state.u.shape))


@pytest.mark.parametrize("case", range(3))
def test_step_hands_window_to_the_field_solve(monkeypatch, case):
    # profiling hooks wrap the module globals and see every nodal solve and
    # step; compact data hand over the window, weighted data the full grid
    grid, damping, params, state = _stepping_cases()[case]
    params = SolverParams(dt=params.dt, r=params.r,
                          T_max=6 * params.dt)
    calls, dampings = [], []
    real, real_step = sv._solve_damping_field, sv.step

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    def recording(state, grid, params, work):
        dampings.append(work.a.copy())
        return real_step(state, grid, params, work)

    monkeypatch.setattr(sv, "_solve_damping_field", counting)
    monkeypatch.setattr(sv, "step", recording)
    res = run(grid, damping, state, params)
    assert res.n_steps == 6 and len(calls) == 6 and len(dampings) == 6
    assert 6 <= sv._REWINDOW      # every step uses the box of the initial state
    box = _padded_box(state, sv._REWINDOW + 2) if case < 2 else ...
    for a in dampings:      # step's damping: the window's array, byte for byte
        assert a.tobytes() == damping.values[box].tobytes()
    for args, kwargs in calls:
        c, w, r, tol = args
        assert set(kwargs) == {"out", "scratch"}    # the run's workspace
        if case < 2:
            assert c.shape == w.shape == damping.values[box].shape
            assert c.size < grid.fluid.size
            assert np.array_equal(c, params.dt * damping.values[box])
        else:
            assert c.shape == grid.shape and w.shape == grid.shape
            assert np.array_equal(c, params.dt * damping.values)
        assert (r, tol) == (params.r, 1e-12)


def _whole_grid_loop(grid, damping, state, params):
    """`step` on the full arrays n_steps times, each in a fresh workspace:
    final state, E* per step and the summed dissipation."""
    st = state.on(None, grid.shape)
    n_steps = int(round(params.T_max / params.dt))
    E = [sv.solver_energy(grid, st, params.dt, sv.laplacian(grid, st.u))]
    D = 0.0
    for _ in range(n_steps):
        st, diss = whole_grid_step(st, grid, damping.values, params)
        D += diss
        E.append(sv.solver_energy(grid, st, params.dt, sv.laplacian(grid, st.u)))
    return st, np.array(E), D


def _window_cases():
    """(grid, damping, params, state): a 1D bump at cfl 1 by the Dirichlet
    wall, a 2D bump, and a 2D bump whose box is clipped at the grid edge."""
    g1 = build_grid_1d(0.5, 40.0, 790)
    d1 = build_damping(g1, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    s1 = make_initial_compact(g1, 1.25, 0.7, 1.0, "both").on(None, g1.shape)
    g2 = build_grid_2d_disk(1.0, 10.0, 10.0)
    d2 = build_damping(g2, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    s2 = make_initial_compact(g2, (3.5, 0.0), 1.0, 1.0, "bump_v").on(None, g2.shape)
    s3 = make_initial_compact(g2, (8.85, 8.85), 1.0, 1.0, "both").on(None, g2.shape)
    return [(g1, d1, SolverParams.for_grid(g1, 1.0, 1.5, T_max=4.0), s1),
            (g2, d2, SolverParams.for_grid(g2, 0.9, 1.5, T_max=3.0), s2),
            (g2, d2, SolverParams.for_grid(g2, 0.9, 1.5, T_max=3.0), s3)]


def _assert_matches_whole_grid(res, grid, damping, state, params):
    st, E, D = _whole_grid_loop(grid, damping, state, params)
    assert np.array_equal(res.final_state.u, st.u)
    assert np.array_equal(res.final_state.v, st.v)
    assert res.final_state.t == st.t
    assert res.E_steps.shape == E.shape
    np.testing.assert_allclose(res.E_steps, E, rtol=1e-13, atol=0.0)
    assert res.D_cum == pytest.approx(D, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", range(3))
def test_run_window_bit_identical_to_whole_grid(case):
    grid, damping, params, state = _window_cases()[case]
    # the support starts within 2 nodes of the wall (case 0) or of the grid
    # edge (case 2), so any padded box is clipped there
    box = _padded_box(state, 2)
    assert math.prod(s.stop - s.start for s in box) < grid.fluid.size
    if case == 0:
        assert box[0].start == 0
    if case == 2:
        assert box[0].stop == box[1].stop == grid.shape[0]
    res = run(grid, damping, state, params, sample_stride=3)
    assert res.n_steps >= 30 and res.D_cum > 0.0
    _assert_matches_whole_grid(res, grid, damping, state, params)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), frac=st.floats(0.0, 1.0),
       radius=st.floats(0.3, 1.2), n_steps=st.integers(0, 40),
       stride=st.integers(1, 12))
def test_run_window_matches_whole_grid_property(dim, frac, radius, n_steps,
                                                stride):
    # bump centre anywhere its support stays in the fluid, up to the walls
    if dim == 1:
        grid = build_grid_1d(0.5, 12.0, 230)
        lo, hi = 0.5 + radius + grid.h, 12.0 - radius - grid.h
        center = lo + frac * (hi - lo)
        cfl = 1.0
    else:
        grid = build_grid_2d_disk(1.0, 4.0, 8.0)
        lo, hi = 1.0 + radius + grid.h, 4.0 - radius - grid.h
        center = (lo + frac * (hi - lo), 0.5 * frac)
        cfl = 0.9
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    state = make_initial_compact(grid, center, radius, 1.0, "both")
    params = SolverParams.for_grid(grid, cfl, 1.5, T_max=0.0)
    params = SolverParams(dt=params.dt, r=1.5,
                          T_max=n_steps * params.dt)
    res = run(grid, damping, state, params, sample_stride=stride)
    assert res.n_steps == n_steps
    _assert_matches_whole_grid(res, grid, damping, state, params)


def _run_cases():
    """(grid, damping, initial): 1D and 2D bumps, which take the window, and
    1D and 2D weighted data, which fill the grid and take the whole of it."""
    g1 = build_grid_1d(0.5, 12.0, 230)
    d1 = build_damping(g1, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    g2 = build_grid_2d_disk(1.0, 4.0, 8.0)
    d2 = build_damping(g2, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    return [(g1, d1, make_initial_compact(g1, 3.0, 0.7, 1.0, "both").on(None, g1.shape)),
            (g2, d2, make_initial_compact(g2, (2.5, 0.5), 0.7, 1.0, "bump_v")
             .on(None, g2.shape)),
            (g1, d1, make_initial_weighted(g1, 10.0, None, 0.0)),
            (g2, d2, make_initial_weighted(g2, 10.0, None, 0.0))]


def _n_step_params(grid, n_steps):
    dt = SolverParams.for_grid(grid, 0.9, 1.5, T_max=0.0).dt
    return SolverParams(dt=dt, r=1.5, T_max=n_steps * dt)


@pytest.mark.parametrize("n_steps", [0, 12])
@pytest.mark.parametrize("case", range(4))
def test_run_reads_initial_and_final_state_owns_memory(case, n_steps):
    grid, damping, state = _run_cases()[case]
    windowed = sv._support_box(state.u, state.v, sv._REWINDOW + 2) is not None
    assert windowed == (case < 2)
    before = state.copy()
    res = run(grid, damping, state, _n_step_params(grid, n_steps),
              sample_stride=4)
    assert res.n_steps == n_steps
    assert state.u.tobytes() == before.u.tobytes()
    assert state.v.tobytes() == before.v.tobytes()
    fin = res.final_state
    assert fin is res.final_state
    for x in (fin.u, fin.v):
        assert x.shape == grid.shape
        assert not np.shares_memory(x, state.u)
        assert not np.shares_memory(x, state.v)
    if n_steps == 0:
        assert fin.u.tobytes() == state.u.tobytes()
        assert fin.v.tobytes() == state.v.tobytes()
    else:
        _assert_matches_whole_grid(res, grid, damping, state,
                                   _n_step_params(grid, n_steps))


@pytest.mark.parametrize("case", range(9))
def test_run_unclamped_initial_matches_clamped(case):
    # values on Dirichlet nodes, -0.0 included, are clamped away first; the
    # caller's arrays keep them, and the pinned nodes of every state read
    # +0.0.  Case 4 holds a 2D bump on its box, which takes in an obstacle
    # node: a nonzero in u and a NaN in v there.  Cases 5 to 8 hold random
    # values on every node (dense) or on the Dirichlet nodes alone, in 1D
    # and 2D
    dense = case >= 5 and case % 2 == 0
    if case < 4:
        grid, damping, state = _run_cases()[case]
        pinned = ~grid.fluid
        rng = np.random.default_rng(case)
        raw = WaveState(np.where(pinned, rng.uniform(-1.0, 1.0, grid.shape), state.u),
                        np.where(pinned, -0.0, state.v))
    elif case == 4:
        grid, damping, _ = _run_cases()[1]
        state = make_initial_compact(grid, (1.8, 0.0), 0.7, 1.0, "both")
        pinned = ~grid.window(state.box).fluid
        assert pinned.any()
        raw = WaveState(np.where(pinned, 0.5, state.u),
                        np.where(pinned, np.nan, state.v), box=state.box)
    else:
        grid = build_grid_1d(0.0, 1.0, 64) if case < 7 else build_grid_2d_disk(1.0, 3.0, 6.0)
        damping = build_damping(grid, "constant", 1.0, 0.5, 1.0)
        pinned = ~grid.fluid
        rng = np.random.default_rng(case)
        raw = WaveState(*(rng.uniform(-1.0, 1.0, grid.shape) * (1.0 if dense else pinned)
                          for _ in range(2)))
        state = WaveState(*(np.where(pinned, 0.0, x) for x in (raw.u, raw.v)))
    kept = raw.copy()
    params = _n_step_params(grid, 20)
    want = run(grid, damping, state, params, sample_stride=5)
    got = run(grid, damping, raw, params, sample_stride=5)
    assert raw.u.tobytes() == kept.u.tobytes()
    assert raw.v.tobytes() == kept.v.tobytes()
    assert got.samples == want.samples
    assert got.E_steps.tobytes() == want.E_steps.tobytes()
    assert got.final_state.u.tobytes() == want.final_state.u.tobytes()
    assert got.final_state.v.tobytes() == want.final_state.v.tobytes()
    for x in (got.final_state.u, got.final_state.v):
        assert not x[~grid.fluid].any() and not np.signbit(x[~grid.fluid]).any()
        assert x[grid.fluid].any() == (case < 5 or dense)
    # -0.0 alone is not copied before the scan, but the first window, which
    # is the final state at T_max = 0, is clamped as well
    signed = WaveState(np.where(pinned, -0.0, state.u), np.where(pinned, -0.0, state.v),
                       box=state.box)
    at0 = [run(grid, damping, st, _n_step_params(grid, 0)).final_state
           for st in (state, signed)]
    assert at0[1].u.tobytes() == at0[0].u.tobytes()
    assert at0[1].v.tobytes() == at0[0].v.tobytes()


@pytest.mark.parametrize("case", range(6))
def test_run_hands_solver_energy_contiguous_arrays(monkeypatch, case):
    # every window `run` sums is a fresh array: the four run cases, 2D
    # weighted data as a column-sliced view (case 4), and with a nonzero on
    # every Dirichlet node (case 5), which run as their clean copies
    grid, damping, state = _run_cases()[min(case, 3)]
    want = run(grid, damping, state, _n_step_params(grid, 12), sample_stride=4)
    if case == 4:
        wide = np.zeros((grid.shape[0], grid.shape[1] + 1, 2))
        wide[:, :-1, 0], wide[:, :-1, 1] = state.u, state.v
        state = WaveState(wide[:, :-1, 0], wide[:, :-1, 1])
        assert not state.u.flags.c_contiguous
    if case == 5:
        state = WaveState(np.where(grid.fluid, state.u, 1.0),
                          np.where(grid.fluid, state.v, -1.0))
    seen = []
    real = sv.solver_energy

    def checking(g, st, dt, lap):
        seen.append(all(x.flags.c_contiguous for x in (st.u, st.v, lap)))
        return real(g, st, dt, lap)

    monkeypatch.setattr(sv, "solver_energy", checking)
    res = run(grid, damping, state, _n_step_params(grid, 12), sample_stride=4)
    assert len(seen) == 13 and all(seen)
    assert res.E_steps.tobytes() == want.E_steps.tobytes()


def test_windowed_run_allocates_less_than_one_full_array():
    # a small bump on a 2D grid: the run, its samples and its cone checks
    # hold the support window alone (about 0.4 of one full-grid array at
    # its peak here), never a full-grid array
    from decaylab.functionals import Prop1Config, SampleTracker, TrackerConfig
    from decaylab.grids import build_psi
    from decaylab.weights import WeightFamily, compute_constants

    grid = build_grid_2d_disk(1.0, 20.0, 10.0)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    consts = compute_constants("T3", 1.5, 2, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, 4.5, r=1.5)
    tracker = SampleTracker(TrackerConfig(
        grid=grid, psi=build_psi(grid, 2.0), r=1.5,
        family=fam, constants=consts, bundle_sets=[("thm3", fam)],
        prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=3.0))
    state = make_initial_compact(grid, (3.5, 0.0), 1.0, 1.0, "bump_u", R=4.5)
    state = state.on(None, grid.shape)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=1.5)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = run(grid, damping, state, params, tracker=tracker,
                  cone=ConeSpec(R=4.5, enforce=False))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.n_steps == 24 and len(res.samples) == 3
    assert peak < state.u.nbytes


def _t3_tracker(grid, damping, R):
    from decaylab.functionals import Prop1Config, SampleTracker, TrackerConfig
    from decaylab.grids import build_psi
    from decaylab.weights import WeightFamily, compute_constants

    consts = compute_constants("T3", 1.5, grid.dim, 0.01, 0.2)
    fam = WeightFamily.compact(consts.gamma, R, r=1.5)
    return SampleTracker(TrackerConfig(
        grid=grid, psi=build_psi(grid, 1.0), r=1.5,
        family=fam, constants=consts, bundle_sets=[("thm3", fam)],
        prop1=Prop1Config(WeightFamily.poly(1.0)), obs_R0=2.0))


@pytest.mark.parametrize("dim, mode, amplitude", [
    (1, "bump_u", 1.0), (1, "both", -1.0), (2, "bump_u", 1.0), (2, "bump_v", -2.0)])
def test_box_held_initial_matches_full_arrays(dim, mode, amplitude):
    # the scenario's initial state lives on the bump's box: samples, steps,
    # final state and data functionals are those of the full arrays
    from decaylab.functionals import data_functionals
    if dim == 1:
        grid, center, R = build_grid_1d(0.5, 12.0, 230), 2.0, 3.0
    else:
        grid, center, R = build_grid_2d_disk(1.0, 6.0, 8.0), (2.5, 0.5), 3.5
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 1.0, 1.0)
    held = make_initial_compact(grid, center, 0.7, amplitude, mode, R=R)
    full = held.on(None, grid.shape)
    assert held.box is not None and full.box is None
    assert 4 * held.u.size < full.u.size
    params = _n_step_params(grid, 30)
    res = [run(grid, damping, st, params, tracker=_t3_tracker(grid, damping, R),
               cone=ConeSpec(R, enforce=False), sample_stride=5)
           for st in (held, full)]
    assert len(res[0].samples) == 7
    assert repr(res[0].samples) == repr(res[1].samples)
    assert res[0].E_steps.tobytes() == res[1].E_steps.tobytes()
    assert res[0].D_cum == res[1].D_cum
    for x in ("u", "v"):
        assert np.array_equal(getattr(res[0].final_state, x),
                              getattr(res[1].final_state, x))
    tracker = _t3_tracker(grid, damping, R)
    consts, fam = tracker.cfg.constants, tracker.cfg.family
    assert (data_functionals(held, grid, fam, consts)
            == data_functionals(full, grid, fam, consts))


def test_negative_amplitude_keeps_the_window_memory():
    # -0.0 on every Dirichlet node: `run` clamps its first window, a fresh
    # copy, alone, so its peak is that of amplitude +1; the solution is odd in it
    grid = build_grid_2d_disk(1.0, 20.0, 10.0)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    params = SolverParams.for_grid(grid, 0.9, 1.5, T_max=0.5)
    states = [make_initial_compact(grid, (3.5, 0.0), 1.0, amp, "both").on(None, grid.shape)
              for amp in (1.0, -1.0)]
    states[1].u[~grid.fluid] = states[1].v[~grid.fluid] = -0.0
    assert np.signbit(states[1].u[~grid.fluid]).all()
    run(grid, damping, states[0], params)       # builds the grid's masks
    peaks, results = [], []
    for state in states:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            results.append(run(grid, damping, state, params))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert peaks[0] < state.u.nbytes // 4
    assert abs(peaks[1] - peaks[0]) <= 0.02 * peaks[0]
    plus, minus = (r.final_state for r in results)
    assert np.array_equal(minus.u, -plus.u) and np.array_equal(minus.v, -plus.v)
    assert results[0].E_steps.tobytes() == results[1].E_steps.tobytes()


def test_compact_build_and_run_allocate_less_than_one_full_array():
    # after the grid: damping, cutoff, the bump on its box and a tracked run
    # hold their boxes and windows alone, never a full-grid float array
    grid = build_grid_2d_disk(1.0, 20.0, 10.0)
    full = grid.fluid.size * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
        tracker = _t3_tracker(grid, damping, 4.5)
        state = make_initial_compact(grid, (3.5, 0.0), 1.0, 1.0, "bump_u", R=4.5)
        held = tracemalloc.get_traced_memory()[0] - start
        res = run(grid, damping, state, SolverParams.for_grid(grid, 0.9, 1.5, T_max=1.5),
                  tracker=tracker, cone=ConeSpec(R=4.5, enforce=False))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.n_steps == 24 and len(res.samples) == 3
    assert held < full // 4
    assert peak < full
    assert "radius" not in vars(grid) and "values" not in vars(damping)


def test_run_keeps_the_traced_call_contract(monkeypatch):
    # profiling hooks wrap the module globals: a windowed run calls `step`
    # once per step, and the field solve with c, w, r first, never over w
    grid = build_grid_2d_disk(1.0, 10.0, 10.0)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    state = make_initial_compact(grid, (3.5, 0.0), 1.0, 1.0, "both", R=4.5)
    params = _n_step_params(grid, 40)
    calls = {"step": 0, "solve": 0, "laplacian": 0, "solver_energy": 0,
             "support_radius": 0}
    real = {name: getattr(sv, name) for name in calls if name != "solve"}
    real["solve"] = sv._solve_damping_field

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return wrapper

    def solve(*args, **kwargs):
        calls["solve"] += 1
        c, w, r = args[:3]
        before = w.copy()
        v = real["solve"](*args, **kwargs)
        assert w.tobytes() == before.tobytes() and not np.shares_memory(v, w)
        assert np.max(np.abs(v + c * np.abs(v) ** (r - 1.0) * v - w)) <= 1e-12
        return v

    for name in ("step", "laplacian", "solver_energy", "support_radius"):
        monkeypatch.setattr(sv, name, counting(name))
    monkeypatch.setattr(sv, "_solve_damping_field", solve)
    res = run(grid, damping, state, params, cone=ConeSpec(R=4.5, enforce=False),
              sample_stride=10)
    windows = res.n_steps // sv._REWINDOW
    assert res.n_steps == 40 and windows == 5
    assert calls == {"step": 40, "solve": 40, "laplacian": 41 + windows,
                     "solver_energy": 41, "support_radius": 5}


def _traced_step_rises(monkeypatch, grid, damping, state, params):
    """Runs `run` under tracemalloc.  Per step: the most memory traced above
    the level where the step began (a step ends at its E*, after any
    re-window before it), and the nodes of the window the workspace was
    fitted to in that time (0: none), with whether it grew.  Also the run's
    result and the numpy memory (numpy's tracemalloc domain) held once the
    run has returned."""
    rises, fits, level, fitted = [], [], [], [(0, False)]
    real_energy, real_fit = sv.solver_energy, sv._Workspace.fit

    def probe(*args):
        peak = tracemalloc.get_traced_memory()[1]
        if level:
            rises.append(peak - level[-1])
            fits.append(fitted[0])
            fitted[0] = (0, False)
        tracemalloc.reset_peak()
        level.append(tracemalloc.get_traced_memory()[0])
        return real_energy(*args)

    def fit(self, shape):
        size = self._size
        out = real_fit(self, shape)
        fitted[0] = (math.prod(shape), self._size > size)
        return out

    monkeypatch.setattr(sv, "solver_energy", probe)
    monkeypatch.setattr(sv._Workspace, "fit", fit)
    tracemalloc.start()
    try:
        res = run(grid, damping, state, params)
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    return rises, fits, res, sum(t.size for t in snap.traces)


# a step's own Python objects (the new state, views, floats) stay below this
_STEP_OBJECTS = 4096


def test_whole_grid_run_allocates_nothing_per_step(monkeypatch):
    # weighted data fill the grid, so the run never re-windows: once its
    # first step has filled the workspace, a step allocates no array, and
    # 40 steps leave the numpy memory of 20 save E*'s 20 more floats
    grid = build_grid_1d(0.0, 30.0, 3000)
    damping = build_damping(grid, "constant", 1.0, 1.0, 1.0)
    state = make_initial_weighted(grid, 10.0, None, 0.0)
    held = []
    for n in (20, 40):
        rises, fits, res, numpy_held = _traced_step_rises(
            monkeypatch, grid, damping, state, _n_step_params(grid, n))
        assert res.n_steps == len(rises) == n
        assert fits[0] == (grid.fluid.size, True) and not any(f[0] for f in fits[1:])
        assert max(rises[1:]) < _STEP_OBJECTS < state.u.nbytes // 4
        held.append(numpy_held)
    assert held[1] - held[0] == 20 * 8


def test_windowed_run_allocates_only_where_the_workspace_grows(monkeypatch):
    # a 2D bump: a step allocates no array; a re-window to a window the
    # workspace fits adds only its Dirichlet masks and support scan, under a
    # third of one float array of the window; float arrays come only with a
    # window that outgrows the workspace
    grid = build_grid_2d_disk(1.0, 20.0, 10.0)
    damping = build_damping(grid, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    state = make_initial_compact(grid, (3.5, 0.0), 1.0, 1.0, "both", R=4.5)
    rises, fits, res, _ = _traced_step_rises(
        monkeypatch, grid, damping, state, _n_step_params(grid, 96))
    assert res.n_steps == len(rises) == 96
    for rise, (nodes, grew) in zip(rises, fits):
        if not nodes:
            assert rise < _STEP_OBJECTS
        elif not grew:
            assert rise < nodes * 8 // 3
    windows = [f for f in fits if f[0]]
    assert len(windows) == 1 + 95 // sv._REWINDOW
    assert 3 <= sum(not grew for _, grew in windows) < len(windows) // 2


def test_compact_2d_run_builds_one_mask_per_window(monkeypatch, tmp_path):
    # a window's damping is clamped through the grid window `run` holds, so a
    # full t3-compact-2d run builds one Dirichlet mask per window, and one
    # more for its initial state's box (the dirty-data check), not two
    from functools import cached_property

    from decaylab import presets
    from decaylab.grids import ExteriorGrid
    from decaylab.scenarios import run_scenario

    masks, windows, in_run = [], [], []
    build = ExteriorGrid._pinned.func
    pinned = cached_property(lambda self: masks.append(self.shape) or build(self))
    pinned.__set_name__(ExteriorGrid, "_pinned")
    monkeypatch.setattr(ExteriorGrid, "_pinned", pinned)
    real_fit, real_run = sv._Workspace.fit, sv.run
    monkeypatch.setattr(sv._Workspace, "fit", lambda self, shape: (
        windows.append(shape) or real_fit(self, shape)))

    def counted_run(*args, **kwargs):
        before = len(masks)
        out = real_run(*args, **kwargs)
        in_run.append(len(masks) - before)
        return out

    monkeypatch.setattr(sv, "run", counted_run)
    rep = run_scenario(presets.load("t3-compact-2d"), tmp_path)
    assert not rep.failed
    assert len(windows) == 32 and in_run == [len(windows) + 1]


def test_reference_fixed_point_divergence_reported():
    grid = build_grid_1d(0.0, 1.0, 64)
    damping = _zero_damping(grid)
    params = SolverParams(dt=5.0 * grid.h, r=2.0, T_max=1.0)
    state = WaveState(np.sin(np.pi * grid.coords[0]), grid.zeros())
    grid.clamp_dirichlet(state.u)
    with pytest.raises(RuntimeError, match="fixed-point"):
        reference_solve(grid, damping, state, params)
