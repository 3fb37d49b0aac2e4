"""Grid, damping-profile and cutoff tests."""

import math

import numpy as np
import pytest

from decaylab.grids import (build_damping, build_grid_1d, build_grid_2d_disk,
                            build_psi, smoothstep)


def test_grid_1d_unit_spacing():
    g = build_grid_1d(0.0, 20.0, 20)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.coords[0], np.arange(21.0))
    assert not g.fluid[0] and not g.fluid[-1]


def test_grid_1d_counts():
    g = build_grid_1d(0.0, 1.0, 16)
    assert g.shape == (17,)
    assert g.n_fluid == 15


def test_grid_1d_rejects_degenerate():
    with pytest.raises(ValueError):
        build_grid_1d(1.0, 1.0, 32)
    with pytest.raises(ValueError):
        build_grid_1d(0.0, 10.0, 8)
    # |x| and |x| - alpha are x and x - alpha only on the half-line x >= 0
    for alpha in (-1.0, math.nan):
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            build_grid_1d(alpha, 10.0, 32)


def test_grid_2d_masked_node_count():
    # oracle: exact count of nodes with |x| <= rho is ~ pi rho^2 / h^2
    g = build_grid_2d_disk(1.0, 8.0, 20.0)      # h = 0.05
    masked = np.count_nonzero(g.radius <= 1.0)
    expect = math.pi / g.h**2
    assert abs(masked - expect) <= 0.02 * expect
    assert not g.fluid[g.radius <= 1.0].any()


def test_grid_2d_boundary_point_is_masked():
    # node (1, 0) lies exactly on |x| = rho: closed obstacle convention
    g = build_grid_2d_disk(1.0, 8.0, 20.0)
    x, y = g.coords
    on_rim = (np.abs(x - 1.0) < 1e-12) & (np.abs(y) < 1e-12)
    assert on_rim.any()
    assert not g.fluid[on_rim].any()


def test_grid_2d_rejections():
    with pytest.raises(ValueError):
        build_grid_2d_disk(1.0, 1.05, 20.0)      # r_out too close
    with pytest.raises(ValueError):
        build_grid_2d_disk(0.1, 8.0, 20.0)       # < 8 nodes across disk


def test_grid_2d_mask_four_fold_symmetric():
    g = build_grid_2d_disk(1.0, 4.0, 10.0)
    assert np.array_equal(g.fluid, np.rot90(g.fluid))


def test_damping_constant():
    g = build_grid_1d(0.0, 10.0, 100)
    a = build_damping(g, "constant", 0.5, 1.0, 1.0)
    assert np.all(a.values[g.fluid] == 1.0)
    assert a.a_inf == 1.0


def test_damping_exterior_smooth_anchors():
    g = build_grid_1d(0.0, 10.0, 1000)           # node exactly at |x| = L
    a = build_damping(g, "exterior_smooth", 0.25, 1.0, 1.0)
    i_L = np.argmin(np.abs(g.coords[0] - 1.0))
    assert a.values[i_L] == pytest.approx(0.25)
    i_2L = np.argmin(np.abs(g.coords[0] - 2.0))
    assert a.values[i_2L] == pytest.approx(1.0)
    # rises from zero inside B_L
    assert a.values[1] < 0.01


@pytest.mark.parametrize("kind", ["constant", "exterior_smooth",
                                  "annulus_plus_exterior"])
def test_damping_hyp_a_margin(kind):
    g = build_grid_1d(0.5, 30.0, 600)
    a = build_damping(g, kind, 0.5, 1.0, 2.0)
    assert a.hyp_a_margin() >= 0.0


def test_damping_collar_2d():
    g = build_grid_2d_disk(1.0, 12.0, 10.0)
    a = build_damping(g, "annulus_plus_exterior", 0.5, 2.0, 1.0)
    collar = g.fluid & (g.radius <= 1.0 + 1.0)   # rho + L/2
    assert np.all(a.values[collar] >= 0.5 - 1e-12)


def test_damping_rejections():
    g = build_grid_1d(0.0, 10.0, 100)
    with pytest.raises(ValueError):
        build_damping(g, "bogus", 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_damping(g, "constant", 2.0, 1.0, 1.0)   # eps0 > a_max
    with pytest.raises(ValueError):
        build_damping(g, "constant", 0.5, 11.0, 1.0)  # L outside domain


def test_psi_anchors():
    g = build_grid_1d(0.0, 10.0, 1000)
    psi = build_psi(g, 2.0)
    x = g.coords[0]
    assert psi.values[np.argmin(np.abs(x - 2.0))] == pytest.approx(1.0)
    assert psi.values[np.argmin(np.abs(x - 4.0))] == pytest.approx(0.0)
    # midpoint of the band: 1 - S(1/2) = 1/2 by smoothstep symmetry
    assert psi.values[np.argmin(np.abs(x - 3.0))] == pytest.approx(0.5)


def test_psi_band_support():
    g = build_grid_1d(0.0, 10.0, 500)
    psi = build_psi(g, 2.0)
    v = psi.values
    assert np.all((0.0 <= v) & (v <= 1.0))
    outside = (g.radius <= 2.0) | (g.radius >= 4.0)
    assert np.all(v[outside] * (1.0 - v[outside]) == 0.0)


def test_psi_rejects_wide_cutoff():
    g = build_grid_1d(0.0, 10.0, 100)
    with pytest.raises(ValueError):
        build_psi(g, 6.0)


def test_smoothstep_is_c2_ish():
    # quintic: S'(0) = S'(1) = S''(0) = S''(1) = 0 up to finite differences
    d = 1e-5
    for edge in (0.0, 1.0):
        inner = edge + d if edge == 0.0 else edge - d
        slope = (smoothstep(inner) - smoothstep(edge)) / d
        assert abs(slope) < 1e-8


def test_grid_q_computed_once_and_read_only():
    g = build_grid_2d_disk(1.0, 4.0, 5.0)
    q = g.q
    assert g.q is q
    assert q.tobytes() == np.hypot(1.0, g.radius).tobytes()
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    assert np.shares_memory(g.window((slice(2, 9), slice(3, 7))).q, q)  # a view, as radius



# ---------------------------------------------------------------------------
# radius per window and fields held on the box where they vary
# ---------------------------------------------------------------------------

def _grids():
    return [build_grid_1d(0.5, 30.0, 590), build_grid_2d_disk(1.0, 8.0, 10.0)]


def _boxes(grid):
    """Windows at the obstacle or inner wall, at the truncation edge, at the
    corners, off every variation box, partly over it, and the whole grid."""
    if grid.dim == 1:
        return [(slice(0, 10),), (slice(20, 60),), (slice(580, 591),),
                (slice(300, 400),), (slice(5, 591),), None]
    return [(slice(65, 96), slice(70, 91)), (slice(150, 161), slice(60, 100)),
            (slice(0, 12), slice(0, 12)), (slice(149, 161), slice(149, 161)),
            (slice(0, 20), slice(30, 130)), (slice(40, 90), slice(70, 161)), None]


def _whole_grid_field(grid, fn, flat, clamp):
    """fn(|x|) on every node, as the full-array builders once made it."""
    rad = np.sqrt(grid.coords[0] ** 2 + grid.coords[1] ** 2) if grid.dim == 2 \
        else np.abs(grid.coords[0])
    flat *= 1.001
    out = np.full(grid.shape, fn(np.array([flat]))[0])
    near = rad < flat
    out[near] = fn(rad[near])
    return grid.clamp_dirichlet(out) if clamp else out


def _profile(kind, eps0, L, a_max, rho):
    def fn(rad):
        if kind == "constant":
            return np.full_like(rad, a_max)
        a = np.where(rad >= L, eps0 + (a_max - eps0) * smoothstep((rad - L) / L),
                     eps0 * smoothstep(rad / L))
        if kind == "annulus_plus_exterior":
            a = np.maximum(a, eps0 * (1.0 - smoothstep((rad - rho - L / 2.0) / (L / 2.0))))
        return a
    return fn


@pytest.mark.parametrize("dim", [1, 2])
def test_radius_built_on_read_and_per_window(dim):
    g = _grids()[dim - 1]
    assert "radius" not in vars(g)
    for box in _boxes(g):
        win = g.window(box).radius          # the window's own, from its coords
        assert win.tobytes() == g.radius[box or ...].tobytes()
    # the full grid's, once read, is the 2D grid's former sqrt(sq + sq^T)
    want = np.abs(g.coords[0]) if dim == 1 else np.sqrt(
        np.add.outer(g.coords[0][:, 0] ** 2, g.coords[1][0] ** 2))
    assert g.radius.tobytes() == want.tobytes()
    assert np.shares_memory(g.window(_boxes(g)[1]).radius, g.radius)   # a view now


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "exterior_smooth",
                                  "annulus_plus_exterior", "psi"])
def test_held_field_windows_match_whole_grid_values(dim, kind):
    g = _grids()[dim - 1]
    rho = g.obstacle_radius
    L, eps0, a_max = (1.0, 0.5, 1.5) if kind != "psi" else (1.5, 0, 0)
    if kind == "constant":      # no node in [L, 1.001 L): the margin is off the box
        L = 1.02
    if kind == "psi":
        want = _whole_grid_field(g, lambda rad: 1.0 - smoothstep((rad - L) / L),
                                 2.0 * L, False)
        make = lambda: build_psi(g, L)      # noqa: E731
    else:
        flat = L if kind == "constant" else max(2.0 * L, rho + L)
        want = _whole_grid_field(g, _profile(kind, eps0, L, a_max, rho), flat, True)
        make = lambda: build_damping(g, kind, eps0, L, a_max)     # noqa: E731
    for box in _boxes(g):
        field = make()                      # windows built from the box values
        assert field.window(box).tobytes() == want[box or ...].tobytes()
        assert "values" not in vars(field)
    field = make()
    assert field.values.tobytes() == want.tobytes()
    assert field.values is field.values     # built on first read, then kept
    for box in _boxes(g):
        assert field.window(box).tobytes() == want[box or ...].tobytes()
    if kind != "psi":
        assert field.a_inf == float(want.max())
        sel = g.fluid & (g.radius >= L)
        margin = float(np.min(want, where=sel, initial=math.inf)) - eps0
        assert field.hyp_a_margin() == margin


@pytest.mark.parametrize("dim", [1, 2])
def test_held_field_replace_keeps_the_held_box(dim):
    # dataclasses.replace carries the held field along: the copy windows
    # byte for byte as the original does
    import dataclasses
    g = _grids()[dim - 1]
    for field in (build_damping(g, "annulus_plus_exterior", 0.5, 1.0, 1.5),
                  build_psi(g, 1.5)):
        new = dataclasses.replace(field, L=2.0)
        assert new.L == 2.0 and new.held is field.held
        for box in _boxes(g):
            assert new.window(box).tobytes() == field.window(box).tobytes()
        assert new.values.tobytes() == field.values.tobytes()


def test_held_box_is_where_the_field_varies():
    g = build_grid_2d_disk(1.0, 27.0, 10.0)
    psi = build_psi(g, 2.0)
    core, box = psi.held[:2]
    # |x| < 4.004: 81 rows and columns of 541, ~2% of the grid
    assert core.shape == (81, 81) and box == (slice(230, 311),) * 2
    assert core.size < g.fluid.size // 40


def test_damping_margin_check_raises(monkeypatch):
    # a profile below epsilon0 on |x| >= L is rejected with its margin, not
    # by an assert that python -O would strip
    import decaylab.grids as gr
    monkeypatch.setattr(gr, "smoothstep", lambda t: -np.ones_like(np.asarray(t, float)))
    g = build_grid_1d(0.0, 10.0, 100)
    with pytest.raises(ValueError, match="hypothesis margin -1"):
        build_damping(g, "exterior_smooth", 0.5, 1.0, 1.5)


# --- one body for 1D and 2D: the operators against their per-dimension forms

def _same(a, b) -> bool:
    """Equal byte for byte: shape, dtype and every bit (signed zeros, NaNs)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fresh_grid(name):
    """A new grid each call, so a window builds its radius from its own axes."""
    return {"1d": lambda: build_grid_1d(0.0, 12.0, 240),
            "1d-alpha": lambda: build_grid_1d(0.7, 9.3, 172),
            "2d": lambda: build_grid_2d_disk(1.0, 4.0, 10.0)}[name]()


# whole grids, windows on the array border, inside it, and beside the obstacle
_OPERATOR_CASES = {
    "1d-whole": ("1d", None),
    "1d-left-border": ("1d", (slice(0, 40),)),
    "1d-right-border": ("1d", (slice(200, 241),)),
    "1d-alpha-inner": ("1d-alpha", (slice(50, 91),)),
    "2d-whole": ("2d", None),
    "2d-corner": ("2d", (slice(0, 20), slice(61, 81))),
    "2d-beside-obstacle": ("2d", (slice(27, 56), slice(44, 70))),
}


@pytest.mark.parametrize("case", sorted(_OPERATOR_CASES))
def test_one_body_operators_match_per_dimension_forms(case):
    from oracles import boundary_band_by_dim, grad_sq_by_dim, radius_by_dim
    from decaylab.functionals import grad_sq
    name, box = _OPERATOR_CASES[case]
    sub = _fresh_grid(name).window(box)
    assert len(sub.axes) == sub.dim
    assert all(x.shape == tuple(n if j == k else 1 for j, n in enumerate(sub.shape))
               for k, x in enumerate(sub.axes))
    assert _same(sub.radius, radius_by_dim(sub))
    for width in (0.0, 2.0 * sub.h, 1.0, 1e3):
        assert _same(sub.boundary_band(width), boundary_band_by_dim(sub, width))
    rng = np.random.default_rng(len(case))
    u1, u2 = rng.normal(size=(2,) + sub.shape)
    u1[rng.random(sub.shape) < 0.2] = -0.0
    for u in (u1, u2, np.zeros(sub.shape)):
        assert _same(grad_sq(sub, u), grad_sq_by_dim(sub, u))


@pytest.mark.parametrize("name", ["1d", "1d-alpha", "2d"])
def test_radial_box_matches_per_dimension_form(name):
    from oracles import radial_box_by_dim
    import decaylab.grids as gr
    grid = _fresh_grid(name)
    for flat in (0.05, 0.5, 0.7, 1.0, 1.7, 3.0, 100.0):
        held = gr._radial(grid, np.zeros_like, flat)
        assert held[1] == radial_box_by_dim(grid, flat * 1.001)


@pytest.mark.parametrize("name, centers", [
    ("1d", [(0.513,), (6.0,), (11.48,)]),
    ("1d-alpha", [(1.213,), (8.78,)]),
    ("2d", [(1.55, 0.0), (0.0, -1.6), (2.1, -1.3), (3.45, 3.45), (-3.4, 0.25)]),
])
def test_bump_box_and_values_match_per_dimension_form(name, centers):
    from oracles import bump_box_and_distance_by_dim
    from decaylab.solver import make_initial_compact
    grid = _fresh_grid(name)
    for center in centers:
        state = make_initial_compact(grid, center, 0.5, -1.3)
        box, dist = bump_box_and_distance_by_dim(grid, center, 0.5)
        inside = dist < 0.5
        z = np.where(inside, dist / 0.5, 1.0)
        assert state.box == box
        assert _same(state.u, -1.3 * np.where(inside, (1.0 - z * z) ** 3, 0.0))


def _preset_2d_grid_args():
    from decaylab import presets, scenarios
    cfgs = [scenarios._resolved(presets.load(name)) for name in presets.names()]
    return [(c.rho, c.r_out, 1.0 / c.h) for c in cfgs if c.dim == 2]


@pytest.mark.parametrize("args", _preset_2d_grid_args() + [
    (1.0, 6.0, 10.0), (1.0, 6.3, 10.0), (0.7, 4.0, 9.0), (1.0, 2.5, 6.0)])
def test_disk_mask_by_row_blocks_matches_one_shot(args):
    # every preset 2D grid (541 rows in blocks of 17), and 121, 127, 73 and
    # 31 rows, in blocks of 4, 4, 3 and 1: the last block is short but for 31
    rho, r_out, per_unit = args
    grid = build_grid_2d_disk(rho, r_out, per_unit)
    sq = grid.coords[0][:, 0] ** 2
    want = np.sqrt(sq[:, None] + sq[None, :]) > rho
    want[0, :] = want[-1, :] = want[:, 0] = want[:, -1] = False
    assert np.array_equal(grid.fluid, want)


def test_disk_build_holds_no_full_grid_float_array():
    # the mask's |x| is built a block of rows at a time: the build's traced
    # peak, the boolean mask itself included, stays below a quarter of one
    # full-grid float array
    import tracemalloc
    rho, r_out, per_unit = _preset_2d_grid_args()[0]
    build_grid_2d_disk(rho, r_out, per_unit)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grid = build_grid_2d_disk(rho, r_out, per_unit)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert grid.fluid.size > 250_000
    assert peak < grid.fluid.size * 8 // 4
