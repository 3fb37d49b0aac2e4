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
    assert a.hyp_a_margin(g) >= 0.0


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
    q = g.q()
    assert g.q() is q
    assert q.tobytes() == np.hypot(1.0, g.radius).tobytes()
    with pytest.raises(ValueError):
        q[0, 0] = 0.0

