"""Exterior-domain grids, damping profiles, and the transition cutoff.

1D: the half-line (alpha, +inf) truncated at x_max, uniform nodes, Dirichlet
at both ends.  2D: a Cartesian grid on [-r_out, r_out]^2 with a disk obstacle
of radius rho removed; obstacle and outer-square nodes are Dirichlet via the
mask (field values pinned at zero), giving a first-order staircase boundary.

Damping generators only emit profiles that satisfy the active-at-infinity
hypothesis exactly: a(x) >= epsilon0 wherever |x| >= L.  Geometric control is
guaranteed by construction of these profiles, never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "ExteriorGrid", "DampingProfile", "CutoffPsi",
    "build_grid_1d", "build_grid_2d_disk", "build_damping", "build_psi",
    "smoothstep",
]


def smoothstep(t):
    """Quintic smoothstep S(t) = 6t^5 - 15t^4 + 10t^3, clamped to [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(frozen=True)
class ExteriorGrid:
    """Uniform grid over the truncated exterior domain.

    ``fluid`` marks the unknowns; every other node is a Dirichlet node whose
    value stays pinned at zero (obstacle boundary, 1D endpoints, outer
    truncation).  ``radius`` is |x| per node, measured from the origin.
    """
    dim: int
    h: float
    shape: tuple[int, ...]
    fluid: np.ndarray
    radius: np.ndarray
    coords: tuple[np.ndarray, ...]
    alpha: float | None = None
    x_max: float | None = None
    rho_obstacle: float | None = None
    r_out: float | None = None

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def n_fluid(self) -> int:
        return int(np.count_nonzero(self.fluid))

    @property
    def truncation_radius(self) -> float:
        return self.x_max if self.dim == 1 else self.r_out

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def clamp_dirichlet(self, field: np.ndarray) -> np.ndarray:
        field[self._pinned] = 0.0
        return field

    @cached_property
    def _pinned(self) -> np.ndarray:
        pinned = ~self.fluid
        pinned.flags.writeable = False
        return pinned

    def q(self) -> np.ndarray:
        """sqrt(1 + |x|^2) per node, computed once per grid (read-only)."""
        return self._q

    @cached_property
    def _q(self) -> np.ndarray:
        q = np.hypot(1.0, self.radius)
        q.flags.writeable = False
        return q

    def window(self, box) -> "ExteriorGrid":
        """The grid on an index box: views of its node arrays, q and mask."""
        sub = replace(self, shape=self.fluid[box].shape, fluid=self.fluid[box],
                      radius=self.radius[box], coords=tuple(c[box] for c in self.coords))
        sub.__dict__.update(_q=self._q[box], _pinned=self._pinned[box])
        return sub

    def boundary_band(self, width: float) -> np.ndarray:
        """Fluid nodes within ``width`` of the outer truncation boundary."""
        if self.dim == 1:
            return self.fluid & (self.coords[0] >= self.x_max - width)
        x, y = self.coords
        edge = np.maximum(np.abs(x), np.abs(y))
        return self.fluid & (edge >= self.r_out - width)


def build_grid_1d(alpha: float, x_max: float, n_cells: int) -> ExteriorGrid:
    """Nodes x_i = alpha + i h, h = (x_max - alpha)/n_cells, Dirichlet ends.

    The outer Dirichlet wall is justified either by support-cone safety
    (compact data) or by active damping near it (weighted data); scenarios
    validate whichever applies.
    """
    if not x_max > alpha:
        raise ValueError(f"x_max must exceed alpha, got {alpha} >= {x_max}")
    if n_cells < 16:
        raise ValueError(f"need at least 16 cells, got {n_cells}")
    x = np.linspace(alpha, x_max, n_cells + 1)
    fluid = np.ones(x.shape, dtype=bool)
    fluid[0] = fluid[-1] = False
    return ExteriorGrid(
        dim=1, h=float(x[1] - x[0]), shape=x.shape, fluid=fluid,
        radius=np.abs(x), coords=(x,), alpha=float(alpha), x_max=float(x_max))


def _disk_cells(r_out: float, nodes_per_unit: float) -> int:
    """Cells across [-r_out, r_out] at spacing 1/nodes_per_unit, made even."""
    h = 1.0 / nodes_per_unit
    n = int(round(2.0 * r_out / h))
    return n + n % 2


def build_grid_2d_disk(rho: float, r_out: float,
                       nodes_per_unit: float) -> ExteriorGrid:
    """Cartesian grid on [-r_out, r_out]^2 minus the closed disk |x| <= rho.

    Obstacle nodes (|x| <= rho, closed convention) and the outer square edge
    are Dirichlet.  Rejects resolutions with fewer than 8 nodes across the
    disk diameter.
    """
    if rho <= 0.0:
        raise ValueError(f"obstacle radius must be positive, got {rho}")
    h = 1.0 / nodes_per_unit
    if not r_out > rho + 4.0 * h:
        raise ValueError(
            f"r_out = {r_out} too close to obstacle: need r_out > rho + 4h = {rho + 4 * h}")
    if 2.0 * rho / h < 8.0:
        raise ValueError(
            f"h = {h} too coarse to resolve the disk: fewer than 8 nodes across")
    n = _disk_cells(r_out, nodes_per_unit)
    h = 2.0 * r_out / n
    # integer-multiples axis keeps the mask bitwise symmetric under rotation
    axis = h * (np.arange(n + 1) - n // 2)
    x, y = np.meshgrid(axis, axis, indexing="ij", copy=False)
    x.flags.writeable = y.flags.writeable = False    # views of `axis`
    sq = axis * axis
    radius = np.sqrt(sq[:, None] + sq[None, :])     # sqrt(x*x + y*y)
    fluid = radius > rho
    fluid[0, :] = fluid[-1, :] = fluid[:, 0] = fluid[:, -1] = False
    return ExteriorGrid(
        dim=2, h=h, shape=x.shape, fluid=fluid, radius=radius,
        coords=(x, y), rho_obstacle=float(rho), r_out=float(r_out))


@dataclass(frozen=True)
class DampingProfile:
    """Nodal damping coefficient a(x) >= 0 with its construction metadata."""
    values: np.ndarray
    epsilon0: float
    L: float
    kind: str
    a_inf: float

    def hyp_a_margin(self, grid: ExteriorGrid) -> float:
        """min over fluid {|x| >= L} of a - epsilon0; >= 0 by construction."""
        sel = grid.fluid & (grid.radius >= self.L)
        return float(np.min(self.values, where=sel, initial=math.inf)) - self.epsilon0


def _radial(grid: ExteriorGrid, fn, flat: float) -> np.ndarray:
    """fn(|x|) per node, computed for |x| < 1.001 flat only (the margin covers
    round-off): from flat on every smoothstep in fn is clamped to 0 or 1."""
    flat *= 1.001
    near = grid.radius < flat
    out = np.full(grid.shape, fn(np.array([flat]))[0])
    out[near] = fn(grid.radius[near])
    return out


_DAMPING_KINDS = ("constant", "exterior_smooth", "annulus_plus_exterior")


def build_damping(grid: ExteriorGrid, kind: str, epsilon0: float, L: float,
                  a_max: float) -> DampingProfile:
    """Damping profile with a(x) >= epsilon0 on {|x| >= L} enforced exactly.

    constant:               a = a_max everywhere.
    exterior_smooth:        a rises from 0 at the origin to epsilon0 at |x|=L,
                            then from epsilon0 to a_max across [L, 2L].
    annulus_plus_exterior:  exterior_smooth plus a collar of width L/2 around
                            the obstacle held at >= epsilon0 (tapering off over
                            another L/2), so no ray can hug the obstacle and
                            avoid the damped set.
    """
    if kind not in _DAMPING_KINDS:
        raise ValueError(f"unknown damping kind {kind!r}")
    if not 0.0 < epsilon0 <= a_max:
        raise ValueError(f"need 0 < epsilon0 <= a_max, got {epsilon0}, {a_max}")
    if not 0.0 < L < grid.truncation_radius:
        raise ValueError(f"L = {L} must lie inside the truncation radius")

    rho = grid.alpha if grid.dim == 1 else grid.rho_obstacle

    def profile(rad):
        inner = epsilon0 * smoothstep(rad / L)
        outer = epsilon0 + (a_max - epsilon0) * smoothstep((rad - L) / L)
        a = np.where(rad >= L, outer, inner)
        if kind == "annulus_plus_exterior":
            collar = epsilon0 * (1.0 - smoothstep((rad - rho - L / 2.0) / (L / 2.0)))
            a = np.maximum(a, collar)
        return a

    if kind == "constant":
        a = np.full(grid.shape, a_max)
    else:
        a = _radial(grid, profile, max(2.0 * L, rho + L))
    a = grid.clamp_dirichlet(a)
    a_inf = float(a.max())
    prof = DampingProfile(values=a, epsilon0=epsilon0, L=L, kind=kind, a_inf=a_inf)
    assert prof.hyp_a_margin(grid) >= 0.0
    return prof


@dataclass(frozen=True)
class CutoffPsi:
    """Radial cutoff: 1 inside B_L, 0 outside B_2L, quintic in between."""
    values: np.ndarray
    L: float


def build_psi(grid: ExteriorGrid, L: float) -> CutoffPsi:
    if not 2.0 * L <= grid.truncation_radius:
        raise ValueError(f"2L = {2 * L} exceeds the truncation radius")
    psi = _radial(grid, lambda rad: 1.0 - smoothstep((rad - L) / L), 2.0 * L)
    return CutoffPsi(values=psi, L=L)
