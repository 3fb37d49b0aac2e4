"""Exterior-domain grids, damping profiles, and the transition cutoff.

1D: the half-line (alpha, +inf) truncated at x_max, uniform nodes, Dirichlet
at both ends.  2D: a Cartesian grid on [-r_out, r_out]^2 with a disk obstacle
of radius rho removed; obstacle and outer-square nodes are Dirichlet via the
mask (field values pinned at zero), giving a first-order staircase boundary.

Damping generators only emit profiles that satisfy the active-at-infinity
hypothesis exactly: a(x) >= epsilon0 wherever |x| >= L.  Geometric control is
guaranteed by construction of these profiles, never computed.  Grids build
|x| and q per window, on first read; the damping and the cutoff hold only
their values on the index box where they vary, plus one constant (`_radial`).
One body serves 1D and 2D: the operators loop over `ExteriorGrid.axes`, save
`solver.laplacian`, whose 3- and 5-point sums no such loop can reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

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
    truncation).  ``obstacle_radius`` is alpha (1D) or rho (2D) and
    ``truncation_radius`` is x_max (1D) or r_out (2D).  ``radius`` (|x| per
    node, measured from the origin) and q are built on first read, on the
    grid or on a window.  Operators read
    ``axes`` in one body, save the Laplacian, whose 1D and 2D sum orders differ.
    """
    dim: int
    h: float
    shape: tuple[int, ...]
    fluid: np.ndarray
    coords: tuple[np.ndarray, ...]
    obstacle_radius: float
    truncation_radius: float

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def n_fluid(self) -> int:
        return int(np.count_nonzero(self.fluid))

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per axis, its coordinates as a view that broadcasts on the grid."""
        return tuple(c[tuple(slice(None if j == k else 1) for j in range(self.dim))]
                     for k, c in enumerate(self.coords))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def clamp_dirichlet(self, field: np.ndarray) -> np.ndarray:
        field[self._pinned] = 0.0
        return field

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| per node, sqrt(x*x + ...) on the axes (in 1D abs(x), to the bit)."""
        return np.sqrt(reduce(np.add, (x * x for x in self.axes)))

    @cached_property
    def _pinned(self) -> np.ndarray:
        pinned = ~self.fluid
        pinned.flags.writeable = False
        return pinned

    @cached_property
    def q(self) -> np.ndarray:
        """sqrt(1 + |x|^2) per node (read-only)."""
        q = np.hypot(1.0, self.radius)
        q.flags.writeable = False
        return q

    def window(self, box) -> "ExteriorGrid":
        """The grid on an index box (None or Ellipsis: the grid itself): views
        of its node arrays, and of radius, q and the mask where the grid has
        built them; otherwise the window builds its own, node for node the same."""
        if box is None or box is ...:
            return self
        sub = replace(self, shape=self.fluid[box].shape, fluid=self.fluid[box],
                      coords=tuple(c[box] for c in self.coords))
        sub.__dict__.update({k: self.__dict__[k][box] for k in ("radius", "q", "_pinned")
                             if k in self.__dict__})
        return sub

    def boundary_band(self, width: float) -> np.ndarray:
        """Fluid nodes within ``width`` of the outer truncation boundary."""
        edge = self.truncation_radius - width       # max |x_k| >= edge, per axis
        return self.fluid & reduce(np.logical_or, (np.abs(x) >= edge for x in self.axes))


def build_grid_1d(alpha: float, x_max: float, n_cells: int) -> ExteriorGrid:
    """Nodes x_i = alpha + i h, h = (x_max - alpha)/n_cells, Dirichlet ends.

    The outer Dirichlet wall is justified either by support-cone safety
    (compact data) or by active damping near it (weighted data); scenarios
    validate whichever applies.
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if not x_max > alpha:
        raise ValueError(f"x_max must exceed alpha, got {alpha} >= {x_max}")
    if n_cells < 16:
        raise ValueError(f"need at least 16 cells, got {n_cells}")
    x = np.linspace(alpha, x_max, n_cells + 1)
    fluid = np.ones(x.shape, dtype=bool)
    fluid[0] = fluid[-1] = False
    return ExteriorGrid(
        dim=1, h=float(x[1] - x[0]), shape=x.shape, fluid=fluid, coords=(x,),
        obstacle_radius=float(alpha), truncation_radius=float(x_max))


def _disk_cells(r_out: float, nodes_per_unit: float) -> int:
    """Cells across [-r_out, r_out] at spacing 1/nodes_per_unit, made even."""
    h = 1.0 / nodes_per_unit
    n = int(round(2.0 * r_out / h))
    return n + n % 2


# row blocks of the 2D disk mask: each block's |x| is 1/32 of a full float array
_MASK_BLOCKS = 32


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
    # sqrt(x*x + y*y) > rho by blocks of rows, with no full-grid float array
    fluid = np.empty(x.shape, dtype=bool)
    rows = -(-(n + 1) // _MASK_BLOCKS)
    for i in range(0, n + 1, rows):
        block = sq[i:i + rows, None] + sq[None, :]
        np.greater(np.sqrt(block, out=block), rho, out=fluid[i:i + rows])
    fluid[0, :] = fluid[-1, :] = fluid[:, 0] = fluid[:, -1] = False
    return ExteriorGrid(
        dim=2, h=h, shape=x.shape, fluid=fluid, coords=(x, y),
        obstacle_radius=float(rho), truncation_radius=float(r_out))


def _within(box, window):
    """The index box `box` in the indices of its enclosing box `window`."""
    return tuple(slice(b.start - w.start, b.stop - w.start) for b, w in zip(box, window))


def _lay_out(x: np.ndarray, old, new, shape, fill: float = 0.0,
             out: np.ndarray | None = None) -> np.ndarray:
    """x, the values on index box `old` of an array of `shape` that holds
    `fill` elsewhere, on box `new` (None: the whole array): in `out`, an
    array of the new box's shape, else in a fresh array."""
    old, new = (b or tuple(slice(0, n) for n in shape) for b in (old, new))
    if out is None:
        out = np.full(tuple(s.stop - s.start for s in new), fill)
    else:
        out.fill(fill)
    both = [slice(max(a.start, b.start), min(a.stop, b.stop)) for a, b in zip(old, new)]
    if all(s.stop > s.start for s in both):
        out[_within(both, new)] = x[_within(both, old)]
    return out


@dataclass(frozen=True, eq=False)
class _BoxHeld:
    """Base of the damping and the cutoff: a nodal field held as `_radial`
    holds it, on its box.  `values`, the whole-grid array, is built on first
    read and then kept; `window` builds one box of the field."""
    held: tuple = field(repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        return self.window(None)

    def window(self, box, out: np.ndarray | None = None,
               sub: ExteriorGrid | None = None) -> np.ndarray:
        """The field on an index box of the grid (None: all of it), in `out`
        if given; `sub` is the grid on that box, if the caller holds it, so
        that the clamp reads its Dirichlet mask rather than building one."""
        core, core_box, fill, grid, clamp = self.held
        out = _lay_out(core, core_box, box, grid.shape, fill, out)
        if not clamp:
            return out
        return (grid.window(box) if sub is None else sub).clamp_dirichlet(out)


def _extreme(held: tuple, reduce, r_min: float) -> float:
    """`reduce` (np.min or np.max) of a held field over the fluid nodes of its
    grid with |x| >= r_min: on its box, and its constant if a fluid node lies
    off the box, hence beyond the box's ball, whose radius is at least r_min."""
    core, box, fill, grid, _ = held
    sub = grid.window(box)
    out = float(reduce(core, where=sub.fluid & (sub.radius >= r_min),
                       initial=math.inf if reduce is np.min else -math.inf))
    if grid.n_fluid > np.count_nonzero(sub.fluid):
        out = float(reduce([out, fill]))
    return out


@dataclass(frozen=True, eq=False)
class DampingProfile(_BoxHeld):
    """Nodal damping coefficient a(x) >= 0 with its construction metadata."""
    epsilon0: float
    L: float
    kind: str
    a_inf: float

    def hyp_a_margin(self) -> float:
        """min over its grid's fluid {|x| >= L} of a - epsilon0; >= 0 by construction."""
        return _extreme(self.held, np.min, self.L) - self.epsilon0


def _radial(grid: ExteriorGrid, fn, flat: float, clamp: bool = False) -> tuple:
    """fn(|x|) per node, held as (values on the index box of the nodes with
    |x| < 1.001 flat, that box, the constant fn(1.001 flat) on every other
    node, grid, clamp): the margin covers round-off, and from flat on every
    smoothstep in fn is clamped to 0 or 1.  The box is found on the axes;
    with `clamp` Dirichlet nodes read zero."""
    flat *= 1.001
    # per axis, the slices with a node inside: each other coordinate at its least
    sq = [x * x for x in grid.axes]
    least = [s.min() for s in sq]
    hits = [np.flatnonzero(np.sqrt(sum(least[:k] + least[k + 1:], s)) < flat)
            for k, s in enumerate(sq)]
    box = tuple(slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0) for i in hits)
    sub, fill = grid.window(box), float(fn(np.array([flat]))[0])
    core, near = np.full(sub.shape, fill), sub.radius < flat
    core[near] = fn(sub.radius[near])
    return (sub.clamp_dirichlet(core) if clamp else core), box, fill, grid, clamp


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

    rho = grid.obstacle_radius

    def profile(rad):
        inner = epsilon0 * smoothstep(rad / L)
        outer = epsilon0 + (a_max - epsilon0) * smoothstep((rad - L) / L)
        a = np.where(rad >= L, outer, inner)
        if kind == "annulus_plus_exterior":
            collar = epsilon0 * (1.0 - smoothstep((rad - rho - L / 2.0) / (L / 2.0)))
            a = np.maximum(a, collar)
        return a

    if kind == "constant":      # held on the box of B_L, where the margin looks
        held = _radial(grid, lambda rad: np.full_like(rad, a_max), L, clamp=True)
    else:
        held = _radial(grid, profile, max(2.0 * L, rho + L), clamp=True)
    # the max over every node: Dirichlet nodes read 0
    a_inf = max(_extreme(held, np.max, 0.0), 0.0)
    prof = DampingProfile(held=held, epsilon0=epsilon0, L=L, kind=kind, a_inf=a_inf)
    margin = prof.hyp_a_margin()
    if not margin >= 0.0:
        raise ValueError(f"damping breaks a >= epsilon0 on |x| >= L: "
                         f"hypothesis margin {margin:.6g}")
    return prof


@dataclass(frozen=True, eq=False)
class CutoffPsi(_BoxHeld):
    """Radial cutoff: 1 inside B_L, 0 outside B_2L, quintic in between."""
    L: float


def build_psi(grid: ExteriorGrid, L: float) -> CutoffPsi:
    if not 2.0 * L <= grid.truncation_radius:
        raise ValueError(f"2L = {2 * L} exceeds the truncation radius")
    return CutoffPsi(held=_radial(grid, lambda rad: 1.0 - smoothstep((rad - L) / L),
                                  2.0 * L), L=L)
