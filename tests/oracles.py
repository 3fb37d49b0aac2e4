"""Oracles for the solver and grid tests.

`reference_solve`, a fully implicit midpoint integrator, cross-validates the
main stepper (`decaylab.solver.run`) on small instances: its energy curve and
its trajectories.  `solve_damping_scalar` is the nodal damping solve on one
node, `whole_grid_step` one step of `run`'s scheme on the whole grid,
`sample_as_run` a tracker's sample handed the arrays `run` hands it, and
`edge_form` the Dirichlet form <K u1, u2>_h that `laplacian` sums by parts.
The `*_by_dim` functions are the grid operators written with one body for 1D
and one for 2D; the one-body forms, which loop over `ExteriorGrid.axes`,
must match them byte for byte.
"""

from dataclasses import dataclass

import numpy as np

from decaylab import solver
from decaylab.grids import DampingProfile, ExteriorGrid
from decaylab.solver import SolverParams, WaveState, laplacian


def solve_damping_scalar(c: float, w: float, r: float,
                         tol: float = solver._DAMPING_TOL) -> float:
    """Unique root v of v + c |v|^(r-1) v = w (c >= 0, r > 1), by the
    solver's nodal solve on one node; sign(v) = sign(w) and |v| <= |w|."""
    if c < 0.0:
        raise ValueError("damping scale c must be nonnegative")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if c == 0.0 or w == 0.0:
        return w
    out = solver._solve_damping_field(np.asarray([c], dtype=float),
                                      np.asarray([w], dtype=float), r, tol)
    return float(out[0])


def whole_grid_step(state: WaveState, grid: ExteriorGrid, a: np.ndarray,
                    params: SolverParams) -> tuple[WaveState, float]:
    """`decaylab.solver.step` on the whole grid, set up as `run` sets up a
    window (a fresh workspace with `a` in `ws.a`, a clamped copy of `state`,
    Lap_h(u) in `ws.lap`): (new state in fresh arrays, dissipation increment)."""
    ws = solver._Workspace(grid.fluid.size)
    ws.fit(grid.shape)
    np.copyto(ws.a, a)
    ws.damp(params)
    st = state.on(None, grid.shape, ws.next_state())
    grid.clamp_dirichlet(st.u), grid.clamp_dirichlet(st.v)
    laplacian(grid, st.u, ws.lap, ws.spent[0])
    new, diss = solver.step(st, grid, params, ws)
    return new.copy(), diss


def sample_as_run(tracker, damping: DampingProfile, state: WaveState,
                  D_cum: float, E_solver: float) -> dict:
    """`tracker.sample` of `state` handed what `run` hands it, built afresh
    on the state's box: the grid, the damping, Lap_h(u) and the dissipation
    integrand a |v|^(r+1) at the tracker's r."""
    grid = tracker.cfg.grid.window(state.box)
    a = damping.window(state.box)
    integrand = a * np.abs(state.v) ** (tracker.cfg.r + 1.0)
    return tracker.sample(state, D_cum, E_solver, grid, a,
                          laplacian(grid, state.u), integrand)


def edge_form(grid: ExteriorGrid, u1: np.ndarray, u2: np.ndarray) -> float:
    """<K u1, u2>_h: the edge-based Dirichlet form matching `laplacian`."""
    return grid.h ** (grid.dim - 2) * sum(
        float(np.sum(np.diff(u1, axis=k) * np.diff(u2, axis=k))) for k in range(u1.ndim))


@dataclass
class ReferenceResult:
    ts: np.ndarray
    E: np.ndarray
    final_state: WaveState
    max_fixed_point_iters: int


# fixed-point iteration of `reference_solve`: tolerance and iteration cap
_FP_TOL = 1e-12
_FP_MAX_ITER = 200


def reference_solve(grid: ExteriorGrid, damping: DampingProfile,
                    initial: WaveState, params_fine: SolverParams,
                    sample_stride: int = 1) -> ReferenceResult:
    """Implicit midpoint with fixed-point iteration on the damping.

    Oracle-grade but small-instance only (<= 10^4 nodes).  Samples the plain
    discrete energy every `sample_stride` steps so curves can be compared
    against the main stepper at shared times.
    """
    if grid.fluid.size > 10_000:
        raise ValueError("reference integrator is restricted to <= 10^4 nodes")
    u, v = (grid.clamp_dirichlet(x.copy()) for x in (initial.u, initial.v))
    dt, r, a = params_fine.dt, params_fine.r, damping.values
    n_steps = int(round(params_fine.T_max / dt))

    def plain_energy(st):
        return (0.5 * grid.cell_volume * float(np.sum(st.v * st.v))
                + 0.5 * edge_form(grid, st.u, st.u))

    ts = [0.0]
    Es = [plain_energy(WaveState(u, v))]
    worst_iters = 0
    for n in range(1, n_steps + 1):
        um, vm = u.copy(), v.copy()
        for it in range(1, _FP_MAX_ITER + 1):
            um_next = u + 0.5 * dt * vm
            vm_next = v + 0.5 * dt * (laplacian(grid, um)
                                      - a * np.abs(vm) ** (r - 1.0) * vm)
            grid.clamp_dirichlet(um_next)
            grid.clamp_dirichlet(vm_next)
            delta = max(float(np.max(np.abs(um_next - um))),
                        float(np.max(np.abs(vm_next - vm))))
            um, vm = um_next, vm_next
            if delta <= _FP_TOL:
                break
        else:
            raise RuntimeError(
                f"midpoint fixed-point failed to converge in {_FP_MAX_ITER} "
                f"iterations at step {n}")
        worst_iters = max(worst_iters, it)
        u = grid.clamp_dirichlet(2.0 * um - u)
        v = grid.clamp_dirichlet(2.0 * vm - v)
        if n % sample_stride == 0:
            ts.append(n * dt)
            Es.append(plain_energy(WaveState(u, v, n * dt)))
    return ReferenceResult(ts=np.asarray(ts), E=np.asarray(Es),
                           final_state=WaveState(u, v, n_steps * dt),
                           max_fixed_point_iters=worst_iters)


# ---------------------------------------------------------------------------
# the grid operators with a body per dimension
# ---------------------------------------------------------------------------

def radius_by_dim(grid: ExteriorGrid) -> np.ndarray:
    """|x| per node: abs(x) in 1D, sqrt(x*x + y*y) on the axis views in 2D."""
    if grid.dim == 1:
        return np.abs(grid.coords[0])
    x, y = grid.coords[0][:, :1], grid.coords[1][:1]
    return np.sqrt(x * x + y * y)


def boundary_band_by_dim(grid: ExteriorGrid, width: float) -> np.ndarray:
    """Fluid nodes within `width` of the outer truncation boundary."""
    if grid.dim == 1:
        return grid.fluid & (grid.coords[0] >= grid.truncation_radius - width)
    x, y = grid.coords
    edge = grid.truncation_radius - width
    return grid.fluid & ((np.abs(x[:, :1]) >= edge) | (np.abs(y[:1]) >= edge))


def radial_box_by_dim(grid: ExteriorGrid, flat: float) -> tuple:
    """The index box `grids._radial` holds a field on, for its widened `flat`."""
    if grid.dim == 1:       # ascending nodes: |x| < flat iff -flat < x < flat
        x = grid.coords[0]
        return (slice(int(np.searchsorted(x, -flat, "right")),
                      int(np.searchsorted(x, flat))),)
    sq = [ax * ax for ax in (grid.coords[0][:, 0], grid.coords[1][0])]
    hits = [np.flatnonzero(np.sqrt(sq[k] + sq[1 - k].min()) < flat) for k in (0, 1)]
    return tuple(slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)
                 for i in hits)


def bump_box_and_distance_by_dim(grid: ExteriorGrid, center, radius: float):
    """The box `make_initial_compact` holds its bump on, and |x - center| there."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    axes = grid.coords if grid.dim == 1 else (grid.coords[0][:, 0], grid.coords[1][0])
    ends = [np.searchsorted(ax, (ck - radius, ck + radius)) for ax, ck in zip(axes, center)]
    box = tuple(slice(max(int(lo) - 2, 0), min(int(hi) + 2, ax.size))
                for ax, (lo, hi) in zip(axes, ends))
    x = [coord[box] for coord in grid.coords]
    if grid.dim == 1:
        return box, np.abs(x[0] - center[0])
    return box, np.sqrt((x[0] - center[0]) ** 2 + (x[1] - center[1]) ** 2)


def grad_sq_by_dim(grid: ExteriorGrid, u: np.ndarray) -> np.ndarray:
    """|grad_h u|^2 per node: the two one-sided edge differences averaged."""
    out = np.zeros_like(u)
    h2 = grid.h * grid.h
    if grid.dim == 1:
        d = np.diff(u)
        out[1:-1] = 0.5 * (d[:-1] ** 2 + d[1:] ** 2) / h2
    else:
        dx = np.diff(u, axis=0)
        dy = np.diff(u, axis=1)
        out[1:-1, 1:-1] = 0.5 * (
            dx[:-1, 1:-1] ** 2 + dx[1:, 1:-1] ** 2
            + dy[1:-1, :-1] ** 2 + dy[1:-1, 1:]**2) / h2
    return grid.clamp_dirichlet(out)
