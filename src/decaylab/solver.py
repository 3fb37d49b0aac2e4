"""Time stepping for the damped wave system.

Main scheme: semi-implicit leapfrog.  Each step kicks the velocity with the
explicit 3/5-point Laplacian, then resolves the superlinear damping exactly
per node (the damping term is pointwise, so no global nonlinear system
exists), then drifts the displacement:

    w  = v + dt * Lap_h(u)
    v' = root of  v' + dt a(x) |v'|^(r-1) v' = w     (per node)
    u' = u + dt * v'

The nodal solve is plain Newton on |v'|: the map v + c v^r - |w| is
increasing and convex on [0, |w|], and the starting guess lies at or below
its root, so the first update lands in [root, |w|] and every later one falls
monotonically to the root; no bracket is needed.  The solve runs only on the
active nodes, where dt a != 0 and w != 0: elsewhere v' = w exactly, so the
result is bit-identical to solving every node (damping is localized, and
compact data leave most of the grid at rest).  Newton stops once every
residual is within the absolute tolerance; a solve that has not reached it
after `max_iter` iterations raises FloatingPointError unless each residual
is within tol * max(1, |w|), the limit round-off sets for large |w|.

A step moves a nonzero value by at most one node, so `run` works on the box of
the nonzeros, widened by the steps to the next re-window plus a 2-node halo
and clipped to the grid, and holds the state on that window alone: it never
copies the caller's arrays, and builds the full final state only on request.
States are bit-identical to whole-grid stepping; E*, the dissipation and the
sampled sums differ only in summation order.  Weighted data fill the grid, so
their box is the whole grid and they take the whole-grid path.

With a == 0 the scheme is plain leapfrog and conserves the two-level
quadratic form

    E* = 1/2 ||v||^2 + 1/2 <K u, u> - dt/2 <K v, u>

exactly (up to roundoff); with a >= 0 each step subtracts a nonnegative
dissipation from it.  That form is the per-step energy monitor; u and v
vanish on every Dirichlet node and on the array border, so summation by parts
turns it into 1/2 h^d (v.v - u.Lap_h u + dt v.Lap_h u), and `run` computes
Lap_h(u) once per step for the monitor and the next kick.  The continuum
energy's nodal quadrature lives in `functionals.energy`.

A fully implicit midpoint integrator (`reference_solve`) cross-validates the
main stepper on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grids import DampingProfile, ExteriorGrid
from .weights import Regime, WeightFamily

__all__ = [
    "WaveState", "SolverParams", "ConeSpec", "RunResult", "ReferenceResult",
    "SupportConeError", "solve_damping_scalar", "step", "run",
    "make_initial_compact", "make_initial_weighted", "reference_solve",
    "laplacian", "edge_form", "solver_energy", "support_radius",
]


class SupportConeError(RuntimeError):
    """Numerical support escaped the declared propagation cone."""


@dataclass
class WaveState:
    """Displacement, velocity and clock; Dirichlet nodes pinned at zero."""
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def copy(self) -> "WaveState":
        return WaveState(self.u.copy(), self.v.copy(), self.t)


@dataclass(frozen=True)
class SolverParams:
    dt: float
    r: float
    T_max: float = 0.0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.r > 1.0:
            raise ValueError("damping exponent r must exceed 1")

    @staticmethod
    def for_grid(grid: ExteriorGrid, cfl: float, r: float,
                 T_max: float) -> "SolverParams":
        """dt from the CFL bound: cfl*h in 1D, cfl*h/sqrt(2) in 2D."""
        if not 0.0 < cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        dt = cfl * grid.h / math.sqrt(grid.dim)
        return SolverParams(dt=dt, r=r, T_max=T_max)


@dataclass(frozen=True)
class ConeSpec:
    """Support-cone declaration for compact initial data.

    The numerical support (nodes above 1e-12 of the initial amplitude) must
    stay within R + t + 2h + 2dt; with ``enforce`` a violation aborts the run.
    """
    R: float
    enforce: bool = True


# ---------------------------------------------------------------------------
# nodal damping solve
# ---------------------------------------------------------------------------

# Gathered solves are zero-padded to whole blocks.  numpy keeps freed
# buffers under 1 KiB for reuse, per byte size; temporaries whose length
# changed every step would fill that cache with megabytes.
_BLOCK = 1024

# absolute residual tolerance of the nodal damping solve
_DAMPING_TOL = 1e-12


def _gather(x: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """x at the flat indices idx (all in range), zero-padded to `size`."""
    out = np.zeros(size)
    np.take(x, idx, out=out[:idx.size], mode="clip")
    return out


def _newton_abs(c, aw, r, tol, max_iter):
    """|v| with |v| + c|v|^r = aw per node, by Newton from a guess below
    the root, which needs no bracket (see the module docstring).

    Every node runs until the worst residual is at most tol.  After max_iter
    steps the result stands if each residual is within tol * max(1, aw):
    round-off keeps residuals near a few ulps of aw, so an absolute tol is
    out of reach once aw is large.  Otherwise raises FloatingPointError.
    Small arrays take as long to allocate as to compute, so the guess
    aw / (1 + c aw^(r-1)), g = v + c v p - aw and v -= g / (1 + rc p) are
    formed in place, in that order of operations.
    """
    rc = r * c
    v = aw ** (r - 1.0)
    v *= c
    v += 1.0
    np.divide(aw, v, out=v)
    g, d = np.empty_like(v), np.empty_like(v)
    for _ in range(max_iter):
        p = v ** (r - 1.0)          # one power serves g and its derivative
        np.multiply(c, v, out=g)
        g *= p
        g += v
        g -= aw
        if np.abs(g, out=d).max() <= tol:
            return v
        np.multiply(rc, p, out=d)
        d += 1.0
        g /= d
        v -= g
    res = np.abs(v + c * v * v ** (r - 1.0) - aw)
    bad = ~(res <= tol * np.maximum(1.0, aw))
    if not bad.any():
        return v
    raise FloatingPointError(
        f"nodal damping solve did not converge in {max_iter} iterations: "
        f"worst residual {np.max(res[bad]):.3g} > tol {tol:.3g} * max(1, |w|) "
        f"at {np.count_nonzero(bad)} node(s), largest |w| {np.max(aw):.3g}")


def _solve_damping_field(c, w, r, tol, max_iter=90):
    """Vector root of v + c|v|^(r-1) v = w: Newton on |v|.

    Only nodes with c != 0 and w != 0 are solved; every other node returns
    w itself (-0.0 as +0.0).  Newton is elementwise and those nodes have a
    residual of exactly 0, so the result is bit-identical to a solve over
    the whole grid; so are the zero padding nodes (c = w = 0 solves to 0).
    With half the nodes or more active the whole grid is solved directly,
    which skips the gather and scatter.
    """
    active = (c != 0.0) & (w != 0.0)
    if 2 * np.count_nonzero(active) >= active.size:
        v = _newton_abs(c, np.abs(w), r, tol, max_iter)
        v *= np.sign(w)
        return v
    idx = np.flatnonzero(active)
    out = w + 0.0
    if idx.size:
        size = -(-idx.size // _BLOCK) * _BLOCK
        ws = _gather(w, idx, size)
        v = _newton_abs(_gather(c, idx, size), np.abs(ws), r, tol, max_iter)
        v *= np.sign(ws)
        np.put(out, idx, v[:idx.size])
    return out


def solve_damping_scalar(c: float, w: float, r: float,
                         tol: float = _DAMPING_TOL) -> float:
    """Unique root v of v + c |v|^(r-1) v = w (c >= 0, r > 1).

    The map is strictly increasing, so sign(v) = sign(w) and |v| <= |w|;
    on |v| it is also convex, and Newton from a guess below the root
    converges monotonically from above after its first update.
    """
    if c < 0.0:
        raise ValueError("damping scale c must be nonnegative")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if c == 0.0 or w == 0.0:
        return w
    out = _solve_damping_field(np.asarray([c], dtype=float),
                               np.asarray([w], dtype=float), r, tol)
    return float(out[0])


# ---------------------------------------------------------------------------
# spatial operators and the solver's energy form
# ---------------------------------------------------------------------------

def laplacian(grid: ExteriorGrid, u: np.ndarray) -> np.ndarray:
    """Discrete Laplacian on fluid nodes (3-point / 5-point), zero elsewhere;
    Dirichlet data enter through the pinned zeros of u itself."""
    out = np.zeros_like(u)
    h2 = grid.h * grid.h
    if grid.dim == 1:
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
    else:
        out[1:-1, 1:-1] = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4.0 * u[1:-1, 1:-1]) / h2
    return grid.clamp_dirichlet(out)


def edge_form(grid: ExteriorGrid, u1: np.ndarray, u2: np.ndarray) -> float:
    """<K u1, u2>_h: the edge-based Dirichlet form matching `laplacian`."""
    scale = grid.h ** (grid.dim - 2)
    if grid.dim == 1:
        return scale * float(np.sum(np.diff(u1) * np.diff(u2)))
    return scale * (
        float(np.sum(np.diff(u1, axis=0) * np.diff(u2, axis=0)))
        + float(np.sum(np.diff(u1, axis=1) * np.diff(u2, axis=1))))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) on one thread; a strided 2D window is read in place, not
    copied.  numpy's OpenBLAS runs a dot of over 10 000 elements on every core:
    it waits for them, leaves their threads spinning and rounds by their count,
    so a longer dot is summed in order over the fewest near-equal parts."""
    if not (a.flags.c_contiguous and b.flags.c_contiguous):
        return float(np.einsum("ij,ij->", a, b))
    k = -(-a.size // 10_000)
    if k <= 1:
        return float(np.vdot(a, b))
    cuts = [-(-a.size * i // k) for i in range(k + 1)]
    a, b = a.reshape(-1), b.reshape(-1)
    return float(sum(np.vdot(a[i:j], b[i:j]) for i, j in zip(cuts, cuts[1:])))


def solver_energy(grid: ExteriorGrid, state: WaveState, dt: float,
                  lap: np.ndarray) -> float:
    """Two-level leapfrog energy E*, summed by parts with lap = Lap_h(u)."""
    u, v = state.u, state.v
    return 0.5 * grid.cell_volume * (_dot(v, v) - _dot(u, lap) + dt * _dot(v, lap))


def _support_box(u: np.ndarray, v: np.ndarray, pad: int, window=None,
                 shape=None):
    """Box of the nodes where u or v is nonzero, widened by `pad` per side and
    clipped; None for the whole array, which also stands for a zero state.
    For u, v on the index box `window` of arrays of `shape`: in their indices."""
    if u.ndim == 1:
        hits = [np.flatnonzero((u != 0.0) | (v != 0.0))]
    else:       # the rows and columns hit, with no node-sized mask
        hits = [np.flatnonzero(u.any(axis=1 - k) | v.any(axis=1 - k)) for k in (0, 1)]
    if not hits[0].size:
        return None
    shape = u.shape if shape is None else shape
    origin = [0] * u.ndim if window is None else [s.start for s in window]
    box = tuple(slice(max(o + i[0] - pad, 0), min(o + i[-1] + 1 + pad, n))
                for i, o, n in zip(hits, origin, shape))
    return None if all(s.stop - s.start == n for s, n in zip(box, shape)) else box


def _within(box, window):
    """The index box `box` in the indices of its enclosing box `window`."""
    return tuple(slice(b.start - w.start, b.stop - w.start) for b, w in zip(box, window))


def _lay_out(x: np.ndarray, old, new, shape) -> np.ndarray:
    """x, the values on index box `old` of an array of `shape` that is zero
    elsewhere, laid out on box `new` (None: the whole array)."""
    new = new or tuple(slice(0, n) for n in shape)
    out = np.zeros(tuple(s.stop - s.start for s in new))
    both = [slice(max(a.start, b.start), min(a.stop, b.stop)) for a, b in zip(old, new)]
    out[_within(both, new)] = x[_within(both, old)]
    return out


def support_radius(grid: ExteriorGrid, state: WaveState, threshold: float) -> float:
    """Largest |x| carrying |u| + |v| above the threshold; -inf if none."""
    act = (np.abs(state.u) + np.abs(state.v)) > threshold
    if not act.any():
        return -math.inf
    return float(np.max(grid.radius[act]))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

# `step` stops a run once |u| or |v| exceeds this: the scheme has blown up
BLOWUP = 1e100

def step(state: WaveState, grid: ExteriorGrid, damping: DampingProfile,
         params: SolverParams, lap: np.ndarray | None = None,
         c: np.ndarray | None = None) -> tuple[WaveState, float]:
    """One semi-implicit leapfrog step; returns (new state, dissipation increment).

    The increment is dt * sum h^d a |v'|^(r+1), the discrete counterpart of
    the energy-identity dissipation over the step.  A caller that holds
    `lap` = Lap_h(state.u) and `c` = dt * damping.values passes them in.
    """
    dt = params.dt
    lap = laplacian(grid, state.u) if lap is None else lap
    w = dt * lap
    w += state.v
    grid.clamp_dirichlet(w)
    c = dt * damping.values if c is None else c
    # the solve maps the clamped w's +0.0 to +0.0, so v_new is clamped too
    v_new = _solve_damping_field(c, w, params.r, _DAMPING_TOL)
    u_new = dt * v_new
    u_new += state.u
    grid.clamp_dirichlet(u_new)
    av = np.abs(v_new)
    peak = float(np.abs(u_new).max(initial=av.max()))
    if not math.isfinite(peak) or peak > BLOWUP:
        raise FloatingPointError(
            f"field magnitude {peak:.3g} at t = {state.t + dt:.6g}; "
            "check the CFL bound and damping parameters")
    av **= params.r + 1.0
    av *= damping.values
    diss = dt * grid.cell_volume * float(av.sum())
    return WaveState(u_new, v_new, state.t + dt), diss


# steps between re-windows in run; a fixed count, not the sample stride, so
# every box (and every sum's order) depends on the trajectory alone
_REWINDOW = 8


@dataclass
class RunResult:
    samples: list
    E_steps: np.ndarray          # solver energy at every step, E_steps[0] = t0
    D_cum: float
    n_steps: int
    dt: float
    mono_violations: int = 0
    mono_worst: float = 0.0
    cone_worst_overshoot: float = -math.inf
    cone_ok: bool = True
    _end: tuple = field(default=(), repr=False)   # (last state, its box, grid shape)

    @cached_property
    def final_state(self) -> WaveState:
        """The full-grid state at T_max, built on first access: never `initial`."""
        st, box, shape = self._end
        u, v = np.zeros(shape), np.zeros(shape)
        u[box or ...], v[box or ...] = st.u, st.v
        return WaveState(u, v, st.t)


def run(grid: ExteriorGrid, damping: DampingProfile,
        initial: WaveState, params: SolverParams, tracker=None,
        cone: ConeSpec | None = None, sample_stride: int = 10) -> RunResult:
    """March to T_max, sampling functionals every `sample_stride` steps.

    `tracker` is any object with sample(state, D_cum, E_solver, box=box)
    returning a record to collect (see functionals.SampleTracker), where
    `state` holds the index box `box` of the grid (None: the whole grid) and
    is zero elsewhere; with tracker=None the records are (t, E_solver) pairs.
    When `cone` declares compact data the numerical support is checked at
    every sample against R + t + 2h + 2dt and a violation is a hard error
    (truncation contamination would follow).  `initial` is only read.
    Deterministic for fixed inputs.
    """
    u, v = initial.u, initial.v
    # copied and clamped if any Dirichlet node holds a nonzero, NaN or -0.0
    if any(p.any() or np.signbit(p).any() for p in (u[grid._pinned], v[grid._pinned])):
        u, v = grid.clamp_dirichlet(u.copy()), grid.clamp_dirichlet(v.copy())
    n_steps = int(round(params.T_max / params.dt)) if params.T_max > 0 else 0

    def window(box, st):    # Lap_h(u) serves E* and the next kick, c = dt a every solve
        g, d = grid.window(box or ...), replace(damping, values=damping.values[box or ...])
        return g, d, laplacian(g, st.u), params.dt * d.values

    # every node that can be nonzero until the next re-window
    box = _support_box(u, v, _REWINDOW + 2)
    sub = WaveState(u[box or ...], v[box or ...], initial.t)
    g, d, lap, c = window(box, sub)
    if cone is not None:
        amp0 = max(float(np.max(np.abs(sub.u))), float(np.max(np.abs(sub.v))))
        cone_thresh = 1e-12 * amp0 if amp0 > 0 else math.inf
        cone_slack = 2.0 * grid.h + 2.0 * params.dt
    E = np.empty(n_steps + 1)
    E[0] = solver_energy(g, sub, params.dt, lap)
    D_cum = 0.0
    result = RunResult(samples=[], E_steps=E, D_cum=0.0, n_steps=n_steps,
                       dt=params.dt)

    def take_sample(st, n):
        if tracker is None:
            result.samples.append((st.t, float(E[n])))
        else:
            result.samples.append(tracker.sample(st, D_cum, float(E[n]), box=box))

    def check_cone(st):
        rad = support_radius(g, st, cone_thresh)
        over = rad - (cone.R + st.t)
        result.cone_worst_overshoot = max(result.cone_worst_overshoot, over)
        if over > cone_slack:
            result.cone_ok = False
            if cone.enforce:
                raise SupportConeError(
                    f"support radius {rad:.4g} exceeds cone "
                    f"{cone.R + st.t + cone_slack:.4g} at t = {st.t:.4g}: "
                    "truncation contamination")

    if cone is not None:
        check_cone(sub)
    take_sample(sub, 0)

    for n in range(1, n_steps + 1):
        sub, diss = step(sub, g, d, params, lap, c)
        lap = laplacian(g, sub.u)
        D_cum += diss
        E[n] = solver_energy(g, sub, params.dt, lap)
        if E[n] > E[n - 1] * (1.0 + 1e-12) and E[n - 1] > 0.0:
            result.mono_violations += 1
            result.mono_worst = max(result.mono_worst, E[n] / E[n - 1] - 1.0)
        if n % sample_stride == 0:
            if cone is not None:
                check_cone(sub)
            take_sample(sub, n)
        if box is not None and n % _REWINDOW == 0:
            # nothing outside the window is nonzero, so its scan finds the box
            new = _support_box(sub.u, sub.v, _REWINDOW + 2, box, grid.shape)
            sub = WaveState(_lay_out(sub.u, box, new, grid.shape),
                            _lay_out(sub.v, box, new, grid.shape), sub.t)
            box = new
            g, d, lap, c = window(box, sub)

    result._end = (sub, box, grid.shape)
    result.D_cum = D_cum
    return result


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def make_initial_compact(grid: ExteriorGrid, center, radius: float,
                         amplitude: float, mode: str = "bump_u",
                         R: float | None = None) -> WaveState:
    """C^2 bump amplitude*(1 - (d/radius)^2)^3, exactly supported in the ball.

    The closed support ball must stay inside the fluid region, and inside
    B_R when the scenario declares a support radius R.
    """
    if mode not in ("bump_u", "bump_v", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} coordinates")
    # the bump's box: one node more per side than the nodes within `radius`
    # of the centre along each (ascending) axis
    axes = grid.coords if grid.dim == 1 else (grid.coords[0][:, 0], grid.coords[1][0])
    box = tuple(slice(max(lo - 1, 0), hi + 1) for lo, hi in (
        np.searchsorted(ax, (ck - radius, ck + radius)).tolist()
        for ax, ck in zip(axes, center)))
    x = [coord[box] for coord in grid.coords]
    if grid.dim == 1:
        dist = np.abs(x[0] - center[0])
    else:
        dist = np.sqrt((x[0] - center[0]) ** 2 + (x[1] - center[1]) ** 2)
    inside = dist < radius
    if np.any(inside & ~grid.fluid[box]):
        raise ValueError("bump support touches a Dirichlet node "
                         "(obstacle or truncation boundary)")
    if R is not None:
        reach = float(np.linalg.norm(center)) + radius
        if reach > R + 1e-12:
            raise ValueError(f"bump support B({center}, {radius}) leaves the "
                             f"declared ball B_R, R = {R} (reach {reach:.4g})")
    z = np.where(inside, dist / radius, 1.0)
    # off the box the bump is amplitude * 0.0, signed zero included
    bump = np.full(grid.shape, amplitude * 0.0)
    bump[box] = amplitude * np.where(inside, (1.0 - z * z) ** 3, 0.0)
    u = grid.zeros() if mode == "bump_v" else bump
    v = grid.zeros() if mode == "bump_u" else bump.copy() if mode == "both" else bump
    return WaveState(u, v, 0.0)     # "both" copies: u and v must not alias


def make_initial_weighted(grid: ExteriorGrid, sigma: float,
                          weight_check: WeightFamily | None, gamma: float,
                          amplitude: float = 1.0,
                          oscillation: float = 2.0) -> WaveState:
    """Polynomially decaying data (1+|x|^2)^(-sigma/2) times a fixed oscillation.

    sigma must make the declared weighted norms finite on the untruncated
    domain: sigma > (d + gamma)/2 for polynomial weights, sigma > d/2 for
    logarithmic ones (log factors cost no decay).
    """
    growth = 0.0
    if weight_check is not None and weight_check.regime in (
            Regime.POLY, Regime.COMPACT_POLY):
        growth = 1.0
    need = (grid.dim + gamma * growth) / 2.0
    if not sigma > need:
        norm = ("(1+q)^gamma-weighted gradient/velocity norm" if growth
                else "ln^gamma(b+q)-weighted gradient/velocity norm")
        raise ValueError(
            f"sigma = {sigma} too small: the {norm} diverges on the exterior "
            f"domain unless sigma > (d + gamma*growth)/2 = {need}")
    envelope = amplitude * (1.0 + grid.radius ** 2) ** (-sigma / 2.0)
    if grid.dim == 1:
        phase = oscillation * (grid.coords[0] - grid.alpha)
    else:
        phase = oscillation * (grid.radius - grid.rho_obstacle)
    return WaveState(grid.clamp_dirichlet(envelope * np.sin(phase)),
                     grid.clamp_dirichlet(envelope * np.cos(phase)), 0.0)


# ---------------------------------------------------------------------------
# implicit midpoint reference integrator
# ---------------------------------------------------------------------------

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
