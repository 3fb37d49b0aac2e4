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
monotonically to the root; no bracket is needed.  The solve runs on every
node of the window it is given; an inactive node (dt a = 0 or w = 0) has a
residual of exactly 0 at the first iterate, which is w itself.  Newton stops
once every residual is within the absolute tolerance; a solve that has not
reached it after `max_iter` iterations raises FloatingPointError unless each
residual is within tol * max(1, |w|), the limit round-off sets for large |w|.

A step moves a nonzero value by at most one node, so `run` works on the box of
the nonzeros, widened by the steps to the next re-window plus a 2-node halo
and clipped to the grid, and holds the state, the damping and Lap_h(u) on
that window alone, and builds the full final state only on request.  A state
may hold only an index box of the grid (`WaveState.box`), as the bumps of
`make_initial_compact` do.  Dirty data (a nonzero or NaN on a Dirichlet node)
are copied and clamped before the support scan; the first window is always a
fresh, clamped copy, so `initial` is only read and dirty data run as clean.
States are bit-identical to whole-grid stepping; E*, the dissipation and the
sampled sums differ only in summation order.  Weighted data fill the grid, so
their box is the whole grid and they take the whole-grid path.

`run` holds one `_Workspace` for the whole run: flat buffers viewed on the
current window, for two state pairs that take turns, Lap_h(u), w and the
window's damping, which grow only with a window that outgrows them.  `step`,
`laplacian` and the nodal solve write into it, with the same operations in
the same order as the fresh-array forms of the last two, so a step
allocates nothing and the outputs are byte-identical.  A step leaves its
dissipation integrand a |v'|^(r+1) in w, which `run` hands to the tracker's
sample; the 2D Laplacian's 4u term goes to the u of the pair the step has
spent.  `step` works only in that workspace, on `run`'s clamped states and
the damping and Lap_h(u) `run` wrote there, so there is one stepping path.
`laplacian` called without an output array allocates it; the samples, the
cone check and a re-window's mask and support scan allocate theirs too.

With a == 0 the scheme is plain leapfrog and conserves the two-level
quadratic form

    E* = 1/2 ||v||^2 + 1/2 <K u, u> - dt/2 <K v, u>

exactly (up to roundoff); with a >= 0 each step subtracts a nonnegative
dissipation from it.  That form is the per-step energy monitor; u and v
vanish on every Dirichlet node and on the array border, so summation by parts
turns it into 1/2 h^d (v.v - u.Lap_h u + dt v.Lap_h u), and `run` computes
Lap_h(u) once per step for the monitor and the next kick.  The continuum
energy's nodal quadrature lives in `functionals.energy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .grids import DampingProfile, ExteriorGrid, _lay_out
from .weights import Regime, WeightFamily

__all__ = [
    "WaveState", "SolverParams", "ConeSpec", "RunResult",
    "SupportConeError", "run",
    "make_initial_compact", "make_initial_weighted",
    "laplacian", "solver_energy", "support_radius",
]


class SupportConeError(RuntimeError):
    """Numerical support escaped the declared propagation cone."""


@dataclass
class WaveState:
    """Displacement, velocity and clock; Dirichlet nodes pinned at zero.
    u and v hold the index box `box` of the grid (None: all of it), zero off it."""
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    box: tuple | None = None

    def copy(self) -> "WaveState":
        return WaveState(self.u.copy(), self.v.copy(), self.t, self.box)

    def on(self, box, shape, out=(None, None)) -> "WaveState":
        """The state on index box `box` (None: all) of a `shape` grid, in new
        arrays or in the pair `out`."""
        return WaveState(_lay_out(self.u, self.box, box, shape, out=out[0]),
                         _lay_out(self.v, self.box, box, shape, out=out[1]), self.t, box)


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

# absolute residual tolerance of the nodal damping solve
_DAMPING_TOL = 1e-12


def _solve_damping_field(c, w, r, tol, max_iter=90, out=None, scratch=None):
    """Vector root of v + c|v|^(r-1) v = w per node, by Newton on |v| with
    the stopping rule and the max_iter limit of the module docstring, into
    `out` if given (else a fresh array); w is only read.

    A node with c = 0 or w = 0 has a residual of exactly 0 at the first
    iterate, so it returns w itself (-0.0 as +0.0) with no special case.  The
    guess aw / (1 + c aw^(r-1)), aw = |w|, p = v^(r-1), g = v + c v p - aw and
    v -= g / (1 + rc p) are formed in place, in that order of operations,
    with rc = r c and aw, g and d arrays of w's shape: `scratch` =
    (aw, rc, g, d), else fresh.  The powers raise a copy in place with `**=`,
    which numpy takes as a square root at r - 1 = 0.5 (the same value as
    np.power, at half the cost) and as np.power at any other r.
    """
    aw, rc, g, d = ((np.empty_like(w), r * c, np.empty_like(w), np.empty_like(w))
                    if scratch is None else scratch)
    np.abs(w, out=aw)
    v = np.positive(aw, out=out)        # a copy of aw, raised in place
    v **= r - 1.0
    v *= c
    v += 1.0
    np.divide(aw, v, out=v)
    for _ in range(max_iter):
        np.copyto(d, v)
        d **= r - 1.0                   # p: one power serves g and its derivative
        np.multiply(c, v, out=g)
        g *= d
        g += v
        g -= aw
        if g.max() <= tol and -g.min() <= tol:      # max |g|, with no |g| array
            break
        d *= rc
        d += 1.0
        g /= d
        v -= g
    else:
        # a c = 0 node's root is aw; its guess formed 0 * inf if aw^(r-1) overflows
        free = np.equal(c, 0.0)
        np.copyto(v, aw, where=free)
        over = ~free & (c * aw ** (r - 1.0) == math.inf)
        if over.any():
            raise FloatingPointError(
                f"nodal damping solve: c |w|^(r-1) overflows the double range at "
                f"{np.count_nonzero(over)} node(s), largest |w| {np.max(aw[over]):.3g}")
        res = np.where(free, 0.0, np.abs(v + c * v * v ** (r - 1.0) - aw))
        bad = ~(res <= tol * np.maximum(1.0, aw))
        if bad.any():
            raise FloatingPointError(
                f"nodal damping solve did not converge in {max_iter} iterations: "
                f"worst residual {np.max(res[bad]):.3g} > tol {tol:.3g} * max(1, |w|) "
                f"at {np.count_nonzero(bad)} node(s), largest |w| {np.max(aw):.3g}")
    v *= np.sign(w, out=aw)         # |w| is spent
    return v


# ---------------------------------------------------------------------------
# spatial operators and the solver's energy form
# ---------------------------------------------------------------------------

def laplacian(grid: ExteriorGrid, u: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Discrete Laplacian on fluid nodes (3-point / 5-point), zero elsewhere;
    Dirichlet data enter through the pinned zeros of u itself.  A body per
    dim: no loop over the axes sums in both stencils' orders to the bit.
    Written into `out` (C-contiguous, not u itself) if given, else into a
    fresh array; the 5-point form's 4 u term goes to `scratch`, a
    C-contiguous array of u's size, if given.  The sums of
    (u[2:] - 2 u + u[:-2]) / h^2 and (u_E + u_W + u_N + u_S - 4 u) / h^2 run
    in place, in that order."""
    out = np.empty(u.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("laplacian writes into a C-contiguous array")
    h2 = grid.h * grid.h
    if grid.dim == 1:
        inner = out[1:-1]
        np.multiply(2.0, u[1:-1], out=inner)
        np.subtract(u[2:], inner, out=inner)
        inner += u[:-2]
    else:
        # rows 1 to -2 as one run of the flattened array, so that every
        # operand is contiguous; the end columns, summed across the row
        # ends, are zeroed below
        m = u.shape[1]
        n = max(u.size - 2 * m - 2, 0)
        flat, inner = u.reshape(-1), out.reshape(-1)[m + 1:m + 1 + n]
        np.add(flat[2 * m + 1:2 * m + 1 + n], flat[1:1 + n], out=inner)
        inner += flat[m + 2:m + 2 + n]
        inner += flat[m:m + n]
        inner -= np.multiply(4.0, flat[m + 1:m + 1 + n],
                             out=None if scratch is None else scratch.reshape(-1)[:n])
    inner /= h2
    out[0] = out[-1] = 0.0
    if grid.dim == 2:
        out[:, 0] = out[:, -1] = 0.0
    return grid.clamp_dirichlet(out)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) on one thread.  numpy's OpenBLAS runs a dot of over 10 000
    elements on every core: it waits for them, leaves their threads spinning
    and rounds by their count, so a longer dot is summed in order over the
    fewest near-equal parts."""
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
    # per axis, the indices hit: `any` over the other axes, no node-sized mask
    others = [tuple(j for j in range(u.ndim) if j != k) for k in range(u.ndim)]
    hits = [np.flatnonzero(u.any(axis=ax) | v.any(axis=ax)) for ax in others]
    if not hits[0].size:
        return None
    shape = u.shape if shape is None else shape
    origin = [0] * u.ndim if window is None else [s.start for s in window]
    box = tuple(slice(max(o + i[0] - pad, 0), min(o + i[-1] + 1 + pad, n))
                for i, o, n in zip(hits, origin, shape))
    return None if all(s.stop - s.start == n for s, n in zip(box, shape)) else box


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


class _Workspace:
    """The arrays `run` writes, as views on the current window of flat
    buffers held for the whole run: two state pairs (u0, v0 and u1, v1) that
    take turns, Lap_h(u), w, and the window's a, c = dt a and rc = r c.  A
    window that outgrows the buffers drops them; each is then made anew on
    first use, half again as large (at most `cap` nodes)."""

    _BUFFERS = ("u0", "v0", "u1", "v1", "lap", "w", "a", "c", "rc")

    def __init__(self, cap: int):
        self._cap, self._size, self._flat, self._pair = cap, 0, {}, 1

    def fit(self, shape) -> None:
        n = math.prod(shape)
        if n > self._size:      # an old buffer goes with its last view
            self._size, self._flat = max(n, min(self._size * 3 // 2, self._cap)), {}
        self._shape = shape
        for k in self._BUFFERS:
            vars(self).pop(k, None)

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in self._BUFFERS:
            raise AttributeError(name)
        if name not in self._flat:
            self._flat[name] = np.empty(self._size)
        view = self._flat[name][:math.prod(self._shape)].reshape(self._shape)
        setattr(self, name, view)
        return view

    def damp(self, params: SolverParams) -> None:
        """c = dt a and rc = r c of the window's a, for every solve on it."""
        np.multiply(params.dt, self.a, out=self.c)
        np.multiply(params.r, self.c, out=self.rc)

    def next_state(self) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) pair that does not hold the current state, which is
        current from now on."""
        self._pair ^= 1
        return (self.u1, self.v1) if self._pair else (self.u0, self.v0)

    @property
    def spent(self) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) pair that is not current."""
        return (self.u0, self.v0) if self._pair else (self.u1, self.v1)


def step(state: WaveState, grid: ExteriorGrid, params: SolverParams,
         work: _Workspace) -> tuple[WaveState, float]:
    """One semi-implicit leapfrog step; returns (new state, dissipation increment).

    The increment is dt * sum h^d a |v'|^(r+1), the discrete counterpart of
    the energy-identity dissipation, with a = `work.a` the damping on `grid`.
    `work` is `run`'s `_Workspace` as the run leaves it: fitted to `grid`,
    damped from `work.a`, holding `state` in its current pair and
    Lap_h(state.u) in `work.lap`.  The step allocates nothing, leaves the
    increment's integrand a |v'|^(r+1) in `work.w`, and clamps nothing:
    `run`'s states are clamped, so w and u' are too.  Once w is formed,
    Lap_h(u) and v are spent and serve as Newton's scratch, and |w| waits in
    the new u until u' is formed.
    """
    dt = params.dt
    w = np.multiply(dt, work.lap, out=work.w)
    w += state.v
    u_new, v_new = work.next_state()
    # the solve maps the clamped w's +0.0 to +0.0, so v_new is clamped too
    v_new = _solve_damping_field(work.c, w, params.r, _DAMPING_TOL, out=v_new,
                                 scratch=(u_new, work.rc, work.lap, work.spent[1]))
    u_new = np.multiply(dt, v_new, out=u_new)
    u_new += state.u
    av = np.abs(v_new, out=w)
    peak = float(np.abs(u_new, out=work.lap).max(initial=av.max()))
    if not math.isfinite(peak) or peak > BLOWUP:
        raise FloatingPointError(
            f"field magnitude {peak:.3g} at t = {state.t + dt:.6g}; "
            "check the CFL bound and damping parameters")
    av **= params.r + 1.0
    av *= work.a
    diss = dt * grid.cell_volume * float(av.sum())
    return WaveState(u_new, v_new, state.t + dt, state.box), diss


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
    _end: tuple = field(default=(), repr=False)   # (last state, grid shape)

    @cached_property
    def final_state(self) -> WaveState:
        """The full-grid state at T_max, in fresh arrays built on first access."""
        st, shape = self._end
        return st.on(None, shape)


def run(grid: ExteriorGrid, damping: DampingProfile,
        initial: WaveState, params: SolverParams, tracker=None,
        cone: ConeSpec | None = None, sample_stride: int = 10) -> RunResult:
    """March to T_max, sampling functionals every `sample_stride` steps.

    `tracker` is any object with sample(state, D_cum, E_solver, grid, a, lap,
    integrand) returning a row to collect (functionals.SampleTracker returns
    a dict keyed by the series columns, for `functionals.series_table`), where
    `state` holds the index box `state.box` of the grid (None: the whole
    grid) and is zero elsewhere, and `grid`, `a` and `lap` are the grid, the
    damping array (damping.window(box), built once per re-window) and
    Lap_h(state.u) on that box, the workspace arrays `step` reads.
    `integrand` is the step's a |v|^(r+1) at params.r on that box, in the
    workspace and valid only during the call, or None at t = 0; with
    tracker=None the records are (t, E_solver) pairs.  When `cone` declares
    compact data the numerical support is checked at every sample against
    R + t + 2h + 2dt and a violation is a hard error (truncation
    contamination would follow).  `initial` may hold a box of the grid; it
    is only read.  Deterministic for fixed inputs.
    """
    n_steps = int(round(params.T_max / params.dt)) if params.T_max > 0 else 0
    ws = _Workspace(grid.fluid.size)

    def window(box, st):
        """The grid on `box` and `st` in the spare pair there; the damping to ws.a."""
        g = grid.window(box)
        ws.fit(g.shape)
        damping.window(box, out=ws.a, sub=g)
        ws.damp(params)
        return g, st.on(box, grid.shape, ws.next_state())

    held = grid.window(initial.box)
    if initial.u[held._pinned].any() or initial.v[held._pinned].any():
        # a nonzero or NaN on a Dirichlet node would reach the scan: clamp a copy
        initial = initial.on(initial.box, grid.shape)
        held.clamp_dirichlet(initial.u), held.clamp_dirichlet(initial.v)
    # every node that can be nonzero until the next re-window
    box = _support_box(initial.u, initial.v, _REWINDOW + 2, initial.box, grid.shape)
    # a copy, clamped for any -0.0 on a Dirichlet node
    g, sub = window(box, initial)
    g.clamp_dirichlet(sub.u), g.clamp_dirichlet(sub.v)
    # serves E* and the next kick; 2D's 4u goes to the spent pair's u
    laplacian(g, sub.u, ws.lap, ws.spent[0])
    if cone is not None:
        amp0 = max(float(np.max(np.abs(sub.u))), float(np.max(np.abs(sub.v))))
        cone_thresh = 1e-12 * amp0 if amp0 > 0 else math.inf
        cone_slack = 2.0 * grid.h + 2.0 * params.dt
    E = np.empty(n_steps + 1)
    E[0] = solver_energy(g, sub, params.dt, ws.lap)
    D_cum = 0.0
    result = RunResult(samples=[], E_steps=E, D_cum=0.0, n_steps=n_steps,
                       dt=params.dt)

    def take_sample(st, n):
        if tracker is None:
            result.samples.append((st.t, float(E[n])))
        else:     # after a step, w holds the step's a |v|^(r+1)
            result.samples.append(tracker.sample(st, D_cum, float(E[n]), g, ws.a,
                                                 ws.lap, ws.w if n else None))

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
        sub, diss = step(sub, g, params, ws)
        laplacian(g, sub.u, ws.lap, ws.spent[0])
        D_cum += diss
        E[n] = solver_energy(g, sub, params.dt, ws.lap)
        if E[n] > E[n - 1] * (1.0 + 1e-12) and E[n - 1] > 0.0:
            result.mono_violations += 1
            result.mono_worst = max(result.mono_worst, E[n] / E[n - 1] - 1.0)
        if n % sample_stride == 0:
            if cone is not None:
                check_cone(sub)
            take_sample(sub, n)
        if box is not None and n % _REWINDOW == 0:
            # nothing outside the window is nonzero, so its scan finds the box
            box = _support_box(sub.u, sub.v, _REWINDOW + 2, box, grid.shape)
            g, sub = window(box, sub)
            laplacian(g, sub.u, ws.lap, ws.spent[0])

    result._end = (sub.copy(), grid.shape)     # off the workspace
    result.D_cum = D_cum
    return result


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def make_initial_compact(grid: ExteriorGrid, center, radius: float,
                         amplitude: float, mode: str = "bump_u",
                         R: float | None = None) -> WaveState:
    """C^2 bump amplitude*(1 - (d/radius)^2)^3, exactly supported in the ball,
    held on the bump's box (`WaveState.box`): `.on(None, grid.shape)` lays it
    out on the whole grid.  The closed support ball must stay inside the fluid
    region, and inside B_R when the scenario declares a support radius R.
    """
    if mode not in ("bump_u", "bump_v", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} coordinates")
    if not np.isfinite(center).all():
        raise ValueError(f"center must be finite, got {center}")
    # the bump's box: one node more per side than the nodes within `radius`
    # of the centre along each (ascending) axis
    ends = [np.searchsorted(x.ravel(), (ck - radius, ck + radius))
            for x, ck in zip(grid.axes, center)]
    box = tuple(slice(max(int(lo) - 1, 0), min(int(hi) + 1, x.size))
                for x, (lo, hi) in zip(grid.axes, ends))
    sub = grid.window(box)
    dist = np.sqrt(reduce(np.add, ((x - ck) ** 2 for x, ck in zip(sub.axes, center))))
    inside = dist < radius
    if np.any(inside & ~sub.fluid):
        raise ValueError("bump support touches a Dirichlet node "
                         "(obstacle or truncation boundary)")
    if R is not None:
        reach = float(np.linalg.norm(center)) + radius
        if not reach <= R + 1e-12:     # a NaN R fails too
            raise ValueError(f"bump support B({center}, {radius}) leaves the "
                             f"declared ball B_R, R = {R} (reach {reach:.4g})")
    z = np.where(inside, dist / radius, 1.0)
    bump = amplitude * np.where(inside, (1.0 - z * z) ** 3, 0.0)
    u = np.zeros(bump.shape) if mode == "bump_v" else bump
    v = (np.zeros(bump.shape) if mode == "bump_u"
         else bump.copy() if mode == "both" else bump)
    return WaveState(u, v, 0.0, box)    # "both" copies: u and v must not alias


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
    phase = oscillation * (grid.radius - grid.obstacle_radius)
    return WaveState(grid.clamp_dirichlet(envelope * np.sin(phase)),
                     grid.clamp_dirichlet(envelope * np.cos(phase)), 0.0)
