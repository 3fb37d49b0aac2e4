"""Energies, auxiliary functionals, and cumulative weighted integrals.

Everything the decay estimates reference is computed here by grid quadrature:
the plain energy, the weighted energy E_phi, the four-term auxiliary
functional X(t) of the active regime, the initial-data functionals I, and the
per-theorem "bundle" of weighted integrals whose boundedness over infinite
time is the desk-scale falsifiable content of the estimates.

Space integrals are midpoint quadrature (node value times h^d over fluid
nodes); time integrals accumulate by the trapezoid rule over the uniform
sampling stride.  A compact weight depends on t alone, so in every
functional (E_phi, X, the bundle, the observability members) it scales a
density's integral, one number times one sum that the functionals share;
the other weights multiply the density node by node at q + t.  Bundle
members are kept in a named registry; cumulative members store their
running integral, instantaneous members are evaluated fresh at each sample.
A sample is one row, a dict keyed by the CSV columns in CSV order;
`series_table` turns a run's rows into the series table {column: array},
which the checks read and `write_series_csv` writes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .grids import CutoffPsi, DampingProfile, ExteriorGrid, _within
from .solver import WaveState, _support_box, laplacian
from .weights import (Regime, TheoremConstants, WeightFamily, WeightKind,
                      WeightOverflowError, eval_weight, exponent_table,
                      table_weight)

__all__ = [
    "Prop1Config", "TrackerConfig", "SampleTracker",
    "Prop1Report", "ObsReport", "HighEnergyReport", "energy", "grad_sq",
    "weighted_energy", "weighted_energy_log", "X_functional",
    "data_functionals", "series_table", "prop1_inequality_check",
    "observability_ratio", "high_energy_check", "write_series_csv",
    "read_series_csv",
]


def _diff_squares(u: np.ndarray) -> list[np.ndarray]:
    """Per axis, the squared edge differences of u."""
    return [np.square(d, out=d) for d in (np.diff(u, axis=k) for k in range(u.ndim))]


def grad_sq(grid: ExteriorGrid, u: np.ndarray, squares=None) -> np.ndarray:
    """|grad_h u|^2 per node: the two one-sided edge differences averaged.

    Every fluid node has in-array neighbors (Dirichlet zeros included), so
    inward one-sided differences double as the boundary formula; averaging
    their squares keeps the nodal density consistent with the edge-based
    Dirichlet form used by `energy` and the solver.  `squares` is
    `_diff_squares(u)`, if the caller holds it; it is only read.
    """
    squares = _diff_squares(u) if squares is None else squares
    out = np.zeros_like(u)
    inner = (slice(1, -1),) * u.ndim
    # per axis, the squared differences below and above a node, summed in order
    terms = [squares[k][inner[:k] + (side,) + inner[k + 1:]]
             for k in range(u.ndim) for side in (slice(None, -1), slice(1, None))]
    out[inner] = (0.5 * reduce(np.ndarray.__iadd__, terms[2:], terms[0] + terms[1])
                  / (grid.h * grid.h))
    return grid.clamp_dirichlet(out)


def _energy(grid: ExteriorGrid, v2: np.ndarray, squares) -> float:
    """`energy` from the fluid v^2 and u's squared edge differences."""
    return 0.5 * (grid.cell_volume * float(np.sum(v2))
                  + grid.h ** (grid.dim - 2) * sum(float(np.sum(d2)) for d2 in squares))


def energy(state: WaveState, grid: ExteriorGrid) -> float:
    """E_u(t) = (h^d/2) (sum over fluid of v^2) + 1/2 <K u, u>.

    The gradient part is the edge-midpoint Dirichlet form matching the
    discrete Laplacian, from u's squared edge differences: one-sided edge
    differences carry the boundary layer, interior edges the bulk quadrature.
    """
    return _energy(grid, np.where(grid.fluid, state.v * state.v, 0.0),
                   _diff_squares(state.u))


class _SampleContext:
    """One state's nodal densities (u's squared edge differences du2, the
    fluid v2 = v^2, e = |grad u|^2 + |u_t|^2, u2, ur1 = |u|^(r+1), and
    their products with a) and weight arguments, each built on first use
    and shared by every functional evaluated on that state; so are a log
    family's ln(b+s) and ln ln(b+s), keyed by its ln b.

    `sub` (by default the grid's window), `a` and `lap` are the grid, the
    damping and Lap_h(u) on the state's box, and `integrand`, if given,
    a |v|^(r+1) there, which serves as the density a_vel_r1.  All are cut to
    `box`: the box of the state's nonzeros plus the 2-node halo of `grad_sq`
    and `laplacian` (None: the whole grid), which must fit in the state's
    box.  Every density vanishes outside it."""

    def __init__(self, grid: ExteriorGrid, state: WaveState, a=None, r=None,
                 lap=None, sub: ExteriorGrid | None = None, integrand=None):
        window = state.box
        self.box = box = _support_box(state.u, state.v, 2, window,
                                      grid.shape) or window
        if window is not None and any(b.start < w.start or b.stop > w.stop
                                      for b, w in zip(box, window)):
            raise ValueError("the 2-node halo of the state's support leaves its window")
        cut = ... if box is None else box if window is None else _within(box, window)
        sub = grid.window(window) if sub is None else sub
        self.grid, self.state = sub.window(cut), WaveState(
            state.u[cut], state.v[cut], state.t, box)
        self.u, self.v, self.t = self.state.u, self.state.v, state.t
        self.a, self.r = None if a is None else a[cut], r
        self.lap = None if lap is None else lap[cut]
        self.vol = grid.cell_volume
        self._s, self._logs, self._totals = {}, {}, {}
        # densities handed in on the state's box, taken up on first read
        self._handed = {} if integrand is None else {"a_vel_r1": integrand[cut]}

    def s(self, mu: float, lam: float) -> np.ndarray:
        """The weight argument mu q(x) + lam t."""
        if (mu, lam) not in self._s:
            self._s[mu, lam] = mu * self.grid.q + lam * self.t
        return self._s[mu, lam]

    def weight(self, family: WeightFamily, entry: tuple, mu: float,
               lam: float):
        """`table_weight` of an exponent-table entry at s(mu, lam): one number
        for compact weights at mu = 0, where they depend on t alone."""
        if mu == 0.0 and _mu(family) == 0.0:
            return table_weight(family, entry, lam * self.t)
        s, key = self.s(mu, lam), (family.ln_b, mu, lam)
        if family.regime is Regime.LOG and key not in self._logs:
            self._logs[key] = family._logs(s)
        return table_weight(family, entry, s, self._logs.get(key))

    def total(self, name: str) -> float:
        """h^d times the sum of a density; "E" is the plain energy."""
        if name not in self._totals:
            self._totals[name] = self.vol * float(np.sum(getattr(self, name)))
        return self._totals[name]

    def integral(self, w, name: str) -> float:
        """h^d times the sum of w times a density: per node, or w times the
        density's total when w is one number (a compact weight)."""
        if np.ndim(w) == 0:
            return w * self.total(name)
        return self.vol * float(np.sum(w * getattr(self, name)))

    # nodal densities, each built on first use by __getattr__
    _DENSITIES = {
        "du2": lambda c: _diff_squares(c.u),
        "v2": lambda c: np.where(c.grid.fluid, c.v * c.v, 0.0),
        # E reads du2 first; e is its last reader and lets it go
        "e": lambda c: grad_sq(c.grid, c.u, vars(c).pop("du2", None)) + c.v2,
        "u2": lambda c: c.u**2,
        "ur1": lambda c: np.abs(c.u) ** (c.r + 1.0),
        "a_u2": lambda c: c.a * c.u2,
        "a_ur1": lambda c: c.a * c.ur1,
        "a_vel_r1": lambda c: c.a * np.abs(c.v) ** (c.r + 1.0),
    }

    def release(self, keep):
        """Frees every density not in `keep`; a later read builds it anew.  No
        output shows it, but as a no-op it lets X's u2, ur1, a_u2 and a_ur1 live
        on: a full t3-compact-2d run's tracemalloc peak goes 38.5 -> 46.3 MB."""
        for name in self._DENSITIES.keys() - keep:
            vars(self).pop(name, None)

    def __getattr__(self, name):
        if name not in self._DENSITIES:
            raise AttributeError(name)
        # a handed density is made contiguous, so that it sums as a built one
        value = self.__dict__[name] = (np.ascontiguousarray(self._handed[name])
                                       if name in self._handed
                                       else self._DENSITIES[name](self))
        return value


def _mu(family: WeightFamily) -> float:
    """q-coefficient of the regime's weight argument: compact weights depend
    on t alone, the others on q(x) + t."""
    return 0.0 if family.regime is Regime.COMPACT_POLY else 1.0


def weighted_energy(state: WaveState, grid: ExteriorGrid,
                    family: WeightFamily, mu: float, lam: float) -> float:
    """E_phi(t) = (h^d/2) sum phi(mu q + lam t) (|grad u|^2 + v^2).

    Raises WeightOverflowError carrying ln E_phi when phi leaves the double
    range; use `weighted_energy_log` directly for such regimes.
    """
    if mu < 0.0 or lam < 0.0:
        raise ValueError("mu and lambda must be nonnegative")
    return _weighted_energy(_SampleContext(grid, state), family, mu, lam)


def _weighted_energy(c: _SampleContext, family, mu, lam) -> float:
    try:
        w = c.weight(family, exponent_table(family)[WeightKind.PHI], mu, lam)
    except WeightOverflowError as exc:
        raise WeightOverflowError(
            "phi exceeds the double range; ln E_phi supplied",
            weighted_energy_log(c.state, c.grid, family, mu, lam)) from exc
    return 0.5 * c.integral(w, "e")


def weighted_energy_log(state: WaveState, grid: ExteriorGrid,
                        family: WeightFamily, mu: float, lam: float) -> float:
    """ln E_phi computed fully in log space (stable for extreme weights)."""
    c = _SampleContext(grid, state)
    A, M, _ = exponent_table(family)[WeightKind.PHI]
    dens = c.e
    # one node stands for all when ln(b+s) is the same everywhere
    ln_w = np.broadcast_to(family.log_weight(A, M, c.s(mu, lam)), dens.shape)
    pos = dens > 0.0
    if not pos.any():
        return -math.inf
    terms = ln_w[pos] + np.log(dens[pos])
    m = float(np.max(terms))
    return (m + math.log(float(np.sum(np.exp(terms - m))))
            + math.log(0.5 * c.vol))


_REGIME_FOR = {"T1": Regime.LOG, "T2": Regime.POLY, "T3": Regime.COMPACT_POLY}


def X_functional(state: WaveState, grid: ExteriorGrid, psi: CutoffPsi,
                 damping: DampingProfile, constants: TheoremConstants,
                 family: WeightFamily) -> float:
    """The active regime's four-term auxiliary functional.

    With v = (1-psi) u, e = |grad u|^2 + |u_t|^2 and the regime's weights at
    s = q + t (T1, T2) or s = t (T3):

      int f(s) v v_t + (k1/2) int f1(s) a u^2 + k2 int a f2(s) |u|^(r+1)
      + (k/2) int phi(s) e

    with T1's log weights (k2 = 1) and the (1+s) or (R+s) powers
    f = base^b, f1 = base^(b-1), f2 = base^(b-r+1), phi = base^(b+1) of T2
    and T3.
    """
    return _x_value(_SampleContext(grid, state, damping.window(state.box),
                                   constants.r), psi, constants, family)


def _x_value(c: _SampleContext, psi, constants, family) -> float:
    if family.regime is not _REGIME_FOR[constants.theorem]:
        raise ValueError(f"{constants.theorem} constants require a "
                         f"{_REGIME_FOR[constants.theorem].value} family, "
                         f"got {family.regime.value}")
    if family.r is not None and abs(family.r - constants.r) > 1e-12:
        raise ValueError("family r disagrees with the constant pack")
    table = exponent_table(family, r=constants.r)
    mu = _mu(family)

    def w(kind):
        return c.weight(family, table[kind], mu, 1.0)

    one_m_psi = 1.0 - psi.window(c.box)
    vv, vvt = one_m_psi * c.u, one_m_psi * c.v
    del one_m_psi
    k, k1, k2 = constants.k, constants.k1, constants.k2
    if mu == 0.0:       # compact weights: one number each, scaling a total
        return (w(WeightKind.F) * c.vol * float(np.sum(vv * vvt))
                + 0.5 * k1 * c.integral(w(WeightKind.F1), "a_u2")
                + k2 * c.integral(w(WeightKind.F2), "a_ur1")
                + 0.5 * k * c.integral(w(WeightKind.PHI), "e"))
    return c.vol * (float(np.sum(w(WeightKind.F) * vv * vvt))
                    + 0.5 * k1 * float(np.sum(w(WeightKind.F1) * c.a * c.u2))
                    + k2 * float(np.sum(c.a * w(WeightKind.F2) * c.ur1))
                    + 0.5 * k * float(np.sum(w(WeightKind.PHI) * c.e)))


# ---------------------------------------------------------------------------
# initial-data functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataFunctionals:
    theorem: str
    value: float
    components: dict

    @property
    def core(self) -> float:
        """The H^2 x H^1 block that scales the high-energy bound."""
        return (self.components["u0_H2_sq"] + self.components["u1_H1_sq"]
                + self.components["u1_H1_2r"])


def data_functionals(initial: WaveState, grid: ExteriorGrid,
                     family: WeightFamily | None,
                     constants: TheoremConstants) -> DataFunctionals:
    """Assemble I_0 / I_1 / I_2 with discrete norms.

    H^2 uses the grid Laplacian as the second-order block; weighted members
    use the family's phi-role at s = q(x).  All components are nonnegative
    and the trailing +1 makes I >= 1.  Sums run on the box of the data's
    nonzeros plus the 2-node halo of `grad_sq` and `laplacian`, as in
    `_SampleContext`; weighted data fill the grid and keep the whole of it.
    `initial` may hold a box of the grid (`WaveState.box`).
    """
    box = _support_box(initial.u, initial.v, 2, initial.box, grid.shape)
    initial, grid = initial.on(box, grid.shape), grid.window(box)
    vol = grid.cell_volume
    r, p = constants.r, constants.p
    u0, u1 = initial.u, initial.v
    g0 = grad_sq(grid, u0)
    lap0 = laplacian(grid, u0)
    comp = {
        "u0_H2_sq": vol * float(np.sum(u0**2 + g0 + lap0**2)),
        "u1_H1_sq": vol * float(np.sum(u1**2 + grad_sq(grid, u1))),
        "u0_Lr1": vol * float(np.sum(np.abs(u0) ** (r + 1.0))),
    }
    comp["u1_H1_2r"] = comp["u1_H1_sq"] ** r
    if constants.theorem in ("T1", "T2"):
        if family is None:
            raise ValueError(f"{constants.theorem} data functionals need the "
                             "weight family")
        s = grid.q
        w = eval_weight(family, WeightKind.PHI, s)
        comp["weighted_grad_u0"] = vol * float(np.sum(w * g0))
        comp["weighted_u1"] = vol * float(np.sum(np.where(grid.fluid, w * u1**2, 0.0)))
        for name in ("weighted_grad_u0", "weighted_u1"):
            if not math.isfinite(comp[name]):
                raise ValueError(f"non-finite weighted data norm {name}")
    core = comp["u0_H2_sq"] + comp["u1_H1_sq"] + comp["u1_H1_2r"]
    comp["core_p_half"] = core ** (p / 2.0)
    value = sum(comp.values()) + 1.0
    return DataFunctionals(theorem=constants.theorem, value=value,
                           components=comp)


# ---------------------------------------------------------------------------
# the tracker and its rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prop1Config:
    family: WeightFamily
    mu: float = 1.0
    lam: float = 1.0


@dataclass
class TrackerConfig:
    grid: ExteriorGrid
    damping: DampingProfile
    psi: CutoffPsi | None
    r: float
    family: WeightFamily | None = None          # drives X and E_phi
    constants: TheoremConstants | None = None
    bundle_sets: list = field(default_factory=list)  # (prefix, family) pairs
    prop1: Prop1Config | None = None
    obs_R0: float | None = None     # observability ball radius; None: off


# Registry groups are (member names, fn, densities): fn(ctx) returns one
# value per name, so the members of a group share their weights, and reads
# the named `_SampleContext` densities.  Names ending in "_cum" are
# cumulative.

# bundle members in registry order, each with the density it integrates
# ("E": the plain energy, carried by the compact tail member)
_BUNDLE = (("energy_weighted_inst", "e"), ("energy_tail_cum", "E"),
           ("energy_f_cum", "e"), ("disp_weighted_cum", "a_vel_r1"),
           ("au2_inst", "a_u2"), ("au2_cum", "a_u2"),
           ("aur_inst", "a_ur1"), ("aur_cum", "a_ur1"))


def _theorem_members(prefix: str, family: WeightFamily,
                     constants: TheoremConstants) -> tuple:
    """The 'moreover' bundle of the regime, as one registry group.

    Members whose display is instantaneous are tracked both instantaneously
    and (for the neighbouring time-integrated display) cumulatively, matching
    the alternation of the displays.  Compact weights depend on t alone and
    scale the density's integral; the others weight it per node at q + t.
    """
    table = exponent_table(family, constants.gamma, constants.r)
    specs = [(table[name], dens) for name, dens in _BUNDLE if name in table]
    names = [f"{prefix}.{name}" for name, _ in _BUNDLE if name in table]
    mu = _mu(family)

    def fn(c):
        return [c.integral(c.weight(family, entry, mu, 1.0), dens)
                for entry, dens in specs]

    return names, fn, {dens for _, dens in specs} - {"E"}


def _prop1_members(cfg: TrackerConfig) -> tuple:
    """Window-inequality ingredients, tied to the prop1 family's own E_phi."""
    p = cfg.prop1
    fam = p.family
    table = exponent_table(fam)

    def fn(c):
        phi = c.weight(fam, table[WeightKind.PHI], p.mu, p.lam)
        # phi' of the phi-role: d/ds of the family's phi
        phip = np.abs((fam.beta + 1.0) * c.weight(fam, table[WeightKind.F],
                                                  p.mu, p.lam))
        return (0.5 * c.vol * float(np.sum(phi * c.e)),
                c.vol * float(np.sum(phi * c.a_vel_r1)),
                c.vol * float(np.sum(phip * c.e)))

    return ["prop1.E_phi", "prop1.disp_cum", "prop1.absphip_cum"], fn, {"e", "a_vel_r1"}


def _obs_members(cfg: TrackerConfig) -> tuple:
    fam = cfg.family
    table = exponent_table(fam)
    mu = _mu(fam)

    def fn(c):
        f, f_u2 = (c.weight(fam, table[kind], mu, 1.0)
                   for kind in (WeightKind.F, "obs_u2"))
        a_vel_obs = c.a * c.v2 + c.a * np.abs(c.v) ** (2.0 * c.r)
        inside = c.grid.fluid & (c.grid.radius <= cfg.obs_R0)
        if mu == 0.0:       # compact weights: one number each, scaling a total
            return (f * c.vol * float(np.sum(c.e[inside])),
                    f * c.vol * float(np.sum(a_vel_obs)), c.integral(f_u2, "a_u2"))
        return (c.vol * float(np.sum((f * c.e)[inside])),
                c.vol * float(np.sum(f * a_vel_obs)),
                c.vol * float(np.sum(f_u2 * c.a * c.u2)))

    # a compact a_u2 is read by its total, which X has taken
    reads = {"e", "v2"} if mu == 0.0 else {"e", "v2", "u2"}
    return ["obs.lhs_cum", "obs.rhs_disp_cum", "obs.rhs_u2_cum"], fn, reads


class SampleTracker:
    """Builds the rows of the series along a run: one dict per sample, keyed
    by the CSV columns in CSV order (t, E, E_phi, X, D_cum, D_weighted_cum,
    the registry members, diag.E_solver, diag.identity_defect, high_energy).

    Cumulative bundle members accumulate by the trapezoid rule over the
    uniform sampling stride; the stride is fixed by the first two samples and
    enforced afterwards.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.groups = []
        for prefix, fam in cfg.bundle_sets:
            if cfg.constants is None:
                raise ValueError("bundle sets need a constant pack")
            self.groups.append(_theorem_members(prefix, fam, cfg.constants))
        self._disp_key = (f"{cfg.bundle_sets[0][0]}.disp_weighted_cum"
                          if cfg.bundle_sets else None)
        if cfg.prop1 is not None:
            self.groups.append(_prop1_members(cfg))
        if cfg.obs_R0 is not None and cfg.family is not None:
            self.groups.append(_obs_members(cfg))
        self.groups.append((["diag.trunc_band_energy"], lambda c: [
            0.5 * c.vol * float(np.sum(c.e[c.grid.boundary_band(4.0 * c.grid.h)]))],
            {"e"}))
        # after each group, the densities a later group reads
        self._later = [set().union(*(reads for *_, reads in self.groups[i + 1:]))
                       for i in range(len(self.groups))]
        self._prev_t = None
        self._stride = None
        self._prev_integrand = {}
        self._cum = {n: 0.0 for names, *_ in self.groups for n in names
                     if n.endswith("_cum")}
        self._E_solver_0 = None

    def sample(self, state: WaveState, D_cum: float, E_solver: float,
               grid: ExteriorGrid | None = None, a=None, lap=None,
               integrand=None) -> dict[str, float]:
        """The row of `state` (zero off `state.box`).  `grid`, `a` and `lap` are
        the grid, the damping and Lap_h(state.u) on that box, as `run` holds
        them, else built; the sample box slices them.  `integrand` is
        a |v|^(r+1) on that box, at the tracker's r, as the step that made
        `state` left it, else built.  A non-finite column is an error."""
        cfg = self.cfg
        a = cfg.damping.window(state.box) if a is None else a
        ctx = _SampleContext(cfg.grid, state, a, cfg.r, lap, grid, integrand)
        E_plain = ctx._totals["E"] = _energy(ctx.grid, ctx.v2, ctx.du2)
        # E_phi and X first, while few per-sample arrays are live
        if cfg.family is None:
            E_phi, X = E_plain, 0.0
        else:
            E_phi = _weighted_energy(ctx, cfg.family, _mu(cfg.family), 1.0)
            X = _x_value(ctx, cfg.psi, cfg.constants, cfg.family)

        if self._prev_t is not None:
            dt_s = state.t - self._prev_t
            if self._stride is None:
                self._stride = dt_s
            elif abs(dt_s - self._stride) > 1e-9 * max(1.0, abs(self._stride)):
                raise ValueError(
                    f"sample stride changed from {self._stride} to {dt_s}; "
                    "cumulative members need a uniform stride")

        # D_weighted_cum holds its column's place until its member is summed
        row = {"t": state.t, "E": E_plain, "E_phi": E_phi, "X": X,
               "D_cum": D_cum, "D_weighted_cum": 0.0}
        for (names, fn, _), later in zip(self.groups, self._later):
            for name, val in zip(names, fn(ctx)):
                if name in self._cum:
                    if self._prev_t is not None:
                        self._cum[name] += 0.5 * dt_s * (
                            self._prev_integrand[name] + val)
                    self._prev_integrand[name] = val
                    val = self._cum[name]
                row[name] = val
            ctx.release(later)
        self._prev_t = state.t
        row["D_weighted_cum"] = row.get(self._disp_key, 0.0)

        if self._E_solver_0 is None:
            self._E_solver_0 = E_solver
        defect = abs(E_solver + D_cum - self._E_solver_0)
        if self._E_solver_0 > 0.0:
            defect /= self._E_solver_0
        row["diag.E_solver"] = E_solver
        row["diag.identity_defect"] = defect

        cut = ctx.grid, ctx.state, ctx.a, ctx.lap
        del ctx     # frees the per-sample densities before u_tt
        row["high_energy"] = self._high_energy(*cut)
        for name, val in row.items():
            if not math.isfinite(val):
                raise FloatingPointError(
                    f"sampled column {name} is {val} at t = {state.t:.6g}")
        return row

    def _high_energy(self, grid: ExteriorGrid, state: WaveState, a, lap) -> float:
        """||grad v||^2 + ||u_tt||^2 with u_tt rebuilt from the equation.  The
        run's Lap_h(u) cut to the sample box is Lap_h of the cut u: both are
        zero on its border, 2 nodes off the support or Dirichlet."""
        lap = laplacian(grid, state.u) if lap is None else lap
        utt = lap - a * np.abs(state.v) ** (self.cfg.r - 1.0) * state.v
        grid.clamp_dirichlet(utt)
        return grid.cell_volume * float(
            np.sum(grad_sq(grid, state.v))
            + np.sum(utt * utt))


# ---------------------------------------------------------------------------
# the series table and its checks
# ---------------------------------------------------------------------------

def series_table(rows: list[dict]) -> dict[str, np.ndarray]:
    """`run`'s rows as one table: {column: array over the samples}, in the
    rows' column order."""
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _window_len(ts: np.ndarray, window_T: float) -> int:
    """Samples per window of length window_T on the uniform series ts."""
    stride = ts[1] - ts[0] if len(ts) > 1 else 0.0
    wlen = int(round(window_T / stride)) if stride > 0 else 0
    if wlen < 1 or wlen >= len(ts):
        raise ValueError(f"window T = {window_T} does not fit the series")
    return wlen


@dataclass(frozen=True)
class Prop1Report:
    max_defect: float
    n_windows: int
    window_T: float
    degenerate: bool = False


def prop1_inequality_check(series: dict, window_T: float,
                           mu: float = 1.0, lam: float = 1.0) -> Prop1Report:
    """Max normalized defect of the weighted-energy window inequality.

    For every window [t, t+T] in the series table:

        defect = [E_phi(t+T) + int int a phi |u_t|^{r+1}]
                 - [E_phi(t) + (lam+mu)/2 int int |phi'| (|grad u|^2+|u_t|^2)]

    normalized by E_phi(0).  Nonpositive defects mean the inequality holds
    discretely; positive values are discretization error and must shrink
    under refinement.
    """
    if "prop1.disp_cum" not in series:
        raise ValueError("series carries no prop1 accumulators")
    E_phi, disp = series["prop1.E_phi"], series["prop1.disp_cum"]
    phip = series["prop1.absphip_cum"]
    wlen = _window_len(series["t"], window_T)
    scale = E_phi[0]
    if scale <= 0.0:
        return Prop1Report(0.0, 0, window_T, degenerate=True)
    # window i runs from sample i to sample j = i + wlen
    lhs = E_phi[wlen:] + (disp[wlen:] - disp[:-wlen])
    rhs = E_phi[:-wlen] + 0.5 * (lam + mu) * (phip[wlen:] - phip[:-wlen])
    defect = (lhs - rhs) / scale
    return Prop1Report(max_defect=float(defect.max()), n_windows=defect.size,
                       window_T=window_T)


@dataclass(frozen=True)
class ObsReport:
    ratios: tuple
    degenerate: bool
    spread: float


# window starts of `observability_ratio`, spread evenly over the series
_OBS_STARTS = 10


def observability_ratio(series: dict, window_T: float) -> ObsReport:
    """Windowed LHS/RHS ratios of the localized-energy observability display.

    Diagnostic only: the controlling constant is nonconstructive, so the
    assertable content is finiteness and cross-window stability of the ratio.
    Zero-dissipation windows are flagged degenerate (ratio inf).
    """
    if "obs.lhs_cum" not in series:
        raise ValueError("series carries no observability accumulators")
    ts, lhs = series["t"], series["obs.lhs_cum"]
    rhs = series["obs.rhs_disp_cum"] + series["obs.rhs_u2_cum"]
    wlen = _window_len(ts, window_T)
    starts = np.unique(np.linspace(0, len(ts) - wlen - 1, _OBS_STARTS, dtype=int))
    ratios = []
    degenerate = False
    for i in starts:
        j = i + wlen
        dl, dr = lhs[j] - lhs[i], rhs[j] - rhs[i]
        if dr <= 1e-300:
            degenerate = True
            ratios.append(math.inf)
        else:
            ratios.append(dl / dr)
    finite = [x for x in ratios if math.isfinite(x)]
    spread = (max(finite) / min(finite)) if finite and min(finite) > 0 else math.inf
    return ObsReport(ratios=tuple(ratios), degenerate=degenerate, spread=spread)


@dataclass(frozen=True)
class HighEnergyReport:
    bound: float
    worst_value: float
    worst_t: float

    def holds(self, slack: float = 1.0) -> bool:
        return self.worst_value <= slack * self.bound


def high_energy_check(series: dict, data: DataFunctionals,
                      a_inf: float) -> HighEnergyReport:
    """Compare sup_t of the high-energy surrogate with its a-priori bound,
    taken at its first maximum (-inf at t = 0 on an empty series).

    bound = 2 (1 + ||a||_inf) (||u0||_H2^2 + ||u1||_H1^2 + ||u1||_H1^2r).
    """
    bound = 2.0 * (1.0 + a_inf) * data.core
    values = series["high_energy"]
    if values.size == 0:
        return HighEnergyReport(bound=bound, worst_value=-math.inf, worst_t=0.0)
    i = np.argmax(values)
    return HighEnergyReport(bound=bound, worst_value=float(values[i]),
                            worst_t=float(series["t"][i]))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_series_csv(dest, series: dict):
    """The series table as CSV: a header of its columns, then one line per
    sample.

    `dest` may be a path or an open text stream; floats carry 17 significant
    digits so reruns reproduce fits bit-identically.
    """
    lines = [",".join(series)]
    lines += (",".join(f"{x:.17g}" for x in row.tolist())
              for row in np.column_stack(list(series.values())))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as f:
            f.write(text)


def read_series_csv(path) -> dict[str, np.ndarray]:
    """The series table a `write_series_csv` file holds; a file with no
    data line under its header raises ValueError."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        first = f.readline()
        if not first.strip():
            raise ValueError(f"{path} has no data line under its header")
        data = np.loadtxt(itertools.chain([first], f), delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}
