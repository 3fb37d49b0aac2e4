"""Energies, auxiliary functionals, and cumulative weighted integrals.

Everything the decay estimates reference is computed here by grid quadrature:
the plain energy, the weighted energy E_phi, the four-term auxiliary
functional X(t) of the active regime, the initial-data functionals I, and the
per-theorem "bundle" of weighted integrals whose boundedness over infinite
time is the desk-scale falsifiable content of the estimates.

Space integrals are midpoint quadrature (node value times h^d over fluid
nodes); time integrals accumulate by the trapezoid rule over the uniform
sampling stride.  Bundle members are kept in a named registry; cumulative
members store their running integral, instantaneous members are evaluated
fresh at each sample.  Registry names double as CSV column names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import CutoffPsi, DampingProfile, ExteriorGrid
from .solver import WaveState, _support_box, _within, edge_form, laplacian
from .weights import (Regime, TheoremConstants, WeightFamily, WeightKind,
                      WeightOverflowError, eval_weight, exponent_table,
                      table_weight)

__all__ = [
    "FunctionalSample", "DataFunctionals", "Prop1Config", "TrackerConfig",
    "SampleTracker", "Prop1Report", "ObsReport", "HighEnergyReport", "energy",
    "grad_sq", "weighted_energy", "weighted_energy_log", "X_functional",
    "data_functionals", "prop1_inequality_check", "observability_ratio",
    "high_energy_check", "write_series_csv", "read_series_csv",
]


def grad_sq(grid: ExteriorGrid, u: np.ndarray) -> np.ndarray:
    """|grad_h u|^2 per node: the two one-sided edge differences averaged.

    Every fluid node has in-array neighbors (Dirichlet zeros included), so
    inward one-sided differences double as the boundary formula; averaging
    their squares keeps the nodal density consistent with the edge-based
    Dirichlet form used by `energy` and the solver.
    """
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


def energy(state: WaveState, grid: ExteriorGrid) -> float:
    """E_u(t) = (h^d/2) (sum over fluid of v^2) + 1/2 <K u, u>.

    The gradient part is the edge-midpoint Dirichlet form matching the
    discrete Laplacian: one-sided edge differences carry the boundary layer,
    interior edges the second-order bulk quadrature.
    """
    kin = grid.cell_volume * float(
        np.sum(np.where(grid.fluid, state.v * state.v, 0.0)))
    return 0.5 * (kin + edge_form(grid, state.u, state.u))


class _SampleContext:
    """One state's nodal densities (e = |grad u|^2 + |u_t|^2, u2, ur1 =
    |u|^(r+1), and their products with a) and weight arguments, each built
    on first use and shared by every functional evaluated on that state;
    so are a log family's ln(b+s) and ln ln(b+s), keyed by its ln b.

    Grid, state and a are cut to `box`: the box of the state's nonzeros plus
    the 2-node halo of `grad_sq` and `laplacian` (Ellipsis for the whole grid).
    Every density vanishes outside it.  A state held on the index box `window`
    of the grid alone (zero elsewhere) is scanned there; the halo must fit."""

    def __init__(self, grid: ExteriorGrid, state: WaveState, a=None, r=None,
                 window=None):
        self.box = box = _support_box(state.u, state.v, 2, window,
                                      grid.shape) or window or ...
        if window is not None and any(b.start < w.start or b.stop > w.stop
                                      for b, w in zip(box, window)):
            raise ValueError("the 2-node halo of the state's support leaves its window")
        cut = box if window is None else _within(box, window)
        self.grid, self.state = grid.window(box), WaveState(
            state.u[cut], state.v[cut], state.t)
        self.u, self.v, self.t = self.state.u, self.state.v, state.t
        self.a, self.r = None if a is None else a[box], r
        self.vol = grid.cell_volume
        self._s, self._logs, self._totals = {}, {}, {}

    def s(self, mu: float, lam: float) -> np.ndarray:
        """The weight argument mu q(x) + lam t."""
        if (mu, lam) not in self._s:
            self._s[mu, lam] = mu * self.grid.q() + lam * self.t
        return self._s[mu, lam]

    def weight(self, family: WeightFamily, entry: tuple, mu: float,
               lam: float) -> np.ndarray:
        """`table_weight` of an exponent-table entry at s(mu, lam)."""
        s, key = self.s(mu, lam), (family.ln_b, mu, lam)
        if family.regime is Regime.LOG and key not in self._logs:
            self._logs[key] = family._logs(s)
        return table_weight(family, entry, s, self._logs.get(key))

    def total(self, name: str) -> float:
        """h^d times the sum of a density; "E" is the plain energy.  A
        density not built yet is summed without being kept."""
        if name not in self._totals:
            dens = self.__dict__.get(name)
            if dens is None:
                dens = self._DENSITIES[name](self)
            self._totals[name] = self.vol * float(np.sum(dens))
        return self._totals[name]

    # nodal densities, each built on first use by __getattr__
    _DENSITIES = {
        "e": lambda c: grad_sq(c.grid, c.u) + np.where(c.grid.fluid, c.v**2, 0.0),
        "u2": lambda c: c.u**2,
        "ur1": lambda c: np.abs(c.u) ** (c.r + 1.0),
        "a_u2": lambda c: c.a * c.u2,
        "a_ur1": lambda c: c.a * c.ur1,
        "a_vel_r1": lambda c: c.a * np.abs(c.v) ** (c.r + 1.0),
    }

    def __getattr__(self, name):
        if name not in self._DENSITIES:
            raise AttributeError(name)
        value = self.__dict__[name] = self._DENSITIES[name](self)
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
    return 0.5 * c.vol * float(np.sum(w * c.e))


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
    return _x_value(_SampleContext(grid, state, damping.values, constants.r),
                    psi, constants, family)


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

    one_m_psi = 1.0 - psi.values[c.box]
    vv, vvt = one_m_psi * c.u, one_m_psi * c.v
    del one_m_psi
    k, k1, k2 = constants.k, constants.k1, constants.k2
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
    """
    box = _support_box(initial.u, initial.v, 2) or ...
    grid = grid.window(box)
    vol = grid.cell_volume
    r, p = constants.r, constants.p
    u0, u1 = initial.u[box], initial.v[box]
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
        s = grid.q()
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
# per-sample record and the tracker
# ---------------------------------------------------------------------------

@dataclass
class FunctionalSample:
    t: float
    E: float
    E_phi: float
    X: float
    D_cum: float
    D_weighted_cum: float
    bundle: dict
    high_energy: float


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


# Registry groups are (member names, fn): fn(ctx) returns one value per
# name, so the members of a group share their weights.  Names ending in
# "_cum" are cumulative.

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
    if family.regime is Regime.COMPACT_POLY:
        def fn(c):
            return [table_weight(family, entry, c.t) * c.total(dens)
                    for entry, dens in specs]
    else:
        def fn(c):
            return [c.vol * float(np.sum(c.weight(family, entry, 1.0, 1.0)
                                         * getattr(c, dens)))
                    for entry, dens in specs]
    return names, fn


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

    return ["prop1.E_phi", "prop1.disp_cum", "prop1.absphip_cum"], fn


def _obs_members(cfg: TrackerConfig) -> tuple:
    fam = cfg.family
    table = exponent_table(fam)
    mu = _mu(fam)

    def fn(c):
        f = c.weight(fam, table[WeightKind.F], mu, 1.0)
        a_vel_obs = c.a * c.v**2 + c.a * np.abs(c.v) ** (2.0 * c.r)
        inside = c.grid.fluid & (c.grid.radius <= cfg.obs_R0)
        return (c.vol * float(np.sum((f * c.e)[inside])),
                c.vol * float(np.sum(f * a_vel_obs)),
                c.vol * float(np.sum(c.weight(fam, table["obs_u2"], mu, 1.0)
                                     * c.a * c.u2)))

    return ["obs.lhs_cum", "obs.rhs_disp_cum", "obs.rhs_u2_cum"], fn


class SampleTracker:
    """Builds the FunctionalSample series along a run.

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
            0.5 * c.vol * float(np.sum(c.e[c.grid.boundary_band(4.0 * c.grid.h)]))]))
        self._names = [n for names, _ in self.groups for n in names]
        self._prev_t = None
        self._stride = None
        self._prev_integrand = {}
        self._cum = {n: 0.0 for n in self._names if n.endswith("_cum")}
        self._E_solver_0 = None

    @property
    def bundle_names(self) -> list[str]:
        return self._names + ["diag.E_solver", "diag.identity_defect"]

    def sample(self, state: WaveState, D_cum: float, E_solver: float,
               box=None) -> FunctionalSample:
        """Sample of `state`, held on the index box `box` of the grid (None: the
        whole grid) and zero elsewhere; a non-finite column is an error."""
        cfg = self.cfg
        ctx = _SampleContext(cfg.grid, state, cfg.damping.values, cfg.r, box)
        E_plain = ctx._totals["E"] = energy(ctx.state, ctx.grid)
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

        bundle = {}
        for names, fn in self.groups:
            for name, val in zip(names, fn(ctx)):
                if name in self._cum:
                    if self._prev_t is not None:
                        self._cum[name] += 0.5 * dt_s * (
                            self._prev_integrand[name] + val)
                    self._prev_integrand[name] = val
                    val = self._cum[name]
                bundle[name] = val
        self._prev_t = state.t

        if self._E_solver_0 is None:
            self._E_solver_0 = E_solver
        defect = abs(E_solver + D_cum - self._E_solver_0)
        if self._E_solver_0 > 0.0:
            defect /= self._E_solver_0
        bundle["diag.E_solver"] = E_solver
        bundle["diag.identity_defect"] = defect

        cut = ctx.grid, ctx.state, ctx.a
        del ctx     # frees the per-sample densities before u_tt

        D_weighted = bundle.get(self._disp_key, 0.0) if self._disp_key else 0.0

        out = FunctionalSample(
            t=state.t, E=E_plain, E_phi=E_phi, X=X, D_cum=D_cum,
            D_weighted_cum=D_weighted, bundle=bundle,
            high_energy=self._high_energy(*cut))
        row = {**vars(out), **bundle}
        for name in _FIXED_COLUMNS + self.bundle_names + ["high_energy"]:
            if not math.isfinite(row[name]):
                raise FloatingPointError(
                    f"sampled column {name} is {row[name]} at t = {state.t:.6g}")
        return out

    def _high_energy(self, grid: ExteriorGrid, state: WaveState, a) -> float:
        """||grad v||^2 + ||u_tt||^2 with u_tt rebuilt from the equation."""
        utt = laplacian(grid, state.u) - a * np.abs(
            state.v) ** (self.cfg.r - 1.0) * state.v
        grid.clamp_dirichlet(utt)
        return grid.cell_volume * float(
            np.sum(grad_sq(grid, state.v))
            + np.sum(utt * utt))


# ---------------------------------------------------------------------------
# series-level checks
# ---------------------------------------------------------------------------

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


def prop1_inequality_check(series: list, window_T: float,
                           mu: float = 1.0, lam: float = 1.0) -> Prop1Report:
    """Max normalized defect of the weighted-energy window inequality.

    For every window [t, t+T] in the series:

        defect = [E_phi(t+T) + int int a phi |u_t|^{r+1}]
                 - [E_phi(t) + (lam+mu)/2 int int |phi'| (|grad u|^2+|u_t|^2)]

    normalized by E_phi(0).  Nonpositive defects mean the inequality holds
    discretely; positive values are discretization error and must shrink
    under refinement.
    """
    if not series or "prop1.disp_cum" not in series[0].bundle:
        raise ValueError("series carries no prop1 accumulators")
    ts = np.array([s.t for s in series])
    E_phi = np.array([s.bundle["prop1.E_phi"] for s in series])
    disp = np.array([s.bundle["prop1.disp_cum"] for s in series])
    phip = np.array([s.bundle["prop1.absphip_cum"] for s in series])
    wlen = _window_len(ts, window_T)
    scale = E_phi[0]
    if scale <= 0.0:
        return Prop1Report(0.0, 0, window_T, degenerate=True)
    worst = -math.inf
    n = 0
    for i in range(len(ts) - wlen):
        j = i + wlen
        lhs = E_phi[j] + (disp[j] - disp[i])
        rhs = E_phi[i] + 0.5 * (lam + mu) * (phip[j] - phip[i])
        worst = max(worst, (lhs - rhs) / scale)
        n += 1
    return Prop1Report(max_defect=worst, n_windows=n, window_T=window_T)


@dataclass(frozen=True)
class ObsReport:
    ratios: tuple
    degenerate: bool
    spread: float


# window starts of `observability_ratio`, spread evenly over the series
_OBS_STARTS = 10


def observability_ratio(series: list, window_T: float) -> ObsReport:
    """Windowed LHS/RHS ratios of the localized-energy observability display.

    Diagnostic only: the controlling constant is nonconstructive, so the
    assertable content is finiteness and cross-window stability of the ratio.
    Zero-dissipation windows are flagged degenerate (ratio inf).
    """
    if not series or "obs.lhs_cum" not in series[0].bundle:
        raise ValueError("series carries no observability accumulators")
    ts = np.array([s.t for s in series])
    lhs = np.array([s.bundle["obs.lhs_cum"] for s in series])
    rhs = np.array([s.bundle["obs.rhs_disp_cum"] for s in series]) + \
        np.array([s.bundle["obs.rhs_u2_cum"] for s in series])
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


def high_energy_check(series: list, data: DataFunctionals,
                      a_inf: float) -> HighEnergyReport:
    """Compare sup_t of the high-energy surrogate with its a-priori bound.

    bound = 2 (1 + ||a||_inf) (||u0||_H2^2 + ||u1||_H1^2 + ||u1||_H1^2r).
    """
    bound = 2.0 * (1.0 + a_inf) * data.core
    worst_value, worst_t = -math.inf, 0.0
    for s in series:
        if s.high_energy > worst_value:
            worst_value, worst_t = s.high_energy, s.t
    return HighEnergyReport(bound=bound, worst_value=worst_value,
                            worst_t=worst_t)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_FIXED_COLUMNS = ["t", "E", "E_phi", "X", "D_cum", "D_weighted_cum"]


def write_series_csv(dest, series: list, bundle_names: list[str]):
    """Columns: t, E, E_phi, X, D_cum, D_weighted_cum, bundle..., high_energy.

    `dest` may be a path or an open text stream; floats carry 17 significant
    digits so reruns reproduce fits bit-identically.
    """
    lines = [",".join(_FIXED_COLUMNS + bundle_names + ["high_energy"])]
    for s in series:
        row = [s.t, s.E, s.E_phi, s.X, s.D_cum, s.D_weighted_cum]
        row += [s.bundle.get(n, 0.0) for n in bundle_names]
        row.append(s.high_energy)
        lines.append(",".join(f"{x:.17g}" for x in row))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as f:
            f.write(text)


def read_series_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, data
