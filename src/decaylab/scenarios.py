"""Scenario configuration, orchestration, and report persistence.

A scenario is a flat INI document (sections [scenario], [grid], [data],
[time], [weights], [prop1], [obs]) naming one of the decay regimes T1/T2/T3
or one of the non-PDE suites (identity_only, weight_suite).  Loading
validates every cross-field constraint up front: regime admissibility of
(r, gamma, delta0) with the violated bound named, cone-safe truncation for
compact data, resolvable geometry.

Running a scenario builds grid / damping / cutoff / constants / data, marches
the solver with a functional tracker attached, then runs the analyses and
persists `<name>.series.csv`, `<name>.report.json` and `<name>.fit-*.dat`
atomically (temp file + rename).  Reports are deterministic except for the
wall_clock_s field.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import numbers
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import decay, functionals, grids, solver, weights

__all__ = ["ScenarioConfig", "ScenarioReport", "ConfigError", "load_config",
           "run_scenario", "run_suite", "run_weight_suite"]

THEOREMS = ("T1", "T2", "T3", "identity_only", "weight_suite")


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "scenario": {"name", "theorem", "dim", "r", "delta0", "gamma", "epsilon0",
                 "l", "a_max", "damping_kind", "margin", "seed"},
    "grid": {"alpha", "x_max", "rho", "r_out", "h"},
    "data": {"kind", "center", "center_x", "center_y", "radius", "amplitude",
             "r_support", "sigma", "oscillation", "cone_enforce"},
    "time": {"t_max", "cfl", "sample_stride", "t_window", "t1_threshold"},
    "weights": {"use_practical_b", "practical_b"},
    "prop1": {"enabled", "gamma", "mu", "lam"},
    "obs": {"enabled", "r0"},
}


@dataclass
class ScenarioConfig:
    name: str
    theorem: str
    dim: int = 1
    r: float = 1.5
    delta0: float = 0.01
    gamma: float | None = None
    epsilon0: float = 0.5
    L: float = 1.0
    a_max: float = 1.0
    damping_kind: str = "exterior_smooth"
    margin: float = 0.8
    seed: int = 0
    # grid
    alpha: float = 0.0
    x_max: float | None = None
    rho: float | None = None
    r_out: float | None = None
    h: float = 0.05
    # data
    data_kind: str = "compact"
    center: tuple = (1.0,)
    radius: float = 0.5
    amplitude: float = 1.0
    R_support: float | None = None
    sigma: float = 10.0
    oscillation: float = 2.0
    cone_enforce: bool = True
    # time
    T_max: float = 20.0
    cfl: float = 0.9
    sample_stride: int = 10
    T_window: float | None = None
    T1_threshold: float | None = None
    # weights
    use_practical_b: bool = True
    practical_b: float = math.e
    # prop1 / obs diagnostics
    prop1_enabled: bool = True
    prop1_gamma: float = 1.0
    prop1_mu: float = 1.0
    prop1_lam: float = 1.0
    obs_enabled: bool = True
    obs_R0: float | None = None
    echo: dict = field(default_factory=dict)


_AUTO_KEYS = {("scenario", "gamma"), ("grid", "x_max"), ("grid", "r_out")}


def _get(cp, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key)
    if raw.strip().lower() == "auto":
        if (section, key) not in _AUTO_KEYS:
            raise ConfigError(f"[{section}] {key} does not support 'auto'")
        return "auto"
    try:
        if cast is bool:
            return cp.getboolean(section, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def load_config(source) -> ScenarioConfig:
    """Parse and validate a scenario document (path or literal text)."""
    text = source
    p = Path(str(source))
    if "\n" not in str(source) and p.is_file():
        text = p.read_text()
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    name = _get(cp, "scenario", "name", str, required=True)
    theorem = _get(cp, "scenario", "theorem", str, required=True)
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}; pick from {THEOREMS}")

    cfg = ScenarioConfig(name=name, theorem=theorem)
    cfg.dim = _get(cp, "scenario", "dim", int, 1)
    if cfg.dim not in (1, 2):
        raise ConfigError(f"[scenario] dim must be 1 or 2, got {cfg.dim}")
    cfg.r = _get(cp, "scenario", "r", float, 1.5)
    cfg.delta0 = _get(cp, "scenario", "delta0", float, 0.01)
    gamma = _get(cp, "scenario", "gamma", float, "auto")
    cfg.epsilon0 = _get(cp, "scenario", "epsilon0", float, 0.5)
    cfg.L = _get(cp, "scenario", "l", float, 1.0)
    cfg.a_max = _get(cp, "scenario", "a_max", float, 1.0)
    cfg.damping_kind = _get(cp, "scenario", "damping_kind", str, "exterior_smooth")
    cfg.margin = _get(cp, "scenario", "margin", float, 0.8)
    cfg.seed = _get(cp, "scenario", "seed", int, 0)

    cfg.alpha = _get(cp, "grid", "alpha", float, 0.0)
    cfg.x_max = _get(cp, "grid", "x_max", float, None)
    cfg.rho = _get(cp, "grid", "rho", float, None)
    cfg.r_out = _get(cp, "grid", "r_out", float, None)
    cfg.h = _get(cp, "grid", "h", float, 0.05)
    if not (cfg.h > 0.0 and math.isfinite(cfg.h)):
        raise ConfigError(f"[grid] h must be positive and finite, got {cfg.h}")

    cfg.data_kind = _get(cp, "data", "kind", str, "compact")
    if cfg.data_kind not in ("compact", "weighted"):
        raise ConfigError(f"unknown data kind {cfg.data_kind!r}")
    if cfg.dim == 1:
        cfg.center = (_get(cp, "data", "center", float, 1.0),)
    else:
        cfg.center = (_get(cp, "data", "center_x", float, 3.0),
                      _get(cp, "data", "center_y", float, 0.0))
    cfg.radius = _get(cp, "data", "radius", float, 0.5)
    cfg.amplitude = _get(cp, "data", "amplitude", float, 1.0)
    cfg.R_support = _get(cp, "data", "r_support", float, None)
    cfg.sigma = _get(cp, "data", "sigma", float, 10.0)
    cfg.oscillation = _get(cp, "data", "oscillation", float, 2.0)
    cfg.cone_enforce = _get(cp, "data", "cone_enforce", bool, True)
    if not (math.isfinite(cfg.amplitude) and cfg.amplitude != 0.0):
        raise ConfigError(f"[data] amplitude must be finite and nonzero, got {cfg.amplitude}")
    for key in ("sigma", "oscillation"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"[data] {key} must be finite, got {getattr(cfg, key)}")

    cfg.T_max = _get(cp, "time", "t_max", float, 20.0)
    cfg.cfl = _get(cp, "time", "cfl", float, 0.9)
    cfg.sample_stride = _get(cp, "time", "sample_stride", int, 10)
    cfg.T_window = _get(cp, "time", "t_window", float, None)
    cfg.T1_threshold = _get(cp, "time", "t1_threshold", float, None)
    if not (cfg.T_max > 0.0 and math.isfinite(cfg.T_max)):
        raise ConfigError(f"[time] t_max must be positive and finite, "
                          f"got {cfg.T_max}")
    if not 0.0 < cfg.cfl <= 1.0:
        raise ConfigError(f"[time] cfl must lie in (0, 1], got {cfg.cfl}")
    if cfg.sample_stride < 1:
        raise ConfigError(f"[time] sample_stride must be at least 1, "
                          f"got {cfg.sample_stride}")

    cfg.use_practical_b = _get(cp, "weights", "use_practical_b", bool, True)
    cfg.practical_b = _get(cp, "weights", "practical_b", float, math.e)

    cfg.prop1_enabled = _get(cp, "prop1", "enabled", bool, True)
    cfg.prop1_gamma = _get(cp, "prop1", "gamma", float, 1.0)
    cfg.prop1_mu = _get(cp, "prop1", "mu", float, 1.0)
    cfg.prop1_lam = _get(cp, "prop1", "lam", float, 1.0)
    cfg.obs_enabled = _get(cp, "obs", "enabled", bool, True)
    cfg.obs_R0 = _get(cp, "obs", "r0", float, None)

    _resolve_and_validate(cfg, gamma)
    cfg.echo = _echo(cfg)
    return cfg


def _gamma_auto(cfg: ScenarioConfig) -> float:
    """0.9 of the admissible supremum (T2/T3); 1.0 for T1 (unbounded range)."""
    if cfg.theorem == "T1":
        return 1.0
    probe = 1e-6
    consts = weights.compute_constants(cfg.theorem, cfg.r, cfg.dim,
                                       cfg.delta0, probe)
    return 0.9 * min(consts.gamma_bounds.values())


def _resolve_and_validate(cfg: ScenarioConfig, gamma):
    if cfg.theorem == "weight_suite":
        cfg.gamma = None if gamma in ("auto", None) else gamma
        return
    if cfg.theorem == "identity_only":
        cfg.gamma = None
    else:
        cfg.gamma = _gamma_auto(cfg) if gamma in ("auto", None) else gamma
        # raises AdmissibilityError naming the violated bound
        weights.compute_constants(cfg.theorem, cfg.r, cfg.dim, cfg.delta0,
                                  cfg.gamma)

    if cfg.T1_threshold is None:
        cfg.T1_threshold = cfg.T_max / 10.0
    if cfg.T_window is None:
        cfg.T_window = cfg.T_max / 4.0

    if cfg.data_kind == "compact":
        if cfg.R_support is None:
            raise ConfigError("compact data requires [data] r_support")
        reach = math.sqrt(sum(c * c for c in cfg.center)) + cfg.radius
        if reach > cfg.R_support + 1e-12:
            raise ConfigError(
                f"compact data support (reach {reach:.4g}) leaves B_R, "
                f"R = {cfg.R_support}")
        safe = cfg.R_support + cfg.T_max + 2.0 * cfg.L
        if cfg.dim == 1:
            if cfg.x_max in (None, "auto"):
                cfg.x_max = cfg.alpha + math.ceil(safe - cfg.alpha + 2.0)
            if cfg.x_max < safe:
                raise ConfigError(
                    f"truncation x_max = {cfg.x_max} is not cone-safe: need "
                    f">= R + T_max + 2L = {safe}")
        else:
            if cfg.r_out in (None, "auto"):
                cfg.r_out = math.ceil(safe + 2.0)
            if cfg.r_out < safe:
                raise ConfigError(
                    f"truncation r_out = {cfg.r_out} is not cone-safe: need "
                    f">= R + T_max + 2L = {safe}")
    else:
        if cfg.dim == 1 and cfg.x_max in (None, "auto"):
            raise ConfigError("weighted data requires an explicit x_max")
        if cfg.dim == 2 and cfg.r_out in (None, "auto"):
            raise ConfigError("weighted data requires an explicit r_out")

    if cfg.dim == 2 and cfg.rho is None:
        raise ConfigError("2D scenarios require [grid] rho")
    if cfg.obs_R0 is None:
        cfg.obs_R0 = 2.0 * cfg.L


def _echo(cfg: ScenarioConfig) -> dict:
    skip = {"echo"}
    out = {}
    for k, v in vars(cfg).items():
        if k in skip:
            continue
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    name: str
    payload: dict
    all_pass: bool
    failed: bool = False

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True)


def _atomic_write(path: Path, data: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(cfg: ScenarioConfig) -> int:
    """Grid cells per axis, as `_build` asks for them or the 2D grid rounds them."""
    if cfg.dim == 1:
        return int(round((cfg.x_max - cfg.alpha) / cfg.h))
    return grids._disk_cells(cfg.r_out, 1.0 / cfg.h)


def _grid_nodes(cfg: ScenarioConfig) -> int:
    """Array nodes of the scenario's grid, counted without building it.  The
    weight suite has none; nor does a grid that cannot be built, whose run
    reports why."""
    if cfg.theorem == "weight_suite":
        return 0
    try:
        return (_cells(cfg) + 1) ** cfg.dim
    except (TypeError, ValueError, ArithmeticError):
        return 0


def _build(cfg: ScenarioConfig):
    if cfg.dim == 1:
        grid = grids.build_grid_1d(cfg.alpha, cfg.x_max, _cells(cfg))
    else:
        grid = grids.build_grid_2d_disk(cfg.rho, cfg.r_out, 1.0 / cfg.h)
    damping = grids.build_damping(grid, cfg.damping_kind, cfg.epsilon0,
                                  cfg.L, cfg.a_max)
    psi = grids.build_psi(grid, cfg.L)
    return grid, damping, psi


def _families(cfg: ScenarioConfig):
    """Primary family for X/E_phi plus labeled bundle sets."""
    if cfg.theorem == "T1":
        honest = weights.WeightFamily.log_honest(cfg.r, cfg.gamma, cfg.delta0)
        practical = weights.WeightFamily.log_practical(
            cfg.gamma, cfg.practical_b, r=cfg.r)
        primary = practical if cfg.use_practical_b else honest
        return primary, [("thm1", honest), ("thm1p", practical)]
    if cfg.theorem == "T2":
        fam = weights.WeightFamily.poly(cfg.gamma, r=cfg.r)
        return fam, [("thm2", fam)]
    fam = weights.WeightFamily.compact(cfg.gamma, cfg.R_support, r=cfg.r)
    return fam, [("thm3", fam)]


def run_scenario(cfg: ScenarioConfig, out_dir=None,
                 margin: float | None = None,
                 practical_b: float | None = None) -> ScenarioReport:
    """Execute one scenario and persist series + report (+ plot data).

    `margin` and `practical_b` override the config's values for this run
    only: the run and its report's config echo use a copy, and the caller's
    config is left as it was.
    """
    t_wall = time.time()
    out = Path(out_dir or os.environ.get("DECAYLAB_OUT", "."))
    overrides = {"margin": margin, "practical_b": practical_b}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
        cfg.echo = _echo(cfg)
    try:
        report = _run_scenario_inner(cfg, out)
    except Exception as exc:
        payload = {
            "schema": 1, "name": cfg.name, "config": cfg.echo,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_clock_s": time.time() - t_wall,
        }
        _atomic_write(out / f"{cfg.name}.report.failed.json",
                      json.dumps(payload, indent=2, sort_keys=True))
        return ScenarioReport(cfg.name, payload, all_pass=False, failed=True)
    report.payload["wall_clock_s"] = time.time() - t_wall
    _atomic_write(out / f"{cfg.name}.report.json", report.to_json())
    return report


def _run_scenario_inner(cfg: ScenarioConfig, out: Path) -> ScenarioReport:
    if cfg.theorem == "weight_suite":
        return run_weight_suite(cfg)

    grid, damping, psi = _build(cfg)
    consts = None
    family = None
    bundle_sets = []
    if cfg.theorem != "identity_only":
        consts = weights.compute_constants(cfg.theorem, cfg.r, cfg.dim,
                                           cfg.delta0, cfg.gamma)
        family, bundle_sets = _families(cfg)

    if cfg.data_kind == "compact":
        initial = solver.make_initial_compact(
            grid, cfg.center, cfg.radius, cfg.amplitude, "bump_u",
            R=cfg.R_support)
        cone = solver.ConeSpec(R=cfg.R_support, enforce=cfg.cone_enforce)
    else:
        initial = solver.make_initial_weighted(
            grid, cfg.sigma, family, cfg.gamma if cfg.gamma else 0.0,
            amplitude=cfg.amplitude, oscillation=cfg.oscillation)
        cone = None

    params = solver.SolverParams.for_grid(grid, cfg.cfl, cfg.r, cfg.T_max)

    prop1 = None
    if cfg.prop1_enabled:
        prop1 = functionals.Prop1Config(
            family=weights.WeightFamily.poly(cfg.prop1_gamma),
            mu=cfg.prop1_mu, lam=cfg.prop1_lam)
    obs = None
    if cfg.obs_enabled and family is not None:
        obs = functionals.ObsConfig(R0=cfg.obs_R0)

    tracker = functionals.SampleTracker(functionals.TrackerConfig(
        grid=grid, damping=damping, psi=psi, r=cfg.r, family=family,
        constants=consts, bundle_sets=bundle_sets, prop1=prop1, obs=obs))

    res = solver.run(grid, damping, initial, params, tracker=tracker,
                     cone=cone, sample_stride=cfg.sample_stride)
    series = res.samples

    series_name = f"{cfg.name}.series.csv"
    buf = io.StringIO()
    functionals.write_series_csv(buf, series, tracker.bundle_names)
    _atomic_write(out / series_name, buf.getvalue())

    payload = {
        "schema": 1,
        "name": cfg.name,
        "config": cfg.echo,
        "series_csv": series_name,
        "grid": {
            "dim": grid.dim, "h": grid.h, "n_fluid": grid.n_fluid,
            "alpha": grid.alpha, "x_max": grid.x_max,
            "rho": grid.rho_obstacle, "r_out": grid.r_out,
        },
        "damping": {
            "kind": damping.kind, "epsilon0": damping.epsilon0,
            "L": damping.L, "a_inf": damping.a_inf,
        },
        "solver": {
            "dt": params.dt, "cfl": params.cfl, "n_steps": res.n_steps,
            "mono_violations": res.mono_violations,
            "mono_worst": res.mono_worst,
        },
    }

    ts = np.array([s.t for s in series])
    Es = np.array([s.E for s in series])
    E0_solver = float(res.E_steps[0])
    identity_final = abs(float(res.E_steps[-1]) + res.D_cum - E0_solver)
    if E0_solver > 0:
        identity_final /= E0_solver
    defects = {
        "identity_final": identity_final,
        "identity_max": max(s.bundle["diag.identity_defect"] for s in series),
    }

    if cfg.prop1_enabled and len(ts) > 2:
        window = min(cfg.T_window, (ts[-1] - ts[0]) / 2.0)
        rep = functionals.prop1_inequality_check(series, window,
                                                 cfg.prop1_mu, cfg.prop1_lam)
        defects["prop1"] = {"max_defect": rep.max_defect,
                            "n_windows": rep.n_windows,
                            "window_T": rep.window_T}

    fits = {}
    verdicts = {}
    if consts is not None:
        data_family = bundle_sets[0][1]  # the regime's own weights
        dataf = functionals.data_functionals(initial, grid, data_family, consts)
        payload["data_functionals"] = {
            "theorem": dataf.theorem, "value": dataf.value,
            "components": dataf.components,
        }
        he = functionals.high_energy_check(series, dataf, damping.a_inf)
        defects["high_energy"] = {
            "bound": he.bound, "worst_value": he.worst_value,
            "worst_t": he.worst_t, "holds_with_slack_1.1": he.holds(1.1),
        }

        model = decay.MODEL_FOR_THEOREM[cfg.theorem]
        fit_b_or_R = {"T1": cfg.practical_b, "T2": 1.0,
                      "T3": cfg.R_support}[cfg.theorem]
        do_fit = cfg.theorem != "T1" or cfg.use_practical_b
        if do_fit:
            fit = decay.fit_decay(ts, Es, model, fit_b_or_R,
                                  (cfg.T1_threshold, cfg.T_max))
            fd = fit.to_dict()
            if cfg.theorem == "T1":
                fd["illustrative_practical_b"] = True
            fits[model] = fd
            verdicts[model] = decay.theorem_verdict(
                fit, consts, cfg.margin).to_dict()
            _write_fit_dat(out, cfg.name, model, ts, Es, fit, fit_b_or_R)

        payload["constants"] = consts.to_dict()
        payload["bundle_boundedness"] = _bundle_boundedness(series, bundle_sets)

        if cfg.obs_enabled and len(ts) > 2:
            window = min(cfg.T_window, (ts[-1] - ts[0]) / 2.0)
            orep = functionals.observability_ratio(series, window)
            payload["observability"] = {
                "ratios": list(orep.ratios), "degenerate": orep.degenerate,
                "spread": orep.spread,
            }

    payload["defects"] = defects
    payload["fits"] = fits
    payload["verdicts"] = verdicts
    payload["truncation_contamination"] = decay.truncation_contamination(series)
    payload["cone"] = {
        "declared": cone is not None,
        "worst_overshoot": res.cone_worst_overshoot,
        "ok": res.cone_ok,
    }

    all_pass = all(v["passed"] for v in verdicts.values())
    payload["all_pass"] = all_pass
    return ScenarioReport(cfg.name, payload, all_pass=all_pass)


def _bundle_boundedness(series, bundle_sets) -> dict:
    """Final-decade increment of every cumulative theorem member vs its total.

    The desk-scale surrogate for finiteness of the infinite-time integrals:
    the increment over [T/10, T] must be a small fraction of the total.
    """
    ts = np.array([s.t for s in series])
    t_cut = ts[-1] / 10.0
    i_cut = int(np.searchsorted(ts, t_cut))
    out = {}
    prefixes = tuple(p for p, _ in bundle_sets)
    for name in series[-1].bundle:
        if not name.endswith("_cum") or not name.startswith(prefixes):
            continue
        total = series[-1].bundle[name]
        early = series[i_cut].bundle[name]
        frac = 0.0 if total == 0.0 else (total - early) / total
        out[name] = {"total": total, "final_decade_fraction": frac}
    return out


def _write_fit_dat(out: Path, name: str, model: str, ts, Es, fit, b_or_R):
    sel = (ts >= fit.window[0]) & (ts <= fit.window[1]) & (Es > 0)
    z = decay._abscissa(model, ts[sel], b_or_R)
    lines = [f"{a:.17g} {b:.17g}" for a, b in zip(z, np.log(Es[sel]))]
    _atomic_write(out / f"{name}.fit-{model}.dat", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the non-PDE weight suite
# ---------------------------------------------------------------------------

def run_weight_suite(cfg: ScenarioConfig, n_constant_pairs: int = 200,
                     n_weight_families: int = 20) -> ScenarioReport:
    """Constant identities plus the five weight inequalities, on random draws."""
    rng = np.random.default_rng(cfg.seed)
    worst_t2 = 0.0
    worst_t3 = 0.0
    for _ in range(n_constant_pairs):
        d = int(rng.integers(1, 3))
        r = 1.0 + rng.uniform(1e-3, 1.0) * (2.0 / d)
        d0 = rng.uniform(1e-4, 0.05)
        target = d0 * r / (r + 1.0)
        for half in (True, False):
            k, k2, _ = weights.k_quadratic(r, d0, half)
            lhs = k - r / (r + 1.0) - k2 * (8.0 / 3.0) ** r
            if half:
                worst_t2 = max(worst_t2, abs(lhs - target) / target)
            else:
                worst_t3 = max(worst_t3, target - lhs)

    s_grid = np.concatenate([[0.0], np.logspace(0.0, 9.0, 10_000)])
    min_margin = math.inf
    all_ok = True
    for _ in range(n_weight_families):
        beta = rng.uniform(-1.0 + 1e-6, 3.0)
        r = rng.uniform(1.0 + 1e-3, 3.0)
        d0 = rng.uniform(1e-3, 0.999)
        fam = weights.WeightFamily.log_honest(r, beta + 1.0, d0)
        rep = weights.verify_weight_inequalities(fam, r, s_grid)
        min_margin = min(min_margin, rep.min_margin)
        all_ok = all_ok and rep.all_passed

    payload = {
        "schema": 1, "name": cfg.name, "config": cfg.echo,
        "constant_identities": {
            "pairs": n_constant_pairs,
            "t2_worst_relative_residual": worst_t2,
            "t3_worst_slack_deficit": worst_t3,
            "t2_ok": worst_t2 <= 1e-9,
            "t3_ok": worst_t3 <= 1e-12,
        },
        "weight_inequalities": {
            "families": n_weight_families,
            "min_margin": min_margin,
            "all_passed": all_ok,
        },
    }
    all_pass = payload["constant_identities"]["t2_ok"] and \
        payload["constant_identities"]["t3_ok"] and all_ok
    payload["all_pass"] = all_pass
    return ScenarioReport(cfg.name, payload, all_pass=all_pass)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# Grids below this many array nodes run on the calling thread (see run_suite).
# Two copies of t3-compact-2d on 2 threads tie with serial at 103k nodes and
# beat it by 13% at 116k; 1D grids (at most 10k nodes) lose 30-60% to threads.
# Mixed, a pooled t3-compact-2d next to inline 1D scenarios still wins: the
# nine presets at full horizon take 8% less time at parallelism 2 than at 1.
_POOL_MIN_NODES = 110_000


def run_suite(configs: list[ScenarioConfig], parallelism: int = 1,
              out_dir=None, margin: float | None = None,
              practical_b: float | None = None) -> list[ScenarioReport]:
    """Run scenarios; results follow config order.

    Only scenarios whose grid has at least `_POOL_MIN_NODES` array nodes go to
    a pool of `parallelism` threads.  Every other scenario runs on the calling
    thread, in config order, while the pool works.  A small grid spends its
    time in short numpy calls that hold the GIL, so a second thread slows it
    down; a large grid spends it in long calls that release the GIL, so
    threads overlap.  With `parallelism` 1, or no large grid, no pool is made.

    Duplicate names are rejected before execution; one scenario's failure
    does not abort the others.
    """
    if not (isinstance(parallelism, numbers.Integral) and parallelism >= 1):
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate scenario names: {dupes}")
    args = (out_dir, margin, practical_b)
    large = [c for c in configs
             if parallelism > 1 and _grid_nodes(c) >= _POOL_MIN_NODES]
    if not large:
        return [run_scenario(c, *args) for c in configs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {c.name: pool.submit(run_scenario, c, *args) for c in large}
        done = {c.name: run_scenario(c, *args)
                for c in configs if c.name not in futures}
    return [done[n] if n in done else futures[n].result() for n in names]
