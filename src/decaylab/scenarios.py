"""Scenario configuration, orchestration, and report persistence.

A scenario is a flat INI document (sections [scenario], [grid], [data],
[time], [weights], [prop1], [obs]) naming one of the decay regimes T1/T2/T3
or one of the non-PDE suites (identity_only, weight_suite).  The fields of
`ScenarioConfig` are the schema: each names its section, key, parser, range
and default.  A config is immutable and checks itself when made (by
`load_config`, directly or by `dataclasses.replace`): each value against its
row, then the checks that read two or more fields (regime admissibility,
cone-safe truncation, a grid the builders accept and numpy can allocate,
enough samples to fit).  Auto fields stay None; a run uses and echoes
`_resolved(cfg)`, so `replace(cfg, T_max=40)` re-derives them.

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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import decay, functionals, grids, solver, weights

__all__ = ["ScenarioConfig", "ScenarioReport", "ConfigError", "load_config",
           "run_scenario", "run_suite", "run_weight_suite"]

THEOREMS = ("T1", "T2", "T3", "identity_only", "weight_suite")


class ConfigError(ValueError):
    pass


# A row's rule: a description of the values it accepts, and their predicate.
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_NON_NEGATIVE = ("non-negative and finite", lambda v: 0.0 <= v < math.inf)
_FINITE = ("finite", math.isfinite)
_COUNT = ("an integer >= 1", lambda v: v >= 1)
_BOOL = ("true or false", lambda v: True)


def _one_of(*choices):
    return "one of " + "|".join(map(str, choices)), lambda v: v in choices


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# The type a row's value must have, by the parser that reads its text.
_TYPES = {float: numbers.Real, int: numbers.Integral, str: str, _bool: bool}


def _row(section, key, default=MISSING, rule=_POSITIVE, cast=float, auto=False):
    """A config field read from `[section] key`.  `cast` parses the text and
    the value must satisfy `rule`; with `auto` the text `auto` gives None,
    which `_derived` fills in.  A row without default is required."""
    return field(default=default, metadata={
        "section": section, "key": key, "cast": cast, "rule": rule, "auto": auto})


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's settings; each field is a config row (see `_row`).
    Immutable and checked when made, also by `dataclasses.replace`."""
    name: str = _row("scenario", "name", rule=("non-empty", bool), cast=str)
    theorem: str = _row("scenario", "theorem", rule=_one_of(*THEOREMS), cast=str)
    dim: int = _row("scenario", "dim", 1, _one_of(1, 2), int)
    r: float = _row("scenario", "r", 1.5,
                    ("above 1 and finite", lambda v: 1.0 < v < math.inf))
    delta0: float = _row("scenario", "delta0", 0.01,
                         ("in (0, 1)", lambda v: 0.0 < v < 1.0))
    gamma: float | None = _row("scenario", "gamma", None, auto=True)
    epsilon0: float = _row("scenario", "epsilon0", 0.5)
    L: float = _row("scenario", "l", 1.0)
    a_max: float = _row("scenario", "a_max", 1.0, (
        f"positive, at most {solver.BLOWUP:g}", lambda v: 0.0 < v <= solver.BLOWUP))
    damping_kind: str = _row("scenario", "damping_kind", "exterior_smooth",
                             _one_of(*grids._DAMPING_KINDS), str)
    margin: float = _row("scenario", "margin", 0.8)
    seed: int = _row("scenario", "seed", 0, ("an integer >= 0", lambda v: v >= 0), int)
    alpha: float = _row("grid", "alpha", 0.0, _NON_NEGATIVE)
    x_max: float | None = _row("grid", "x_max", None, auto=True)
    rho: float | None = _row("grid", "rho", None)
    r_out: float | None = _row("grid", "r_out", None, auto=True)
    h: float = _row("grid", "h", 0.05)
    data_kind: str = _row("data", "kind", "compact", _one_of("compact", "weighted"), str)
    center: tuple = _row("data", "center", (1.0,), _FINITE)   # dim 2: _CENTER_2D
    radius: float = _row("data", "radius", 0.5)
    amplitude: float = _row("data", "amplitude", 1.0, (
        f"nonzero, magnitude at most {solver.BLOWUP:g}",
        lambda v: 0.0 < abs(v) <= solver.BLOWUP))
    R_support: float | None = _row("data", "r_support", None)
    sigma: float = _row("data", "sigma", 10.0, _FINITE)
    oscillation: float = _row("data", "oscillation", 2.0, _FINITE)
    T_max: float = _row("time", "t_max", 20.0)
    cfl: float = _row("time", "cfl", 0.9, ("in (0, 1]", lambda v: 0.0 < v <= 1.0))
    sample_stride: int = _row("time", "sample_stride", 10, _COUNT, int)
    T_window: float | None = _row("time", "t_window", None)
    T1_threshold: float | None = _row("time", "t1_threshold", None, _NON_NEGATIVE)
    use_practical_b: bool = _row("weights", "use_practical_b", True, _BOOL, _bool)
    practical_b: float = _row("weights", "practical_b", math.e,
                              (">= e and finite", lambda v: math.e <= v < math.inf))
    pairs: int = _row("weights", "pairs", 200, _COUNT, int)       # weight suite
    families: int = _row("weights", "families", 20, _COUNT, int)  # weight suite
    prop1_enabled: bool = _row("prop1", "enabled", True, _BOOL, _bool)
    prop1_gamma: float = _row("prop1", "gamma", 1.0,
                              ("in (0, 1]", lambda v: 0.0 < v <= 1.0))
    prop1_mu: float = _row("prop1", "mu", 1.0)
    prop1_lam: float = _row("prop1", "lam", 1.0)
    obs_enabled: bool = _row("obs", "enabled", True, _BOOL, _bool)
    obs_R0: float | None = _row("obs", "r0", None)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "center":      # one value per axis, named by its key
                keys = ("center",) if self.dim == 1 else tuple(_CENTER_2D)
                if not (isinstance(value, tuple) and len(value) == len(keys)):
                    raise _bad("data", "center", f"{len(keys)} number(s)", value)
                for key, v in zip(keys, value):
                    _check(f, v, key)
            elif not (value is None and f.default is None):     # None: unset
                _check(f, value)
        for section, key in _UNREAD[self.dim]:      # [grid] keys name their rows
            if section == "grid" and getattr(self, key) != _ROWS[key].default:
                raise ConfigError(f"[{section}] {key} is not read when dim = {self.dim}")
        _derived(self)      # the checks that read two or more fields


_ROWS = {f.name: f for f in fields(ScenarioConfig)}
# In 2D the `center` row is read from these keys, with these defaults.
_CENTER_2D = {"center_x": 3.0, "center_y": 0.0}
_KEYS = {(f.metadata["section"], f.metadata["key"]) for f in _ROWS.values()} | {
    ("data", key) for key in _CENTER_2D}
# The keys a document of each dim does not read, so must not set.
_UNREAD = {1: (("grid", "rho"), ("grid", "r_out"), *(("data", k) for k in _CENTER_2D)),
           2: (("grid", "alpha"), ("grid", "x_max"), ("data", "center"))}
# The most float64 elements numpy can hold in one array: the bound on grid
# nodes and on time steps (`run` keeps one energy per step).
_MAX_LEN = np.iinfo(np.intp).max // 8


def _bad(section, key, need, got) -> ConfigError:
    return ConfigError(f"[{section}] {key} must be {need}, got {got!r}")


def _check(f, value, key=None):
    """ConfigError naming row `f` (or `key`) unless `value` fits its type and rule."""
    need, ok = f.metadata["rule"]
    kind = _TYPES[f.metadata["cast"]]      # a bool is an int, but only fits bool rows
    if (isinstance(value, bool) is not (kind is bool)
            or not isinstance(value, kind) or not ok(value)):
        raise _bad(f.metadata["section"], key or f.metadata["key"], need, value)


def _parse(cp, f, key=None, default=None):
    """Row `f`'s value as the document gives it (read from `key` if given):
    its default if absent, None for `auto`, else the parsed text."""
    section, key = f.metadata["section"], key or f.metadata["key"]
    if not cp.has_option(section, key):
        if f.default is MISSING:
            raise ConfigError(f"missing required key [{section}] {key}")
        return f.default if default is None else default
    raw = cp.get(section, key)
    if f.metadata["auto"] and raw.lower() == "auto":
        return None
    try:
        return f.metadata["cast"](raw)
    except (ValueError, KeyError):
        raise _bad(section, key, f.metadata["rule"][0], raw) from None


def load_config(source) -> ScenarioConfig:
    """Parse and validate a scenario document: literal text, or a path when
    it is one line (a one-line document holds no config)."""
    text = str(source)
    if "\n" not in text:
        if not Path(text).is_file():
            raise ConfigError(f"no config file {text!r}")
        text = Path(text).read_text()
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    for section in cp.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key [{section}] {key}")

    values = {name: _parse(cp, f) for name, f in _ROWS.items() if name != "center"}
    for section, key in _UNREAD.get(values["dim"], ()):
        if cp.has_option(section, key):
            raise ConfigError(f"[{section}] {key} is not read when dim = {values['dim']}")
    keys = {"center": 1.0} if values["dim"] == 1 else _CENTER_2D
    values["center"] = tuple(_parse(cp, _ROWS["center"], k, d) for k, d in keys.items())
    return ScenarioConfig(**values)


def _derived(cfg: ScenarioConfig) -> dict:
    """The auto fields' values, the unset ones filled in.  Raises ConfigError
    unless every check that reads two or more fields passes."""
    if cfg.theorem == "weight_suite":
        return {}
    gamma = None
    if cfg.theorem != "identity_only":
        gamma = cfg.gamma
        try:        # AdmissibilityError names the violated bound
            if gamma is None:       # T1: 1; T2/T3: 0.9 of the admissible supremum
                gamma = 1.0 if cfg.theorem == "T1" else 0.9 * min(
                    weights.compute_constants(cfg.theorem, cfg.r, cfg.dim, cfg.delta0,
                                              1e-6).gamma_bounds.values())
            weights.compute_constants(cfg.theorem, cfg.r, cfg.dim, cfg.delta0, gamma)
        except weights.AdmissibilityError as exc:
            raise ConfigError(f"[scenario] r, delta0, gamma: {exc}") from exc
    if cfg.epsilon0 > cfg.a_max:
        raise _bad("scenario", "epsilon0", f"at most a_max = {cfg.a_max}", cfg.epsilon0)
    t1 = cfg.T_max / 10.0 if cfg.T1_threshold is None else cfg.T1_threshold
    if not t1 < cfg.T_max:
        raise _bad("time", "t1_threshold", f"below t_max = {cfg.T_max}", t1)
    # may exceed t_max: the analyses clip it
    window = cfg.T_max / 4.0 if cfg.T_window is None else cfg.T_window
    if cfg.dim == 2 and cfg.rho is None:
        raise ConfigError("[grid] rho is required in 2D")

    edge, inner = ("x_max", cfg.alpha) if cfg.dim == 1 else ("r_out", cfg.rho)
    outer = getattr(cfg, edge)
    if cfg.data_kind == "compact":
        R = cfg.R_support
        if R is None:
            raise ConfigError("[data] r_support is required for compact data")
        if cfg.theorem == "T3" and R < 1.0:
            raise _bad("data", "r_support", "at least 1 for T3", R)
        dist = math.hypot(*cfg.center)
        if dist + cfg.radius > R + 1e-12:
            raise _bad("data", "r_support", f"at least the data's reach "
                       f"{dist + cfg.radius:.4g} (its support leaves B_R)", R)
        if (cfg.center[0] if cfg.dim == 1 else dist) - cfg.radius < inner:
            raise _bad("data", "center", f"at least radius = {cfg.radius} from "
                       f"the obstacle at {inner}", cfg.center)
        safe = R + cfg.T_max + 2.0 * cfg.L
        if not math.isfinite(safe):
            raise _bad("data", "r_support", "small enough for a finite "
                       "R + t_max + 2l", R)
        if outer is None:           # cone-safe, rounded up, 2 to spare
            outer = (cfg.alpha + math.ceil(safe - cfg.alpha + 2.0) if cfg.dim == 1
                     else math.ceil(safe + 2.0))
        if outer < safe:
            raise _bad("grid", edge, f"cone-safe, at least R + t_max + 2l = "
                       f"{safe}", outer)
    else:
        if outer is None:
            raise ConfigError(f"[grid] {edge} is required for weighted data")
        if cfg.theorem == "T3":
            raise _bad("data", "kind", "compact for T3", cfg.data_kind)
        # finite weighted norms on the untruncated domain (make_initial_weighted)
        floor = (cfg.dim + (gamma if cfg.theorem == "T2" else 0.0)) / 2.0
        if not cfg.sigma > floor:
            raise _bad("data", "sigma", f"above {floor:.6g} for weighted data", cfg.sigma)

    if cfg.dim == 1:
        floor, need = max(cfg.alpha, 2.0 * cfg.L), "max(alpha, 2l)"
    else:
        floor, need = max(cfg.rho + 4.0 * cfg.h, 2.0 * cfg.L), "max(rho + 4h, 2l)"
    if not outer > floor:
        raise _bad("grid", edge, f"above {need} = {floor}", outer)
    span = outer - cfg.alpha if cfg.dim == 1 else 2.0 * outer
    too_big = _bad("grid", edge, f"small enough for at most {_MAX_LEN:.3g} "
                   f"array nodes at h = {cfg.h}", outer)
    if not math.isfinite(span / cfg.h):
        raise too_big
    cells = _cells(cfg, outer)
    if cfg.dim == 1 and cells < 16:
        raise _bad("grid", "h", f"at most (x_max - alpha)/15.5 = "
                   f"{span / 15.5:.4g} (16 cells)", cfg.h)
    if cfg.dim == 2 and cfg.h > cfg.rho / 4.0:
        raise _bad("grid", "h", f"at most rho/4 = {cfg.rho / 4.0}", cfg.h)

    # the grid `_build` makes sets the step `run` takes and the sample spacing
    dt = cfg.cfl * (span / cells) / math.sqrt(cfg.dim)
    if not cfg.T_max / dt < _MAX_LEN:
        raise _bad("time", "t_max", f"small enough for at most {_MAX_LEN:.3g} "
                   f"steps of dt = {dt:.4g}", cfg.T_max)
    if (cells + 1) ** cfg.dim > _MAX_LEN:
        raise too_big
    spacing = cfg.sample_stride * dt
    if not window >= spacing:
        raise _bad("time", "t_window", f"at least the sample spacing {spacing:.4g}",
                   window)
    # samples inside the fit window, leaving out one within round-off of an end
    tol = 1e-9 * cfg.T_max
    first = math.floor((t1 + tol) / spacing) + 1
    last = min(round(cfg.T_max / dt) // cfg.sample_stride,
               math.ceil((cfg.T_max - tol) / spacing) - 1)
    if _fits(cfg) and last - first + 1 < 8:
        raise _bad("time", "sample_stride", "small enough for 8 samples in the "
                   "fit window [t1_threshold, t_max]", cfg.sample_stride)
    obs_R0 = 2.0 * cfg.L if cfg.obs_R0 is None else cfg.obs_R0
    return {"gamma": gamma, edge: outer, "T1_threshold": t1, "T_window": window,
            "obs_R0": obs_R0}


def _resolved(cfg: ScenarioConfig) -> ScenarioConfig:
    """`cfg` with its auto fields filled in: the config a run uses and echoes."""
    return replace(cfg, **_derived(cfg))


def _fits(cfg: ScenarioConfig) -> bool:
    """Whether the run fits a decay exponent: T2, T3, and T1 with practical b."""
    return cfg.theorem in ("T2", "T3") or (cfg.theorem == "T1" and cfg.use_practical_b)


def _echo(cfg: ScenarioConfig) -> dict:
    """The config as the report shows it, taken when the report is built."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(cfg).items()}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    name: str
    payload: dict
    all_pass: bool
    failed: bool = False


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


def _cells(cfg: ScenarioConfig, outer) -> int:
    """Grid cells per axis up to the outer edge `outer` (x_max in 1D, r_out in
    2D), as `_build` asks for them or the 2D grid rounds them."""
    if cfg.dim == 1:
        return int(round((outer - cfg.alpha) / cfg.h))
    return grids._disk_cells(outer, 1.0 / cfg.h)


def _grid_nodes(cfg: ScenarioConfig) -> int:
    """Array nodes of the scenario's grid, counted without building it (the
    weight suite has none)."""
    if cfg.theorem == "weight_suite":
        return 0
    cfg = _resolved(cfg)
    return (_cells(cfg, cfg.x_max if cfg.dim == 1 else cfg.r_out) + 1) ** cfg.dim


def _build(cfg: ScenarioConfig):
    if cfg.dim == 1:
        grid = grids.build_grid_1d(cfg.alpha, cfg.x_max, _cells(cfg, cfg.x_max))
    else:
        grid = grids.build_grid_2d_disk(cfg.rho, cfg.r_out, 1.0 / cfg.h)
    damping = grids.build_damping(grid, cfg.damping_kind, cfg.epsilon0, cfg.L, cfg.a_max)
    return grid, damping, grids.build_psi(grid, cfg.L)


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


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ScenarioReport:
    """Execute one scenario and persist series + report (+ plot data).

    The run and its report's config echo use `_resolved(cfg)`, the config
    with its auto fields filled in.
    """
    t_wall = time.perf_counter()
    out = Path(out_dir or os.environ.get("DECAYLAB_OUT", "."))
    cfg = _resolved(cfg)
    try:
        report = _run_scenario_inner(cfg, out)
        path = out / f"{cfg.name}.report.json"
    except Exception as exc:
        report = ScenarioReport(cfg.name, {
            "schema": 1, "name": cfg.name, "config": _echo(cfg),
            "error": f"{type(exc).__name__}: {exc}",
        }, all_pass=False, failed=True)
        path = out / f"{cfg.name}.report.failed.json"
    report.payload["wall_clock_s"] = time.perf_counter() - t_wall
    _atomic_write(path, json.dumps(report.payload, indent=2, sort_keys=True))
    return report


def _run_scenario_inner(cfg: ScenarioConfig, out: Path) -> ScenarioReport:
    if cfg.theorem == "weight_suite":
        return run_weight_suite(cfg)

    grid, damping, psi = _build(cfg)
    consts, family, bundle_sets = None, None, []
    if cfg.theorem != "identity_only":
        consts = weights.compute_constants(cfg.theorem, cfg.r, cfg.dim,
                                           cfg.delta0, cfg.gamma)
        family, bundle_sets = _families(cfg)

    if cfg.data_kind == "compact":
        initial = solver.make_initial_compact(      # held on the bump's box
            grid, cfg.center, cfg.radius, cfg.amplitude, "bump_u",
            R=cfg.R_support)
        # enforced where the scheme rides the exact cone, measured elsewhere
        cone = solver.ConeSpec(R=cfg.R_support,
                               enforce=cfg.dim == 1 and cfg.cfl == 1.0)
    else:
        initial = solver.make_initial_weighted(
            grid, cfg.sigma, family, cfg.gamma if cfg.gamma else 0.0,
            amplitude=cfg.amplitude, oscillation=cfg.oscillation)
        cone = None

    params = solver.SolverParams.for_grid(grid, cfg.cfl, cfg.r, cfg.T_max)

    prop1 = functionals.Prop1Config(
        family=weights.WeightFamily.poly(cfg.prop1_gamma), mu=cfg.prop1_mu,
        lam=cfg.prop1_lam) if cfg.prop1_enabled else None
    tracker = functionals.SampleTracker(functionals.TrackerConfig(
        grid=grid, damping=damping, psi=psi, r=cfg.r, family=family,
        constants=consts, bundle_sets=bundle_sets, prop1=prop1,
        obs_R0=cfg.obs_R0 if cfg.obs_enabled else None))

    res = solver.run(grid, damping, initial, params, tracker=tracker,
                     cone=cone, sample_stride=cfg.sample_stride)
    series = functionals.series_table(res.samples)

    series_name = f"{cfg.name}.series.csv"
    buf = io.StringIO()
    functionals.write_series_csv(buf, series)
    _atomic_write(out / series_name, buf.getvalue())

    payload = {
        "schema": 1,
        "name": cfg.name,
        "config": _echo(cfg),
        "series_csv": series_name,
        "grid": {"dim": grid.dim, "h": grid.h, "n_fluid": grid.n_fluid,
                 **dict.fromkeys(("alpha", "x_max", "rho", "r_out")),
                 **dict(zip(("alpha", "x_max") if grid.dim == 1 else ("rho", "r_out"),
                            (grid.obstacle_radius, grid.truncation_radius)))},
        "damping": {f.name: getattr(damping, f.name) for f in fields(damping) if f.repr},
        "solver": {"dt": params.dt, "cfl": cfg.cfl, "n_steps": res.n_steps,
                   "mono_violations": res.mono_violations,
                   "mono_worst": res.mono_worst},
    }

    ts, Es = series["t"], series["E"]
    # the prop1 and observability window, clipped to half the run
    window = min(cfg.T_window, (ts[-1] - ts[0]) / 2.0)
    E0_solver = float(res.E_steps[0])
    identity_final = abs(float(res.E_steps[-1]) + res.D_cum - E0_solver)
    if E0_solver > 0:
        identity_final /= E0_solver
    defects = {"identity_final": identity_final,
               "identity_max": float(series["diag.identity_defect"].max())}

    if cfg.prop1_enabled and len(ts) > 2:
        rep = functionals.prop1_inequality_check(series, window,
                                                 cfg.prop1_mu, cfg.prop1_lam)
        defects["prop1"] = {"max_defect": rep.max_defect,
                            "n_windows": rep.n_windows,
                            "window_T": rep.window_T}

    fits, verdicts = {}, {}
    if consts is not None:
        data_family = bundle_sets[0][1]  # the regime's own weights
        dataf = functionals.data_functionals(initial, grid, data_family, consts)
        payload["data_functionals"] = asdict(dataf)
        he = functionals.high_energy_check(series, dataf, damping.a_inf)
        defects["high_energy"] = {**asdict(he), "holds_with_slack_1.1": he.holds(1.1)}

        model = decay.MODEL_FOR_THEOREM[cfg.theorem]
        fit_b_or_R = {"T1": cfg.practical_b, "T2": 1.0,
                      "T3": cfg.R_support}[cfg.theorem]
        if _fits(cfg):
            fit = decay.fit_decay(ts, Es, model, fit_b_or_R,
                                  (cfg.T1_threshold, cfg.T_max))
            fits[model] = asdict(fit)
            if cfg.theorem == "T1":
                fits[model]["illustrative_practical_b"] = True
            verdicts[model] = asdict(decay.theorem_verdict(fit, consts, cfg.margin))
            _write_fit_dat(out, cfg.name, ts, Es, fit, fit_b_or_R)

        payload["constants"] = consts.to_dict()
        payload["bundle_boundedness"] = _bundle_boundedness(series, bundle_sets)

        if cfg.obs_enabled and len(ts) > 2:
            payload["observability"] = asdict(
                functionals.observability_ratio(series, window))

    all_pass = all(v["passed"] for v in verdicts.values())
    payload.update(defects=defects, fits=fits, verdicts=verdicts, all_pass=all_pass,
                   truncation_contamination=decay.truncation_contamination(series),
                   cone={"declared": cone is not None, "ok": res.cone_ok,
                         "worst_overshoot": res.cone_worst_overshoot})
    return ScenarioReport(cfg.name, payload, all_pass=all_pass)


def _bundle_boundedness(series, bundle_sets) -> dict:
    """Final-decade increment of every cumulative theorem member vs its total.

    The desk-scale surrogate for finiteness of the infinite-time integrals:
    the increment over [T/10, T] must be a small fraction of the total.
    """
    ts = series["t"]
    early = int(np.searchsorted(ts, ts[-1] / 10.0))
    prefixes = tuple(p for p, _ in bundle_sets)
    return {name: {"total": float(col[-1]), "final_decade_fraction":
                   0.0 if col[-1] == 0.0 else float((col[-1] - col[early]) / col[-1])}
            for name, col in series.items()
            if name.endswith("_cum") and name.startswith(prefixes)}


def _write_fit_dat(out: Path, name: str, ts, Es, fit, b_or_R):
    sel = (ts >= fit.window[0]) & (ts <= fit.window[1]) & (Es > 0)
    z = decay._abscissa(fit.model, ts[sel], b_or_R)
    lines = [f"{a:.17g} {b:.17g}" for a, b in zip(z, np.log(Es[sel]))]
    _atomic_write(out / f"{name}.fit-{fit.model}.dat", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the non-PDE weight suite
# ---------------------------------------------------------------------------

def run_weight_suite(cfg: ScenarioConfig) -> ScenarioReport:
    """Constant identities on `cfg.pairs` random draws plus the five weight
    inequalities on `cfg.families` random weight families."""
    rng = np.random.default_rng(cfg.seed)
    worst_t2 = worst_t3 = 0.0
    for _ in range(cfg.pairs):
        d = int(rng.integers(1, 3))
        r = 1.0 + rng.uniform(1e-3, 1.0) * (2.0 / d)
        d0 = rng.uniform(1e-4, 0.05)
        for half in (True, False):
            k, k2, _ = weights.k_quadratic(r, d0, half)
            lhs, target = weights.identity_sides(r, d0, k, k2)
            if half:
                worst_t2 = max(worst_t2, abs(lhs - target) / target)
            else:
                worst_t3 = max(worst_t3, target - lhs)

    s_grid = np.concatenate([[0.0], np.logspace(0.0, 9.0, 10_000)])
    min_margin, all_ok = math.inf, True
    for _ in range(cfg.families):
        beta = rng.uniform(-1.0 + 1e-6, 3.0)
        r = rng.uniform(1.0 + 1e-3, 3.0)
        d0 = rng.uniform(1e-3, 0.999)
        fam = weights.WeightFamily.log_honest(r, beta + 1.0, d0)
        rep = weights.verify_weight_inequalities(fam, r, s_grid)
        min_margin = min(min_margin, rep.min_margin)
        all_ok = all_ok and rep.all_passed

    all_pass = worst_t2 <= 1e-9 and worst_t3 <= 1e-12 and all_ok
    return ScenarioReport(cfg.name, {
        "schema": 1, "name": cfg.name, "config": _echo(cfg), "all_pass": all_pass,
        "constant_identities": {
            "pairs": cfg.pairs,
            "t2_worst_relative_residual": worst_t2,
            "t3_worst_slack_deficit": worst_t3,
            "t2_ok": worst_t2 <= 1e-9,
            "t3_ok": worst_t3 <= 1e-12,
        },
        "weight_inequalities": {
            "families": cfg.families, "min_margin": min_margin, "all_passed": all_ok,
        },
    }, all_pass=all_pass)


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
              out_dir=None) -> list[ScenarioReport]:
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
    large = [c for c in configs
             if parallelism > 1 and _grid_nodes(c) >= _POOL_MIN_NODES]
    if not large:
        return [run_scenario(c, out_dir) for c in configs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {c.name: pool.submit(run_scenario, c, out_dir) for c in large}
        done = {c.name: run_scenario(c, out_dir)
                for c in configs if c.name not in futures}
    return [done[n] if n in done else futures[n].result() for n in names]
