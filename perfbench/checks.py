"""Correctness checks the benchmark computes itself from a run's outputs.

Every check reads the persisted `<name>.series.csv` and `<name>.report.json`
and compares them with a computation made apart from decaylab (a least-squares
fit, a closed-form energy) or with a property the method must have (monotone
solver energy, the cone bound).  None compares with stored output.  Each
function returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial

MONO_REL = 1e-12          # solver-energy monotonicity, relative
RESIDUAL_TOL = 1e-12      # nodal damping solve, absolute (SolverParams default)


def read_outputs(out_dir: Path, name: str):
    report = json.loads((out_dir / f"{name}.report.json").read_text())
    with open(out_dir / report["series_csv"]) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return report, {h: data[:, i] for i, h in enumerate(header)}


def _clock(theorem: str, t, cfg: dict):
    """The regime's decay clock: ln E is linear in it with slope -gamma."""
    if theorem == "T1":
        return np.log(np.log(cfg["practical_b"] + t))
    if theorem == "T2":
        return np.log1p(t)
    return np.log((cfg["R_support"] + t) / cfg["R_support"])


def check_fit(report: dict, series: dict) -> list[str]:
    """Own least-squares fit of ln E against the regime's clock over
    [T1_threshold, T_max]; the observed exponent must reach margin * gamma."""
    cfg = report["config"]
    theorem = cfg["theorem"]
    if theorem == "T1" and not cfg["use_practical_b"]:
        # the admissible b is astronomical: ln ln(b + t) is flat in double
        # precision, so there is no clock to fit against (decaylab skips too)
        return []
    t, E = series["t"], series["E"]
    sel = (t >= cfg["T1_threshold"]) & (t <= cfg["T_max"])
    t, E = t[sel], E[sel]
    if t.size < 8 or np.any(E <= 0.0):
        return [f"fit window holds {t.size} samples, some E <= 0"]
    A = np.column_stack([_clock(theorem, t, cfg), np.ones_like(t)])
    (slope, _), *_ = np.linalg.lstsq(A, np.log(E), rcond=None)
    gamma_hat = -float(slope)
    need = cfg["margin"] * cfg["gamma"]
    fails = []
    if not gamma_hat >= need:
        fails.append(f"gamma_hat {gamma_hat:.6g} < margin*gamma {need:.6g}")
    reported = next(iter(report["fits"].values()))["gamma_hat"]
    if abs(reported - gamma_hat) > 1e-9 * max(1.0, abs(gamma_hat)):
        fails.append(f"report gamma_hat {reported!r} != own fit {gamma_hat!r}")
    return fails


def check_monotone(series: dict) -> list[str]:
    """The solver energy never rises (1e-12 relative); D_cum never falls."""
    fails = []
    E = series["diag.E_solver"]
    rise = E[1:] > E[:-1] * (1.0 + MONO_REL)
    if rise.any():
        fails.append(f"E_solver rises at {int(rise.sum())} samples")
    D = series["D_cum"]
    if np.any(D[1:] < D[:-1]):
        fails.append("D_cum decreases")
    return fails


def check_high_energy(report: dict, series: dict) -> list[str]:
    """sup_t high_energy <= 2 (1 + a_inf) core, core from the data functionals."""
    comp = report["data_functionals"]["components"]
    core = comp["u0_H2_sq"] + comp["u1_H1_sq"] + comp["u1_H1_2r"]
    bound = 2.0 * (1.0 + report["damping"]["a_inf"]) * core
    worst = float(np.max(series["high_energy"]))
    return [] if worst <= bound else [
        f"high_energy {worst:.6g} exceeds 2(1+a_inf)core = {bound:.6g}"]


# the bump profile p(s) = (1 - s^2)^3, s = distance / radius
_P = Polynomial([1.0, 0.0, -1.0]) ** 3
_DP = _P.deriv()
_D2P = _DP.deriv()
_DP_OVER_S = _DP // Polynomial([0.0, 1.0])       # p'(0) = 0: exact division


def _integral(poly: Polynomial, lo: float, hi: float) -> float:
    antider = poly.integ()
    return float(antider(hi) - antider(lo))


def bump_energy(dim: int, amplitude: float, radius: float, h: float):
    """Closed-form energy of u0 = A p(|x - c|/radius), v0 = 0, and the
    O(h^2) tolerance of its edge-difference discretisation.

    The energy is (1/2) int |grad u0|^2, an exact polynomial integral (radial
    in 2D).  The discrete form sums squared edge differences; their leading
    error is -(h^2/24) int (u_xx^2 [+ u_yy^2]), bounded in size by
    (h^2/24) int (Lap u0)^2 because int |D^2 u|^2 = int (Lap u)^2 for
    compact support.  The tolerance is twice that leading term.
    """
    A2 = amplitude * amplitude
    if dim == 1:
        grad2 = A2 / radius * _integral(_DP * _DP, -1.0, 1.0)
        lap2 = A2 / radius ** 3 * _integral(_D2P * _D2P, -1.0, 1.0)
    else:
        s = Polynomial([0.0, 1.0])
        grad2 = 2.0 * math.pi * A2 * _integral(_DP * _DP * s, 0.0, 1.0)
        lap = _D2P + _DP_OVER_S
        lap2 = 2.0 * math.pi * A2 / radius ** 2 * _integral(lap * lap * s, 0.0, 1.0)
    return 0.5 * grad2, 2.0 * h * h / 24.0 * lap2


def check_initial_energy(report: dict, series: dict) -> list[str]:
    cfg = report["config"]
    exact, tol = bump_energy(report["grid"]["dim"], cfg["amplitude"],
                             cfg["radius"], report["grid"]["h"])
    E0 = float(series["E"][0])
    return [] if abs(E0 - exact) <= tol else [
        f"E(0) = {E0!r} differs from the closed form {exact!r} by more than "
        f"{tol:.3g}"]


def check_cone(report: dict, series: dict) -> list[str]:
    """Support inside R + t + 2h + 2dt, nothing in the truncation band."""
    fails = []
    slack = 2.0 * report["grid"]["h"] + 2.0 * report["solver"]["dt"]
    cone = report["cone"]
    if not (cone["ok"] and cone["worst_overshoot"] <= slack):
        fails.append(f"support overshoots the cone by {cone['worst_overshoot']}"
                     f" > 2h + 2dt = {slack}")
    if report["truncation_contamination"] != 0.0 or np.any(
            series["diag.trunc_band_energy"] != 0.0):
        fails.append("energy reached the truncation band")
    return fails


def check_scenario(report: dict, series: dict, workload: str) -> list[str]:
    fails = check_fit(report, series) + check_monotone(series) \
        + check_high_energy(report, series)
    if workload.startswith("compact"):
        fails += check_initial_energy(report, series)
    if workload == "compact-1d":
        fails += check_cone(report, series)
    return fails


def damping_residual(c, w, r, v) -> float:
    """max |v + c |v|^(r-1) v - w| over the nodes of one nodal solve."""
    return float(np.max(np.abs(v + c * np.abs(v) ** (r - 1.0) * v - w),
                        initial=0.0))
