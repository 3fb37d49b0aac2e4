"""Decay-exponent fitting and verdicts against the admissible predictions.

Each regime predicts E(t) <= C w(t)^(-gamma) for its own clock w(t); fitting
ln E against the matching transformed abscissa turns the exponent into a
slope.  The estimates are one-sided upper bounds, so a verdict passes when
the observed exponent is at least the scenario's admissible gamma times a
margin that absorbs finite-window and discretization effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import TheoremConstants

__all__ = ["fit_decay", "theorem_verdict", "truncation_contamination",
           "MODEL_FOR_THEOREM"]

MODEL_FOR_THEOREM = {"T1": "LogDecay", "T2": "PolyDecay", "T3": "CompactDecay"}
_MODELS = tuple(MODEL_FOR_THEOREM.values())
_OFFSET = {"LogDecay": "b", "PolyDecay": "offset", "CompactDecay": "R"}


@dataclass(frozen=True)
class DecayFit:
    model: str
    gamma_hat: float
    ln_C_hat: float
    r_squared: float
    window: tuple[float, float]
    residual_max: float
    n_samples: int
    truncated_zero_tail: bool = False


def _abscissa(model: str, t: np.ndarray, b_or_R: float) -> np.ndarray:
    if model == "LogDecay":
        return np.log(np.log(b_or_R + t))
    if model == "PolyDecay":
        return np.log(1.0 + t)
    if model == "CompactDecay":
        return np.log((b_or_R + t) / b_or_R)
    raise ValueError(f"unknown decay model {model!r}")


def fit_decay(ts, Es, model: str, b_or_R: float,
              window: tuple[float, float]) -> DecayFit:
    """OLS of ln E on the model's abscissa over [t_lo, t_hi]; slope = -gamma.

    A nonpositive-energy tail inside the window is cut off (recorded on the
    fit); fewer than 8 usable samples is an error, and so is a non-finite
    abscissa (an offset outside the model's domain) or ln E in the window.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown decay model {model!r}")
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"empty window {window}")
    ts = np.asarray(ts, dtype=float)
    Es = np.asarray(Es, dtype=float)
    sel = (ts >= t_lo) & (ts <= t_hi)
    t_w, E_w = ts[sel], Es[sel]
    truncated = False
    bad = np.nonzero(E_w <= 0.0)[0]
    if bad.size:
        t_w, E_w = t_w[:bad[0]], E_w[:bad[0]]
        truncated = True
    if t_w.size < 8:
        raise ValueError(f"only {t_w.size} usable samples in window {window}; "
                         "need at least 8")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _abscissa(model, t_w, b_or_R)
    y = np.log(E_w)
    for values, what in ((z, f"the {model} abscissa with {_OFFSET[model]} = {b_or_R}"),
                         (y, "ln E")):
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"{what} is not finite at t = {t_w[bad][0]:.6g}")
    zc = z - z.mean()
    slope = float(np.dot(zc, y) / np.dot(zc, zc))
    intercept = float(y.mean() - slope * z.mean())
    resid = y - (intercept + slope * z)
    ss_res = float(np.dot(resid, resid))
    yc = y - y.mean()
    ss_tot = float(np.dot(yc, yc))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(model=model, gamma_hat=-slope, ln_C_hat=intercept,
                    r_squared=r2, window=(float(t_w[0]), float(t_w[-1])),
                    residual_max=float(np.max(np.abs(resid))),
                    n_samples=int(t_w.size), truncated_zero_tail=truncated)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    gamma_hat: float
    gamma_predicted: float
    margin: float
    binding_bound: str


def theorem_verdict(fit: DecayFit, constants: TheoremConstants,
                    margin: float = 0.8) -> Verdict:
    """One-sided test: observed decay at least margin * predicted gamma.

    The estimates are upper bounds on E, so faster-than-predicted decay is a
    pass.  Also reports which admissibility term binds the gamma range.
    """
    if MODEL_FOR_THEOREM[constants.theorem] != fit.model:
        raise ValueError(f"fit model {fit.model} does not match "
                         f"{constants.theorem}")
    bounds = constants.gamma_bounds
    binding = min(bounds, key=bounds.get) if bounds else "gamma > 0 (no upper bound)"
    return Verdict(passed=fit.gamma_hat >= margin * constants.gamma,
                   gamma_hat=fit.gamma_hat, gamma_predicted=constants.gamma,
                   margin=margin, binding_bound=binding)


def truncation_contamination(series: dict) -> float:
    """Time-integrated energy in the 4h truncation band over total dissipation.

    Zero for cone-safe compact data; for weighted data it measures how much
    of the dynamics ever reaches the artificial boundary.  With zero total
    dissipation the (zero or not) band integral itself is returned.
    """
    ts, band = series["t"], series["diag.trunc_band_energy"]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = float(trapezoid(band, ts)) if len(ts) > 1 else float(band.sum())
    D_total = float(series["D_cum"][-1])
    if D_total <= 0.0:
        return integral
    return integral / D_total
