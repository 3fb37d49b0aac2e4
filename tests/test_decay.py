"""Decay-fit and verdict tests.

Noiseless synthetic series of each model class must be recovered exactly; the
oscillatory case is bounded analytically (slope of ln(2+sin t) stays inside
[ln 1, ln 3] over the window, perturbing the fitted slope by < 0.1).
"""

import math

import numpy as np
import pytest

from decaylab.decay import DecayFit, fit_decay, theorem_verdict
from decaylab.weights import compute_constants


def test_fit_poly_exact():
    ts = np.linspace(0.0, 100.0, 400)
    Es = (1.0 + ts) ** -2.0
    fit = fit_decay(ts, Es, "PolyDecay", 1.0, (0.0, 100.0))
    assert abs(fit.gamma_hat - 2.0) <= 1e-6
    assert fit.r_squared >= 1.0 - 1e-9
    assert fit.residual_max <= 1e-9


def test_fit_log_exact():
    ts = np.linspace(0.0, 200.0, 500)
    Es = np.log(math.e + ts) ** -3.0
    fit = fit_decay(ts, Es, "LogDecay", math.e, (0.0, 200.0))
    assert abs(fit.gamma_hat - 3.0) <= 1e-6


def test_fit_compact_exact():
    R = 2.0
    ts = np.linspace(0.0, 300.0, 600)
    Es = 5.0 * (R / (R + ts)) ** 1.7
    fit = fit_decay(ts, Es, "CompactDecay", R, (0.0, 300.0))
    assert abs(fit.gamma_hat - 1.7) <= 1e-6
    assert fit.ln_C_hat == pytest.approx(math.log(5.0), abs=1e-9)


def test_fit_oscillatory_poly_within_band():
    ts = np.linspace(50.0, 500.0, 2000)
    Es = (1.0 + ts) ** -2.0 * (2.0 + np.sin(ts))
    fit = fit_decay(ts, Es, "PolyDecay", 1.0, (50.0, 500.0))
    assert 1.9 <= fit.gamma_hat <= 2.1


def test_fit_scale_invariance():
    ts = np.linspace(0.0, 50.0, 300)
    Es = (1.0 + ts) ** -1.3
    f1 = fit_decay(ts, Es, "PolyDecay", 1.0, (0.0, 50.0))
    f2 = fit_decay(ts, 123.456 * Es, "PolyDecay", 1.0, (0.0, 50.0))
    assert abs(f1.gamma_hat - f2.gamma_hat) <= 1e-12
    assert f2.ln_C_hat == pytest.approx(f1.ln_C_hat + math.log(123.456))


def test_fit_window_shift_stability():
    ts = np.linspace(0.0, 400.0, 4000)
    Es = (1.0 + ts) ** -2.5
    fits = [fit_decay(ts, Es, "PolyDecay", 1.0, (lo, lo + 100.0)).gamma_hat
            for lo in (10.0, 60.0, 110.0)]
    assert max(fits) - min(fits) <= 1e-6


def test_fit_rejects_few_samples():
    ts = np.linspace(0.0, 10.0, 5)
    with pytest.raises(ValueError, match="at least 8"):
        fit_decay(ts, (1 + ts) ** -1.0, "PolyDecay", 1.0, (0.0, 10.0))


def test_fit_truncates_zero_tail():
    ts = np.linspace(0.0, 10.0, 50)
    Es = (1.0 + ts) ** -2.0
    Es[30:] = 0.0
    fit = fit_decay(ts, Es, "PolyDecay", 1.0, (0.0, 10.0))
    assert fit.truncated_zero_tail
    assert fit.n_samples == 30
    assert abs(fit.gamma_hat - 2.0) <= 1e-6


@pytest.mark.parametrize("E_bad", [math.inf, math.nan])
def test_fit_rejects_non_finite_energy(E_bad):
    ts = np.linspace(0.0, 10.0, 50)
    Es = (1.0 + ts) ** -2.0
    Es[20] = E_bad
    with pytest.raises(ValueError, match="ln E is not finite at t = 4.08"):
        fit_decay(ts, Es, "PolyDecay", 1.0, (0.0, 10.0))


def test_fit_unknown_model():
    with pytest.raises(ValueError):
        fit_decay([0, 1], [1, 1], "Exponential", 1.0, (0.0, 1.0))


def _fit_stub(model, gamma_hat):
    return DecayFit(model=model, gamma_hat=gamma_hat, ln_C_hat=0.0,
                    r_squared=1.0, window=(0.0, 1.0), residual_max=0.0,
                    n_samples=10)


def test_verdict_pass_and_fail():
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.15)
    ok = theorem_verdict(_fit_stub("PolyDecay", 2.4), consts, margin=0.8)
    assert ok.passed
    bad = theorem_verdict(_fit_stub("PolyDecay", 0.05), consts, margin=0.8)
    assert not bad.passed


def test_verdict_margin_monotone():
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.15)
    for gamma_hat in (0.05, 0.13, 0.2, 1.0):
        fit = _fit_stub("PolyDecay", gamma_hat)
        passed = [theorem_verdict(fit, consts, m).passed
                  for m in (1.0, 0.8, 0.5, 0.1)]
        # lowering the margin never flips PASS -> FAIL
        assert passed == sorted(passed)


def test_verdict_reports_binding_bound():
    # T3, r=1.5, d=1, delta0=0.01: bounds are ((1-d0)/k ~ 0.296, 3, 4)
    consts = compute_constants("T3", 1.5, 1, 0.01, 0.2)
    v = theorem_verdict(_fit_stub("CompactDecay", 1.0), consts)
    assert v.binding_bound == "(1-delta0)/k"
    assert consts.gamma_bounds["(d+2-dr)/(r-1)"] == pytest.approx(3.0)
    assert consts.gamma_bounds["(p-2r)/(r-1)"] == pytest.approx(4.0)


def test_verdict_model_mismatch():
    consts = compute_constants("T2", 1.5, 1, 0.01, 0.15)
    with pytest.raises(ValueError):
        theorem_verdict(_fit_stub("CompactDecay", 1.0), consts)
