"""Weight algebra and constant-pack tests.

Derived expectations are frozen from independent oracles: mpmath
arbitrary-precision evaluation of the closed forms, central finite
differences for the derivatives, and direct term-by-term arithmetic for the
ln b max formula and the k-quadratics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab.grids import build_grid_1d, build_grid_2d_disk
from decaylab.weights import (
    AdmissibilityError, Regime, WeightFamily, WeightKind, compute_b,
    compute_constants, eval_weight, exponent_table, k_quadratic,
    verify_weight_inequalities,
)

E = math.e


# ---------------------------------------------------------------------------
# q(x) = sqrt(1 + |x|^2), as `ExteriorGrid.q` holds it per node
# ---------------------------------------------------------------------------

# nodes at 0 and at 1e6
_LINE = build_grid_1d(0.0, 1.0e6, 16)


def test_q_at_origin():
    assert _LINE.coords[0][0] == 0.0 and _LINE.q[0] == 1.0


def test_q_unit_vector_2d():
    grid = build_grid_2d_disk(0.5, 3.0, 8.0)
    node = (grid.coords[0] == 1.0) & (grid.coords[1] == 0.0)
    assert np.count_nonzero(node) == 1
    assert grid.q[node][0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_q_huge_argument_no_overflow():
    # oracle: q - |x| = 1/(q + |x|); mpmath gives 4.99999999999875e-7.
    # The subtraction itself cancels ~eps*|x| of precision, hence rel 1e-3.
    x, q = _LINE.coords[0][-1], _LINE.q[-1]
    assert x == 1.0e6 and 1.0e6 < q < 1.0e6 + 1.0e-6
    assert q - x == pytest.approx(4.999999999998750e-7, rel=1e-3)


@given(st.sampled_from([1, 2]), st.floats(min_value=1e-300, max_value=1e148))
def test_q_dominates_one_and_abs(dim, h):
    # grids of spacing about h, so |x| runs up to about 1e150; the grid's
    # |x| is its `radius` (in 1D abs(x), to the bit)
    grid = (build_grid_1d(0.0, 16.0 * h, 16) if dim == 1
            else build_grid_2d_disk(4.5 * h, 10.0 * h, 1.0 / h))
    assert (grid.q >= 1.0).all() and (grid.q >= grid.radius).all()


def test_q_monotone_in_radius():
    grid = build_grid_1d(0.0, 50.0, 100)
    assert np.all(np.diff(grid.q) > 0.0)


# ---------------------------------------------------------------------------
# weight evaluation
# ---------------------------------------------------------------------------

def test_log_f_beta0_at_zero():
    fam = WeightFamily.log_practical(gamma=1.0, b=E)   # beta = 0
    assert eval_weight(fam, WeightKind.F, 0.0) == pytest.approx(1.0 / E, rel=1e-14)


def test_log_f1_beta1_at_zero():
    fam = WeightFamily.log_practical(gamma=2.0, b=E)   # beta = 1
    assert eval_weight(fam, WeightKind.F1, 0.0) == pytest.approx(
        math.exp(-2.0), rel=1e-14)


def test_log_f2_closed_form_against_mpmath():
    # beta=1, b=e, r=3/2 at s = e^2 - e: ln(b+s) = 2, so
    # f2 = 2^(1/2)/e^3; mpmath (40 digits): 0.07040954731662970
    fam = WeightFamily.log_practical(gamma=2.0, b=E, r=1.5)
    s = E * E - E
    assert eval_weight(fam, WeightKind.F2, s) == pytest.approx(
        0.07040954731662970, rel=1e-13)
    # f2' frozen from the same oracle
    assert eval_weight(fam, WeightKind.F2_PRIME, s) == pytest.approx(
        -0.011911120035822205, rel=1e-12)
    # cross-check f2' against central differences
    d = 1e-6 * (E + s)
    fd = (eval_weight(fam, WeightKind.F2, s + d)
          - eval_weight(fam, WeightKind.F2, s - d)) / (2.0 * d)
    assert eval_weight(fam, WeightKind.F2_PRIME, s) == pytest.approx(fd, rel=1e-6)


def test_poly_roles():
    fam = WeightFamily.poly(gamma=0.5, r=1.5)   # beta = -0.5
    s = 3.0
    assert eval_weight(fam, WeightKind.PHI, s) == pytest.approx(4.0 ** 0.5)
    assert eval_weight(fam, WeightKind.F, s) == pytest.approx(4.0 ** -0.5)
    assert eval_weight(fam, WeightKind.F1, s) == pytest.approx(4.0 ** -1.5)
    assert eval_weight(fam, WeightKind.F2, s) == pytest.approx(4.0 ** -1.0)


def test_compact_roles():
    fam = WeightFamily.compact(gamma=0.5, R=2.0, r=1.5)
    s = 2.0
    assert eval_weight(fam, WeightKind.PHI, s) == pytest.approx(2.0)
    assert eval_weight(fam, WeightKind.F, s) == pytest.approx(4.0 ** -0.5)


# one family per regime: log (b = e), poly (1+s), compact (R+s, R = 2)
REGIMES = {
    "log": WeightFamily.log_practical(gamma=2.0, b=E, r=1.5),
    "poly": WeightFamily.poly(gamma=0.5, r=1.5),
    "compact": WeightFamily.compact(gamma=0.5, R=2.0, r=1.5),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_members_are_clock_powers_over_base(regime):
    # independent closed forms: clock ln(b+s) over base b+s in the log
    # regime, clock = base = 1+s or R+s in the power regimes
    fam = REGIMES[regime]
    b, r = fam.beta, fam.r
    s = np.array([0.0, 0.5, 3.0, 40.0, 1e4])
    if regime == "log":
        base = E + s
        L = np.log(base)
        want = {WeightKind.F: L**b / base, WeightKind.F1: L**b / base**2,
                WeightKind.F2: L ** (b - r + 1.0) / base**r,
                WeightKind.PHI: L ** (b + 1.0)}
    else:
        base = (1.0 if regime == "poly" else 2.0) + s
        want = {WeightKind.F: base**b, WeightKind.F1: base ** (b - 1.0),
                WeightKind.F2: base ** (b - r + 1.0),
                WeightKind.PHI: base ** (b + 1.0)}
    table = exponent_table(fam, 0.5, 1.5)
    if regime != "log":     # clock = base: the power tables carry M = 0
        assert all(M == 0.0 for _, M, _ in table.values())
    for kind, expected in want.items():
        assert np.allclose(eval_weight(fam, kind, s), expected,
                           rtol=1e-13, atol=0.0), kind
        A, M, _ = table[kind]
        assert np.allclose(np.exp(fam.log_weight(A, M, s)), expected,
                           rtol=1e-13, atol=0.0), kind
        assert eval_weight(fam, kind, 3.0) == pytest.approx(
            float(expected[2]), rel=1e-13)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_derivative_members_match_finite_differences(regime):
    # closed-form derivatives vs central differences at step 1e-6*(base)
    fam = REGIMES[regime]
    s = np.linspace(0.5, 200.0, 50)
    d = 1e-6 * (10.0 + s)
    for base, deriv in ((WeightKind.F, WeightKind.F_PRIME),
                        (WeightKind.F1, WeightKind.F1_PRIME),
                        (WeightKind.F2, WeightKind.F2_PRIME),
                        (WeightKind.F_PRIME, WeightKind.F_SECOND)):
        fd = (eval_weight(fam, base, s + d)
              - eval_weight(fam, base, s - d)) / (2.0 * d)
        assert np.allclose(eval_weight(fam, deriv, s), fd, rtol=1e-5,
                           atol=0.0), (base, deriv)


def test_negative_s_rejected():
    fam = WeightFamily.log_practical(gamma=1.0, b=E)
    with pytest.raises(ValueError):
        eval_weight(fam, WeightKind.F, -1.0)


def test_f2_requires_r():
    fam = WeightFamily.log_practical(gamma=1.0, b=E)   # r unbound
    with pytest.raises(ValueError, match="damping exponent r"):
        eval_weight(fam, WeightKind.F2, 1.0)


def test_underflow_is_zero_not_error():
    fam = WeightFamily(Regime.LOG, beta=0.0, ln_b=5000.0, r=1.5)
    assert eval_weight(fam, WeightKind.F, 10.0) == 0.0
    # phi stays representable: ln^1(b+s) = ln b
    assert eval_weight(fam, WeightKind.PHI, 10.0) == pytest.approx(5000.0)


def test_derivatives_match_finite_differences():
    # invariant: closed forms vs central differences at step 1e-6*(b+s),
    # relative 1e-5, over 10^3 random s and several practical families
    rng = np.random.default_rng(42)
    pairs = [(WeightKind.F, WeightKind.F_PRIME),
             (WeightKind.F1, WeightKind.F1_PRIME),
             (WeightKind.F2, WeightKind.F2_PRIME),
             (WeightKind.F_PRIME, WeightKind.F_SECOND)]
    for _ in range(10):
        beta = rng.uniform(-0.9, 3.0)
        b = rng.uniform(E, 1e6)
        r = rng.uniform(1.05, 3.0)
        fam = WeightFamily.log_practical(gamma=beta + 1.0, b=b, r=r)
        s = rng.uniform(0.0, 1e3, size=100)
        d = 1e-6 * (b + s)
        s = np.maximum(s, d)    # keep the central stencil inside s >= 0
        for base, deriv in pairs:
            closed = eval_weight(fam, deriv, s)
            fd = (eval_weight(fam, base, s + d)
                  - eval_weight(fam, base, s - d)) / (2.0 * d)
            scale = np.maximum(np.abs(closed),
                               np.abs(eval_weight(fam, base, s)) / (b + s))
            assert np.all(np.abs(closed - fd) <= 1e-5 * np.maximum(scale, 1e-300))


# ---------------------------------------------------------------------------
# compute_b
# ---------------------------------------------------------------------------

def test_compute_b_theorem1_example():
    # independent term arithmetic: max(216, 0, 0, -1, 24^3) = 13824
    bv = compute_b(2.0, 1.0, 0.5, "theorem1")
    assert bv.ln_b == pytest.approx(13824.0, rel=1e-12)
    assert bv.overflow and bv.b is None
    assert bv.terms[0] == pytest.approx(216.0)
    assert bv.terms[3] == pytest.approx(-1.0)


def test_compute_b_lemma_example():
    # final term becomes 48^3 = 110592
    bv = compute_b(2.0, 1.0, 0.5, "lemma")
    assert bv.ln_b == pytest.approx(110592.0, rel=1e-12)


@given(st.floats(min_value=1.01, max_value=3.0),
       st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_compute_b_lemma_dominates(r, gamma, delta0):
    assert compute_b(r, gamma, delta0, "lemma").ln_b >= \
        compute_b(r, gamma, delta0, "theorem1").ln_b


@pytest.mark.parametrize("make", [
    lambda: WeightFamily(Regime.LOG, beta=0.0, ln_b=math.nan),
    lambda: WeightFamily(Regime.LOG, beta=0.0, ln_b=math.inf),
    lambda: WeightFamily.log_practical(1.0, math.nan),
    lambda: WeightFamily.log_practical(1.0, math.inf),
    lambda: WeightFamily.compact(0.5, math.nan),
    lambda: WeightFamily.compact(0.5, math.inf),
], ids=["log-nan-ln-b", "log-inf-ln-b", "practical-nan-b", "practical-inf-b",
        "compact-nan-R", "compact-inf-R"])
def test_weight_family_rejects_nan_and_infinite_parameters(make):
    # comparisons with NaN are false, so a check written as `ln_b < 1` or
    # `R < 1` lets NaN through; eval_weight then returns NaN, as it does at
    # an infinite b
    with pytest.raises(AdmissibilityError):
        make()


def test_compute_b_rejects_bad_parameters():
    with pytest.raises(AdmissibilityError):
        compute_b(1.0, 1.0, 0.5)
    with pytest.raises(AdmissibilityError):
        compute_b(2.0, 0.0, 0.5)
    with pytest.raises(AdmissibilityError):
        compute_b(2.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# constant packs
# ---------------------------------------------------------------------------

def test_t1_k_direct_substitution():
    c = compute_constants("T1", 1.5, 1, 0.5, 1.0)   # beta = 0
    assert c.k == pytest.approx(0.25, rel=1e-15)
    assert c.p == pytest.approx(5.0)


def test_t2_quadratic_residual():
    c = compute_constants("T2", 1.5, 1, 0.01, 0.1)
    k, _, residual = k_quadratic(1.5, 0.01, half=True)
    assert k == c.k and abs(residual) <= 1e-9
    # exact identity from the proof
    lhs = c.k - 1.5 / 2.5 - c.k2 * (8.0 / 3.0) ** 1.5
    assert lhs == pytest.approx(0.01 * 1.5 / 2.5, rel=1e-10)


def test_t3_quadratic_residual():
    c = compute_constants("T3", 1.5, 1, 0.01, 0.1)
    k, _, residual = k_quadratic(1.5, 0.01, half=False)
    assert k == c.k and abs(residual) <= 1e-9
    lhs = c.k - 1.5 / 2.5 - c.k2 * (8.0 / 3.0) ** 1.5
    assert lhs >= 0.01 * 1.5 / 2.5 - 1e-12


def test_constants_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        r = 1.0 + rng.uniform(0.01, 0.99) * (2.0 / d)
        d0 = rng.uniform(1e-4, 0.05)
        for theorem, half in (("T2", True), ("T3", False)):
            gam = 1e-3
            c = compute_constants(theorem, r, d, d0, gam)
            k, _, residual = k_quadratic(r, d0, half)
            assert k == c.k and abs(residual) <= 1e-9
            assert c.k > 0 and c.k1 > 0 and c.k2 > 0


def test_gamma_rejection_names_bound():
    with pytest.raises(AdmissibilityError, match=r"\(d\+2-dr\)/\(r-1\)"):
        compute_constants("T2", 1.5, 1, 0.01, 5.0)


def test_t2_gamma_upper_range():
    # binding bound for r=1.5, d=1, delta0=0.01 is (1/2-delta0)/k ~ 0.169
    c = compute_constants("T2", 1.5, 1, 0.01, 0.15)
    assert min(c.gamma_bounds.values()) == pytest.approx(
        (0.5 - 0.01) / c.k, rel=1e-12)
    assert c.gamma_bounds["(d+2-dr)/(r-1)"] == pytest.approx(3.0)
    assert c.gamma_bounds["(p-2r)/(r-1)"] == pytest.approx(4.0)


def test_r_at_sup_requires_bounded_gamma_t1():
    compute_constants("T1", 3.0, 1, 0.5, 0.9)        # gamma < 2/(r-1) = 1
    with pytest.raises(AdmissibilityError, match="2/"):
        compute_constants("T1", 3.0, 1, 0.5, 1.5)


def test_t2_rejects_r_at_sup():
    with pytest.raises(AdmissibilityError):
        compute_constants("T2", 3.0, 1, 0.01, 0.05)


# ---------------------------------------------------------------------------
# lemma-proof weight inequalities
# ---------------------------------------------------------------------------

def _sample_grid():
    return np.concatenate([[0.0], np.logspace(0.0, 9.0, 10_000)])


def test_inequalities_admissible_b_all_pass():
    bv = compute_b(1.5, 2.0, 0.1, "lemma")
    fam = WeightFamily(Regime.LOG, beta=1.0, ln_b=bv.ln_b, r=1.5)
    rep = verify_weight_inequalities(fam, 1.5, _sample_grid())
    assert rep.all_passed
    assert rep.min_margin >= 0.0


def test_inequalities_beta0_collapse():
    # at beta = 0 checks (iii) and (iv) coincide up to the (1+|beta|) factor
    bv = compute_b(1.5, 1.0, 0.1, "lemma")
    fam = WeightFamily(Regime.LOG, beta=0.0, ln_b=bv.ln_b, r=1.5)
    rep = verify_weight_inequalities(fam, 1.5, _sample_grid())
    by_name = {c.name: c for c in rep.checks}
    assert by_name["f_prime_sq_vs_f1_prime"].passed
    assert by_name["f1_sq_vs_f1_prime"].passed


def test_inequalities_include_s_zero():
    bv = compute_b(2.0, 1.0, 0.5, "lemma")
    fam = WeightFamily(Regime.LOG, beta=0.0, ln_b=bv.ln_b, r=2.0)
    rep = verify_weight_inequalities(fam, 2.0, np.array([0.0, 1.0]))
    assert rep.all_passed
    assert all(math.isfinite(c.worst_margin) for c in rep.checks)


def test_inequalities_reject_non_log():
    fam = WeightFamily.poly(gamma=0.5)
    with pytest.raises(ValueError):
        verify_weight_inequalities(fam, 1.5, np.array([0.0]))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.99, max_value=3.0),
       st.floats(min_value=1.01, max_value=3.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_inequalities_hold_for_admissible_b(beta, r, delta0):
    bv = compute_b(r, beta + 1.0, delta0, "lemma")
    fam = WeightFamily(Regime.LOG, beta=beta, ln_b=bv.ln_b, r=r)
    rep = verify_weight_inequalities(fam, r, np.logspace(0, 9, 200))
    assert rep.all_passed


def test_sobolev_exponent_high_dimension():
    from decaylab.weights import sobolev_p
    assert sobolev_p(1.2, 3) == pytest.approx(4.4)
    assert sobolev_p(1.2, 5) == pytest.approx(10.0 / 3.0)
