"""Weight-function algebra and decay-theorem constants.

Three weight regimes drive the decay machinery.  Every weight has the shape
clock^A / base^M, and each regime keeps one table of its (A, M) pairs
(`exponent_table`):

* Log:          clock ln(b+s) over base b+s: f(s) = ln^beta(b+s)/(b+s),
                companions f1, f2, phi = ln^(beta+1)(b+s)
* Poly:         clock = base = 1+s, used with argument s = q(x)+t; M = 0
* CompactPoly:  clock = base = R+s, used with argument s = t (compact
                initial data); M = 0

The admissible log offset b is enormous for realistic parameters (ln b in the
thousands), so every Log-regime evaluation runs in log space: families store
ln b, ln(b+s) is formed with logaddexp, and values are exponentiated last.
Underflow to 0.0 is accepted; overflow raises WeightOverflowError.  Power
regime values are taken as base ** A directly.

Constant packs for the three decay regimes (log / polynomial / compact) carry
the damping exponent r, dimension d, slack delta0, target exponent gamma and
the derived coefficients k, k1, k2, p, with their defining algebraic
identities enforced at construction.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Regime", "WeightKind", "WeightFamily", "TheoremConstants",
    "WeightOverflowError", "AdmissibilityError", "eval_weight",
    "compute_constants", "verify_weight_inequalities",
]

_LN_MAX = math.log(np.finfo(float).max)  # ~709.78


class Regime(enum.Enum):
    LOG = "log"
    POLY = "poly"
    COMPACT_POLY = "compact_poly"


class WeightKind(enum.Enum):
    """Which member of the weight family to evaluate."""
    F = "f"
    F_PRIME = "f_prime"
    F_SECOND = "f_second"
    F1 = "f1"
    F1_PRIME = "f1_prime"
    F2 = "f2"
    F2_PRIME = "f2_prime"
    PHI = "phi"


class WeightOverflowError(OverflowError):
    """A weight value exceeded the double range; carries the log value."""

    def __init__(self, msg, log_value=None):
        super().__init__(msg)
        self.log_value = log_value


class AdmissibilityError(ValueError):
    """A parameter violates the hypotheses of the selected decay regime."""


@dataclass(frozen=True)
class BValue:
    """Result of the ln b max-formula.

    ``b`` is None when exp(ln_b) is not representable; ``overflow`` flags it.
    """
    ln_b: float
    overflow: bool
    terms: tuple[float, ...]

    @property
    def b(self) -> float | None:
        return None if self.overflow else math.exp(self.ln_b)


def compute_b(r: float, gamma: float, delta0: float,
              variant: str = "lemma") -> BValue:
    """ln b as the max of the five admissibility terms.

    ``variant`` selects the coefficient of the final term: 'theorem1' uses 4,
    'lemma' uses 8.  The lemma value dominates, so it satisfies both
    statements and is the default everywhere downstream.
    """
    if not r > 1.0:
        raise AdmissibilityError(f"damping exponent r must exceed 1, got {r}")
    if not gamma > 0.0:
        raise AdmissibilityError(f"gamma must be positive, got {gamma}")
    if not 0.0 < delta0 < 1.0:
        raise AdmissibilityError(f"delta0 must lie in (0, 1), got {delta0}")
    if variant not in ("theorem1", "lemma"):
        raise ValueError(f"unknown variant {variant!r}")
    beta = gamma - 1.0
    coeff = 4.0 if variant == "theorem1" else 8.0
    terms = (
        (2.0 * (r + 1.0)) ** (r + 1.0),
        beta,
        (beta + math.sqrt(abs(beta * beta + 4.0 * beta))) / 2.0,
        (beta + 1.0 - r) / (r - 1.0),
        (coeff * (r + 1.0) * (beta + 1.0) / (1.0 - delta0)) ** (r + 1.0),
    )
    ln_b = max(terms)
    return BValue(ln_b=ln_b, overflow=ln_b > _LN_MAX, terms=terms)


@dataclass(frozen=True)
class WeightFamily:
    """One weight regime with its parameters bound.

    ``r`` is only needed for the f2 members (their exponents depend on the
    damping power); leave it None if f2 is never evaluated.
    """
    regime: Regime
    beta: float
    ln_b: float | None = None           # Log only
    R: float | None = None              # CompactPoly only
    r: float | None = None

    def __post_init__(self):
        if not self.beta > -1.0:
            raise AdmissibilityError(f"beta must exceed -1, got {self.beta}")
        if self.regime is Regime.LOG:
            if self.ln_b is None:
                raise ValueError("Log family requires ln_b")
            if not 1.0 <= self.ln_b < math.inf:      # a NaN ln b fails too
                raise AdmissibilityError(
                    f"Log family needs b >= e, a finite ln b >= 1; got ln b = {self.ln_b}")
        elif not -1.0 < self.beta <= 0.0:
            raise AdmissibilityError(f"{self.regime.value} regime requires "
                                     f"-1 < beta <= 0, got {self.beta}")
        if self.regime is Regime.COMPACT_POLY and not 1.0 <= (self.R or 0.0) < math.inf:
            raise AdmissibilityError(
                f"CompactPoly regime requires a finite R >= 1, got {self.R}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def log_honest(r: float, gamma: float, delta0: float) -> "WeightFamily":
        """Log family with ln b from the admissibility max-formula."""
        bv = compute_b(r, gamma, delta0)
        return WeightFamily(Regime.LOG, beta=gamma - 1.0, ln_b=bv.ln_b, r=r)

    @staticmethod
    def log_practical(gamma: float, b: float, r: float | None = None) -> "WeightFamily":
        """Log family with a hand-picked b >= e; outside the admissible range."""
        if not math.e <= b < math.inf:      # a NaN b fails too
            raise AdmissibilityError(f"practical b must be finite and >= e, got {b}")
        return WeightFamily(Regime.LOG, beta=gamma - 1.0, ln_b=math.log(b), r=r)

    @staticmethod
    def poly(gamma: float, r: float | None = None) -> "WeightFamily":
        return WeightFamily(Regime.POLY, beta=gamma - 1.0, r=r)

    @staticmethod
    def compact(gamma: float, R: float, r: float | None = None) -> "WeightFamily":
        return WeightFamily(Regime.COMPACT_POLY, beta=gamma - 1.0, R=R, r=r)

    # -- evaluation --------------------------------------------------------

    def ln_bs(self, s):
        """ln(b+s), stable for arbitrarily large ln b."""
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            ln_s = np.log(s)
        return np.logaddexp(self.ln_b, ln_s)

    def _logs(self, s):
        """(ln(b+s), ln ln(b+s)): the two logarithms of every log weight.  Where
        ln(b+s) is one value on every node (every honest b: ln b absorbs s),
        both are one-node arrays that broadcast against s: one exp per weight."""
        L = self.ln_bs(s)
        if L.size > 1 and (L == L.flat[0]).all():
            L = L.reshape(-1)[:1]
        return L, np.log(L)

    def log_weight(self, A: float, M: float, s):
        """ln(clock^A / base^M) at s.

        Log regime: clock ln(b+s) over base b+s, so A ln L - M L with
        L = ln(b+s).  Power regimes: clock = base = 1+s (poly) or R+s
        (compact), so A ln(base) - M ln(base).  See `_logs` for one-node results.
        """
        if self.regime is Regime.LOG:
            L, ln_L = self._logs(s)
            return A * ln_L - M * L
        ln_base = np.log(self._offset + np.asarray(s, dtype=float))
        return A * ln_base - M * ln_base

    @property
    def _offset(self) -> float:
        return 1.0 if self.regime is Regime.POLY else self.R


@functools.lru_cache(maxsize=256)
def exponent_table(family: WeightFamily, gamma: float = math.nan,
                   r: float | None = None) -> dict:
    """Every weight of the family's regime as (A, M, p): p clock^A / base^M.

    Keys are the WeightKind members (exponents in beta and the family's r),
    "obs_u2" (the u^2 weight of the observability display) and the decay
    bundle's members (exponents in the constant pack's gamma and r).  The
    prefactor p is None, a function of L = ln(b+s) in the log regime, or a
    constant in the power regimes, whose entries all carry M = 0.
    """
    b, g = family.beta, gamma
    r = family.r if r is None else r
    r = math.nan if r is None else r
    # role: ((A, M, p(L)) in the log regime, (A, p) in the power regimes)
    rows = {
        WeightKind.F: ((b, 1.0, None), (b, None)),
        WeightKind.F_PRIME: ((b - 1.0, 2.0, lambda L: b - L), (b - 1.0, b)),
        WeightKind.F_SECOND: ((b - 2.0, 3.0, lambda L: (
            2.0 * L * L - 3.0 * b * L + b * (b - 1.0))), (b - 2.0, b * (b - 1.0))),
        WeightKind.F1: ((b, 2.0, None), (b - 1.0, None)),
        WeightKind.F1_PRIME: ((b - 1.0, 3.0, lambda L: b - 2.0 * L),
                              (b - 2.0, b - 1.0)),
        WeightKind.F2: ((b - r + 1.0, r, None), (b - r + 1.0, None)),
        WeightKind.F2_PRIME: ((b - r, r + 1.0, lambda L: (b - r + 1.0) - r * L),
                              (b - r, b - r + 1.0)),
        WeightKind.PHI: ((b + 1.0, 0.0, None), (b + 1.0, None)),
        # u^2 weight of the observability display: -f1' or base^(beta-2)
        "obs_u2": ((b - 1.0, 3.0, lambda L: 2.0 * L - b), (b - 2.0, None)),
        # decay-bundle members; the compact regime has its own energy tail
        "energy_weighted_inst": ((g, 0.0, None), (g, None)),
        "energy_f_cum": ((g - 1.0, 1.0, None), (g - 1.0, None)),
        "energy_tail_cum": (None, (g - 1.0, None)),
        "disp_weighted_cum": ((g, 0.0, None), (g, None)),
        "au2_inst": ((g - 1.0, 2.0, None), (g - 2.0, None)),
        "au2_cum": ((g - 1.0, 3.0, None), (g - 3.0, None)),
        "aur_inst": ((g - r, r, None), (g - r, None)),
        "aur_cum": ((g - r, r + 1.0, None), (g - r - 1.0, None)),
    }
    if family.regime is Regime.LOG:
        return {k: log for k, (log, _) in rows.items() if log is not None}
    skip = (("energy_weighted_inst", "energy_f_cum")
            if family.regime is Regime.COMPACT_POLY else ("energy_tail_cum",))
    return {k: (A, 0.0, p) for k, (_, (A, p)) in rows.items() if k not in skip}


def table_weight(family: WeightFamily, entry: tuple, s, logs=None):
    """Value of one exponent-table entry of `family` at s.

    Power regimes take base ** (A - M), with M = 0 in their tables (a
    Python float for a float s); the log regime exponentiates its log-space
    value, so overflow raises WeightOverflowError and underflow gives 0.0.
    `logs` is `family._logs(s)` when the caller holds it (see it for one-node results).
    """
    A, M, p = entry
    if family.regime is not Regime.LOG:
        w = (family._offset + s) ** (A - M)
        return w if p is None else p * w
    L, ln_L = family._logs(s) if logs is None else logs
    ln_w = A * ln_L                 # A ln L (+ ln|p|) - M L, in place
    if p is not None:
        p = p(L)
        with np.errstate(divide="ignore"):
            ln_w += np.log(np.abs(p))
    ln_w -= M * L
    if (ln_w > _LN_MAX).any():      # exp(_LN_MAX) is finite: no overflow below
        raise WeightOverflowError("weight value exceeds double range",
                                  float(np.max(ln_w)))
    w = np.exp(ln_w)
    return w if p is None else np.sign(p) * w


def eval_weight(family: WeightFamily, which: WeightKind | str, s):
    """Evaluate a weight-family member at s >= 0 (scalar or array).

    All derivatives are exact closed forms.  Log-regime members are assembled
    in log space; magnitudes below the double range come back as 0.0.
    """
    if isinstance(which, str):
        which = WeightKind(which)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("weight argument s must be nonnegative")
    if which in (WeightKind.F2, WeightKind.F2_PRIME) and family.r is None:
        raise ValueError(f"{which.value} requires the damping exponent r bound "
                         "into the weight family")
    out = table_weight(family, exponent_table(family)[which], s_arr)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(out)
    return out if out.shape == s_arr.shape else np.broadcast_to(out, s_arr.shape).copy()


# ---------------------------------------------------------------------------
# theorem constant packs
# ---------------------------------------------------------------------------

def sobolev_p(r: float, d: int) -> float:
    return 2.0 * (r + 1.0) if d <= 3 else 2.0 * d / (d - 2.0)


def k_quadratic(r: float, delta0: float, half: bool) -> tuple[float, float, float]:
    """k, k2 and the normalized residual of the k-quadratic at k.

    ``half=True`` uses the (1/2 - delta0) slack (polynomial-weight regime),
    ``half=False`` the (1 - delta0) slack (compact-support regime):

        5 k^2 r (r+1) - k B + 8 (1+delta0) c r = 0,
        B = 5 r^2 (1+delta0) + 8 c (r+1) + 8 (8/3)^r (1+delta0),
        c = 1/2 - delta0  or  1 - delta0.

    k is the positive root; k2 = 8 k (1+delta0) / ((r+1)(5kr - 8c)) follows
    the proof-side quadratic.  The residual is normalized by its largest term.
    """
    c = _slack(delta0, half)
    B = (5.0 * (1.0 + delta0) * r * r
         + 8.0 * c * (r + 1.0)
         + 8.0 * (8.0 / 3.0) ** r * (1.0 + delta0))
    disc = B * B - 160.0 * (1.0 + delta0) * c * r * r * (r + 1.0)
    if disc < 0.0:
        raise AdmissibilityError(
            f"k-quadratic discriminant negative (r={r}, delta0={delta0})")
    k = (B + math.sqrt(disc)) / (10.0 * r * (r + 1.0))
    denom = 5.0 * k * r - 8.0 * c
    if denom <= 0.0:
        raise AdmissibilityError(
            f"{'T2' if half else 'T3'}: 5kr - 8c must be positive")
    k2 = 8.0 * k * (1.0 + delta0) / ((r + 1.0) * denom)
    terms = (5.0 * k * k * r * (r + 1.0), -k * B, 8.0 * (1.0 + delta0) * c * r)
    return k, k2, sum(terms) / max(abs(t) for t in terms)


def _slack(delta0: float, half: bool) -> float:     # c: T2 (half) or T3
    return (0.5 - delta0) if half else (1.0 - delta0)


def identity_sides(r: float, delta0: float, k: float, k2: float) -> tuple[float, float]:
    """k - r/(r+1) - k2 (8/3)^r and delta0 r/(r+1): = for T2, >= for T3."""
    return k - r / (r + 1.0) - k2 * (8.0 / 3.0) ** r, delta0 * r / (r + 1.0)


@dataclass(frozen=True)
class TheoremConstants:
    """Constant pack of one decay regime, identities checked at construction."""
    theorem: str                 # 'T1' | 'T2' | 'T3'
    r: float
    d: int
    delta0: float
    gamma: float
    k: float
    k2: float
    ln_b: float | None = None    # T1 only
    gamma_bounds: dict = field(default_factory=dict)

    # large enough for every lemma-side sign condition at eps0 >= 0.1
    k1 = 8.0 * (2.0 / 0.1 + 1.0)

    @property
    def beta(self) -> float:
        return self.gamma - 1.0

    @property
    def p(self) -> float:
        return sobolev_p(self.r, self.d)

    @property
    def b_overflow(self) -> bool:
        """exp(ln_b) is not representable (T1 only)."""
        return self.ln_b is not None and self.ln_b > _LN_MAX

    def to_dict(self) -> dict:
        d = {
            "theorem": self.theorem, "r": self.r, "d": self.d,
            "delta0": self.delta0, "gamma": self.gamma, "beta": self.beta,
            "k": self.k, "k1": self.k1, "k2": self.k2, "p": self.p,
        }
        if self.theorem == "T1":
            d["ln_b"] = self.ln_b
            d["b_overflow"] = self.b_overflow
        if self.gamma_bounds:
            d["gamma_bounds"] = dict(self.gamma_bounds)
        return d


def compute_constants(theorem: str, r: float, d: int, delta0: float,
                      gamma: float) -> TheoremConstants:
    """Build the constant pack for T1/T2/T3, rejecting inadmissible parameters.

    Rejections name the violated bound.  k2 follows the proof-side quadratic:
    denominator (5kr - 8(1/2-delta0)) for T2 and (5kr - 8(1-delta0)) for T3.
    """
    if d < 1:
        raise AdmissibilityError(f"dimension must be >= 1, got {d}")
    r_sup = 1.0 + 2.0 / d
    if theorem == "T1":
        if not 1.0 < r <= r_sup:
            raise AdmissibilityError(
                f"T1 requires 1 < r <= 1+2/d = {r_sup}, got r = {r}")
        if not 0.0 < delta0 < 1.0:
            raise AdmissibilityError(f"T1 requires 0 < delta0 < 1, got {delta0}")
        bounds = {}
        if r == r_sup:
            bounds["2/(r-1)"] = 2.0 / (r - 1.0)
        _check_gamma(gamma, bounds)
        ln_b = compute_b(r, gamma, delta0, "lemma").ln_b
        k = (1.0 - delta0) / (2.0 * gamma)
        # the log-regime X(t) carries unit coefficient on its |u|^{r+1} term
        k2 = 1.0
    elif theorem in ("T2", "T3"):
        if not 1.0 < r < r_sup:
            raise AdmissibilityError(
                f"{theorem} requires 1 < r < 1+2/d = {r_sup}, got r = {r}")
        half = theorem == "T2"
        d0_sup = 0.5 if half else 1.0
        if not 0.0 < delta0 < d0_sup:
            raise AdmissibilityError(
                f"{theorem} requires 0 < delta0 < {d0_sup}, got {delta0}")
        k, k2, _ = k_quadratic(r, delta0, half)
        p = sobolev_p(r, d)
        bounds = {
            f"({'1/2' if half else '1'}-delta0)/k": _slack(delta0, half) / k,
            "(d+2-dr)/(r-1)": (d + 2.0 - d * r) / (r - 1.0),
            "(p-2r)/(r-1)": (p - 2.0 * r) / (r - 1.0),
        }
        _check_gamma(gamma, bounds)
        ln_b = None
    else:
        raise ValueError(f"unknown theorem {theorem!r}")

    consts = TheoremConstants(theorem=theorem, r=r, d=d, delta0=delta0,
                              gamma=gamma, k=k, k2=k2, ln_b=ln_b,
                              gamma_bounds=bounds)
    _check_identities(consts)
    return consts


def _check_gamma(gamma: float, bounds: dict):
    if not gamma > 0.0:
        raise AdmissibilityError(f"gamma must be positive, got {gamma}")
    violated = [f"gamma < {name} = {val}" for name, val in bounds.items()
                if not gamma < val]
    if violated:
        raise AdmissibilityError(
            f"gamma = {gamma} violates " + " and ".join(violated))


def _check_identities(c: TheoremConstants):
    if not (c.k > 0.0 and c.k1 > 0.0 and c.k2 > 0.0):
        raise AdmissibilityError("k, k1, k2 must all be positive")
    lhs, target = identity_sides(c.r, c.delta0, c.k, c.k2)
    if c.theorem == "T2" and abs(lhs - target) > 1e-10 * max(1.0, abs(target)):
        raise AdmissibilityError(
            f"T2 identity k - r/(r+1) - k2 (8/3)^r = delta0 r/(r+1) "
            f"violated: {lhs} vs {target}")
    if c.theorem == "T3" and lhs < target - 1e-12:
        raise AdmissibilityError(
            f"T3 inequality k - r/(r+1) - k2 (8/3)^r >= delta0 r/(r+1) "
            f"violated: {lhs} < {target}")


# ---------------------------------------------------------------------------
# lemma-proof inequality verification (Log regime)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityCheck:
    name: str
    passed: bool
    worst_margin: float
    worst_s: float


@dataclass(frozen=True)
class WeightInequalityReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def min_margin(self) -> float:
        return min(c.worst_margin for c in self.checks)


def verify_weight_inequalities(family: WeightFamily, r: float,
                               samples) -> WeightInequalityReport:
    """Pointwise check of the five Log-regime proof inequalities.

    (i)   f'(s) <= 0
    (ii)  f''(s) <= -4 f1'(s)
    (iii) (f')^2 / f <= (1+|beta|) (-f1')
    (iv)  (f1)^2 / f <= -f1'
    (v)   -f2'(s) >= ln^(beta-r+1)(b+s) / (b+s)^(r+1)

    Every inequality shares a positive factor of the form L^a / (b+s)^m with
    L = ln(b+s); the comparison is made on the factored polynomial-in-L forms,
    which stay well scaled even when b itself is far beyond double range.
    Margins are the factored differences normalized by the dominant term;
    a pass is margin >= 0 at every sample.
    """
    if family.regime is not Regime.LOG:
        raise ValueError("weight inequalities are defined for the Log regime")
    s = np.asarray(samples, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("samples must be nonnegative")
    beta = family.beta
    L = family.ln_bs(s)

    # reduced forms: inequality <=> margin >= 0
    margins = {
        # f' <= 0  <=>  L - beta >= 0
        "f_prime_nonpositive": (L - beta) / L,
        # f'' <= -4 f1'  <=>  6L^2 - beta L - beta^2 + beta >= 0
        "f_second_vs_f1_prime":
            (6.0 * L * L - beta * L - beta * beta + beta) / (6.0 * L * L),
        # (f')^2/f <= (1+|beta|)(-f1')  <=>  (1+|b|)(2L-b)L - (L-b)^2 >= 0
        "f_prime_sq_vs_f1_prime":
            ((1.0 + abs(beta)) * (2.0 * L - beta) * L - (L - beta) ** 2)
            / ((1.0 + abs(beta)) * 2.0 * L * L),
        # f1^2/f <= -f1'  <=>  L - beta >= 0
        "f1_sq_vs_f1_prime": (L - beta) / L,
        # -f2' >= L^(beta-but)/(b+s)^(r+1)  <=>  (r-1)L - (beta+1-r) >= 0
        "f2_prime_lower": ((r - 1.0) * L - (beta + 1.0 - r)) / (r * L),
    }
    checks = []
    for name, m in margins.items():
        i = int(np.argmin(m))
        checks.append(InequalityCheck(
            name=name, passed=bool(np.all(m >= 0.0)),
            worst_margin=float(m[i]), worst_s=float(s[i])))
    return WeightInequalityReport(checks=tuple(checks))
