"""Tail bound calculators for sums of independent bounded random variables.

The standing setup: S = sum of independent X_i with E X_i <= 0, X_i <= y,
variance budget sigma^2 and upper third-moment budget beta = sum E(X_i)_+^3,
summarized by eps = beta / (sigma^2 y).  Every bound here dominates
P(S >= x) and they form the chain

    Pin(x) <= PU(x) <= BH(x),    Be(x) <= Ca(x) and BH(x),

with Pin the sharpest generalized-moment bound on the Gaussian-plus-Poisson
comparison mixture, PU its exponential-class counterpart and BH the
classical Bennett-Hoeffding bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .distributions import BoundParams, MixtureRV, TwoPointRV
from .errors import DomainError, NumericalError, RangeError
from .posmoments import PosMomentMethod, _gauss_partial_moment, _route, pos_moment
from .special import (_ABS_TOL, _MAX_ITER, _REL_TOL, bennett_psi, exp_remainder,
                      lambert_w0_log, poisson_log_tail)

__all__ = [
    "TailBoundResult",
    "SummandBudget",
    "EffectiveEpsilon",
    "bh",
    "bh_exp",
    "pu_exp",
    "pu",
    "pu_numeric",
    "m_function",
    "solve_t_x",
    "p_alpha",
    "be",
    "pin",
    "ca",
    "en",
    "c_const",
    "plc_poisson_tail",
    "plc_mixture_upper",
    "lc3_bound",
    "effective_epsilon",
    "ea",
    "alpha_x_split",
]

_MAX_EXP_ARG = 700.0


@dataclass(frozen=True, slots=True)
class TailBoundResult:
    """A bound value together with the argmin that produced it.

    optimizer is t_x for the generalized-moment bounds, lambda_x for the
    exponential ones and alpha_x for the split identity; it is NaN when x
    sits outside the interior region where the optimizer is defined.
    err_estimate is a numerical diagnostic, not a rigorous error bound.
    """

    value: float
    optimizer: float
    method: str
    err_estimate: float = 0.0

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.value <= 1.0 + 1e-9):
            raise DomainError(f"bound value {self.value} outside [0, 1]")
        object.__setattr__(self, "value", min(1.0, max(0.0, self.value)))


@dataclass(frozen=True, slots=True)
class SummandBudget:
    """Per-summand budgets: E X_i^2 <= sigma^2, E(X_i)_+^3 <= beta,
    X_i <= y almost surely."""

    sigma: float
    beta: float
    y: float

    def __post_init__(self) -> None:
        for name in ("sigma", "beta", "y"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {val}")


class EffectiveEpsilon(NamedTuple):
    eps_tilde: float
    sigma: float
    degenerate: bool


def bh(sigma: float, y: float, x: float) -> TailBoundResult:
    """Bennett-Hoeffding bound exp(-(sigma^2/y^2) psi(x y / sigma^2))."""
    _check_pos("sigma", sigma)
    _check_pos("y", y)
    _check_nonneg_x(x)
    r = x * y / (sigma * sigma)
    value = math.exp(-(sigma / y) ** 2 * bennett_psi(r))
    lam = math.log1p(r) / y
    return TailBoundResult(value, lam, "closed-form")


def bh_exp(sigma: float, y: float, lam: float) -> float:
    """The Bennett bound on E exp(lam S): exp((e^{lam y} - 1 - lam y)
    sigma^2 / y^2)."""
    _check_pos("sigma", sigma)
    _check_pos("y", y)
    if not (lam >= 0.0):
        raise DomainError(f"lambda must be >= 0, got {lam}")
    u = lam * y
    if u > _MAX_EXP_ARG:
        raise RangeError(f"lambda*y = {u} overflows the exponential bound")
    return math.exp((sigma / y) ** 2 * exp_remainder(1, u))


def pu_exp(params: BoundParams, lam: float) -> float:
    """E exp(lam eta) for the comparison mixture: the Gaussian factor
    exp(lam^2 (1-eps) sigma^2 / 2) times the centered-Poisson factor."""
    if not (lam >= 0.0):
        raise DomainError(f"lambda must be >= 0, got {lam}")
    u = lam * params.y
    if u > _MAX_EXP_ARG:
        raise RangeError(f"lambda*y = {u} overflows the exponential bound")
    s2, y, eps = params.sigma**2, params.y, params.eps
    expo = 0.5 * lam * lam * (1.0 - eps) * s2 + eps * s2 / (y * y) * exp_remainder(1, u)
    return math.exp(expo)


def _pu_exponent(params: BoundParams, lam: float, x: float) -> float:
    s2, y, eps = params.sigma**2, params.y, params.eps
    u = lam * y
    return (-lam * x + 0.5 * lam * lam * (1.0 - eps) * s2
            + eps * s2 / (y * y) * exp_remainder(1, u))


def pu(params: BoundParams, x: float) -> TailBoundResult:
    """inf_lam e^{-lam x} pu_exp(lam) in closed form.

    Setting the derivative to zero gives, with q = x y / sigma^2,
    A = (q + eps)/(1 - eps) and kappa = eps/(1 - eps), the stationary point

        w_x = W(kappa e^A),    lambda_x = (A - w_x) / y,

    through the principal Lambert branch; substituting back collapses the
    exponent to a quadratic in w_x + 1.  Evaluating W via its log argument
    keeps this finite for arbitrarily large x.
    """
    _check_nonneg_x(x)
    s2, y, eps = params.sigma**2, params.y, params.eps
    delta = 1.0 - eps  # exact: eps in (0.5, 1) keeps the subtraction lossless
    q = x * y / s2
    a_arg = (q + eps) / delta
    w_x = lambert_w0_log(math.log(eps / delta) + a_arg)
    # The raw exponent ((delta (w+1))^2 - (q+eps)^2 - (1-eps^2)) / (2 delta)
    # cancels catastrophically as eps -> 1; factoring the difference of
    # squares and eliminating delta (w+1) - (q+eps) = delta (1 + ln(eps/
    # (delta w))) through the defining equation w + ln w = ln(eps/delta) + A
    # leaves a form with no 1/delta amplification.
    dw = delta * w_x
    log_ratio = math.log(eps / dw)
    num = (1.0 + log_ratio) * (dw + delta + q + eps) - (1.0 + eps)
    expo = num * s2 / (2.0 * y * y)
    lam = max(-log_ratio, 0.0) / y + 0.0
    value = math.exp(min(expo, 0.0))
    return TailBoundResult(value, lam, "closed-form")


def pu_numeric(params: BoundParams, x: float) -> TailBoundResult:
    """inf_lam e^{-lam x} pu_exp(lam) by direct root-finding on the
    derivative; the independent check of :func:`pu`.

    The derivative -x + lam (1-eps) sigma^2 + eps sigma^2 (e^{lam y}-1)/y
    is strictly increasing, so a sign-changing bracket pins the optimizer.
    """
    _check_nonneg_x(x)
    if x == 0.0:
        return TailBoundResult(1.0, 0.0, "root-solve")
    s2, y, eps = params.sigma**2, params.y, params.eps

    def deriv(lam: float) -> float:
        return (-x + lam * (1.0 - eps) * s2
                + eps * s2 / y * exp_remainder(0, lam * y))

    hi = 1.0 / y
    cap = (_MAX_EXP_ARG - 10.0) / y
    while deriv(hi) < 0.0 and hi < cap:
        hi = min(2.0 * hi, cap)
    if deriv(hi) < 0.0:
        raise NumericalError("no sign change for the PU optimizer")
    from scipy.optimize import brentq
    lam = brentq(deriv, 0.0, hi, rtol=1e-14, maxiter=_MAX_ITER)
    value = math.exp(min(_pu_exponent(params, lam, x), 0.0))
    return TailBoundResult(value, lam, "root-solve")


def m_function(rv: MixtureRV | TwoPointRV, alpha: float, t: float) -> float:
    """m(t) = t + E(eta-t)_+^alpha / E(eta-t)_+^{alpha-1}.

    Strictly increasing in t up to the point where it saturates at the
    supremum of the support; the inverse of t |-> m(t) is what
    :func:`solve_t_x` computes.
    """
    if not (alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    num = pos_moment(rv, t, alpha)
    den = pos_moment(rv, t, alpha - 1.0)
    if den <= _ABS_TOL:
        raise NumericalError(f"E(eta-t)_+^{alpha - 1} vanished at t = {t}")
    return t + num / den


def _support_sup(rv: MixtureRV | TwoPointRV) -> float:
    return rv.b if isinstance(rv, TwoPointRV) else math.inf


def solve_t_x(rv: MixtureRV | TwoPointRV, alpha: float, x: float) -> float:
    """The unique t with m(t) = x, for x strictly between the mean and the
    support supremum.

    The bracket starts at [x - 4 stddev, x - 1e-12 max(1,|x|)] and the left
    offset doubles until m drops below x there; Brent's method finishes.
    When round-off in m leaves no sign change on that bracket (far out in
    the tail), the failure is a NumericalError.
    """
    x_star = _support_sup(rv)
    if not (0.0 < x < x_star):
        raise DomainError(f"x must lie in (mean, sup support) = (0, {x_star}), got {x}")
    sd = rv.stddev if isinstance(rv, MixtureRV) else math.sqrt(rv.second_moment)
    right = x - 1e-12 * max(1.0, abs(x))
    off = 4.0 * sd
    g = lambda t: m_function(rv, alpha, t) - x
    while g(x - off) > 0.0:
        off *= 2.0
        if off > 1e12 * sd:
            raise NumericalError("left bracket for t_x not found")
    from scipy.optimize import brentq
    try:
        return float(brentq(g, x - off, right, rtol=1e-12,
                            xtol=1e-12 * max(1.0, abs(x), sd), maxiter=_MAX_ITER))
    except DomainError:
        raise
    except ValueError as exc:  # brentq's bracket check
        raise NumericalError(f"m(t) - x does not change sign on the t_x bracket "
                             f"[{x - off}, {right}]") from exc


def p_alpha(rv: MixtureRV | TwoPointRV, alpha: float, x: float,
            method: PosMomentMethod | None = None) -> TailBoundResult:
    """The generalized-moment tail bound

        P_alpha(eta; x) = inf_{t < x} E(eta - t)_+^alpha / (x - t)^alpha.

    Equals 1 at and below the mean, the atom mass at and beyond the support
    supremum, and otherwise evaluates at t_x.  The equivalent expression
    (E(eta-t_x)_+^{alpha-1})^alpha / (E(eta-t_x)_+^alpha)^{alpha-1} is
    recomputed as a consistency diagnostic and its discrepancy reported in
    err_estimate.
    """
    if not (alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if x <= 0.0:
        return TailBoundResult(1.0, math.nan, "boundary")
    x_star = _support_sup(rv)
    if x >= x_star:
        atom = rv.prob_pos if (isinstance(rv, TwoPointRV) and x == x_star) else 0.0
        return TailBoundResult(atom, math.nan, "boundary")
    t_x = solve_t_x(rv, alpha, x)
    e_hi = pos_moment(rv, t_x, alpha, method=method)
    e_lo = pos_moment(rv, t_x, alpha - 1.0, method=method)
    value = e_hi / (x - t_x) ** alpha
    # Same quantity written without x, exact when m(t_x) = x holds exactly.
    if e_hi > 0.0 and e_lo > 0.0:
        alt = math.exp(alpha * math.log(e_lo) - (alpha - 1.0) * math.log(e_hi))
    else:
        alt = value
    value = min(value, 1.0)
    return TailBoundResult(value, t_x, _route(rv, alpha, method),
                           err_estimate=abs(value - alt))


def be(params: BoundParams, x: float,
       method: PosMomentMethod | None = None) -> TailBoundResult:
    """Bentkus bound: P_2 of the scaled centered Poisson with the full
    variance budget, y tilde-Pi_{sigma^2/y^2}."""
    _check_nonneg_x(x)
    return p_alpha(params.bentkus(), 2.0, x, method=method)


def pin(params: BoundParams, x: float,
        method: PosMomentMethod | None = None) -> TailBoundResult:
    """The class-F3 bound: P_3 of the Gaussian-plus-Poisson mixture."""
    _check_nonneg_x(x)
    return p_alpha(params.mixture(), 3.0, x, method=method)


def ca(sigma: float, x: float) -> float:
    """Cantelli: sigma^2 / (sigma^2 + x^2); 1 for x < 0."""
    _check_pos("sigma", sigma)
    _check_finite_x(x)
    if x <= 0.0:
        return 1.0
    return sigma * sigma / (sigma * sigma + x * x)


def en(sigma: float, x: float) -> float:
    """Best exponential bound for the pure Gaussian: exp(-x^2/(2 sigma^2));
    1 for x < 0."""
    _check_pos("sigma", sigma)
    _check_finite_x(x)
    if x <= 0.0:
        return 1.0
    return math.exp(-x * x / (2.0 * sigma * sigma))


def c_const(alpha: float, beta: float) -> float:
    """The comparison constant c_{alpha,beta} = Gamma(alpha+1)(e/alpha)^alpha
    / (Gamma(beta+1)(e/beta)^beta), with the beta = 0 limit equal to
    Gamma(alpha+1)(e/alpha)^alpha."""
    if not (alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not (0.0 <= beta <= alpha):
        raise DomainError(f"beta must lie in [0, {alpha}], got {beta}")
    if beta == alpha:
        return 1.0
    num = math.gamma(alpha + 1.0) * (math.e / alpha) ** alpha
    den = 1.0 if beta == 0.0 else math.gamma(beta + 1.0) * (math.e / beta) ** beta
    return num / den


def plc_poisson_tail(theta: float, u: float) -> float:
    """Least log-concave majorant of u |-> P(Pois(theta) >= u).

    Geometric interpolation of the tail between consecutive integers:
    with j = ceil(u - 1), P(>= j)^{j+1-u} P(>= j+1)^{u-j}.  Coincides with
    the tail at integer u and is 1 for u <= 0.
    """
    _check_pos("theta", theta)
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u}")
    if u <= 0.0:
        return 1.0
    j = math.ceil(u - 1.0)
    log_val = 0.0
    e1, e2 = j + 1.0 - u, u - j
    if e1 != 0.0:
        log_val += e1 * poisson_log_tail(theta, float(j))
    if e2 != 0.0:
        lt = poisson_log_tail(theta, float(j + 1))
        if lt == -math.inf:
            return 0.0
        log_val += e2 * lt
    return math.exp(log_val)


def plc_mixture_upper(params: BoundParams, x: float) -> float:
    """Upper bound on the log-concave majorant of the mixture tail:
    integrate the Poisson majorant against the Gaussian component,

        int plc(y tilde-Pi >= z) P(x - Gamma in dz).

    The integrand has kinks on the lattice z = y(k - theta), so the range
    [x - 10 sqrt(v), x + 10 sqrt(v)] is split there before adaptive
    quadrature.
    """
    _check_finite_x(x)
    from ._quadrature import adaptive_quad

    rv = params.mixture()
    v, y, theta = rv.v, rv.y, rv.theta
    sd = math.sqrt(v)
    z_lo, z_hi = x - 10.0 * sd, x + 10.0 * sd
    inv = 1.0 / math.sqrt(2.0 * math.pi * v)

    def f(z: float) -> float:
        d = x - z
        return (plc_poisson_tail(theta, z / y + theta)
                * inv * math.exp(-0.5 * d * d / v))

    k_lo = math.ceil(z_lo / y + theta)
    k_hi = math.floor(z_hi / y + theta)
    knots = [z_lo]
    if k_hi >= k_lo:
        stride = max(1, (k_hi - k_lo + 1) // 1024)
        knots.extend(y * (k - theta) for k in range(k_lo, k_hi + 1, stride))
    knots.append(z_hi)
    knots = sorted(set(kn for kn in knots if z_lo <= kn <= z_hi))
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        total += adaptive_quad(f, a, b, rel=_REL_TOL * 0.1,
                               abs_tol=1e-16 / max(1, len(knots)))[0]
    return min(1.0, max(0.0, total))


def lc3_bound(params: BoundParams, x: float) -> float:
    """c_{3,0} times the log-concave majorant bound, clamped to 1."""
    return min(1.0, c_const(3.0, 0.0) * plc_mixture_upper(params, x))


def effective_epsilon(summands: list[SummandBudget], y: float) -> EffectiveEpsilon:
    """Grouped third-moment ratio: only summands with y_i > sigma_i
    contribute their beta_i, which can only shrink eps.

    Returns (eps_tilde, sigma, degenerate); degenerate means eps_tilde
    fell outside (0, 1) and the caller should fall back to the plain
    bounds.
    """
    _check_pos("y", y)
    if not summands:
        raise DomainError("need at least one summand")
    for sb in summands:
        if sb.y > y:
            raise DomainError(f"summand cap {sb.y} exceeds the global cap {y}")
        if sb.beta > sb.sigma**2 * y:
            warnings.warn(f"beta = {sb.beta} exceeds sigma_i^2 y = {sb.sigma**2 * y}; "
                          "the budget cannot come from a variable capped at y",
                          stacklevel=2)
    s2 = sum(sb.sigma**2 for sb in summands)
    beta_tilde = sum(sb.beta for sb in summands if sb.y > sb.sigma)
    eps_tilde = beta_tilde / (s2 * y)
    return EffectiveEpsilon(eps_tilde, math.sqrt(s2), not 0.0 < eps_tilde < 1.0)


def ea(x: float) -> float:
    """Two-sided third-moment bound for the standard normal:
    inf_{t in (0,x)} E(|Z| - t)_+^3 / (x - t)^3, clamped to 1.

    By symmetry E(|Z| - t)_+^3 = 2 E(Z - t)_+^3 for t >= 0, with the
    Gaussian positive-part moment in closed form.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    from scipy.optimize import minimize_scalar

    def g(t: float) -> float:
        return 2.0 * _gauss_partial_moment(1.0, -t, 3) / (x - t) ** 3

    res = minimize_scalar(g, bounds=(1e-12 * x, x * (1.0 - 1e-9)),
                          method="bounded",
                          options={"xatol": 1e-11 * max(1.0, x)})
    # The infimum over the open interval can sit at the t -> 0 limit.
    best = min(float(res.fun), g(0.0))
    return min(1.0, best)


def alpha_x_split(params: BoundParams, x: float) -> float:
    """The split point alpha_x in (eps, 1) at which PU factors exactly into
    a Gaussian EN piece at (1-alpha_x) x and a Poisson BH piece at
    alpha_x x.

    Root of the strictly decreasing

        (1 - a) x^2 / ((1-eps) sigma^2) - (x/y) ln(1 + a x y / (eps sigma^2))

    over a in (0, 1); positive at 0 and negative at 1, so Brent applies.
    """
    if not (x > 0.0):
        raise DomainError(f"x must be positive, got {x}")
    s2, y, eps = params.sigma**2, params.y, params.eps

    def h(a: float) -> float:
        return ((1.0 - a) * x * x / ((1.0 - eps) * s2)
                - x / y * math.log1p(a * x * y / (eps * s2)))

    from scipy.optimize import brentq
    return float(brentq(h, 0.0, 1.0, rtol=1e-15, maxiter=_MAX_ITER))


def _check_pos(name: str, val: float) -> None:
    if not (math.isfinite(val) and val > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {val}")


def _check_finite_x(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def _check_nonneg_x(x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
