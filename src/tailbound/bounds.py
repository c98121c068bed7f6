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

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .distributions import BoundParams, MixtureRV, TwoPointRV
from .errors import DomainError, NumericalError, RangeError
from .posmoments import _SQRT_2PI, PosMomentMethod, _mills_ratios, _moments, _route, pos_moment
from .special import (_ABS_TOL, _MAX_ITER, _TERM_BUDGET, _poisson_logpmf, _root_in_bracket,
                      bennett_psi, exp_remainder, lambert_w0_log, poisson_log_tail)

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
# m(0) = E Z_+^3 / E Z_+^2 = 4 phi(0) for the standard normal Z.
_FOUR_PHI0 = 4.0 / _SQRT_2PI
_SQRT2 = math.sqrt(2.0)
# The standard normal law, whose t_x seeds every other solve.
_STD_NORMAL = MixtureRV(1.0, 1.0, 0.0)


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


def _scale_free(power: int, nonneg_x: bool = True) -> Callable[[Callable], Callable]:
    """Runs a bound(params, x, ...) at sigma = 1, on BoundParams(1, y/sigma,
    eps) and x/sigma, after checking x (x >= 0, or finite x only where
    ``nonneg_x`` is false).  The bounds are scale-equivariant, and at sigma
    = 1 no power of sigma leaves the double range.  A TailBoundResult's
    optimizer comes back times sigma**power (t_x: 1, lambda_x: -1); a
    float (alpha_x_split's ratio, power 0) comes back as it is.  At
    sigma = 1 no bit changes: dividing by 1.0 is exact."""
    def wrap(bound: Callable) -> Callable:
        @functools.wraps(bound)
        def at_unit_sigma(params: BoundParams, x: float, *args, **kwargs):
            (_check_nonneg_x if nonneg_x else _check_finite_x)(x)
            s = params.sigma
            r, xi = params.y / s, x / s
            if not (0.0 < r < math.inf and math.isfinite(xi)):
                raise RangeError(f"y / sigma = {r} or x / sigma = {xi} leaves the double range")
            out = bound(BoundParams(1.0, r, params.eps), xi, *args, **kwargs)
            if isinstance(out, TailBoundResult):  # a fresh result, as __post_init__ sets it
                opt = out.optimizer * s if power > 0 else out.optimizer / s
                object.__setattr__(out, "optimizer", opt)
            return out
        return at_unit_sigma
    return wrap


def bh(sigma: float, y: float, x: float) -> TailBoundResult:
    """Bennett-Hoeffding bound exp(-(sigma^2/y^2) psi(x y / sigma^2))."""
    _check_pos("sigma", sigma)
    _check_pos("y", y)
    _check_nonneg_x(x)
    r, u = y / sigma, x / sigma * (y / sigma)
    value = math.exp(-(1.0 / r) ** 2 * bennett_psi(u))
    lam = math.log1p(u) / r / sigma
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
    exp(lam^2 (1-eps) sigma^2 / 2) times the centered-Poisson factor
    exp(theta e_1(lam y)), theta = eps sigma^2 / y^2 the Poisson rate.
    Scale-free: computed on l = lam sigma and r = y / sigma, with theta
    e_1(l r) = eps l^2 g(l r), g(u) = e_1(u) / u^2 (:func:`_e1_over_square`),
    so it stays finite where theta = eps / r^2 overflows."""
    if not (lam >= 0.0):
        raise DomainError(f"lambda must be >= 0, got {lam}")
    l, r, eps = lam * params.sigma, params.y / params.sigma, params.eps
    if not (math.isfinite(l) and 0.0 < r < math.inf):
        raise RangeError(f"lambda sigma = {l} or y / sigma = {r} leaves the double range")
    u = l * r
    if u > _MAX_EXP_ARG:
        raise RangeError(f"lambda*y = {u} overflows the exponential bound")
    return math.exp(0.5 * l * l * (1.0 - eps) + eps * l * l * _e1_over_square(u))


def _e1_over_square(u: float) -> float:
    """g(u) = (e^u - 1 - u) / u^2 for u >= 0: below u = 1e-2 its Taylor
    series sum_{m >= 2} u^{m-2} / m!, eight terms (the rest is below 1e-22
    of the sum), and exp_remainder(1, u) / u^2 above."""
    if u >= 1e-2:
        return exp_remainder(1, u) / (u * u)
    out, term = 0.0, 0.5
    for m in range(3, 11):
        out += term
        term *= u / m
    return out


def _pu_exponent(params: BoundParams, lam: float, x: float) -> float:
    s2, y, eps = params.sigma**2, params.y, params.eps
    u = lam * y
    return (-lam * x + 0.5 * lam * lam * (1.0 - eps) * s2
            + eps * s2 / (y * y) * exp_remainder(1, u))


@_scale_free(-1)
def pu(params: BoundParams, x: float) -> TailBoundResult:
    """inf_lam e^{-lam x} pu_exp(lam) in closed form.

    Setting the derivative to zero gives, with q = x y / sigma^2,
    A = (q + eps)/(1 - eps) and kappa = eps/(1 - eps), the stationary point

        w_x = W(kappa e^A),    lambda_x = (A - w_x) / y,

    through the principal Lambert branch; substituting back collapses the
    exponent to a quadratic in w_x + 1.  Evaluating W via its log argument
    keeps this finite for arbitrarily large x.
    """
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


@_scale_free(-1)
def pu_numeric(params: BoundParams, x: float) -> TailBoundResult:
    """inf_lam e^{-lam x} pu_exp(lam) by direct root-finding on the
    derivative; the independent check of :func:`pu`.

    The derivative -x + lam (1-eps) sigma^2 + eps sigma^2 (e^{lam y}-1)/y
    is strictly increasing, so a sign-changing bracket pins the optimizer.
    """
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
    lam = _root_in_bracket(deriv, 0.0, hi, rtol=1e-14)
    value = math.exp(min(_pu_exponent(params, lam, x), 0.0))
    return TailBoundResult(value, lam, "root-solve")


def m_function(rv: MixtureRV | TwoPointRV, alpha: float, t: float) -> float:
    """m(t) = t + E(eta-t)_+^alpha / E(eta-t)_+^{alpha-1}, from one fused
    moment walk (:func:`tailbound.posmoments._moments`).

    Strictly increasing in t up to the point where it saturates at the
    supremum of the support; the inverse of t |-> m(t) is what
    :func:`solve_t_x` computes.
    """
    if not (alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    num, den = _moments(rv, t, alpha, True)[:2]
    if den <= _ABS_TOL:
        raise NumericalError(f"E(eta-t)_+^{alpha - 1} vanished at t = {t}")
    return t + num / den


def _support_sup(rv: MixtureRV | TwoPointRV) -> float:
    return rv.b if isinstance(rv, TwoPointRV) else math.inf


def solve_t_x(rv: MixtureRV | TwoPointRV, alpha: float, x: float) -> float:
    """The unique t with m(t) = x, for x strictly between the mean and the
    support supremum, by the safeguarded Newton iteration of
    :func:`_solve_t_x`."""
    return _solve_t_x(rv, alpha, x)[0]


def _solve_t_x(rv: MixtureRV | TwoPointRV, alpha: float,
               x: float) -> tuple[float, float, float]:
    """(t_x, N_alpha, N_{alpha-1}) with N_p = E(eta-t_x)_+^p, the moments
    of the solve's last walk or of its finish from there.

    Each step makes one fused walk, (N_a, N_{a-1}, N_{a-2}) at t, which
    gives m(t) and m'(t) = 1 - a + (a-1) N_a N_{a-2} / N_{a-1}^2, and takes
    a Newton step on m(t) = x; each walk's peak search starts from the
    previous walk's peak (the count below it where t fell), since the
    peak moves up with t.  For 1 < alpha < 2, where a - 2 < 0, the slope is
    the secant through the last two points (1 at the first: 0 < m' <= 1
    for log-concave laws).

    Two laws can end a solve without walking to its last point.  On the
    Poisson lattice (v = 0) at alpha = 2, h(t) = N_2 - (x-t) N_1 is linear
    in t within one lattice cell, so the step that zeroes it is taken
    instead whenever it stays in the cell: it lands on the root, and where
    it lands strictly inside the cell the moments there are the walk's
    polynomials in the step, N_2 - 2 N_1 d + N_0 d^2 and N_1 - N_0 d,
    exactly; the solve ends there unless the first cancels by more than
    16.  At alpha = 3 on a mixture with v > 0,
    :func:`_cubic_finish` solves m = x on the walk's Taylor model and ends
    there once the model's certified remainder is below the solve's
    tolerance.

    The seed is the Gaussian limit of the same variance (:func:`_gauss_seed`).
    Every point narrows a sign bracket [lo, hi] of m - x, whose right end
    starts at x - 1e-12 max(1, |x|) unevaluated.  A step that leaves the
    bracket bisects it; while no left end is known, one that runs left of
    x - 2 (x - t) stops there, so the offset from x at most doubles.  The
    solve ends at the first point whose step, or bracket, is below
    (1e-12 max(1, |x|, sd) + 1e-12 |t|) / 2, the tolerance of the Brent
    solve this replaces: m - x cancels by |t| / |x - t|, so a finer one
    need not be met.  A NaN m, a vanished N_{a-1}, no sign change
    (m < x at the right end, or no left end by offset 1e12 sd) and
    _MAX_ITER steps are a NumericalError.
    """
    x_star = _support_sup(rv)
    if not (0.0 < x < x_star):
        raise DomainError(f"x must lie in (mean, sup support) = (0, {x_star}), got {x}")
    sd = rv.stddev if isinstance(rv, MixtureRV) else math.sqrt(rv.second_moment)
    return _newton_t_x(rv, alpha, x, sd, _gauss_seed(alpha, x, sd))


def _newton_t_x(rv: MixtureRV | TwoPointRV, alpha: float, x: float, sd: float,
                t: float) -> tuple[float, float, float]:
    """The iteration of :func:`_solve_t_x` from the seed t."""
    x_tol = 1e-12 * max(1.0, abs(x), sd)
    lo, hi = -math.inf, x - 1e-12 * max(1.0, abs(x))
    hi_seen = False
    mixture = isinstance(rv, MixtureRV)
    lattice2 = alpha == 2.0 and mixture and rv.v == 0.0
    cubic = alpha == 3.0 and mixture and rv.v > 0.0
    t, t_prev, g_prev, start = min(t, hi), math.nan, math.nan, -1
    for _ in range(_MAX_ITER):
        n_a, n_b, n_c, n_d, peak, z_max = _moments(rv, t, alpha, True, start)
        if n_b <= _ABS_TOL:
            raise NumericalError(f"E(eta-t)_+^{alpha - 1} vanished at t = {t}")
        g = t + n_a / n_b - x
        if math.isnan(g):
            raise NumericalError(f"m(t) is NaN at t = {t}")
        if g == 0.0:
            return t, n_a, n_b
        if g > 0.0:
            hi, hi_seen = t, True
        elif t == hi:
            raise NumericalError(f"no sign change of m(t) - x below t = {t}")
        else:
            lo = t
        if alpha >= 2.0:
            slope = 1.0 - alpha + (alpha - 1.0) * (n_a / n_b) * (n_c / n_b)
        else:
            slope = (g - g_prev) / (t - t_prev) if t_prev == t_prev else 1.0
        step = -g / slope if slope > 0.0 else math.nan
        tol = 0.5 * (x_tol + 1e-12 * abs(t))
        in_cell = False
        # h' = (x-t) N_0 - N_1, positive near the root (Cauchy-Schwarz).
        if lattice2 and (dh := (x - t) * n_c - n_b) > 0.0:
            t_cell = t - (n_a - (x - t) * n_b) / dh
            edge = rv.y * (math.floor(t / rv.y + rv.theta) - rv.theta)
            if edge - tol <= t_cell <= edge + rv.y + tol:
                step, in_cell = t_cell - t, True
                n2, d = n_a - step * (2.0 * n_b - step * n_c), abs(step)
                # Its terms cancel by their sum over n2: at most 16 keeps the
                # walk's digits to a few units of 2^-53.
                if edge < t_cell < edge + rv.y and n_a + d * (2.0 * n_b + d * n_c) <= 16.0 * n2:
                    return t_cell, n2, n_b - step * n_c
        if cubic and step == step:
            done = _cubic_finish(x, t, (n_a, n_b, n_c, n_d), z_max, math.sqrt(rv.v), step, tol)
            if done is not None and lo < done[0] < hi:
                return done
        if abs(step) <= tol or hi - lo <= 2.0 * tol:
            return t, n_a, n_b
        t_prev, g_prev, t_new = t, g, t + step
        if lo == -math.inf and not in_cell:
            t_new = max(t_new, x - 2.0 * (x - t)) if t_new == t_new else x - 2.0 * (x - t)
            if x - t_new > 1e12 * sd:
                raise NumericalError("left bracket for t_x not found")
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi) if hi_seen else hi
        # The peak moves with t, one way: a search from the count below it
        # when t falls finds a peak that fell by one in three slices.
        t, start = t_new, peak - 1 if t_new < t else peak
    raise NumericalError(f"t_x solve did not converge in {_MAX_ITER} steps", estimate=t)


def _cubic_finish(x: float, t: float, moments: tuple[float, float, float, float],
                  z_max: float, s: float, step: float,
                  tol: float) -> tuple[float, float, float] | None:
    """(t + d, N_3, N_2) at the root t + d of m = x, from the moments (N_3,
    N_2, N_1, N_0) of a walk at t on a mixture with Gaussian part s^2 > 0,
    without walking there; None where the remainder is too large.

    By Taylor, N_3(t+d) = N_3 - 3 N_2 d + 3 N_1 d^2 - N_0 d^3 + R_3 and
    N_2(t+d) = N_2 - 2 N_1 d + N_0 d^2 + R_2, with 0 <= R_3 <= d^4 f/4
    and |R_2| <= |d|^3 f/3 (on either side of t), f the largest density of
    eta on the step.  Each count's Gaussian density is at most its hazard
    max(2.52, z + 1) (Gordon's inequality) times its tail, and a shift by
    d multiplies it by at most e^{|z d|/s}; the walk gives |z| <= z_max
    over its counts and N_0 = P(eta > t), so f <= max(2.52, z_max + 1)
    e^{z_max |d|/s} N_0 / s (the terms past the walk's certified stop add
    1e-18 of N_0).  Newton steps on the model, from the walk's own step,
    find d; the finish holds once the bound on R_3 is below 2^-54 of the
    model's N_3 and that on R_2 below 2^-40 of its N_2, the solve's own
    tolerance.  N_3 comes back plus its bound, so the ratio stays an upper
    bound.
    """
    n3, n2, n1, n0 = moments
    hazard, d = max(2.52, z_max + 1.0) * n0 / s, step
    if step ** 4 * hazard > 2.0**-52 * n3:
        return None
    for _ in range(8):
        p1 = n1 - d * n0
        p2 = n2 - d * (2.0 * n1 - d * n0)
        p3 = n3 - d * (3.0 * n2 - d * (3.0 * n1 - d * n0))
        move = -(t + d + p3 / p2 - x) / (2.0 * (p3 / p2) * (p1 / p2) - 2.0)
        d += move
        if abs(move) <= tol:
            break
    else:
        return None
    # The model at the double t + d: its rounding moves N_3 by 3 N_2 ulp(t),
    # which is many ulp of N_3 where x - t << |t|.
    t_new = t + d
    d = t_new - t
    p2 = n2 - d * (2.0 * n1 - d * n0)
    p3 = n3 - d * (3.0 * n2 - d * (3.0 * n1 - d * n0))
    f_bar = hazard * math.exp(min(z_max * abs(d) / s, 700.0))
    r3, r2 = d**4 * f_bar / 4.0, abs(d) ** 3 * f_bar / 3.0
    if not (p2 > 0.0 and r3 <= 2.0**-54 * p3 and r2 <= 2.0**-40 * p2):
        return None
    return t_new, p3 + r3, p2


def _gauss_seed(alpha: float, x: float, sd: float) -> float:
    """t_x of the Gaussian law of standard deviation sd: m_G(t) = t + sd
    J_a(t/sd) / J_{a-1}(t/sd) = x, solved as :func:`_solve_t_x` solves (one
    slice per step, no walk) from its large-x asymptote t = x - a sd^2 / x,
    which is itself the seed past 6 sd."""
    if x > 6.0 * sd:
        return x - alpha * sd * sd / x
    u = x / sd
    # Its small-x asymptote is t = -(a - 1) sd^2 / x.
    u0 = u - alpha / u if u > 1.0 else (1.0 - alpha) / u
    return sd * _newton_t_x(_STD_NORMAL, alpha, u, 1.0, u0)[0]


def p_alpha(rv: MixtureRV | TwoPointRV, alpha: float, x: float,
            method: PosMomentMethod | None = None) -> TailBoundResult:
    """The generalized-moment tail bound

        P_alpha(eta; x) = inf_{t < x} E(eta - t)_+^alpha / (x - t)^alpha.

    Equals 1 at and below the mean, the atom mass at and beyond the support
    supremum, and otherwise is the ratio at the t_x of :func:`_solve_t_x`,
    with the moments of its last walk (or of the route ``method`` forces).
    That ratio bounds P(eta >= x) whatever the root error, and a root error
    moves it only at second order.  The equivalent expression
    (E(eta-t_x)_+^{alpha-1})^alpha / (E(eta-t_x)_+^alpha)^{alpha-1}, exact
    where m(t_x) = x holds exactly, is the consistency diagnostic: its
    discrepancy is err_estimate.
    """
    if not (alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if x <= 0.0:
        return TailBoundResult(1.0, math.nan, "boundary")
    x_star = _support_sup(rv)
    if x >= x_star:
        atom = rv.prob_pos if (isinstance(rv, TwoPointRV) and x == x_star) else 0.0
        return TailBoundResult(atom, math.nan, "boundary")
    t_x, e_hi, e_lo = _solve_t_x(rv, alpha, x)
    if method is not None:
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


@_scale_free(1)
def be(params: BoundParams, x: float,
       method: PosMomentMethod | None = None) -> TailBoundResult:
    """Bentkus bound: P_2 of the scaled centered Poisson with the full
    variance budget, y tilde-Pi_{sigma^2/y^2}."""
    return p_alpha(params.bentkus(), 2.0, x, method=method)


@_scale_free(1)
def pin(params: BoundParams, x: float,
        method: PosMomentMethod | None = None) -> TailBoundResult:
    """The class-F3 bound: P_3 of the Gaussian-plus-Poisson mixture."""
    return p_alpha(params.mixture(), 3.0, x, method=method)


def ca(sigma: float, x: float) -> float:
    """Cantelli: sigma^2 / (sigma^2 + x^2); 1 for x < 0."""
    _check_pos("sigma", sigma)
    _check_finite_x(x)
    if x <= 0.0:
        return 1.0
    xi = x / sigma
    return 1.0 / (1.0 + xi * xi)


def en(sigma: float, x: float) -> float:
    """Best exponential bound for the pure Gaussian: exp(-x^2/(2 sigma^2));
    1 for x < 0."""
    _check_pos("sigma", sigma)
    _check_finite_x(x)
    if x <= 0.0:
        return 1.0
    xi = x / sigma
    return math.exp(-xi * xi / 2.0)


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
        log_val += e2 * poisson_log_tail(theta, float(j + 1))
    return math.exp(log_val)


def _log_normal_tail(z: float) -> float:
    """log P(Z >= z); past 37, where erfc underflows, phi(z) J_0(z)."""
    return (math.log(0.5 * math.erfc(z / _SQRT2)) if z < 37.0
            else math.log(_mills_ratios(z)[3] / _SQRT_2PI) - 0.5 * z * z)


def _log_normal_mass(a: float, b: float) -> float:
    """log P(a < Z <= b), a < b, from the tail that does not cancel (or -inf)."""
    if a >= 0.0 or b <= 0.0:
        near, far = (a, b) if a >= 0.0 else (-b, -a)
        log_near = _log_normal_tail(near)
        gap = -math.expm1(_log_normal_tail(far) - log_near)
        return log_near + math.log(gap) if gap > 0.0 else -math.inf
    return math.log(0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2)))


@_scale_free(0, nonneg_x=False)
def plc_mixture_upper(params: BoundParams, x: float) -> float:
    """int plc(y tilde-Pi >= z) P(x - Gamma in dz), exactly, by lattice cells.

    u = (x - Gamma)/y + theta is N(m, s^2), m = x/y + theta, s = sqrt(v)/y.
    The majorant is 1 for u <= 0 and exp(L_j + (u - j) d_j) on (j, j+1],
    L_j = log P(Pois(theta) >= j), d_j = L_{j+1} - L_j: a cell is
    exp(L_j + d_j (m-j) + d_j^2 s^2/2) P(j < N(m + d_j s^2, s^2) <= j+1).
    The walk runs down from the lower of ceil(m + 9 s), above which the
    majorant is at most its value at m and the cells add at most 2 P(Z >= 9)
    < 1e-18 of the sum, and theta + t, where Bernstein's P(Pois >= theta + t)
    <= exp(-t^2 / (2 (theta + t/3))) is e^-42 P(u <= 0).  One poisson_log_tail
    seeds L, and P(>= j) = P(>= j+1) + P(= j) carries it down.  The cells
    are log-concave in j (Prekopa): the walk stops as the Poisson-count walk
    (:func:`tailbound.special._poisson_log_sums`) does.
    """
    rv = params.mixture()
    theta, s, m = rv.theta, math.sqrt(rv.v) / rv.y, x / rv.y + rv.theta
    _check_pos("theta", theta)
    # The sum in units of exp(ref), its largest term so far, from P(u <= 0).
    ref, total, log_prev = _log_normal_tail(m / s), 1.0, -math.inf
    k = 42.0 - ref
    t = k / 3.0 + math.sqrt(k * k / 9.0 + 2.0 * k * theta)
    top = max(0, math.ceil(min(m + 9.0 * s, theta + t)))
    off = top - m  # j - m as off - (top - j): cells stay apart for huge m
    log_next = poisson_log_tail(theta, top + 1.0)
    rho = math.exp(_poisson_logpmf(top, theta) - log_next)  # P(= j) / P(>= j+1)
    for j in range(top, -1, -1):
        # The walk ends at 0 or below the peak, which is at most m.
        if max(top - j, min(off, top)) > _TERM_BUDGET:
            raise NumericalError(f"lattice-cell sum takes over {_TERM_BUDGET} cells")
        d = -math.log1p(rho)
        log_cur, ds, lo = log_next - d, d * s, off - (top - j)
        # The sum is at most P(u <= j) + P(Pois >= j); past ~1e-324 it is 0.
        if log_cur < -746.0 and _log_normal_tail(-lo / s) < -746.0:
            return 0.0
        lo_t, hi_t = lo / s - ds, (lo + 1.0) / s - ds
        log_c = log_cur - ds * (lo / s - 0.5 * ds) + _log_normal_mass(lo_t, hi_t)
        if log_c > ref:
            total, ref = total * math.exp(ref - log_c), log_c
        total += math.exp(log_c - ref)
        # Above the cell holding the tilted mean a fall is only round-off.
        if hi_t <= 0.0 and log_c < log_prev:
            r = math.exp(log_c - log_prev)
            if math.exp(log_c - ref) * r <= 1e-18 * total * (1.0 - r):
                break
        rho *= j / theta / (1.0 + rho)
        log_next, log_prev = log_cur, log_c
    return min(1.0, math.exp(ref + math.log(total)))


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
    inf_{t in [0,x)} E(|Z| - t)_+^3 / (x - t)^3, clamped to 1.

    By symmetry E(|Z| - t)_+^3 = 2 E(Z - t)_+^3 for t >= 0.  The ratio is
    stationary where m(t) = t + E(Z-t)_+^3 / E(Z-t)_+^2 equals x.  m
    increases from m(0) = 4 phi(0), so for x <= 4 phi(0) the infimum is the
    t -> 0 limit 4 phi(0) / x^3; otherwise Brent's method solves m(t) = x on
    [0, x (1 - 1e-12)].  E(Z-t)_+^n = phi(t) J_n(t) from the deep-slice
    kernel :func:`tailbound.posmoments._mills_ratios` (the closed forms
    cancel for t > 0), so m(t) = t + J_3/J_2 = t + r_3, one kernel call.
    From x = 40 on the value at t = x - 1, below 12 phi(39) / 39^4,
    underflows, so the bound is 0.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if x <= _FOUR_PHI0:
        return min(1.0, _FOUR_PHI0 / x**3)
    if x >= 40.0:
        return 0.0

    t = _root_in_bracket(lambda t: t + _mills_ratios(t)[0] - x, 0.0, x * (1.0 - 1e-12),
                         rtol=1e-12)
    r3, r2, r1, j0 = _mills_ratios(t)
    e3 = math.exp(-0.5 * t * t) / _SQRT_2PI * j0 * r1 * r2 * r3
    return min(1.0, 2.0 * e3 / (x - t) ** 3)


@_scale_free(0)
def alpha_x_split(params: BoundParams, x: float) -> float:
    """The split point alpha_x in (eps, 1) at which PU factors exactly into
    a Gaussian EN piece at (1-alpha_x) x and a Poisson BH piece at
    alpha_x x.

    Root of the strictly decreasing

        (1 - a) x^2 / ((1-eps) sigma^2) - (x/y) ln(1 + a x y / (eps sigma^2))

    over a in (0, 1); positive at 0 and negative at 1, so Brent's method
    (:func:`tailbound.special._root_in_bracket`) finds it.  Scale-free: run
    at sigma = 1, where x^2 must be a normal double.
    """
    if not (x > 0.0):
        raise DomainError(f"x must be positive, got {x}")
    if x * x < sys.float_info.min:
        raise RangeError(f"(x / sigma)^2 = {x * x} leaves the normal double range")
    y, eps = params.y, params.eps

    def h(a: float) -> float:
        return (1.0 - a) * x * x / (1.0 - eps) - x / y * math.log1p(a * x * y / eps)

    return _root_in_bracket(h, 0.0, 1.0, rtol=1e-15)


def _check_pos(name: str, val: float) -> None:
    if not (math.isfinite(val) and val > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {val}")


def _check_finite_x(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")


def _check_nonneg_x(x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
