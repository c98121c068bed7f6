"""Numerically stable scalar kernels: Lambert W, the Bennett function,
Poisson and Gaussian survival functions, truncated exponential remainders,
the one Poisson-count walk (:func:`_poisson_log_sums`) that every
Poisson-mixture sum of the package goes through, whatever its number of
powers, and the package's bracketing root solver,
:func:`_root_in_bracket` (Brent's method), which every optimizer goes
through but t_x, whose moments give it a derivative
(:func:`tailbound.bounds._solve_t_x`).

Every routine here is a pure function of its arguments and is safe to call
concurrently.  The package's accuracy targets are the private constants
below: a relative error target, an absolute floor and an iteration cap for
root finders.  They leave about two orders of magnitude of headroom over
what the bound calculators in :mod:`tailbound.bounds` actually need.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

from .errors import DomainError, NumericalError, RangeError

__all__ = [
    "lambert_w0",
    "lambert_w0_log",
    "bennett_psi",
    "poisson_tail",
    "poisson_log_tail",
    "normal_tail",
    "exp_remainder",
]

# Relative step below which Halley/Newton iterations are considered converged.
_STEP_TOL = 1e-14
# Relative error target of the contour quadrature (pos_moment_laplace).
_REL_TOL = 1e-10
# Absolute error floor of the quadratures; a moment at or below it has vanished.
_ABS_TOL = 1e-300
# Iteration cap of the root finders.
_MAX_ITER = 200


def _halley_wexp(w: float, z: float) -> float:
    """Polish a seed w with Halley steps on f(w) = w e^w - z."""
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        step = f / denom
        w -= step
        if abs(step) <= _STEP_TOL * (abs(w) + 1e-300):
            return w
    raise NumericalError("Lambert W iteration did not converge", estimate=w)


def _root_in_bracket(f: Callable[[float], float], a: float, b: float,
                     rtol: float, xtol: float = 2e-12) -> float:
    """A root of f between a and b, where f(a) and f(b) differ in sign, by
    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4).

    [x_blk, x_cur] always brackets a sign change, |f(x_cur)| the smaller.
    Each step tries a secant or inverse quadratic step from x_cur and
    bisects when that is not short enough; no step is below the tolerance
    delta = (xtol + rtol |x_cur|) / 2, and the solve ends once the bracket's
    half-width is.  For rtol >= 4 machine epsilon these are the steps of
    scipy.optimize.brentq, so roots and f calls match it exactly.  Raises
    NumericalError when f(a) and f(b) share a sign, when f returns NaN, or
    after _MAX_ITER steps.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"root solve: f({x}) is NaN")
        return fx

    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = call(x_pre), call(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise NumericalError(f"no sign change on the root bracket [{a}, {b}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ITER):
        # f_pre is never 0 here: a zero f_cur returns before it moves over.
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        short = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            short = 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if short else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = call(x_cur)
    raise NumericalError(f"root solve did not converge in {_MAX_ITER} steps",
                         estimate=x_cur)


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function for z >= 0.

    Returns the unique w >= 0 with w * exp(w) = z.  A Halley iteration is
    seeded with w ~ z(1 - z) near the origin and with the asymptotic
    w ~ ln z - ln ln z for z > e; convergence is quadratic or better and
    five steps typically suffice.
    """
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"lambert_w0 requires finite z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z < 0.5:
        w = z * (1.0 - z)
        if w <= 0.0:
            w = z
    elif z <= math.e:
        w = 0.8 * math.log1p(z)
    else:
        lz = math.log(z)
        w = lz - math.log(lz)
    return _halley_wexp(w, z)


def lambert_w0_log(log_z: float) -> float:
    """Evaluate lambert_w0(exp(log_z)) without overflowing exp.

    For moderate log_z this simply exponentiates and defers to
    :func:`lambert_w0`.  For large log_z the defining relation is rewritten
    as w + ln w = log_z, which Newton's method solves from the seed
    w ~ log_z - ln log_z; the exponential never has to be formed, so
    arguments like log_z = 1000 (w ~ 993.1) are exact to full precision.
    """
    if not math.isfinite(log_z):
        raise DomainError(f"lambert_w0_log requires finite log_z, got {log_z}")
    if log_z <= 500.0:
        return lambert_w0(math.exp(log_z))
    w = log_z - math.log(log_z)
    for _ in range(_MAX_ITER):
        step = (w + math.log(w) - log_z) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= _STEP_TOL * w:
            return w
    raise NumericalError("lambert_w0_log iteration did not converge", estimate=w)


def bennett_psi(u: float) -> float:
    """The Bennett function psi(u) = (1 + u) ln(1 + u) - u, for u > -1.

    Nonnegative and convex with psi(0) = 0.  The direct expression cancels
    by u / psi(u) ~ 2/u near 0, so for -2/3 <= u <= 2 it is rewritten with
    r = u/(2+u), ln(1+u) = 2 atanh(r), as psi(u) = u r + 2 (1+u) A with
    A = atanh(r) - r = sum_{k>=1} r^{2k+1}/(2k+1): every term of A has the
    sign of r, and |r| <= 1/2.  The terms fall by more than r^2 each, so the
    sum stops once the next term, over 1 - r^2, is below 2^-55 of A.
    """
    if not math.isfinite(u) or u <= -1.0:
        raise DomainError(f"bennett_psi requires u > -1, got {u}")
    if not -2.0 / 3.0 <= u <= 2.0:
        return (1.0 + u) * math.log1p(u) - u
    r = u / (2.0 + u)
    r2 = r * r
    term, acc, k = r * r2, 0.0, 3.0
    while term != 0.0:
        acc += term / k
        term *= r2
        k += 2.0
        if abs(term) / k <= 2.0**-55 * (1.0 - r2) * abs(acc):
            break
    return u * r + 2.0 * (1.0 + u) * acc


def _poisson_logpmf(k: int, theta: float) -> float:
    return -theta + k * math.log(theta) - math.lgamma(k + 1.0)


# Terms one Poisson-count sum may take, half on each side of its peak.  A
# sum needs about 9 sqrt(theta) terms on a side, so this covers theta up to
# about 2e8.
_TERM_BUDGET = 1 << 18
# Counts the peak search of _poisson_peak steps one at a time before it
# doubles.
_PEAK_SCAN = 4
_NORMAL_MIN = sys.float_info.min
_OVERFLOW = "a term of the Poisson-count sum overflows a double at count {}"
_UNTERMINATED = f"Poisson-count sum did not terminate within {_TERM_BUDGET} terms"


def _poisson_log_sums(theta: float, y: float, top: Callable[[float], float],
                      slices: Callable[[float], tuple[float, float, float]],
                      k_min: int = 0) -> tuple[float, float, float]:
    """The three logs log sum_{k >= k_min} P(Pois(theta) = k) f_i(k), for
    theta > 0, of (f_0, f_1, f_2)(k) = slices(y (k - theta)), in one walk;
    top(y (k - theta)) is f_0(k), the form the peak search evaluates.  This
    is the package's one Poisson-count sum: a sum of one weight f is the
    case top = f with slices returning f(mu) three times.

    Each f_i must be >= 0, nondecreasing and log-concave in k.  Its term
    ratio theta/(k+1) * f_i(k+1)/f_i(k) is then nonincreasing in k, so the
    terms rise to one peak, at or above the Poisson mode, and fall away on
    both sides, and only the peak term needs an lgamma.  The ratios f_1/f_0
    and f_2/f_1 must be nonincreasing in k too, as they are for
    positive-part powers f_i(k) = E(Y + c k)_+^{p-i} of one log-concave Y
    (the p-th mean excess grows with the shift).  Then f_0 peaks furthest
    right and f_2 furthest left, and the ratio order carries a certified
    stop from f_0 to the other two above the peak (the rest of each is at
    most its ratio to f_0 there times the rest of f_0, and its sum so far at
    least that ratio times f_0's) and from f_2 to the other two below it.
    So one walk from f_0's peak (:func:`_poisson_peak`), driven on f_0
    upward and on f_2 downward, sums all three to the accuracy of separate
    sums.

    Each side is one loop with one ``slices`` call a count.  It stops once
    its latest driving ratio r < 1 bounds the rest of the driving sum, at
    most t r / (1 - r), by 1e-18 of its total, or once the driving weight
    falls below the smallest normal double (an absolute error below
    1e-307).  Raises RangeError at the first term that is not a finite
    double and NumericalError past _TERM_BUDGET / 2 terms on a side.
    """
    peak = _poisson_peak(theta, lambda k: top(y * (k - theta)), k_min)
    s0, s1, s2 = at_peak = slices(y * (peak - theta))
    if not math.isfinite(s0 + s1 + s2):
        raise RangeError(_OVERFLOW.format(peak))
    if s2 < _NORMAL_MIN:
        raise NumericalError(f"Poisson-count sum: the lowest power vanished at count {peak}")
    log_pmf = _poisson_logpmf(peak, theta)
    # Sums of P(k)/P(peak) f_i(k).  u is the driving term, carried by its
    # ratio r, and the others are u f_i / f_drive: both stay in range where
    # the pmf ratio alone would not.  t and total are the driving terms and
    # their sum in units of the peak's, for the stop.
    k, t, total = peak, 1.0, 1.0
    u = d = s0
    while True:
        r = theta / (k + 1)
        k += 1
        v0, v1, v2 = slices(y * (k - theta))
        if v0 < _NORMAL_MIN:
            break
        r *= v0 / d
        u *= r
        s0 += u
        s1 += u * (v1 / v0)
        s2 += u * (v2 / v0)
        t *= r
        total += t
        if r < 1.0:
            if t * r <= 1e-18 * total * (1.0 - r):
                break
        elif not r < math.inf:
            raise RangeError(_OVERFLOW.format(k))
        if k - peak > _TERM_BUDGET // 2:
            raise NumericalError(_UNTERMINATED, estimate=math.exp(log_pmf) * s0)
        d = v0
    k, t, total = peak, 1.0, s2 / at_peak[2]
    u = d = at_peak[2]
    while k > k_min:
        r = k / theta
        k -= 1
        v0, v1, v2 = slices(y * (k - theta))
        if v2 < _NORMAL_MIN:
            break
        r *= v2 / d
        u *= r
        s0 += u * (v0 / v2)
        s1 += u * (v1 / v2)
        s2 += u
        t *= r
        total += t
        if r < 1.0:
            if t * r <= 1e-18 * total * (1.0 - r):
                break
        elif not r < math.inf:
            raise RangeError(_OVERFLOW.format(k))
        if peak - k > _TERM_BUDGET // 2:
            raise NumericalError(_UNTERMINATED, estimate=math.exp(log_pmf) * s0)
        d = v2
    if not math.isfinite(s0 + s1 + s2):
        # The peak search starts where f_0 is a normal double; a first such
        # count far above theta leaves pmf ratios past the double range.
        raise NumericalError(f"Poisson-count sums vanished: the walk below count {peak} "
                             "left the double range")
    return log_pmf + math.log(s0), log_pmf + math.log(s1), log_pmf + math.log(s2)


def _poisson_peak(theta: float, f: Callable[[int], float], k_min: int) -> int:
    """The peak of the sum of P(Pois(theta) = k) f(k) over k >= k_min, for
    f as in :func:`_poisson_log_sums`: the first k from max(k_min,
    floor(theta)) on where f(k) is a normal double and the term ratio
    theta/(k+1) * f(k+1)/f(k) is at most 1.  Most peaks lie within a few
    counts of the start, so the search steps up one count at a time,
    carrying f(k+1) forward, for _PEAK_SCAN counts, and then doubles and
    bisects on the sign of the ratio.  A non-finite f(k) ends the search at
    k, where the walk raises."""
    def at_peak(k: int) -> bool:
        fk = f(k)
        return not (fk < _NORMAL_MIN or theta * f(k + 1) > (k + 1) * fk)

    peak = max(k_min, math.floor(theta))
    f_peak, f_next = f(peak), f(peak + 1)
    scanned = 0
    while f_peak < _NORMAL_MIN or theta * f_next > (peak + 1) * f_peak:
        if scanned == _PEAK_SCAN:
            step = 2
            while not at_peak(peak + step):
                peak, step = peak + step, 2 * step
            hi = peak + step
            while hi - peak > 1:
                mid = (peak + hi) // 2
                if at_peak(mid):
                    hi = mid
                else:
                    peak = mid
            return hi
        peak += 1
        scanned += 1
        f_peak, f_next = f_next, f(peak + 1)
    return peak


def poisson_tail(theta: float, u: float) -> float:
    """Survival function P(Pois(theta) >= u) of a Poisson random variable:
    the exp of :func:`poisson_log_tail`, so exactly 1 for u <= 0 and, when
    theta = 0, the indicator of u <= 0."""
    return math.exp(poisson_log_tail(theta, u))


def poisson_log_tail(theta: float, u: float) -> float:
    """log P(Pois(theta) >= u), finite even where the tail itself underflows.

    The pmf over k >= k_min = ceil(u) is summed by :func:`_poisson_log_sums`
    (weight 1), which keeps full relative accuracy for probabilities far
    below machine epsilon.  From k_min <= theta - sqrt(75 theta) down, the
    Chernoff bound P(Pois <= theta - t) <= exp(-t^2 / (2 theta)) = e^-37.5 <
    2^-54 rounds the tail to 1, so it is 1 without a walk (which past theta
    ~ 2e8 would exceed the term budget).
    """
    if not math.isfinite(theta) or theta < 0.0:
        raise DomainError(f"a Poisson tail requires theta >= 0, got {theta}")
    if not math.isfinite(u):
        raise DomainError(f"a Poisson tail requires finite u, got {u}")
    if u <= 0.0:
        return 0.0
    if theta == 0.0:
        return -math.inf
    k_min = math.ceil(u)
    if k_min <= theta - math.sqrt(75.0 * theta):
        return 0.0
    return min(0.0, _poisson_log_sums(theta, 1.0, lambda mu: 1.0,
                                      lambda mu: (1.0, 1.0, 1.0), k_min)[0])


def normal_tail(v: float, x: float) -> float:
    """P(G >= x) for G ~ N(0, v); the degenerate case v = 0 is the
    indicator of x <= 0.

    Uses the complementary error function, never 1 minus the CDF, so the
    relative error stays near machine precision down to values of 1e-300.
    """
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"normal_tail requires v >= 0, got {v}")
    if v == 0.0:
        return 1.0 if x <= 0.0 else 0.0
    return 0.5 * math.erfc(x / math.sqrt(2.0 * v))


_SUPPORTED_J = (-1, 0, 1, 2, 3)


def exp_remainder(j: int, u: complex) -> complex:
    """The truncated exponential remainder e_j(u) = e^u - sum_{m<=j} u^m / m!.

    e_{-1} is exp itself.  For |u| < 1e-2 the Taylor tail starting at order
    j + 1 is summed directly, avoiding the cancellation of subtracting
    near-equal quantities; the result always satisfies
    |e_j(u)| <= |u|^{j+1} e^{|u|} / (j+1)!.

    Accepts real or complex u and returns a value of matching type.
    """
    if j not in _SUPPORTED_J:
        raise DomainError(f"exp_remainder supports j in {_SUPPORTED_J}, got {j}")
    is_real = not isinstance(u, complex)
    z = complex(u)
    if j == -1:
        out = cmath.exp(z)
    elif abs(z) < 1e-2:
        # Tail of the Taylor series; with |u| < 1e-2 twelve terms push the
        # truncation error below 1e-30 relative to the leading term.
        out = 0j
        term = z ** (j + 1) / math.factorial(j + 1)
        for m in range(j + 1, j + 13):
            out += term
            term *= z / (m + 1)
    else:
        partial = 0j
        term = 1.0 + 0j
        for m in range(j + 1):
            partial += term
            term *= z / (m + 1)
        out = cmath.exp(z) - partial
    if is_real:
        return out.real
    return out
