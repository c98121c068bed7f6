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
                      slices: Callable[[float], tuple[float, float, float, float]],
                      k_min: int = 0, start: int = -1
                      ) -> tuple[float, float, float, float, float, int, int, int]:
    """(log P(peak), s_0, s_1, s_2, s_3, peak, k_lo, k_hi), where s_i =
    S_i / P(peak), for the four sums S_i = sum_{k >= k_min} P(k) f_i(k),
    P(k) = P(Pois(theta) = k) and theta > 0, of (f_0, f_1, f_2, f_3)(k) =
    slices(y (k - theta)), in one walk over the counts k_lo..k_hi from the
    peak; top(y (k - theta)) is f_0(k), the form the peak search evaluates.
    :func:`_times_pmf` turns an s_i into S_i.  This is the package's one
    Poisson-count sum: a sum of one weight f is the case top = f with slices
    returning f(mu) four times.

    Each f_i must be >= 0, nondecreasing and log-concave in k.  Its term
    ratio theta/(k+1) * f_i(k+1)/f_i(k) is then nonincreasing in k, so the
    terms rise to one peak, at or above the Poisson mode, and fall away on
    both sides, and only the peak term needs an lgamma.  The ratios
    f_{i+1}/f_i must be nonincreasing in k too, as they are for
    positive-part powers f_i(k) = E(Y + c k)_+^{p-i} of one log-concave Y
    (the p-th mean excess grows with the shift).  Then f_0 peaks furthest
    right and f_3 furthest left, and the ratio order carries a certified
    stop from f_0 to the others above the peak (the rest of each is at most
    its ratio to f_0 there times the rest of f_0, and its sum so far at
    least that ratio times f_0's) and from f_3 to the others below it.  So
    one walk from f_0's peak (:func:`_poisson_peak`, searched from
    ``start`` when one is given, as the peak of a nearby walk), driven on f_0
    upward and on f_3 downward, sums all four to the accuracy of separate
    sums.

    Each side is one loop with one ``slices`` call a count.  It stops once
    its latest driving ratio r < 1 bounds the rest of the driving sum, at
    most u r / (1 - r) after a term u, by 1e-18 of the sum so far, or once
    the driving weight falls below the smallest normal double (an absolute
    error below 1e-307).  k_lo and k_hi are the last counts each side
    evaluated.  Raises RangeError at the first term that is not a finite
    double and NumericalError past _TERM_BUDGET / 2 terms on a side.
    """
    peak = _poisson_peak(theta, lambda k: top(y * (k - theta)), k_min, start)
    s0, s1, s2, s3 = at_peak = slices(y * (peak - theta))
    if not math.isfinite(s0 + s1 + s2 + s3):
        raise RangeError(_OVERFLOW.format(peak))
    if s3 < _NORMAL_MIN:
        raise NumericalError(f"Poisson-count sum: the lowest power vanished at count {peak}")
    log_pmf = _poisson_logpmf(peak, theta)
    # Sums of P(k)/P(peak) f_i(k).  u is the driving term, carried by its
    # ratio r, and the others are u f_i / f_drive: both stay in range where
    # the pmf ratio alone would not.  The driving sum so far is s0 upward
    # and s3 downward, for the stop.
    k, k_far = peak, peak + _TERM_BUDGET // 2
    u = d = s0
    while True:
        r = theta / (k + 1)
        k += 1
        v0, v1, v2, v3 = slices(y * (k - theta))
        if v0 < _NORMAL_MIN:
            break
        r *= v0 / d
        u *= r
        s0 += u
        s1 += u * (v1 / v0)
        s2 += u * (v2 / v0)
        s3 += u * (v3 / v0)
        if r < 1.0:
            if u * r <= 1e-18 * s0 * (1.0 - r):
                break
        elif not r < math.inf:
            raise RangeError(_OVERFLOW.format(k))
        if k > k_far:
            raise NumericalError(_UNTERMINATED, estimate=math.exp(log_pmf) * s0)
        d = v0
    k_hi, k, k_far = k, peak, peak - _TERM_BUDGET // 2
    u = d = at_peak[3]
    while k > k_min:
        r = k / theta
        k -= 1
        v0, v1, v2, v3 = slices(y * (k - theta))
        if v3 < _NORMAL_MIN:
            break
        r *= v3 / d
        u *= r
        s0 += u * (v0 / v3)
        s1 += u * (v1 / v3)
        s2 += u * (v2 / v3)
        s3 += u
        if r < 1.0:
            if u * r <= 1e-18 * s3 * (1.0 - r):
                break
        elif not r < math.inf:
            raise RangeError(_OVERFLOW.format(k))
        if k < k_far:
            raise NumericalError(_UNTERMINATED, estimate=math.exp(log_pmf) * s0)
        d = v3
    if not math.isfinite(s0 + s1 + s2 + s3):
        # The peak search starts where f_0 is a normal double; a first such
        # count far above theta leaves pmf ratios past the double range.
        raise NumericalError(f"Poisson-count sums vanished: the walk below count {peak} "
                             "left the double range")
    return log_pmf, s0, s1, s2, s3, peak, k, k_hi


def _times_pmf(log_pmf: float, s: float) -> float:
    """exp(log_pmf) s: a sum of :func:`_poisson_log_sums` in units of the
    peak's pmf back in absolute units.  Where exp(log_pmf) is a normal
    double it is one factor, so the sums of one walk share its rounding and
    their ratios keep every digit; below, exp(log_pmf + log s)."""
    return math.exp(log_pmf) * s if log_pmf > -700.0 else math.exp(log_pmf + math.log(s))


def _poisson_peak(theta: float, f: Callable[[int], float], k_min: int,
                  start: int = -1) -> int:
    """The peak of the sum of P(Pois(theta) = k) f(k) over k >= k_min, for
    f as in :func:`_poisson_log_sums`: the first k from lo = max(k_min,
    floor(theta)) on where f(k) is a normal double and the term ratio
    theta/(k+1) * f(k+1)/f(k) is at most 1.  That test is false below the
    peak and true from it on, so the search may begin anywhere at or above
    lo: at max(lo, start).  Most peaks lie within a few counts of the
    start, so it steps one count at a time toward the peak, carrying the f
    value it shares with the next probe: down from a start that passes
    (a start is the peak of a nearby walk), and up for _PEAK_SCAN counts
    and then by doubling and bisection from one that fails.  A non-finite
    f(k) ends the search at k, where the walk raises."""
    def at_peak(k: int) -> bool:
        fk = f(k)
        return not (fk < _NORMAL_MIN or theta * f(k + 1) > (k + 1) * fk)

    lo = max(k_min, math.floor(theta))
    peak = max(lo, start)
    f_peak, f_next = f(peak), f(peak + 1)
    if not (f_peak < _NORMAL_MIN or theta * f_next > (peak + 1) * f_peak):
        while peak > lo:
            f_prev = f(peak - 1)
            if f_prev < _NORMAL_MIN or theta * f_peak > peak * f_prev:
                break
            peak, f_peak = peak - 1, f_prev
        return peak
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
    log_pmf, s = _poisson_log_sums(theta, 1.0, lambda mu: 1.0,
                                   lambda mu: (1.0, 1.0, 1.0, 1.0), k_min)[:2]
    return min(0.0, log_pmf + math.log(s))


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


def exp_remainder(u: complex) -> complex:
    """The exponential remainder e_1(u) = e^u - 1 - u.

    For |u| < 1e-2 the Taylor tail from order 2 is summed directly, avoiding
    the cancellation of subtracting near-equal quantities; the result always
    satisfies |e_1(u)| <= |u|^2 e^{|u|} / 2.

    Accepts real or complex u and returns a value of matching type.
    """
    is_real = not isinstance(u, complex)
    z = complex(u)
    if abs(z) < 1e-2:
        # Tail of the Taylor series; with |u| < 1e-2 twelve terms push the
        # truncation error below 1e-30 relative to the leading term.
        out = 0j
        term = z ** 2 / 2
        for m in range(2, 14):
            out += term
            term *= z / (m + 1)
    else:
        out = cmath.exp(z) - (1 + z)
    return out.real if is_real else out
