"""Numerically stable scalar kernels: Lambert W, the Bennett function,
Poisson and Gaussian survival functions, truncated exponential remainders,
and the package's one bracketing root solver, :func:`_root_in_bracket`
(Brent's method), which every optimizer in the package goes through.

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

from .errors import DomainError, NumericalError

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

    Nonnegative and convex with psi(0) = 0.  For |u| < 1e-4 the alternating
    series u^2/2 - u^3/6 + u^4/12 - ... is used to avoid the cancellation in
    the direct expression.
    """
    if not math.isfinite(u) or u <= -1.0:
        raise DomainError(f"bennett_psi requires u > -1, got {u}")
    if abs(u) < 1e-4:
        # psi(u) = sum_{k>=2} (-1)^k u^k / (k (k-1)); five terms give
        # relative error below 1e-21 on this range.
        u2 = u * u
        return (u2 / 2.0 - u2 * u / 6.0 + u2 * u2 / 12.0
                - u2 * u2 * u / 20.0 + u2 * u2 * u2 / 30.0)
    return (1.0 + u) * math.log1p(u) - u


def _poisson_logpmf(k: int, theta: float) -> float:
    return -theta + k * math.log(theta) - math.lgamma(k + 1.0)


# Terms one Poisson-count sum may take.  A sum needs about 18 sqrt(theta)
# terms around its peak, so this covers theta up to about 2e8.
_TERM_BUDGET = 1 << 18
# Counts the peak search of _poisson_log_sum steps one at a time before it
# doubles.
_PEAK_SCAN = 4
_NORMAL_MIN = sys.float_info.min


def _poisson_log_sum(theta: float, f: Callable[[int], float],
                     k_min: int = 0) -> float:
    """log sum_{k >= k_min} P(Pois(theta) = k) f(k), for theta > 0 and f >= 0
    nondecreasing and log-concave in k.

    The term ratio theta/(k+1) * f(k+1)/f(k) is then nonincreasing in k, so
    the terms rise to one peak, at or above the Poisson mode, and fall away
    on both sides.  The peak is the first k from max(k_min, floor(theta))
    on where that ratio is at most 1.  Most peaks lie within a few counts of
    the start, so the search steps up one count at a time, carrying f(k+1)
    forward, for _PEAK_SCAN counts, and then doubles and bisects on the sign
    of the ratio.  The sum walks up from the peak, then down, carrying each
    term (in units of the peak term) from the last by the ratio, so only the
    peak needs an lgamma.  Each side stops once its latest ratio r < 1
    bounds the rest, at most t r / (1 - r), by 1e-18 of the sum.  Values of
    f below the smallest normal double count as zero (an absolute error
    below 1e-307).  Raises NumericalError past _TERM_BUDGET terms.
    """
    def at_peak(k: int) -> tuple[float, float] | None:
        """(f(k), f(k+1)) when the ratio at k is at most 1, else None."""
        fk = f(k)
        if fk < _NORMAL_MIN:
            return None
        f_next = f(k + 1)
        return None if theta * f_next > (k + 1) * fk else (fk, f_next)

    peak = max(k_min, math.floor(theta))
    f_peak, f_next = f(peak), f(peak + 1)
    scanned = 0
    while f_peak < _NORMAL_MIN or theta * f_next > (peak + 1) * f_peak:
        if scanned == _PEAK_SCAN:
            step = 2
            while (found := at_peak(peak + step)) is None:
                peak, step = peak + step, 2 * step
            hi = peak + step
            while hi - peak > 1:
                mid = (peak + hi) // 2
                got = at_peak(mid)
                if got is None:
                    peak = mid
                else:
                    hi, found = mid, got
            peak = hi
            f_peak, f_next = found
            break
        peak += 1
        scanned += 1
        f_peak, f_next = f_next, f(peak + 1)
    total, terms = 1.0, 0
    for step in (1, -1):
        t, f_prev, k = 1.0, f_peak, peak
        while step > 0 or k > k_min:
            r = theta / (k + 1) if step > 0 else k / theta
            k += step
            fk = f(k)
            if fk < _NORMAL_MIN:
                break
            r *= fk / f_prev
            t *= r
            total += t
            terms += 1
            if r < 1.0 and t * r <= 1e-18 * total * (1.0 - r):
                break
            if terms > _TERM_BUDGET:
                raise NumericalError(
                    f"Poisson-count sum did not terminate within {_TERM_BUDGET} terms",
                    estimate=math.exp(_poisson_logpmf(peak, theta)) * f_peak * total)
            f_prev = fk
    return _poisson_logpmf(peak, theta) + math.log(f_peak) + math.log(total)


def poisson_tail(theta: float, u: float) -> float:
    """Survival function P(Pois(theta) >= u) of a Poisson random variable.

    Exactly 1 for u <= 0 and, when theta = 0, the indicator of u <= 0.
    Otherwise the pmf over k >= ceil(u) is summed by
    :func:`_poisson_log_sum`, which keeps full relative accuracy for
    probabilities far below machine epsilon.
    """
    _check_poisson_args("poisson_tail", theta, u)
    if u <= 0.0:
        return 1.0
    if theta == 0.0:
        return 0.0
    return math.exp(_log_tail(theta, math.ceil(u)))


def poisson_log_tail(theta: float, u: float) -> float:
    """log P(Pois(theta) >= u), finite even where the tail itself underflows."""
    _check_poisson_args("poisson_log_tail", theta, u)
    if u <= 0.0:
        return 0.0
    if theta == 0.0:
        return -math.inf
    return _log_tail(theta, math.ceil(u))


def _log_tail(theta: float, k_min: int) -> float:
    """log P(Pois(theta) >= k_min) for theta > 0 and k_min >= 1.  From
    k_min <= theta - sqrt(75 theta) down, the Chernoff bound
    P(Pois <= theta - t) <= exp(-t^2 / (2 theta)) = e^-37.5 < 2^-54 rounds
    the tail to 1, so it is 1 without a walk (which past theta ~ 2e8 would
    exceed the term budget)."""
    if k_min <= theta - math.sqrt(75.0 * theta):
        return 0.0
    return min(0.0, _poisson_log_sum(theta, lambda k: 1.0, k_min))


def _check_poisson_args(who: str, theta: float, u: float) -> None:
    if not math.isfinite(theta) or theta < 0.0:
        raise DomainError(f"{who} requires theta >= 0, got {theta}")
    if not math.isfinite(u):
        raise DomainError(f"{who} requires finite u, got {u}")


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
