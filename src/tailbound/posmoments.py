"""Positive-part moments E(X - w)_+^p by three independent routes.

Every generalized-moment tail bound in this package reduces to such moments,
so they are computed redundantly: a Poisson-count series over Gaussian
slices, the default for every power p > 0, and two audits that run only
when forced, a Fourier-Laplace contour integral and a characteristic-function
inversion.  The routes share no code beyond scalar kernels, which is what
makes their agreement a meaningful test.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .distributions import MixtureRV, TwoPointRV, mixture_mgf
from .errors import DomainError, NumericalError, RangeError
from .special import _ABS_TOL, _REL_TOL, normal_tail, _poisson_log_sum, _poisson_log_sums

__all__ = [
    "PosMomentMethod",
    "SlowDecayWarning",
    "pos_moment_mixture_series",
    "pos_moment_laplace",
    "pos_moment_charfn",
    "pos_moment_poisson_local",
    "pos_moment",
    "mixture_shifted_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_EPS = 2.0**-53


def __getattr__(name: str):
    # Only the forced audit routes integrate, so the quadrature loads on their
    # first use; posmoments.adaptive_quad stays the name they call it by.
    if name == "adaptive_quad":
        from ._quadrature import adaptive_quad
        globals()[name] = adaptive_quad
        return adaptive_quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SlowDecayWarning(UserWarning):
    """The characteristic-function integrand decays like t^{l-p-1} with
    p - l < 1/2, so the quadrature converges slowly; prefer the Laplace
    route when this fires."""


@dataclass(frozen=True, slots=True)
class PosMomentMethod:
    """Route selector for :func:`pos_moment`.

    tag is one of "series", "laplace", "charfn"; the Laplace route takes
    the abscissa s = ln(1+y)/y, y the jump size (b for a two-point law).
    """

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("series", "laplace", "charfn"):
            raise DomainError(f"unknown method tag {self.tag!r}")

    @classmethod
    def series(cls) -> PosMomentMethod:
        return cls("series")

    @classmethod
    def laplace(cls) -> PosMomentMethod:
        return cls("laplace")

    @classmethod
    def charfn(cls) -> PosMomentMethod:
        return cls("charfn")


def _gauss_partial_moment(v: float, mu: float, alpha: int) -> float:
    """E(sqrt(v) Z + mu)_+^alpha for Z standard normal and alpha in {1,2,3};
    :func:`_gauss_power_moment` takes every other power.

    With z0 = -mu / sqrt(v), Q = P(Z >= z0) and phi the standard normal
    density at z0:

        alpha = 1:  sqrt(v) phi + mu Q
        alpha = 2:  (v + mu^2) Q + sqrt(v) mu phi
        alpha = 3:  mu (3v + mu^2) Q + sqrt(v) (2v + mu^2) phi

    The coefficients follow from the recursions for truncated normal
    moments and are pinned against a quadrature oracle in the tests.  Past
    z0 = 5 the two terms nearly cancel (at alpha = 3 the relative error of
    the closed form is 1e-10 at z0 = 8.4 and 4e-9 at z0 = 12.6), so there
    the slice is sqrt(v)^alpha phi J_alpha(z0) from :func:`_mills_moment`.
    """
    if v == 0.0:
        return max(mu, 0.0) ** alpha
    s = math.sqrt(v)
    z0 = -mu / s
    phi = math.exp(-0.5 * z0 * z0) / _SQRT_2PI
    if z0 > 5.0:
        return s**alpha * phi * _mills_moment(z0, alpha)
    q = normal_tail(1.0, z0)
    if alpha == 1:
        return s * phi + mu * q
    if alpha == 2:
        return (v + mu * mu) * q + s * mu * phi
    if alpha == 3:
        return mu * (3.0 * v + mu * mu) * q + s * (2.0 * v + mu * mu) * phi
    raise DomainError(f"alpha must be 1, 2 or 3, got {alpha}")


def _gauss_power_moment(v: float, mu: float, p: float) -> float:
    """E(sqrt(v) Z + mu)_+^p for Z standard normal and any real p > 0.

    With z0 = -mu / sqrt(v) and phi the standard normal density at z0 the
    slice is sqrt(v)^p phi J_p(z0), J_p from :func:`_mills_power`.  Below
    z0 = -8 it is instead the Gaussian moment expansion of (mu + sqrt(v) Z)^p,
    mu^p sum_k C(p, 2k) (2k-1)!! (v/mu^2)^k, summed until a term falls below
    2^-53 of the sum (it ends by itself for integer p).  For fractional p
    that series is asymptotic; its smallest term, and the mass of Z below
    z0 that it ignores, are about e^{-z0^2/2}, below 1e-15 of the slice
    there.  Should the terms turn to grow first (only for large p), J_p
    takes over.
    """
    if v == 0.0:
        return max(mu, 0.0) ** p
    z0 = -mu / math.sqrt(v)
    if z0 < -8.0:
        c = v / (mu * mu)
        term, total, k = 1.0, 1.0, 0
        while True:
            r = (p - 2 * k) * (p - 2 * k - 1.0) * c / (2 * k + 2.0)
            if abs(r) >= 1.0 and 2 * k >= p:
                break
            term *= r
            total += term
            k += 1
            if abs(term) <= _EPS * abs(total):
                return mu**p * total
    return v ** (0.5 * p) * math.exp(-0.5 * z0 * z0) / _SQRT_2PI * _mills_power(z0, p)


def _mills_moment(z: float, n: int) -> float:
    """J_n(z) = Int_0^inf u^n exp(-z u - u^2/2) du, so E(Z - z)_+^n =
    phi(z) J_n(z); see :func:`_mills_moments`."""
    return _mills_moments(z, n)[0]


def _mills_moments(z: float, n: int, count: int = 1) -> tuple[float, ...]:
    """(J_n(z), J_{n-1}(z), ..., J_{n-count+1}(z)) for n <= 3 and count <=
    n + 1, with J_m as in :func:`_mills_moment`, from one run of the
    continued fraction r_m = J_m/J_{m-1} = m/(z + r_{m+1}) (by parts;
    z J_0 + J_1 = 1) backward from depth 10 + 800/z^2.  That agrees with
    50-digit mpmath within 5e-13 for 5 <= z < 38.  The ratios do not depend
    on n, so the loop stops above order 3 and the last three steps are
    written out: J_0 = 1/(z + r_1) and J_m = r_m ... r_1 J_0, each product
    taken from r_m down, the generic loop's operations in its order."""
    if not 0 <= n <= 3:
        raise DomainError(f"_mills_moments takes orders 0 to 3, got {n}")
    rho = 0.0
    for m in range(10 + int(800.0 / (z * z)), 3, -1):
        rho = m / (z + rho)
    r3 = 3 / (z + rho)
    r2 = 2 / (z + r3)
    r1 = 1 / (z + r2)
    d = z + r1
    return (r3 * r2 * r1 / d, r2 * r1 / d, r1 / d, 1.0 / d)[3 - n:3 - n + count]


def _mills_power(z: float, p: float) -> float:
    """J_p(z) = Int_0^inf u^p exp(-z u - u^2/2) du for real p > 0, which is
    Gamma(p+1) e^{z^2/4} D_{-p-1}(z) (DLMF 12.5.1).  The slices take it from
    z = -8 up (and below only for large p); it overflows below z ~ -37.6.

    Three regimes, each pinned against 30-digit mpmath for p in (0, 8] in
    the tests (rel 1e-12; the largest error seen is about 2e-13):

    - z <= 3/sqrt(p+1), at most 2: sum_n (-z)^n/n! J_{p+n}(0), with
      J_q(0) = 2^{(q-1)/2} Gamma((q+1)/2), as an even and an odd chain that
      each step by z^2 (p+n+1) / ((n+1)(n+2)).  For z > 0 the chains cancel
      by about e^{2 z sqrt(p)}, which the bound on z keeps below e^6.
    - z > 9 + p/2: the asymptotic series Gamma(p+1) z^{-p-1}
      sum_k (-1)^k (p+1)_{2k} / (k! (2 z^2)^k), whose smallest term is
      about e^{-z^2/2}; it is used once a term falls below 2^-53 of the
      sum before the terms turn to grow (for p <= 8 it always does), else
      the next regime runs.
    - otherwise J_p(0) = sum_n z^n/n! J_{p+n}(z) (Taylor in z; all terms
      positive), with the ratios J_{p+n}/J_{p+n-1} from the continued
      fraction of :func:`_mills_moment`: one backward loop sums the
      Horner form h, and J_p(z) = J_p(0)/h.  Its depth,
      12 z + 40 + 1.5 p + 500/z^2, is at least 1.3 times the depth at which
      the loop settles to 1e-15, for every p <= 8 and z in this regime.
    """
    if z <= min(2.0, 3.0 / math.sqrt(p + 1.0)):
        # The chains' terms, and sums, as magnitudes; the odd one has the
        # sign of -z.
        z2 = z * z
        even, odd = _mills_power_at_0(p), abs(z) * _mills_power_at_0(p + 1.0)
        sum_even, sum_odd, q, n = even, odd, p + 1.0, 1.0
        while True:
            r = z2 * q / (n * (n + 1.0))
            even *= r
            odd *= z2 * (q + 1.0) / ((n + 1.0) * (n + 2.0))
            sum_even += even
            sum_odd += odd
            q += 2.0
            n += 2.0
            # The odd ratio is below r, so both tails are below
            # (even + odd) / (1 - r).
            if r < 1.0 and even + odd <= 1e-17 * sum_even * (1.0 - r):
                return sum_even - sum_odd if z > 0.0 else sum_even + sum_odd
    if z > 9.0 + 0.5 * p:
        c = 0.5 / (z * z)
        term, total, k = 1.0, 1.0, 0
        while True:
            r = (p + 2 * k + 1.0) * (p + 2 * k + 2.0) * c / (k + 1.0)
            if r >= 1.0:
                break
            term *= -r
            total += term
            k += 1
            if abs(term) <= _EPS * total:
                return math.exp(math.lgamma(p + 1.0) - (p + 1.0) * math.log(z)) * total
    rho, h = 0.0, 1.0
    for m in range(int(12.0 * z + 40.0 + 1.5 * p + 500.0 / (z * z)), 0, -1):
        rho = (p + m) / (z + rho)
        h = 1.0 + z / m * rho * h
    return _mills_power_at_0(p) / h


def _mills_power_at_0(p: float) -> float:
    return 2.0 ** (0.5 * (p - 1.0)) * math.gamma(0.5 * (p + 1.0))


def pos_moment_mixture_series(rv: MixtureRV, w: float, alpha: float) -> float:
    """E(eta - w)_+^alpha by conditioning on the Poisson count, for any
    power alpha > 0.

    Each count k contributes pmf(k) * E(sqrt(v) Z + y(k - theta) - w)_+^alpha,
    the Gaussian slice: closed forms for alpha in {1, 2, 3}
    (:func:`_gauss_partial_moment`), :func:`_gauss_power_moment` otherwise.
    The slice is log-concave in k for every alpha > 0 (Prekopa), so
    :func:`tailbound.special._poisson_log_sum` sums the series outward from
    its peak with a certified stop.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if rv.v == 0.0:
        return pos_moment_poisson_local(rv.theta, rv.y, w, float(alpha))
    gauss = _gauss_power_moment
    if alpha in (1, 2, 3):
        # As an int: _mills_moment compares it with its loop counter.
        gauss, alpha = _gauss_partial_moment, int(alpha)
    if rv.theta == 0.0:
        return gauss(rv.v, -w, alpha)
    v, y, theta = rv.v, rv.y, rv.theta
    return math.exp(_poisson_log_sum(
        theta, lambda k: gauss(v, y * (k - theta) - w, alpha)))


def _gauss_partial_triple(v: float, s: float, mu: float,
                          alpha: int) -> tuple[float, float, float]:
    """The slices E(sqrt(v) Z + mu)_+^p, s = sqrt(v), of the three powers
    p = alpha, alpha - 1, alpha - 2 for alpha in {2, 3}, as
    :func:`_gauss_partial_moment` forms each (the power-0 slice is Q), from
    one erfc and one exp; past z0 = 5 from one :func:`_mills_moments` run."""
    z0 = -mu / s
    phi = math.exp(-0.5 * z0 * z0) / _SQRT_2PI
    if z0 > 5.0:
        j0, j1, j2 = _mills_moments(z0, alpha, 3)
        return s**alpha * phi * j0, s**(alpha - 1) * phi * j1, s**(alpha - 2) * phi * j2
    q = 0.5 * math.erfc(z0 / _SQRT2)
    e1 = s * phi + mu * q
    e2 = (v + mu * mu) * q + s * mu * phi
    if alpha == 2:
        return e2, e1, q
    return mu * (3.0 * v + mu * mu) * q + s * (2.0 * v + mu * mu) * phi, e2, e1


def _slices(rv: MixtureRV, w: float, alpha: float) -> tuple[
        Callable[[float], float], Callable[[float], tuple[float, float, float]]]:
    """(mu |-> the slice of the power alpha, mu |-> the slices of the powers
    alpha, alpha - 1 and alpha - 2), a slice being E(sqrt(v) Z + mu - w)_+^p:
    closed forms for alpha in {2, 3}, :func:`_gauss_power_moment` per power
    otherwise, and the powers of (mu - w)_+ themselves for v = 0.  For
    alpha < 2 the third power is alpha - 1 again."""
    a1 = alpha - 1.0
    a2 = alpha - 2.0 if alpha >= 2.0 else a1
    if rv.v == 0.0:
        def lattice(mu: float) -> tuple[float, float, float]:
            d = mu - w
            return (d**alpha, d**a1, d**a2) if d > 0.0 else (0.0, 0.0, 0.0)
        return lambda mu: max(mu - w, 0.0) ** alpha, lattice
    v = rv.v
    if alpha in (2, 3):
        s, n = math.sqrt(v), int(alpha)
        return (lambda mu: _gauss_partial_moment(v, mu - w, n),
                lambda mu: _gauss_partial_triple(v, s, mu - w, n))
    gauss = _gauss_power_moment
    if alpha < 2.0:
        def pair(mu: float) -> tuple[float, float, float]:
            e1 = gauss(v, mu - w, a1)
            return gauss(v, mu - w, alpha), e1, e1
        return lambda mu: gauss(v, mu - w, alpha), pair
    return (lambda mu: gauss(v, mu - w, alpha),
            lambda mu: (gauss(v, mu - w, alpha), gauss(v, mu - w, a1), gauss(v, mu - w, a2)))


def _overflow_is_range_error(fn: Callable) -> Callable:
    """fn, with an OverflowError of a power, gamma or exp beyond the double
    range raised as RangeError, the package's typed OverflowError."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RangeError:
            raise
        except OverflowError as exc:
            raise RangeError(f"{fn.__name__}: the result overflows a double ({exc})") from exc
    return checked


@_overflow_is_range_error
def _pos_moment_triple(rv: MixtureRV | TwoPointRV, w: float,
                       alpha: float) -> tuple[float, float, float]:
    """(E(X - w)_+^alpha, E(X - w)_+^{alpha-1}, E(X - w)_+^{alpha-2}) for
    alpha > 1, from one Poisson-count walk for a mixture
    (:func:`tailbound.special._poisson_log_sums` over :func:`_slices`, the
    route :func:`pos_moment` takes by default) and the exact sums for a
    two-point law.  For alpha < 2 the last power is negative, and the third
    entry is NaN.  Raises RangeError where a moment overflows a double.
    """
    low = alpha - 2.0 if alpha >= 2.0 else alpha - 1.0
    if isinstance(rv, TwoPointRV):
        out = (_two_point_exact(rv, w, alpha), _two_point_exact(rv, w, alpha - 1.0),
               _two_point_exact(rv, w, low))
    else:
        y, theta = rv.y, rv.theta
        top, slices = _slices(rv, w, alpha)
        if theta == 0.0:
            out = slices(0.0)
        else:
            k_min = max(0, math.floor(w / y + theta) + 1) if rv.v == 0.0 else 0
            out = tuple(math.exp(u) for u in _poisson_log_sums(theta, y, top, slices, k_min))
    if not all(math.isfinite(e) for e in out):
        raise RangeError(f"E(X - {w})_+^{alpha} overflows a double")
    return out if alpha >= 2.0 else (out[0], out[1], math.nan)


def _geometric_edges(t_lo: float, t_hi: float) -> list[float]:
    """Panel edges t_lo < ... < t_hi doubling in width, so the adaptive
    rule never faces a single interval spanning many oscillation scales."""
    edges = [t_lo]
    step = max(1.0, t_lo)
    while edges[-1] + step < t_hi:
        edges.append(edges[-1] + step)
        step *= 2.0
    edges.append(t_hi)
    return edges


def _integrate_panels(f: Callable[[float], float], edges: Sequence[float],
                      rel: float, abs_total: float) -> tuple[float, float]:
    quad = globals().get("adaptive_quad") or __getattr__("adaptive_quad")
    n = len(edges) - 1
    total, err = 0.0, 0.0
    for i in range(n):
        v, e = quad(f, edges[i], edges[i + 1], rel=rel, abs_tol=abs_total / n)
        total += v
        err += e
    return total, err


def _clamp_nonneg(value: float, err: float, what: str) -> float:
    if value >= 0.0:
        return value
    # Round-off can push a true zero slightly negative; the plausible scale
    # of that round-off is the quadrature's own error estimate.
    if value >= -(_ABS_TOL + 10.0 * err):
        return 0.0
    raise NumericalError(f"{what} returned {value}, beyond round-off",
                         estimate=value, err_estimate=err)


def pos_moment_laplace(mgf: Callable[[complex], complex], w: float, p: float,
                       s: float, gauss_var: float = 0.0) -> float:
    """E(X - w)_+^p via the Fourier-Laplace contour formula

        Gamma(p+1)/pi * Int_0^inf Re[ E e^{(s+it) X'} / (s+it)^{p+1} ] dt,

    where X' = X - w (the caller passes the mgf of X) and s > 0 is the abscissa.
    An audit of the series: :func:`pos_moment` runs it only when forced.

    Truncation of the infinite range is certified through
    |E e^{z X'}| <= E e^{s X'}; the finite part is adaptive Gauss-Kronrod
    over geometrically growing panels.  Pass ``gauss_var`` when the law has
    an independent Gaussian factor of that variance: the mgf modulus then
    picks up exp(-gauss_var t^2 / 2) along the contour, which makes the
    t^{-p} tail bound close even for p < 1.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"p must be positive, got {p}")
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be positive, got {s}")

    def msh(z: complex) -> complex:
        return mgf(z) * cmath.exp(-z * w)

    c_exp = msh(complex(s, 0.0)).real

    def integrand(t: float) -> float:
        z = complex(s, t)
        return (msh(z) / z ** (p + 1.0)).real

    def tail_bound(t_cut: float) -> float:
        decay = math.exp(-0.5 * gauss_var * min(t_cut * t_cut, 1500.0))
        return decay * c_exp / (p * t_cut**p)

    gamma_pi = math.gamma(p + 1.0) / math.pi
    # First pass over a moderate range to learn the magnitude, then extend
    # until the analytic tail bound is provably below the target.
    t0 = 10.0 * (1.0 + 1.0 / s)
    rough, _ = _integrate_panels(integrand, _geometric_edges(0.0, t0),
                                 rel=1e-6, abs_total=1e-280)
    a_priori = c_exp / (p * s**p)  # integral magnitude bound, sets noise floor
    target = max(_ABS_TOL, _REL_TOL * abs(rough), 1e-16 * a_priori)
    t_cut = t0
    while tail_bound(t_cut) > 0.5 * target and t_cut < 1e12:
        t_cut *= 2.0
    if tail_bound(t_cut) > 0.5 * target:
        raise NumericalError("laplace truncation point not found",
                             estimate=gamma_pi * rough)
    total, err = _integrate_panels(integrand, _geometric_edges(0.0, t_cut),
                                   rel=0.1 * _REL_TOL, abs_total=0.5 * target)
    value = gamma_pi * total
    err_total = gamma_pi * err + gamma_pi * tail_bound(t_cut)
    return _clamp_nonneg(value, err_total, "pos_moment_laplace")


def pos_moment_charfn(cf: Callable[[float], complex], moments: Sequence[float],
                      w: float, p: float) -> float:
    """E(X - w)_+^p from the characteristic function of X.

    Uses the inversion formula with l = ceil(p - 1):

        E X'^k / 2 * 1{p integer}
          + Gamma(p+1)/pi * Int_0^inf Re[ E e_l(it X') / (it)^{p+1} ] dt,

    where X' = X - w and k = floor(p).  ``moments`` must supply
    [E X'^0, E X'^1, ...] at least through order max(l, k); supplying a few
    more (order l + 3 or so) lets the small-t region, where forming
    E e_l(it X') loses all precision to cancellation, be integrated from its
    Taylor series instead.  The large-t polynomial part is integrated in
    closed form past the numeric cutoff, which is what keeps the slowly
    decaying t^{l-p-1} tail affordable.

    Like the Laplace route, this is an audit of the series: :func:`pos_moment`
    runs it only when forced.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"p must be positive, got {p}")
    ell = math.ceil(p - 1.0)
    k = math.floor(p)
    p_is_int = (p == k)
    need = max(ell, k if p_is_int else 0) + 1
    if len(moments) < need:
        raise DomainError(f"need moments through order {need - 1}, got {len(moments) - 1}")
    if p - ell < 0.5:
        warnings.warn(
            f"charfn integrand decays like t^{{{ell - p - 1:.2f}}}; "
            "convergence will be slow", SlowDecayWarning, stacklevel=2)
    mu = [float(m) for m in moments]
    m_top = min(len(mu) - 1, 8)

    def cfs(t: float) -> complex:
        return cf(t) * cmath.exp(complex(0.0, -t * w))

    def integrand(t: float) -> float:
        z = complex(0.0, t)
        val = cfs(t)
        term = 1.0 + 0j
        for m in range(ell + 1):
            val -= mu[m] * term
            term *= z / (m + 1)
        return (val / z ** (p + 1.0)).real

    def poly_primitive(m: int, t_cut: float) -> float:
        # Int_{t_cut}^inf of the m-th subtracted monomial's real part.
        c = math.cos(0.5 * math.pi * (m - p - 1.0))
        return -mu[m] / math.factorial(m) * c * t_cut ** (m - p) / (p - m)

    scale = math.sqrt(abs(mu[2])) if len(mu) > 2 and mu[2] != 0.0 else 1.0
    t_lo = 0.05 / max(scale, 1e-12)
    # Taylor patch on [0, t_lo]: the integrand equals
    # sum_{m>l} Re[(it)^{m-p-1}] mu_m / m! plus a remainder of one more order.
    patch = 0.0
    for m in range(ell + 1, m_top + 1):
        if abs(m - p) < 1e-12:
            continue  # purely imaginary contribution, real part is zero
        c = math.cos(0.5 * math.pi * (m - p - 1.0))
        patch += mu[m] / math.factorial(m) * c * t_lo ** (m - p) / (m - p)
    patch_err_scale = abs(mu[m_top]) * scale / math.factorial(m_top + 1)
    patch_err = patch_err_scale * t_lo ** (m_top + 1 - p) / max(m_top + 1 - p, 1.0)

    rough = abs(patch) + abs(mu[min(2, len(mu) - 1)]) + 1e-12
    target = max(_ABS_TOL, 1e-13 * rough)
    t_cut = max(50.0 * scale, 50.0 / max(scale, 1e-12), 10.0)
    while 1.0 / (p * t_cut**p) > 0.25 * target and t_cut < 1e9:
        t_cut *= 2.0

    total, err = _integrate_panels(integrand, _geometric_edges(t_lo, t_cut),
                                   rel=1e-11, abs_total=0.25 * target)
    poly_tail = sum(poly_primitive(m, t_cut) for m in range(ell + 1))
    cf_tail_bound = 1.0 / (p * t_cut**p)

    gamma_pi = math.gamma(p + 1.0) / math.pi
    lead = 0.5 * mu[k] if p_is_int else 0.0
    value = lead + gamma_pi * (patch + total + poly_tail)
    err_total = gamma_pi * (err + patch_err + cf_tail_bound)
    return _clamp_nonneg(value, err_total, "pos_moment_charfn")


def pos_moment_poisson_local(theta: float, y: float, w: float,
                             alpha: float) -> float:
    """E(y (Pois(theta) - theta) - w)_+^alpha by direct lattice summation.

    Only counts k with y (k - theta) > w contribute, so the sum starts at
    k0 = floor(w/y + theta) + 1; (y (k - theta) - w)^alpha is log-concave
    there, so :func:`tailbound.special._poisson_log_sum` applies and
    fractional alpha costs nothing.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if theta < 0.0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    if theta == 0.0:
        return max(-w, 0.0) ** alpha
    return math.exp(_poisson_log_sum(theta, lambda k: max(y * (k - theta) - w, 0.0) ** alpha,
                                     max(0, math.floor(w / y + theta) + 1)))


# Cumulants of the mixture: kappa_2 = v + y^2 theta, kappa_m = y^m theta
# for m >= 3 (the Gaussian part only contributes at order two).
def mixture_shifted_moments(rv: MixtureRV, w: float, upto: int = 6) -> list[float]:
    """Raw moments [E(eta - w)^0, ..., E(eta - w)^upto], upto <= 6."""
    if upto > 6:
        raise DomainError("moments available through order 6 only")
    k2 = rv.v + rv.y**2 * rv.theta
    k3 = rv.y**3 * rv.theta
    k4 = rv.y**4 * rv.theta
    k5 = rv.y**5 * rv.theta
    k6 = rv.y**6 * rv.theta
    central = [1.0, 0.0, k2, k3,
               k4 + 3.0 * k2 * k2,
               k5 + 10.0 * k3 * k2,
               k6 + 15.0 * k4 * k2 + 10.0 * k3 * k3 + 15.0 * k2**3]
    out = []
    for m in range(upto + 1):
        acc = 0.0
        for i in range(m + 1):
            acc += math.comb(m, i) * central[i] * (-w) ** (m - i)
        out.append(acc)
    return out


def _two_point_exact(rv: TwoPointRV, w: float, alpha: float) -> float:
    out = 0.0
    if rv.b - w > 0.0:
        out += rv.prob_pos * (rv.b - w) ** alpha
    if -rv.a - w > 0.0:
        out += rv.prob_neg * (-rv.a - w) ** alpha
    return out


def _route(rv: MixtureRV | TwoPointRV, alpha: float,
           method: PosMomentMethod | None = None) -> str:
    """The route :func:`pos_moment` takes: "exact" for two-point laws
    unless a contour route is forced (a forced series is the exact sum),
    otherwise the tag of ``method`` when one is forced, "poisson-local" for
    pure-Poisson mixtures (v = 0) and "series" for every other mixture and
    every power.  The contour routes run only when forced, as audits."""
    if isinstance(rv, TwoPointRV) and (method is None or method.tag == "series"):
        return "exact"
    if method is not None:
        return method.tag
    return "poisson-local" if rv.v == 0.0 else "series"


@_overflow_is_range_error
def pos_moment(rv: MixtureRV | TwoPointRV, w: float, alpha: float,
               method: PosMomentMethod | None = None) -> float:
    """E(X - w)_+^alpha for a supported law, routed by family and power.

    Two-point laws use the exact two-term sum.  Mixtures default to the
    Poisson-local sum when purely Poisson (v = 0) and to the Gaussian-slice
    series otherwise, for every power.  Pass ``method`` to force a route:
    the Laplace contour integral (abscissa s = ln(1+y)/y) and the
    characteristic-function inversion are audits of the series.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not isinstance(rv, (MixtureRV, TwoPointRV)):
        raise DomainError(f"unsupported law {type(rv).__name__}")
    route = _route(rv, alpha, method)
    if route == "exact":
        return _two_point_exact(rv, w, alpha)
    if isinstance(rv, TwoPointRV):
        return _two_point_integral(rv, w, alpha, method)
    if route == "poisson-local":
        return pos_moment_poisson_local(rv.theta, rv.y, w, alpha)
    if route == "series":
        return pos_moment_mixture_series(rv, w, alpha)
    if route == "laplace":
        return pos_moment_laplace(lambda z: mixture_mgf(rv, z), w, alpha,
                                  _default_abscissa(rv.y), gauss_var=rv.v)
    moments = mixture_shifted_moments(rv, w, upto=6)
    return pos_moment_charfn(lambda t: mixture_mgf(rv, complex(0.0, t)),
                             moments, w, alpha)


def _default_abscissa(y: float) -> float:
    return math.log1p(y) / y


def _two_point_integral(rv: TwoPointRV, w: float, alpha: float,
                        method: PosMomentMethod) -> float:
    pn, pp = rv.prob_neg, rv.prob_pos
    a, b = rv.a, rv.b
    if method.tag == "laplace":
        return pos_moment_laplace(lambda z: pn * cmath.exp(-z * a) + pp * cmath.exp(z * b),
                                  w, alpha, _default_abscissa(b))
    moments = [pn * (-a - w) ** m + pp * (b - w) ** m for m in range(7)]

    def cf(t: float) -> complex:
        return pn * cmath.exp(complex(0.0, -t * a)) + pp * cmath.exp(complex(0.0, t * b))

    return pos_moment_charfn(cf, moments, w, alpha)
