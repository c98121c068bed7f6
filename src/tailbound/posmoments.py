"""Positive-part moments E(X - w)_+^p by three independent routes.

Every generalized-moment tail bound in this package reduces to such moments,
so they are computed redundantly: a Poisson-count series with closed-form
Gaussian slices (the default for integer powers), a Fourier-Laplace contour
integral valid for any p > 0, and a characteristic-function inversion kept
as a cross-check.  The routes share no code beyond scalar kernels, which is
what makes their agreement a meaningful test.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from ._quadrature import adaptive_quad
from .distributions import MixtureRV, TwoPointRV, mixture_mgf
from .errors import DomainError, NumericalError
from .special import DEFAULT_TOL, Tolerance, normal_tail, _poisson_logpmf

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


class SlowDecayWarning(UserWarning):
    """The characteristic-function integrand decays like t^{l-p-1} with
    p - l < 1/2, so the quadrature converges slowly; prefer the Laplace
    route when this fires."""


@dataclass(frozen=True, slots=True)
class PosMomentMethod:
    """Route selector for :func:`pos_moment`.

    tag is one of "series", "laplace", "charfn"; the Laplace route carries
    its abscissa s > 0 (None picks the default ln(1+y)/y).
    """

    tag: str
    s: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("series", "laplace", "charfn"):
            raise DomainError(f"unknown method tag {self.tag!r}")
        if self.s is not None and not (self.s > 0.0):
            raise DomainError("laplace abscissa s must be positive")

    @classmethod
    def series(cls) -> PosMomentMethod:
        return cls("series")

    @classmethod
    def laplace(cls, s: float | None = None) -> PosMomentMethod:
        return cls("laplace", s)

    @classmethod
    def charfn(cls) -> PosMomentMethod:
        return cls("charfn")


def _gauss_partial_moment(v: float, mu: float, alpha: int) -> float:
    """E(sqrt(v) Z + mu)_+^alpha for Z standard normal and alpha in {1,2,3}.

    With z0 = -mu / sqrt(v), Q = P(Z >= z0) and phi the standard normal
    density at z0:

        alpha = 1:  sqrt(v) phi + mu Q
        alpha = 2:  (v + mu^2) Q + sqrt(v) mu phi
        alpha = 3:  mu (3v + mu^2) Q + sqrt(v) (2v + mu^2) phi

    The coefficients follow from the recursions for truncated normal
    moments and are pinned against a quadrature oracle in the tests.
    """
    if v == 0.0:
        return max(mu, 0.0) ** alpha
    s = math.sqrt(v)
    z0 = -mu / s
    q = normal_tail(1.0, z0)
    phi = math.exp(-0.5 * z0 * z0) / _SQRT_2PI
    if alpha == 1:
        return s * phi + mu * q
    if alpha == 2:
        return (v + mu * mu) * q + s * mu * phi
    if alpha == 3:
        return mu * (3.0 * v + mu * mu) * q + s * (2.0 * v + mu * mu) * phi
    raise DomainError(f"alpha must be 1, 2 or 3, got {alpha}")


def _as_small_int(alpha: float) -> int:
    if float(alpha) in (1.0, 2.0, 3.0):
        return int(alpha)
    raise DomainError(f"series route needs alpha in {{1, 2, 3}}, got {alpha}")


def pos_moment_mixture_series(rv: MixtureRV, w: float, alpha: int,
                              tol: Tolerance = DEFAULT_TOL) -> float:
    """E(eta - w)_+^alpha by conditioning on the Poisson count.

    Each count k contributes pmf(k) * E(sqrt(v) Z + y(k - theta) - w)_+^alpha
    with the Gaussian slice in closed form.  Terms eventually decay faster
    than geometrically (Poisson pmf ratio theta/(k+1) against polynomial
    growth of the slice), so summation stops after two consecutive terms
    fall below 1e-17 of the accumulated value.
    """
    a = _as_small_int(alpha)
    if rv.v == 0.0:
        return pos_moment_poisson_local(rv.theta, rv.y, w, float(a), tol)
    if rv.theta == 0.0:
        return _gauss_partial_moment(rv.v, -w, a)
    total = 0.0
    tiny_run = 0
    k = 0
    while k <= 200_000:
        pmf = math.exp(_poisson_logpmf(k, rv.theta))
        term = pmf * _gauss_partial_moment(rv.v, rv.y * (k - rv.theta) - w, a)
        total += term
        if k > rv.theta:
            if term <= 1e-17 * total + tol.abs:
                tiny_run += 1
                if tiny_run >= 2:
                    return total
            else:
                tiny_run = 0
        k += 1
    raise NumericalError("mixture series did not terminate", estimate=total)


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
    n = len(edges) - 1
    total, err = 0.0, 0.0
    for i in range(n):
        v, e = adaptive_quad(f, edges[i], edges[i + 1], rel=rel,
                             abs_tol=abs_total / n)
        total += v
        err += e
    return total, err


def _clamp_nonneg(value: float, err: float, tol: Tolerance, what: str) -> float:
    if value >= 0.0:
        return value
    # Round-off can push a true zero slightly negative; the plausible scale
    # of that round-off is the quadrature's own error estimate.
    if value >= -(tol.abs + 10.0 * err):
        return 0.0
    raise NumericalError(f"{what} returned {value}, beyond round-off",
                         estimate=value, err_estimate=err)


def pos_moment_laplace(mgf: Callable[[complex], complex], w: float, p: float,
                       s: float, j: int, tol: Tolerance = DEFAULT_TOL,
                       moments: Sequence[float] | None = None,
                       gauss_var: float = 0.0) -> float:
    """E(X - w)_+^p via the Fourier-Laplace contour formula

        Gamma(p+1)/pi * Int_0^inf Re[ E e_j((s+it) X') / (s+it)^{p+1} ] dt,

    where X' = X - w (the shift is applied here, the caller passes the mgf
    of X itself) and e_j is the truncated exponential remainder.  With
    j = -1 no moments are needed; for j >= 0 supply ``moments`` as
    [E X'^0, ..., E X'^j].

    Truncation of the infinite range is certified through
    |E e^{z X'}| <= E e^{s X'} plus power bounds on the subtracted
    polynomial, and the finite part is done by adaptive Gauss-Kronrod over
    geometrically growing panels.  When the law contains an independent
    Gaussian factor of variance ``gauss_var``, pass it: the mgf modulus
    then picks up exp(-gauss_var t^2 / 2) along the contour, which turns
    the generic t^{-p} tail bound into one that closes even for p < 1.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise DomainError(f"p must be positive, got {p}")
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be positive, got {s}")
    ell = math.ceil(p - 1.0)
    if not (-1 <= j <= ell):
        raise DomainError(f"j must lie in [-1, {ell}] for p = {p}, got {j}")
    if j >= 0 and (moments is None or len(moments) < j + 1):
        raise DomainError("j >= 0 requires moments [E X'^0 .. E X'^j]")

    def msh(z: complex) -> complex:
        return mgf(z) * cmath.exp(-z * w)

    c_exp = msh(complex(s, 0.0)).real

    def integrand(t: float) -> float:
        z = complex(s, t)
        val = msh(z)
        if j >= 0:
            term = 1.0 + 0j
            acc = 0j
            for m in range(j + 1):
                acc += moments[m] * term
                term *= z / (m + 1)
            val -= acc
        return (val / z ** (p + 1.0)).real

    def tail_bound(t_cut: float) -> float:
        decay = math.exp(-0.5 * gauss_var * min(t_cut * t_cut, 1500.0))
        bound = decay * c_exp / (p * t_cut**p)
        if j >= 0:
            for m in range(j + 1):
                bound += abs(moments[m]) / math.factorial(m) * t_cut ** (m - p) / (p - m)
        return bound

    gamma_pi = math.gamma(p + 1.0) / math.pi
    # First pass over a moderate range to learn the magnitude, then extend
    # until the analytic tail bound is provably below the target.
    t0 = 10.0 * (1.0 + 1.0 / s)
    rough, _ = _integrate_panels(integrand, _geometric_edges(0.0, t0),
                                 rel=1e-6, abs_total=1e-280)
    a_priori = c_exp / (p * s**p)  # integral magnitude bound, sets noise floor
    target = max(tol.abs, tol.rel * abs(rough), 1e-16 * a_priori)
    t_cut = t0
    while tail_bound(t_cut) > 0.5 * target and t_cut < 1e12:
        t_cut *= 2.0
    if tail_bound(t_cut) > 0.5 * target:
        raise NumericalError("laplace truncation point not found",
                             estimate=gamma_pi * rough)
    total, err = _integrate_panels(integrand, _geometric_edges(0.0, t_cut),
                                   rel=0.1 * tol.rel, abs_total=0.5 * target)
    value = gamma_pi * total
    err_total = gamma_pi * err + gamma_pi * tail_bound(t_cut)
    return _clamp_nonneg(value, err_total, tol, "pos_moment_laplace")


def pos_moment_charfn(cf: Callable[[float], complex], moments: Sequence[float],
                      w: float, p: float, tol: Tolerance = DEFAULT_TOL) -> float:
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

    This route is a cross-check; the Laplace route is preferred in
    production paths.
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
    target = max(tol.abs, 1e-13 * rough)
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
    return _clamp_nonneg(value, err_total, tol, "pos_moment_charfn")


def pos_moment_poisson_local(theta: float, y: float, w: float, alpha: float,
                             tol: Tolerance = DEFAULT_TOL) -> float:
    """E(y (Pois(theta) - theta) - w)_+^alpha by direct lattice summation.

    Only counts k with y (k - theta) > w contribute, so the sum starts at
    k0 = floor(w/y + theta) + 1 and runs until the certified geometric
    remainder bound dies; fractional alpha costs nothing here.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if theta < 0.0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    if theta == 0.0:
        return max(-w, 0.0) ** alpha
    k0 = max(0, math.floor(w / y + theta) + 1)
    total = 0.0
    k = k0
    while k <= 500_000:
        g = y * (k - theta) - w
        if g > 0.0:
            term = math.exp(_poisson_logpmf(k, theta) + alpha * math.log(g))
            total += term
            if k > theta:
                # ratio of consecutive terms: pmf ratio times growth of g^alpha
                r = theta / (k + 1.0) * ((g + y) / g) ** alpha
                if r < 0.5:
                    remaining = term * r / (1.0 - r)
                    if remaining <= tol.abs + 1e-18 * total:
                        return total
                if term == 0.0:
                    return total
        k += 1
    raise NumericalError("poisson local sum did not terminate", estimate=total)


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
    """The route :func:`pos_moment` takes: the tag of ``method`` when one
    is forced, otherwise "exact" for two-point laws, "poisson-local" for
    pure-Poisson mixtures (v = 0), "series" for alpha in {1, 2, 3} and
    "laplace" for any other power."""
    if method is not None:
        return method.tag
    if isinstance(rv, TwoPointRV):
        return "exact"
    if rv.v == 0.0:
        return "poisson-local"
    return "series" if float(alpha) in (1.0, 2.0, 3.0) else "laplace"


def pos_moment(rv: MixtureRV | TwoPointRV, w: float, alpha: float,
               method: PosMomentMethod | None = None,
               tol: Tolerance = DEFAULT_TOL) -> float:
    """E(X - w)_+^alpha for a supported law, routed by family and power.

    Two-point laws use the exact two-term sum.  Mixtures default to the
    Poisson-local sum when purely Poisson (v = 0), the Gaussian-slice
    series for alpha in {1, 2, 3}, and the Laplace contour integral with
    s = ln(1+y)/y, j = -1 otherwise.  Pass ``method`` to force a route.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not isinstance(rv, (MixtureRV, TwoPointRV)):
        raise DomainError(f"unsupported law {type(rv).__name__}")
    route = _route(rv, alpha, method)
    if isinstance(rv, TwoPointRV):
        if route in ("exact", "series"):
            return _two_point_exact(rv, w, alpha)
        return _two_point_integral(rv, w, alpha, method, tol)
    if route == "poisson-local":
        return pos_moment_poisson_local(rv.theta, rv.y, w, alpha, tol)
    if route == "series":
        return pos_moment_mixture_series(rv, w, _as_small_int(alpha), tol)
    if route == "laplace":
        s = method.s if method is not None and method.s is not None \
            else _default_abscissa(rv.y)
        return pos_moment_laplace(lambda z: mixture_mgf(rv, z), w, alpha, s,
                                  -1, tol, gauss_var=rv.v)
    moments = mixture_shifted_moments(rv, w, upto=6)
    return pos_moment_charfn(lambda t: mixture_mgf(rv, complex(0.0, t)),
                             moments, w, alpha, tol)


def _default_abscissa(y: float) -> float:
    return math.log1p(y) / y


def _two_point_integral(rv: TwoPointRV, w: float, alpha: float,
                        method: PosMomentMethod, tol: Tolerance) -> float:
    pn, pp = rv.prob_neg, rv.prob_pos
    a, b = rv.a, rv.b
    if method.tag == "laplace":
        s = method.s if method.s is not None else _default_abscissa(b)

        def mgf(z: complex) -> complex:
            return pn * cmath.exp(-z * a) + pp * cmath.exp(z * b)

        return pos_moment_laplace(mgf, w, alpha, s, -1, tol)
    moments = [pn * (-a - w) ** m + pp * (b - w) ** m for m in range(7)]

    def cf(t: float) -> complex:
        return pn * cmath.exp(complex(0.0, -t * a)) + pp * cmath.exp(complex(0.0, t * b))

    return pos_moment_charfn(cf, moments, w, alpha, tol)
