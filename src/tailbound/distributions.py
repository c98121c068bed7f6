"""Reference laws for the tail-bound machinery.

Three families cover everything the bounds need: the global budget triple
(sigma, y, eps), the zero-mean Gaussian-plus-scaled-centered-Poisson mixture
it induces, and the zero-mean two-point law that is extremal for the moment
budgets.  The mixture with Gaussian part removed (v = 0) doubles as the
scaled centered Poisson law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError, RangeError
from .special import (
    DEFAULT_TOL,
    Tolerance,
    exp_remainder,
    normal_tail,
    poisson_tail,
    _poisson_logpmf,
)

__all__ = [
    "BoundParams",
    "MixtureRV",
    "TwoPointRV",
    "mixture_mgf",
    "mixture_tail",
    "two_point_palpha_closed",
    "two_point_pinf_closed",
]

# exp(z*y) overflows past this; mirrored by the mgf precondition.
_EXP_GUARD = 700.0


@dataclass(frozen=True, slots=True)
class BoundParams:
    """Global budgets for a sum S = sum X_i of independent summands:
    sigma^2 bounds the total variance, y the almost-sure maximum of each
    summand, and eps in (0,1) is the truncated-third-moment fraction
    beta / (sigma^2 y).
    """

    sigma: float
    y: float
    eps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(f"y must be positive, got {self.y}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {self.eps}")

    def beta(self) -> float:
        """Aggregate positive-part third moment eps * sigma^2 * y."""
        return self.eps * self.sigma * self.sigma * self.y

    def mixture(self) -> MixtureRV:
        """The comparison law these budgets induce: Gaussian variance
        (1 - eps) sigma^2 plus jump size y at Poisson rate eps sigma^2 / y^2."""
        s2 = self.sigma * self.sigma
        return MixtureRV(v=(1.0 - self.eps) * s2, y=self.y,
                         theta=self.eps * s2 / (self.y * self.y))

    def bentkus(self) -> MixtureRV:
        """The Bentkus comparison law: the scaled centered Poisson carrying
        the full variance budget, y (Pois(sigma^2/y^2) - sigma^2/y^2)."""
        return MixtureRV(v=0.0, y=self.y, theta=self.sigma**2 / self.y**2)


@dataclass(frozen=True, slots=True)
class MixtureRV:
    """Law of G + y * (Pois(theta) - theta) with G ~ N(0, v) independent.

    Zero mean, variance v + y^2 theta.  theta = 0 gives a pure Gaussian and
    v = 0 a pure scaled centered Poisson; both at once are disallowed.
    """

    v: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and self.v >= 0.0):
            raise DomainError(f"v must be >= 0, got {self.v}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(f"y must be positive, got {self.y}")
        if not (math.isfinite(self.theta) and self.theta >= 0.0):
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.v == 0.0 and self.theta == 0.0:
            raise DomainError("v and theta cannot both be zero")

    @property
    def variance(self) -> float:
        return self.v + self.y * self.y * self.theta

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True, slots=True)
class TwoPointRV:
    """Zero-mean law on {-a, b}: mass b/(a+b) at -a and a/(a+b) at b.

    E X^2 = a b and E X_+^3 = a b^3 / (a + b); these two knobs make the
    family extremal for variance and truncated-third-moment budgets.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise DomainError(f"b must be positive, got {self.b}")

    @property
    def prob_neg(self) -> float:
        return self.b / (self.a + self.b)

    @property
    def prob_pos(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def second_moment(self) -> float:
        return self.a * self.b

    @property
    def pos_third_moment(self) -> float:
        return self.a * self.b**3 / (self.a + self.b)


def mixture_mgf(rv: MixtureRV, z: complex) -> complex:
    """E exp(z * eta) for the Gaussian-Poisson mixture eta.

    Equals exp(v z^2 / 2 + theta (e^{zy} - 1 - zy)); the Poisson factor is
    evaluated through exp_remainder(1, zy) so small arguments lose nothing
    to cancellation.  Real input yields a real result.

    Raises RangeError when Re(z) * y > 700, where exp would overflow.
    """
    zc = complex(z)
    if zc.real * rv.y > _EXP_GUARD:
        raise RangeError(f"mixture_mgf overflow guard: Re(z)*y = {zc.real * rv.y}")
    expo = 0.5 * rv.v * zc * zc + rv.theta * exp_remainder(1, zc * rv.y)
    if isinstance(z, complex):
        return cmath.exp(expo)
    return math.exp(expo.real)


def mixture_tail(rv: MixtureRV, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """P(eta >= x), conditioning on the Poisson count.

    Each count k contributes pmf(k) * P(N(0, v) >= x - y (k - theta)); the
    series stops once the remaining Poisson mass is certifiably below the
    absolute tolerance (every summand is at most 1, so that mass bounds the
    truncation error).  With v = 0 the tail is a pure Poisson survival
    probability and is delegated accordingly.
    """
    if not math.isfinite(x):
        raise DomainError(f"mixture_tail requires finite x, got {x}")
    if rv.v == 0.0:
        # y*(Pois - theta) >= x iff Pois >= theta + x / y.
        return poisson_tail(rv.theta, rv.theta + x / rv.y, tol)
    if rv.theta == 0.0:
        return normal_tail(rv.v, x)
    total = 0.0
    k = 0
    while k <= 200_000:
        pmf = math.exp(_poisson_logpmf(k, rv.theta))
        total += pmf * normal_tail(rv.v, x - rv.y * (k - rv.theta))
        # Remaining Poisson mass after k, bounded geometrically once the
        # pmf ratio theta / (k + 1) has dropped below 1.
        r = rv.theta / (k + 1.0)
        if r < 1.0:
            next_pmf = pmf * r
            remaining = next_pmf / (1.0 - rv.theta / (k + 2.0)) if rv.theta / (k + 2.0) < 1.0 else math.inf
            if remaining <= tol.abs:
                return min(1.0, max(0.0, total))
        k += 1
    raise NumericalError("mixture_tail series failed to terminate", estimate=total)


def _logsumexp2(l1: float, l2: float) -> float:
    if l1 == -math.inf:
        return l2
    if l2 == -math.inf:
        return l1
    hi = max(l1, l2)
    return hi + math.log1p(math.exp(min(l1, l2) - hi))


def two_point_palpha_closed(rv: TwoPointRV, alpha: float, x: float) -> float:
    """Closed form of the optimal power-moment tail bound
    inf_{t<x} E(X - t)_+^alpha / (x - t)^alpha for the two-point law.

    On 0 <= x < b the value is

        (b+a)^{alpha-1} b a / [ (b (x+a)^alpha)^{1/(alpha-1)}
                                + (a (b-x)^alpha)^{1/(alpha-1)} ]^{alpha-1},

    computed in log space so exponents like 1/(alpha-1) cannot overflow.
    Left of 0 the bound is 1; from b on it collapses to the atom
    P(X = b) * 1{x = b}.
    """
    if not (alpha > 1.0) or not math.isfinite(alpha):
        raise DomainError(f"two_point_palpha_closed requires alpha > 1, got {alpha}")
    a, b = rv.a, rv.b
    if x <= 0.0:
        return 1.0
    if x >= b:
        return rv.prob_pos if x == b else 0.0
    inv = 1.0 / (alpha - 1.0)
    l1 = inv * (math.log(b) + alpha * math.log(x + a))
    l2 = inv * (math.log(a) + alpha * math.log(b - x))
    log_den = (alpha - 1.0) * _logsumexp2(l1, l2)
    log_num = (alpha - 1.0) * math.log(a + b) + math.log(a) + math.log(b)
    return math.exp(log_num - log_den)


def two_point_pinf_closed(rv: TwoPointRV, x: float) -> float:
    """Best exponential (Chernoff) tail bound for the two-point law.

    inf_{lam>0} e^{-lam x} E e^{lam X}, which on 0 <= x < b equals
    ((x+a)/a)^{-(x+a)/(a+b)} * ((b-x)/b)^{-(b-x)/(a+b)}; the boundary and
    exterior cases match the power-moment bound above.
    """
    a, b = rv.a, rv.b
    if x <= 0.0:
        return 1.0
    if x >= b:
        return rv.prob_pos if x == b else 0.0
    s = a + b
    expo = (-(x + a) / s * math.log((x + a) / a)
            - (b - x) / s * math.log((b - x) / b))
    return math.exp(expo)
