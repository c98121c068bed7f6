"""Independent high-precision references, computed with mpmath alone.

Nothing here imports ``tailbound``: every sum is written out afresh and
stopped on its own certified remainder bound, and P_alpha is minimised
over t by golden section rather than by solving m(t) = x.  The law is the
mixture eta = G + y (Pois(theta) - theta) with G ~ N(0, v); v = 0 is the
scaled centred Poisson law that ``be`` uses.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

# Relative size of the certified remainder at which a sum stops.
_REL = mp.mpf(10) ** -30
_MAX_TERMS = 20_000


def _gauss_pos_moment(v, mu, p):
    """E(sqrt(v) Z + mu)_+^p for Z standard normal and real p > 0.

    sqrt(v)^p Gamma(p+1) exp(-c^2/4) D_{-p-1}(-c) / sqrt(2 pi), c = mu/sqrt(v)
    (DLMF 12.5.1 with D_nu = U(-nu - 1/2, .)).
    """
    if v == 0:
        return max(mu, 0) ** p
    s = mp.sqrt(v)
    c = mu / s
    if p in (1, 2, 3):
        # Integer powers by parts, in erfc and the density, which is faster
        # than pcfd; make_refs.py checks both forms against mp.quad.
        q = mp.erfc(-c / mp.sqrt(2)) / 2
        phi = mp.npdf(c)
        if p == 1:
            return s * phi + mu * q
        if p == 2:
            return (v + mu * mu) * q + s * mu * phi
        return mu * (3 * v + mu * mu) * q + s * (2 * v + mu * mu) * phi
    return (s**p * mp.gamma(p + 1) * mp.exp(-c * c / 4)
            * mp.pcfd(-p - 1, -c) / mp.sqrt(2 * mp.pi))


def _pmf(k, theta):
    return mp.exp(-theta + k * mp.log(theta) - mp.loggamma(k + 1))


def _lattice_sum(theta, term_at, ratio_bound):
    """sum_{k>=0} term_at(k), with term_at(k) >= 0.

    Past the Poisson mode, ratio_bound(k) must bound term(j+1)/term(j) for
    every j >= k and be non-increasing; once it is below 1 the remainder
    after term k is at most term(k) r / (1 - r), and the sum stops when
    that is below _REL of the total.
    """
    total = mp.mpf(0)
    for k in range(_MAX_TERMS):
        term = term_at(k)
        total += term
        if k > theta:
            r = ratio_bound(k)
            if r < 1 and term * r / (1 - r) <= _REL * total:
                return total
    raise ArithmeticError("reference lattice sum did not reach its remainder bound")


def pos_moment(v, y, theta, w, p):
    """E(eta - w)_+^p for p >= 1."""
    v, y, theta, w, p = (mp.mpf(a) for a in (v, y, theta, w, p))

    def mu(k):
        return y * (k - theta) - w

    def term(k):
        return _pmf(k, theta) * _gauss_pos_moment(v, mu(k), p)

    def ratio(k):
        # pmf ratio theta/(j+1) times the growth of the Gaussian slice over
        # one lattice step.  For mu > 0, d/dmu log E(sqrt(v)Z+mu)_+^p is at
        # most p 2^{1/p} / mu, since E(..)_+^{p-1} <= (E(..)_+^p)^{(p-1)/p}
        # and E(..)_+^p >= mu^p / 2.
        m = mu(k)
        if m <= 0:
            return mp.inf
        if v == 0:
            grow = ((m + y) / m) ** p
        else:
            grow = mp.exp(p * mp.power(2, 1 / p) * y / m)
        return theta / (k + 1) * grow

    return _lattice_sum(theta, term, ratio)


def tail(v, y, theta, x):
    """P(eta >= x)."""
    v, y, theta, x = (mp.mpf(a) for a in (v, y, theta, x))

    def term(k):
        d = x - y * (k - theta)
        if v == 0:
            q = mp.mpf(1) if d <= 0 else mp.mpf(0)
        else:
            q = mp.erfc(d / mp.sqrt(2 * v)) / 2
        return _pmf(k, theta) * q

    # Each slice is at most 1, so the remainder is at most the Poisson mass
    # beyond k, bounded geometrically with ratio theta/(k+2).
    return _lattice_sum(theta, term, lambda k: theta / (k + 2))


def p_alpha(v, y, theta, alpha, x, iters=64):
    """inf_{t<x} E(eta - t)_+^alpha / (x - t)^alpha by golden section.

    The objective is unimodal in t (its stationary point solves the
    increasing m(t) = x), so it is minimised over u = log(x - t) on
    [log(1e-9 s), log(60 s)] with s the standard deviation.  The value at
    the minimum is insensitive to the error in t to first order.
    """
    x = mp.mpf(x)
    sd = mp.sqrt(mp.mpf(v) + mp.mpf(y) ** 2 * mp.mpf(theta))

    def obj(u):
        d = mp.exp(u)
        return mp.log(pos_moment(v, y, theta, x - d, alpha)) - alpha * u

    a, b = mp.log(mp.mpf("1e-9") * sd), mp.log(60 * sd)
    g = (mp.sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = obj(d)
    best = min(fc, fd)
    if min(fc, fd) >= obj(a) or min(fc, fd) >= obj(b):
        raise ArithmeticError("P_alpha minimum sits on the search boundary")
    return min(mp.mpf(1), mp.exp(best))


def mixture_of(sigma, y, eps):
    """(v, y, theta) of the Gaussian-plus-Poisson law for the budgets."""
    sigma, y, eps = mp.mpf(sigma), mp.mpf(y), mp.mpf(eps)
    return (1 - eps) * sigma**2, y, eps * sigma**2 / y**2


def poisson_of(sigma, y):
    """(v, y, theta) of the scaled centred Poisson law that ``be`` uses."""
    sigma, y = mp.mpf(sigma), mp.mpf(y)
    return mp.mpf(0), y, sigma**2 / y**2


def exp_moment(v, y, theta, lam):
    """E exp(lam eta) = exp(v lam^2/2 + theta (e^{lam y} - 1 - lam y))."""
    v, y, theta, lam = (mp.mpf(a) for a in (v, y, theta, lam))
    return mp.exp(v * lam**2 / 2 + theta * (mp.expm1(lam * y) - lam * y))
