"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's own numerics: roots are
found by plain bisection, moments by generic quadrature, minima by golden
section or dense grids, and tails by high-precision or brute-force summation.
Agreement between these oracles and the library is what the tests assert, so
nothing in this module may import from ``tailbound`` except where a test
explicitly cross-checks one library routine against another.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate


def lambert_bisect(z: float, tol: float = 1e-14) -> float:
    """Principal Lambert W by bisection on w*exp(w) - z = 0, w >= 0."""
    if z == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < z:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def lambert_log_newton(log_z: float, tol: float = 1e-15) -> float:
    """Solve w + ln w = log_z by Newton, for large log_z (w ~ log_z)."""
    w = log_z - math.log(log_z)
    for _ in range(100):
        step = (w + math.log(w) - log_z) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= tol * w:
            break
    return w


def golden_min(f, lo: float, hi: float, tol: float = 1e-12, iters: int = 300):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if abs(b - a) <= tol * (abs(a) + abs(b)):
            break
    x = 0.5 * (a + b)
    return x, f(x)


def pu_exp_direct(sigma: float, y: float, eps: float, lam: float) -> float:
    """exp(lam^2 (1-eps) sigma^2 / 2 + (e^{lam y} - 1 - lam y) eps sigma^2 / y^2)."""
    gauss = 0.5 * lam * lam * (1.0 - eps) * sigma * sigma
    pois = (math.expm1(lam * y) - lam * y) * eps * sigma * sigma / (y * y)
    return math.exp(gauss + pois)


def pu_golden(sigma: float, y: float, eps: float, x: float) -> float:
    """inf over lam > 0 of e^{-lam x} PU_exp(lam) by golden section in log space."""
    if x == 0.0:
        return 1.0

    def g(lam: float) -> float:
        gauss = 0.5 * lam * lam * (1.0 - eps) * sigma * sigma
        pois = (math.expm1(lam * y) - lam * y) * eps * sigma * sigma / (y * y)
        return -lam * x + gauss + pois

    hi = 1.0
    cap = 650.0 / y
    while g(hi) < g(hi / 2.0) and hi < cap:
        hi *= 2.0
    hi = min(2.0 * hi, cap)
    lam, val = golden_min(g, 0.0, hi, tol=1e-14)
    return math.exp(val)


def normal_partial_moment_quad(v: float, mu: float, alpha: float) -> float:
    """E(sqrt(v) Z + mu)_+^alpha by generic quadrature against the normal pdf."""
    s = math.sqrt(v)

    def integrand(z: float) -> float:
        u = s * z + mu
        if u <= 0.0:
            return 0.0
        return u**alpha * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    z0 = -mu / s if s > 0 else -math.inf
    lo = max(z0, -40.0)
    val, _ = integrate.quad(integrand, lo, lo + 50.0, limit=400, epsabs=1e-16, epsrel=1e-13)
    return val


def poisson_tail_mp(theta: float, u: float, dps: int = 50) -> float:
    """P(Pois(theta) >= u) summed in high precision."""
    if u <= 0:
        return 1.0
    if theta == 0:
        return 0.0
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        k0 = int(math.ceil(u))
        # upper regularized gamma: P(Pois >= k0) = P(Gamma(k0) <= theta)
        val = mpmath.gammainc(k0, 0, th, regularized=True)
        return float(val)


def poisson_pos_moment_direct(theta: float, y: float, w: float, alpha: float,
                              kmax: int = 4000) -> float:
    """E(y * (Pois(theta) - theta) - w)_+^alpha by brute-force summation."""
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        total = mpmath.mpf(0)
        logpmf0 = -th
        for k in range(kmax):
            g = y * (k - theta) - w
            if g > 0.0:
                lp = -th + k * mpmath.log(th) - mpmath.loggamma(k + 1)
                total += mpmath.mpf(g) ** alpha * mpmath.e**lp
        return float(total)


def mixture_pos_moment_quad(v: float, y: float, theta: float, w: float,
                            alpha: float, kmax: int = 400) -> float:
    """E(G + y*(Pois(theta)-theta) - w)_+^alpha, G ~ N(0, v), by conditioning
    on the Poisson count and integrating each Gaussian slice with quadrature."""
    total = 0.0
    for k in range(kmax):
        logpmf = -theta + k * math.log(theta) - math.lgamma(k + 1) if theta > 0 else (0.0 if k == 0 else -math.inf)
        pmf = math.exp(logpmf)
        if k > theta + 5 and pmf < 1e-19:
            break
        mu = y * (k - theta) - w
        total += pmf * normal_partial_moment_quad(v, mu, alpha)
    return total


def dense_palpha(moment, alpha: float, x: float, t_lo: float, t_hi: float,
                 n: int = 20001) -> float:
    """min over a dense t grid of E(eta - t)_+^alpha / (x - t)^alpha.

    ``moment(t)`` must return E(eta - t)_+^alpha.
    """
    best = math.inf
    for t in np.linspace(t_lo, t_hi, n):
        if t >= x:
            continue
        val = moment(float(t)) / (x - t) ** alpha
        if val < best:
            best = val
    return best


def two_point_pos_moment(a: float, b: float, t: float, alpha: float) -> float:
    p_pos = a / (a + b)
    p_neg = b / (a + b)
    out = 0.0
    if b - t > 0:
        out += p_pos * (b - t) ** alpha
    if -a - t > 0:
        out += p_neg * (-a - t) ** alpha
    return out


def two_point_pinf_numeric(a: float, b: float, x: float) -> float:
    """inf over lam > 0 of e^{-lam x} E e^{lam X} for the zero-mean two-point law."""
    p_pos = a / (a + b)
    p_neg = b / (a + b)

    def g(lam: float) -> float:
        return -lam * x + math.log(p_neg * math.exp(-lam * a) + p_pos * math.exp(lam * b))

    hi = 1.0
    cap = 650.0 / max(a, b)
    while g(hi) < g(hi / 2.0) and hi < cap:
        hi *= 2.0
    hi = min(2.0 * hi, cap)
    _, val = golden_min(g, 0.0, hi, tol=1e-14)
    return math.exp(val)


def mc_mixture_tail(v: float, y: float, theta: float, x: float, n: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(G + y*(Pois(theta)-theta) >= x)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    chunk = 10_000_000
    done = 0
    while done < n:
        m = min(chunk, n - done)
        s = gen.normal(0.0, math.sqrt(v), size=m) if v > 0 else np.zeros(m)
        s += y * (gen.poisson(theta, size=m) - theta)
        hits += int(np.count_nonzero(s >= x))
        done += m
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


def enumerate_brute(summands, f) -> float:
    """E f(sum X_i) over all sign patterns, plain nested iteration."""
    import itertools

    total = 0.0
    vals = [(-a, b) for a, b in summands]
    probs = [(b / (a + b), a / (a + b)) for a, b in summands]
    for pattern in itertools.product((0, 1), repeat=len(summands)):
        s = sum(vals[i][side] for i, side in enumerate(pattern))
        wgt = 1.0
        for i, side in enumerate(pattern):
            wgt *= probs[i][side]
        total += wgt * f(s)
    return total


def plc_mixture_cells_mp(v: float, y: float, theta: float, x: float,
                         dps: int = 40) -> float:
    """E plc(u) for u = (x - G)/y + theta ~ N(m, s^2), m = x/y + theta,
    s = sqrt(v)/y, where plc is the geometric interpolation of
    P(Pois(theta) >= u) between integers (1 for u <= 0), at ``dps`` digits.

    Every lattice cell (j, j+1] with j <= m + 12 s + 20 is summed in closed
    form, exp(L_j + d_j (m - j) + d_j^2 s^2/2) P(j < N(m + d_j s^2, s^2) <= j+1)
    with L_j = log P(Pois >= j) from the regularized incomplete gamma and
    d_j = L_{j+1} - L_j; nothing below the top cell is cut off.
    """
    with mpmath.workdps(dps):
        v, y, th, x = (mpmath.mpf(a) for a in (v, y, theta, x))
        m = x / y + th
        s = mpmath.sqrt(v) / y
        top = max(0, int(mpmath.ceil(m + 12 * s))) + 20
        logs = [mpmath.mpf(0)] + [mpmath.log(mpmath.gammainc(j, 0, th, regularized=True))
                                  for j in range(1, top + 2)]
        total = mpmath.ncdf(-m / s)
        for j in range(top + 1):
            d = logs[j + 1] - logs[j]
            mt = m + d * s * s
            a, b = (j - mt) / s, (j + 1 - mt) / s
            mass = mpmath.ncdf(b) - mpmath.ncdf(a) if b <= 0 else mpmath.ncdf(-a) - mpmath.ncdf(-b)
            total += mpmath.exp(logs[j] + d * (m - j) + d * d * s * s / 2) * mass
        return float(total)


def mills_power_mp(z, p):
    """J_p(z) = Int_0^inf u^p exp(-z u - u^2/2) du = Gamma(p+1) e^{z^2/4}
    D_{-p-1}(z) (DLMF 12.5.1), at the working precision."""
    z, p = mpmath.mpf(z), mpmath.mpf(p)
    return mpmath.gamma(p + 1) * mpmath.exp(z * z / 4) * mpmath.pcfd(-p - 1, z)


def mixture_pos_moment_mp(v, y, theta, w, p):
    """E(G + y (Pois(theta) - theta) - w)_+^p, G ~ N(0, v), at the working
    precision: each Poisson count k adds pmf(k) sqrt(v)^p phi(z) J_p(z) with
    z = -(y (k - theta) - w) / sqrt(v).  Past k = theta the terms fall
    faster than geometrically, so the sum stops there once a term is below
    1e-24 of the total."""
    v, y, theta, w, p = (mpmath.mpf(a) for a in (v, y, theta, w, p))
    s = mpmath.sqrt(v)
    total = mpmath.mpf(0)
    for k in range(4000):
        z = -(y * (k - theta) - w) / s
        pmf = mpmath.exp(-theta + k * mpmath.log(theta) - mpmath.loggamma(k + 1))
        term = pmf * s**p * mpmath.npdf(z) * mills_power_mp(z, p)
        total += term
        if k > theta and term < mpmath.mpf(10) ** -24 * total:
            return total
    raise ArithmeticError("mixture moment sum did not settle")


def p_alpha_mp(v, y, theta, alpha, x, dps=30):
    """P_alpha of the mixture G + y (Pois(theta) - theta), G ~ N(0, v), at
    ``dps`` digits (:func:`p_alpha_law_mp` over
    :func:`mixture_pos_moment_mp`)."""
    sd = math.sqrt(v + y * y * theta)
    return p_alpha_law_mp(lambda t, p: mixture_pos_moment_mp(v, y, theta, t, p),
                          alpha, x, x - 4 * sd, sd, dps)


def p_alpha_law_mp(moment, alpha, x, lo, sd, dps=30):
    """P_alpha = E(eta - t)_+^alpha / (x - t)^alpha at the root t of
    m(t) = t + E(eta-t)_+^alpha / E(eta-t)_+^{alpha-1} = x, for the law
    whose moment(t, p) = E(eta - t)_+^p, solved by the Illinois method at
    ``dps`` digits on [lo, x - 1e-9 sd].  t is stationary for the ratio, so
    t to 1e-14 already fixes it to ~1e-28."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)

        def excess(t):
            return t + moment(t, alpha) / moment(t, alpha - 1) - x

        t = mpmath.findroot(excess, (mpmath.mpf(lo), x - mpmath.mpf(sd) / 10**9),
                            solver="illinois", tol=1e-14, verify=False)
        return float(moment(t, alpha) / (x - t) ** alpha)


def lattice_pos_moment_mp(y, theta, w, p):
    """E(y (Pois(theta) - theta) - w)_+^p at the working precision, summed
    from the first count above w until a term past the peak falls below
    1e-24 of the total."""
    y, theta, w, p = (mpmath.mpf(a) for a in (y, theta, w, p))
    k0 = max(0, int(mpmath.floor(w / y + theta)) + 1)
    total, prev = mpmath.mpf(0), mpmath.mpf(0)
    for k in range(k0, k0 + 4000):
        term = (mpmath.exp(-theta + k * mpmath.log(theta) - mpmath.loggamma(k + 1))
                * (y * (k - theta) - w) ** p)
        total += term
        if term < prev and term < mpmath.mpf(10) ** -24 * total:
            return total
        prev = term
    raise ArithmeticError("lattice moment sum did not settle")


def two_point_pos_moment_mp(a, b, w, p):
    """E(X - w)_+^p for the zero-mean law on {-a, b}, at the working precision."""
    a, b, w, p = (mpmath.mpf(u) for u in (a, b, w, p))
    out = mpmath.mpf(0)
    if b - w > 0:
        out += a / (a + b) * (b - w) ** p
    if -a - w > 0:
        out += b / (a + b) * (-a - w) ** p
    return out


def hp_gap_mp(p, a, dps=30):
    """E(eta + a)_+^p - a (1 + a)^{p-1} for the mixture of budgets
    (sigma, y, eps) = (sqrt(a), 1, 1/(1+a)): v = a^2/(1+a), theta = a/(1+a)."""
    with mpmath.workdps(dps):
        p, a = mpmath.mpf(p), mpmath.mpf(a)
        e_mix = mixture_pos_moment_mp(a * a / (1 + a), 1, a / (1 + a), -a, p)
        return float(e_mix - a * (1 + a) ** (p - 1))


def mills_moments_loop(z, n, count=1):
    """[J_n(z), ..., J_{n-count+1}(z)], J_m(z) = Int_0^inf u^m e^{-zu-u^2/2} du,
    by the continued fraction J_m/J_{m-1} = m/(z + J_{m+1}/J_m) run backward
    from depth 10 + 800/z^2 in one generic loop, for any n and count <= n + 1:
    the form the library's unrolled kernel must reproduce bit for bit."""
    rho, js = 0.0, [1.0] * count
    for m in range(10 + int(800.0 / (z * z)), n, -1):
        rho = m / (z + rho)
    for m in range(n, 0, -1):
        rho = m / (z + rho)
        # J_{n-i} is J_0 times the ratios of the orders m <= n - i.
        for i in range(min(count, n - m + 1)):
            js[i] *= rho
    return [j / (z + rho) for j in js]
