"""Positive-part moments E(X - w)_+^p by three independent routes.

Every generalized-moment tail bound in this package reduces to such moments,
so they are computed redundantly: one Poisson-count walk over Gaussian
slices (:func:`_moments`), the default for every law and every power p > 0,
and two audits that run only when forced, a Fourier-Laplace contour
integral and a characteristic-function inversion.  The routes share no code
beyond scalar kernels, which is what makes their agreement a meaningful
test.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .distributions import MixtureRV, TwoPointRV, mixture_mgf
from .errors import DomainError, NumericalError, RangeError
# Not called here: benchmark/tracing.py wraps normal_tail under this name.
from .special import _ABS_TOL, _REL_TOL, normal_tail, _poisson_log_sums, _times_pmf  # noqa: F401

__all__ = [
    "PosMomentMethod",
    "SlowDecayWarning",
    "pos_moment_laplace",
    "pos_moment_charfn",
    "pos_moment",
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


# rho_4(z) = J_4(z) / J_3(z) on [0, 25), by piece: the pieces [0, 1), [1, 2),
# ..., [4, 5), [5, 7), [7, 9), [9, 12), [12, 16) and [16, 25), each as its
# centre c and the coefficients, highest power first, of a polynomial in
# z - c of degree 10 to 14.  They are Chebyshev interpolants of 40-digit
# mpmath.pcfd values, generated by tests/_oracles.py (mills_rho4_fit), where
# the fit's error and its provenance are checked.
_MILLS_RHO4 = (
    (0.5, (8.294165996778681e-10, 1.6790853327892573e-09, -3.0105934794099685e-08,
         6.876399106649637e-08, 5.814443735405464e-07, -4.3094138523973944e-06,
         -5.516788296650123e-07, 0.00014222361215152356, -0.0005727753295922367,
         -0.003635524934530187, 0.06004858957594247, -0.40326346275426905,
         1.6629131023770345)),
    (1.5, (-3.4256948651118905e-10, 1.6138021812616437e-09, 1.7628741800771916e-09,
         -6.481126530441049e-08, 3.4054002201033447e-07, 1.6662455362501856e-07,
         -1.3678160928296852e-05, 8.332078386462135e-05, 2.3160946897699463e-05,
         -0.004631100095146247, 0.04704636681779031, -0.2956813209392308,
         1.3156279139914742)),
    (2.5, (-4.262929231746734e-10, 4.176794326039653e-09, -1.6702472180746922e-08,
         -3.8249362262340527e-08, 1.0653117441057604e-06, -7.589986821937783e-06,
         1.6594767390682958e-05, 0.000256839625100141, -0.003958947556068859,
         0.0339309150335324, -0.21505137005992583, 1.0624551087405079)),
    (3.5, (5.022784501521281e-10, 3.775672039444293e-09, -6.762501049465636e-08,
         5.217827752303767e-07, -1.924759421150577e-06, -9.96405403370016e-06,
         0.0002592038093041083, -0.002883269562215585, 0.02366807166700625,
         -0.15799455232257248, 0.8776425646722633)),
    (4.5, (-2.5051781785554997e-10, 3.5362241263049284e-09, -2.8983232410109074e-08,
         1.3926744158521222e-07, 2.0380192406410912e-07, -1.3791506221699769e-05,
         0.00019458700502820132, -0.001969753469575176, 0.016454191445599658,
         -0.11832962166008565, 0.7406805878160767)),
    (6.0, (-5.661695448473326e-13, 9.238484665805135e-12, -9.614645478990942e-11,
         7.301410747728299e-10, -3.2011751381671114e-09, -1.5522383665453483e-08,
         5.894665670732044e-07, -9.063395270220752e-06, 0.00010700543104104668,
         -0.001083555879480416, 0.009782091739003554, -0.07996790788413571,
         0.5944446152522457)),
    (8.0, (1.058182707868106e-12, -6.85517624221224e-12, 1.3692152116028543e-12,
         8.407466436889585e-10, -1.8337719036402768e-08, 2.862561622265145e-07,
         -3.8129483139279565e-06, 4.578037789670746e-05, -0.0005073862261026857,
         0.005251599070814816, -0.0510388834512563, 0.4664259891493494)),
    (10.5, (-3.571905783555972e-15, -2.4163918751787045e-15, 7.693657474868349e-13,
         -1.913113707433574e-11, 3.5995463616811355e-10, -5.924179143322975e-09,
         8.947035587608752e-08, -1.2676918282008905e-06, 1.705080741836533e-05,
         -0.0002191745646360528, 0.0027028029007740077, -0.03203747723894247,
         0.3651992415907254)),
    (14.0, (3.548269422799119e-16, -8.536228104806417e-15, 1.7630916809538786e-13,
         -3.4384206598466382e-12, 6.359926608656379e-11, -1.1281045610366967e-09,
         1.9328045750001886e-08, -3.213015667952199e-07, 5.197548048727611e-06,
         -8.197468804229657e-05, 0.0012620496651957274, -0.018978539174591115,
         0.27880632115083887)),
    (20.5, (1.987198202090307e-20, -5.165749711176483e-19, 1.1517840684824929e-17,
         -2.812719337348684e-16, 6.779006592175003e-15, -1.595704935374999e-13,
         3.696447762346749e-12, -8.440934901817032e-11, 1.901648728368509e-09,
         -4.2298350723312375e-08, 9.294136530374859e-07, -2.0181658746013256e-05,
         0.00043319033256390205, -0.009192539015729112, 0.19285916121558502)),
)
_MILLS_EDGES = (0, 1, 2, 3, 4, 5, 7, 9, 12, 16, 25)
# The piece of each integer part of z, from 0 to 24.
_MILLS_PIECE = tuple(piece for a, b, piece in zip(_MILLS_EDGES, _MILLS_EDGES[1:], _MILLS_RHO4)
                     for _ in range(a, b))


def _mills_ratios(z: float) -> tuple[float, float, float, float]:
    """(r_3, r_2, r_1, J_0) at z >= 0, the deep-slice kernel: J_m(z) =
    Int_0^inf u^m exp(-z u - u^2/2) du, so E(Z - z)_+^m = phi(z) J_m(z), and
    r_m = J_m/J_{m-1}, so J_m = r_m ... r_1 J_0.

    The ratios satisfy r_m = m/(z + r_{m+1}) (by parts; z J_0 + J_1 = 1).
    r_4 comes from the piecewise polynomial _MILLS_RHO4 on [0, 25) and, past
    25, from the continued fraction run backward from depth 10 + 800/z^2
    (at most 11 there).  Three steps written out follow, r_3 = 3/(z + r_4),
    r_2 = 2/(z + r_3), r_1 = 1/(z + r_2), and J_0 = 1/(z + r_1); for z >= 0
    nothing cancels.  Each step scales the relative error of the ratio it
    starts from by r/(z + r) <= 1, so the fit, within 3e-17 (z + r_4) of
    r_4, leaves only the steps' rounding: against 40-digit mpmath every J_m
    formed from them is within 2e-15 (5.3e-16 seen) on [0, 38].
    """
    if 0.0 <= z < 25.0:
        c, coeffs = _MILLS_PIECE[int(z)]
        u, rho = z - c, 0.0
        for a in coeffs:
            rho = rho * u + a
    elif z >= 25.0:
        rho = 0.0
        for m in range(10 + int(800.0 / (z * z)), 3, -1):
            rho = m / (z + rho)
    else:
        raise DomainError(f"the deep-slice kernel takes z >= 0, got {z}")
    r3 = 3.0 / (z + rho)
    r2 = 2.0 / (z + r3)
    r1 = 1.0 / (z + r2)
    return r3, r2, r1, 1.0 / (z + r1)


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
      fraction of :func:`_mills_ratios`: one backward loop sums the
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


def _gauss_partial_moments(v: float, s: float, mu: float,
                           alpha: int) -> tuple[float, float, float, float]:
    """(E_alpha, E_{alpha-1}, E_{alpha-2}, E_{alpha-3}) for E_p = E(sqrt(v) Z
    + mu)_+^p, s = sqrt(v), Z standard normal and alpha in {1, 2, 3}, with
    E_0 in place of each negative power.  :func:`_gauss_power_moment` takes
    every other power.

    With z0 = -mu / s, Q = P(Z >= z0) = E_0 and phi the standard normal
    density at z0, from one erfc and one exp:

        E_1 = s phi + mu Q
        E_2 = (v + mu^2) Q + s mu phi
        E_3 = mu (3v + mu^2) Q + s (2v + mu^2) phi

    The coefficients follow from the recursions for truncated normal
    moments and are pinned against a quadrature oracle in the tests.  For
    z0 > 0 the two terms cancel: against 40-digit mpmath, E_3 is 2e-14 off
    at z0 = 1.5, 1.2e-13 at 2.3, 5.3e-13 at 3 and 1.3e-11 at 4.9.  So there
    the deep slices are E_p = s^p phi J_p(z0) from one run of the kernel
    :func:`_mills_ratios`, within a few units of 2^-53 of the true slice
    (the kernel's 2e-15 and the rounding of phi and the powers of s), and
    the closed forms, which add two positive terms for z0 <= 0, are within
    5e-16 there.  At v = 0 the slices are the powers of mu_+, with E_0 =
    1{mu > 0}.
    """
    if v == 0.0:
        if mu <= 0.0:
            return 0.0, 0.0, 0.0, 0.0
        return mu**alpha, mu**(alpha - 1), mu**max(alpha - 2, 0), mu**max(alpha - 3, 0)
    z0 = -mu / s
    phi = math.exp(-0.5 * z0 * z0) / _SQRT_2PI
    if z0 > 0.0:
        r3, r2, r1, j0 = _mills_ratios(z0)
        q = phi * j0
        e1 = s * r1 * q
        if alpha == 3:
            e2 = s * r2 * e1
            return s * r3 * e2, e2, e1, q
        if alpha == 2:
            return s * r2 * e1, e1, q, q
    else:
        q = 0.5 * math.erfc(z0 / _SQRT2)
        e1 = s * phi + mu * q
        if alpha == 3:
            mu2 = mu * mu
            return (mu * (3.0 * v + mu2) * q + s * (2.0 * v + mu2) * phi,
                    (v + mu2) * q + s * mu * phi, e1, q)
        if alpha == 2:
            return (v + mu * mu) * q + s * mu * phi, e1, q, q
    if alpha == 1:
        return e1, q, q, q
    raise DomainError(f"alpha must be 1, 2 or 3, got {alpha}")


def _slices(rv: MixtureRV, w: float, alpha: float, fused: bool) -> tuple[
        Callable[[float], float], Callable[[float], tuple[float, float, float, float]]]:
    """(top, slices), a slice being E(sqrt(v) Z + mu - w)_+^p: top maps mu
    to the slice of the power alpha, and slices maps mu to the slices of the
    powers alpha, alpha - 1, alpha - 2 and alpha - 3 when ``fused`` (a
    negative power repeats the last nonnegative one), else to the top slice
    four times over.  Closed forms and the deep-slice kernel for alpha in
    {1, 2, 3} (:func:`_gauss_partial_moments`), :func:`_gauss_power_moment`
    per power otherwise, and the powers of (mu - w)_+ themselves for v = 0."""
    v, gauss = rv.v, _gauss_power_moment
    if v == 0.0:
        top = lambda mu: max(mu - w, 0.0) ** alpha  # noqa: E731
    elif alpha in (1, 2, 3):
        s, n = math.sqrt(v), int(alpha)
        top = lambda mu: _gauss_partial_moments(v, s, mu - w, n)[0]  # noqa: E731
    else:
        top = lambda mu: gauss(v, mu - w, alpha)  # noqa: E731
    if not fused:
        return top, lambda mu: ((e := top(mu)), e, e, e)
    a1 = alpha - 1.0
    a2 = alpha - 2.0 if alpha >= 2.0 else a1
    a3 = alpha - 3.0 if alpha >= 3.0 else a2
    if v == 0.0:
        def lattice(mu: float) -> tuple[float, float, float, float]:
            d = mu - w
            return (d**alpha, d**a1, d**a2, d**a3) if d > 0.0 else (0.0, 0.0, 0.0, 0.0)
        return top, lattice
    if alpha in (1, 2, 3):
        return top, lambda mu: _gauss_partial_moments(v, s, mu - w, n)
    if alpha < 2.0:
        def pair(mu: float) -> tuple[float, float, float, float]:
            e1 = gauss(v, mu - w, a1)
            return gauss(v, mu - w, alpha), e1, e1, e1
        return top, pair

    def powers(mu: float) -> tuple[float, float, float, float]:
        e2 = gauss(v, mu - w, a2)
        return gauss(v, mu - w, alpha), gauss(v, mu - w, a1), e2, e2
    return top, powers


def _moments(rv: MixtureRV | TwoPointRV, w: float, alpha: float, fused: bool = False,
             start: int = -1) -> float | tuple[float, float, float, float, int, float]:
    """E(X - w)_+^alpha, the moment walk: the default route of
    :func:`pos_moment` for every law and every power alpha > 0.  With
    ``fused`` (alpha > 1), the tuple (N_alpha, N_{alpha-1}, N_{alpha-2},
    N_{alpha-3}, peak, z_max), N_p = E(X - w)_+^p, of the t_x solve.

    A two-point law is the exact two-term sum.  A mixture is one
    Poisson-count walk, :func:`tailbound.special._poisson_log_sums` over
    :func:`_slices`: each count k weighs the Gaussian slice at mu = y (k -
    theta), log-concave in k for every power (Prekopa), from count 0, or on
    the pure-Poisson lattice (v = 0) from the first count past w, and at
    count 0 alone for theta = 0.  The fused walk sums the four powers at
    once, its peak search started from ``start``; the one-power walk is its
    case with the top slice four times over.  In the tuple an entry of a
    negative power is NaN, peak is the walk's peak count (-1 where no walk
    runs), and z_max, for a mixture with v > 0, the largest |z0| = |w - mu|
    / sqrt(v) over the counts the walk evaluated (NaN otherwise).  Raises
    RangeError where a moment overflows a double.
    """
    # A power raises OverflowError past the double range, and the walk
    # raises RangeError at a term that is not finite, so only the closed
    # forms of a lone slice, which overflow by products, need a check.
    try:
        peak = -1
        if isinstance(rv, TwoPointRV):
            if not fused:
                return _two_point_exact(rv, w, alpha)
            out = [_two_point_exact(rv, w, alpha - i) for i in range(4) if alpha >= i]
        else:
            y, theta = rv.y, rv.theta
            top, slices = _slices(rv, w, alpha, fused)
            if theta == 0.0:
                out, k_lo, k_hi = slices(0.0), 0, 0
                if not all(map(math.isfinite, out)):
                    raise RangeError(f"E(X - {w})_+^{alpha} overflows a double")
                if not fused:
                    return out[0]
            else:
                k_min = max(0, math.floor(w / y + theta) + 1) if rv.v == 0.0 else 0
                log_pmf, *sums, peak, k_lo, k_hi = _poisson_log_sums(theta, y, top, slices,
                                                                     k_min, start)
                if not fused:
                    return _times_pmf(log_pmf, sums[0])
                out = [_times_pmf(log_pmf, e) for e in sums]
    except RangeError:
        raise
    except OverflowError as exc:
        raise RangeError(f"E(X - {w})_+^{alpha} overflows a double ({exc})") from exc
    z_max = math.nan
    if isinstance(rv, MixtureRV) and rv.v > 0.0:
        z_max = max(abs(w - y * (k_lo - theta)), abs(w - y * (k_hi - theta))) / math.sqrt(rv.v)
    return (*(out[i] if alpha >= i else math.nan for i in range(4)), peak, z_max)


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


# Cumulants of the mixture: kappa_2 = v + y^2 theta, kappa_m = y^m theta
# for m >= 3 (the Gaussian part only contributes at order two).
def mixture_shifted_moments(rv: MixtureRV, w: float) -> list[float]:
    """Raw moments [E(eta - w)^0, ..., E(eta - w)^6]."""
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
    for m in range(7):
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


def _route(rv: MixtureRV | TwoPointRV) -> str:
    """The default route of :func:`pos_moment`, the moment walk
    :func:`_moments`, as results report it: "exact" for a two-point law,
    "poisson-local" for a pure-Poisson mixture (v = 0) and "series" for
    every other mixture and every power."""
    if isinstance(rv, TwoPointRV):
        return "exact"
    return "poisson-local" if rv.v == 0.0 else "series"


def pos_moment(rv: MixtureRV | TwoPointRV, w: float, alpha: float,
               method: PosMomentMethod | None = None) -> float:
    """E(X - w)_+^alpha for a supported law and every power alpha > 0.

    By default, and for a forced series, the moment walk :func:`_moments`:
    the exact two-term sum for a two-point law and the Poisson-count series
    over Gaussian slices for a mixture, over the lattice itself when it is
    purely Poisson (v = 0).  Pass ``method`` to force an audit of it: the
    Laplace contour integral (abscissa s = ln(1+y)/y) or the
    characteristic-function inversion.  Raises RangeError where the moment
    overflows a double.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not isinstance(rv, (MixtureRV, TwoPointRV)):
        raise DomainError(f"unsupported law {type(rv).__name__}")
    if method is None or method.tag == "series":
        return _moments(rv, w, alpha)
    try:
        return _audit(rv, w, alpha, method.tag)
    except RangeError:
        raise
    except OverflowError as exc:
        raise RangeError(f"E(X - {w})_+^{alpha} overflows a double ({exc})") from exc


def _audit(rv: MixtureRV | TwoPointRV, w: float, alpha: float, tag: str) -> float:
    """E(X - w)_+^alpha by the forced contour route ``tag``, "laplace" (at
    the abscissa s = ln(1+y)/y, y the jump size: b for a two-point law) or
    "charfn"."""
    if isinstance(rv, MixtureRV):
        if tag == "laplace":
            return pos_moment_laplace(lambda z: mixture_mgf(rv, z), w, alpha,
                                      math.log1p(rv.y) / rv.y, gauss_var=rv.v)
        return pos_moment_charfn(lambda t: mixture_mgf(rv, complex(0.0, t)),
                                 mixture_shifted_moments(rv, w), w, alpha)
    pn, pp = rv.prob_neg, rv.prob_pos
    a, b = rv.a, rv.b
    if tag == "laplace":
        return pos_moment_laplace(lambda z: pn * cmath.exp(-z * a) + pp * cmath.exp(z * b),
                                  w, alpha, math.log1p(b) / b)
    moments = [pn * (-a - w) ** m + pp * (b - w) ** m for m in range(7)]

    def cf(t: float) -> complex:
        return pn * cmath.exp(complex(0.0, -t * a)) + pp * cmath.exp(complex(0.0, t * b))

    return pos_moment_charfn(cf, moments, w, alpha)


# The entry points that the moment walk replaced, kept only as names that
# benchmark/tracing.py wraps; ROADMAP item 1 retires them.
def pos_moment_mixture_series(rv: MixtureRV, w: float, alpha: float) -> float:
    return pos_moment(rv, w, alpha)


def pos_moment_poisson_local(theta: float, y: float, w: float, alpha: float) -> float:
    return pos_moment(MixtureRV(0.0, y, theta), w, alpha)
