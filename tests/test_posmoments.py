"""The three positive-part-moment routes and their dispatcher."""

import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from tailbound import (
    BoundParams,
    DomainError,
    MixtureRV,
    PosMomentMethod,
    RangeError,
    SlowDecayWarning,
    TwoPointRV,
    mixture_mgf,
    pos_moment,
    pos_moment_charfn,
    pos_moment_laplace,
    posmoments,
)
from tailbound.bounds import p_alpha
from tailbound.oracle import hp_counterexample_gap
from tailbound.posmoments import _gauss_partial_moments, _gauss_power_moment, _mills_power
from tailbound.posmoments import _MILLS_EDGES, _MILLS_RHO4, _mills_ratios, _moments
from tailbound.posmoments import _route, mixture_shifted_moments
from tailbound.posmoments import pos_moment_mixture_series, pos_moment_poisson_local
from tailbound import mixture_tail, poisson_tail

MIX = MixtureRV(0.9, 1.0, 0.1)


def _mgf(rv):
    return lambda z: mixture_mgf(rv, z)


def test_method_selector_validation():
    assert PosMomentMethod.series().tag == "series"
    assert PosMomentMethod.laplace().tag == "laplace"
    assert PosMomentMethod.charfn().tag == "charfn"
    with pytest.raises(DomainError):
        PosMomentMethod("fourier")


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("v,mu", [
    (1.0, 0.0), (1.0, 2.5), (1.0, -2.5), (0.25, 0.7), (4.0, -1.2),
])
def test_gauss_partial_moment_closed_forms(v, mu, alpha):
    assert _gauss_partial_moments(v, math.sqrt(v), mu, alpha)[0] == pytest.approx(
        oracles.normal_partial_moment_quad(v, mu, alpha), rel=1e-10, abs=1e-13)


def _gauss_partial_moment_mp(v, mu, alpha):
    # The closed forms at 50 digits, where their cancellation is harmless.
    with mpmath.workdps(50):
        v, mu = mpmath.mpf(v), mpmath.mpf(mu)
        s = mpmath.sqrt(v)
        q = mpmath.erfc(-mu / (s * mpmath.sqrt(2))) / 2
        phi = mpmath.npdf(mu / s)
        if alpha == 1:
            out = s * phi + mu * q
        elif alpha == 2:
            out = (v + mu * mu) * q + s * mu * phi
        else:
            out = mu * (3 * v + mu * mu) * q + s * (2 * v + mu * mu) * phi
        return float(out)


def _mills_js(z):
    # (J_3, J_2, J_1, J_0) from the kernel's ratios, multiplied up from J_0
    # as the slices do.
    r3, r2, r1, j0 = _mills_ratios(z)
    j1 = r1 * j0
    j2 = r2 * j1
    return r3 * j2, j2, j1, j0


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_mills_moment_continued_fraction(alpha):
    # phi(z) J_alpha(z) = E(Z - z)_+^alpha, for every z where the closed
    # form cancels and phi(z) is still representable.
    for i in range(65):
        z = 5.0 + 0.5 * i
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert phi * _mills_js(z)[3 - alpha] == pytest.approx(
            _gauss_partial_moment_mp(1.0, -z, alpha), rel=5e-13, abs=0.0)


@given(st.one_of(st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
                 st.integers(min_value=4, max_value=8).map(float)),
       st.floats(min_value=-40.0, max_value=40.0))
def test_mills_power_against_pcfd(p, z):
    # J_p(z) = Gamma(p+1) e^{z^2/4} D_{-p-1}(z) from z = -8 up, where the
    # slices use it; below, the slice phi(z) J_p(z) itself, which is the
    # Gaussian moment expansion there (J_p overflows below z ~ -37.6).
    with mpmath.workdps(30):
        want = oracles.mills_power_mp(z, p)
        if z >= -8.0:
            assert _mills_power(z, p) == pytest.approx(float(want), rel=1e-12, abs=0.0)
        else:
            assert _gauss_power_moment(1.0, -z, p) == pytest.approx(
                float(mpmath.npdf(z) * want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_gauss_partial_moment_deep_slices(alpha):
    # Past z0 = 5 the slice keeps full precision; the closed form alone is
    # off by 4.4e-9 at z0 = 12.6, alpha = 3.
    for z0 in (5.3, 8.4, 12.6, 17.0, 25.0, 37.0):
        mu = -z0 * math.sqrt(0.9)
        assert _gauss_partial_moments(0.9, math.sqrt(0.9), mu, alpha)[0] == pytest.approx(
            _gauss_partial_moment_mp(0.9, mu, alpha), rel=5e-13, abs=0.0)


def test_gauss_partial_moment_degenerate():
    assert _gauss_partial_moments(0.0, math.sqrt(0.0), 2.0, 3)[0] == 8.0
    assert _gauss_partial_moments(0.0, math.sqrt(0.0), -2.0, 3)[0] == 0.0
    with pytest.raises(DomainError):
        _gauss_partial_moments(1.0, math.sqrt(1.0), 0.0, 4)[0]


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("rv,w", [
    (MIX, 1.0),
    (MIX, -1.5),
    (MixtureRV(0.25, 0.5, 1.2), 0.7),
    (MixtureRV(1.0, 2.0, 0.05), 2.0),
])
def test_series_against_quadrature(rv, w, alpha):
    got = pos_moment(rv, w, alpha)
    ref = oracles.mixture_pos_moment_quad(rv.v, rv.y, rv.theta, w, float(alpha))
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("w,want", [
    (12.0, 2.0998929649061960906e-27),
    (14.0, 5.6711072484091843083e-35),
])
def test_series_deep_shift_against_mpmath(w, want):
    # The Poisson mass behind these moments sits far above theta = 90; a
    # sum from k = 0 with a relative stop returned 1.9e-315 and 0 here.
    rv = BoundParams(1.0, 0.1, 0.9).mixture()
    assert pos_moment(rv, w, 2) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_series_pure_gaussian_slice():
    rv = MixtureRV(1.44, 1.0, 0.0)
    assert pos_moment(rv, 0.3, 2) == pytest.approx(
        _gauss_partial_moments(1.44, math.sqrt(1.44), -0.3, 2)[0], rel=1e-14)


def test_series_delegates_pure_poisson():
    # The kept names both land on the lattice sum for a pure-Poisson law.
    rv = MixtureRV(0.0, 0.5, 2.0)
    got = pos_moment_mixture_series(rv, 0.4, 3)
    assert got == pytest.approx(pos_moment_poisson_local(2.0, 0.5, 0.4, 3.0), rel=1e-14)
    assert got == pytest.approx(
        oracles.poisson_pos_moment_direct(2.0, 0.5, 0.4, 3.0), rel=1e-12)


def test_series_rejects_bad_alpha():
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            pos_moment_mixture_series(MIX, 0.0, alpha)


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.9))
def test_series_decreasing_in_w(w, dw):
    hi = pos_moment(MIX, w, 3)
    lo = pos_moment(MIX, w + dw, 3)
    assert lo <= hi * (1.0 + 1e-12) + 1e-300


def test_poisson_local_full_mass_shift():
    # w = -10 puts the whole lattice in the positive part, so the moment
    # collapses to E X + 10 = 10 exactly.
    assert pos_moment(MixtureRV(0.0, 1.0, 1.0), -10.0, 1.0) == \
        pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("theta,y,w,alpha", [
    (0.6, 1.0, 0.5, 2.0),
    (0.6, 1.0, 3.7, 2.5),
    (2.0, 0.5, -0.3, 1.0),
    (5.0, 1.0, 4.0, 3.0),
    (0.1, 2.0, 1.0, 4.5),
])
def test_poisson_local_against_brute_force(theta, y, w, alpha):
    got = pos_moment(MixtureRV(0.0, y, theta), w, alpha)
    ref = oracles.poisson_pos_moment_direct(theta, y, w, alpha)
    assert got == pytest.approx(ref, rel=1e-10)


def test_laplace_matches_series_at_default_abscissa():
    ser = pos_moment(MIX, 2.0, 3)
    lap = pos_moment_laplace(_mgf(MIX), 2.0, 3.0, math.log(2.0))
    assert lap == pytest.approx(ser, rel=1e-9)


def test_laplace_two_point_exact_half():
    # E(X_{1,1})_+^3 = (1/2) * 1^3.
    got = pos_moment(TwoPointRV(1.0, 1.0), 0.0, 3.0, PosMomentMethod.laplace())
    assert got == pytest.approx(0.5, rel=1e-8)


@pytest.mark.parametrize("p,w", [(0.5, 1.0), (1.7, -0.5), (4.5, -2.0)])
def test_laplace_fractional_powers(p, w):
    ref = oracles.mixture_pos_moment_quad(MIX.v, MIX.y, MIX.theta, w, p)
    for method in (PosMomentMethod.laplace(), None):
        assert pos_moment(MIX, w, p, method) == pytest.approx(ref, rel=1e-8)


def test_laplace_validation():
    with pytest.raises(DomainError):
        pos_moment_laplace(_mgf(MIX), 0.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        pos_moment_laplace(_mgf(MIX), 0.0, 3.0, 0.0)


def test_laplace_far_right_tail_clamps_clean():
    got = pos_moment(MIX, 40.0, 2.5, PosMomentMethod.laplace())
    assert 0.0 <= got < 1e-12


def test_charfn_matches_series():
    moms = mixture_shifted_moments(MIX, 1.0, upto=6)
    got = pos_moment_charfn(lambda t: mixture_mgf(MIX, complex(0.0, t)),
                            moms, 1.0, 3.0)
    assert got == pytest.approx(pos_moment(MIX, 1.0, 3), rel=1e-6)


def test_charfn_fractional_power():
    got = pos_moment(MIX, 0.5, 2.6, PosMomentMethod.charfn())
    ref = oracles.mixture_pos_moment_quad(MIX.v, MIX.y, MIX.theta, 0.5, 2.6)
    assert got == pytest.approx(ref, rel=1e-5)


def test_charfn_slow_decay_warns():
    with pytest.warns(SlowDecayWarning):
        pos_moment(MIX, 0.5, 2.1, PosMomentMethod.charfn())


def test_charfn_fast_decay_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", SlowDecayWarning)
        pos_moment(MIX, 0.5, 2.6, PosMomentMethod.charfn())


def test_charfn_requires_enough_moments():
    with pytest.raises(DomainError):
        pos_moment_charfn(lambda t: mixture_mgf(MIX, complex(0.0, t)),
                          [1.0, 0.0], 0.0, 3.0)


def _raw_moment_by_conditioning(rv, w, m):
    """E(eta - w)^m via Poisson conditioning and Gaussian raw moments."""
    double_fact = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0}
    total = 0.0
    for k in range(200):
        if rv.theta > 0.0:
            logpmf = -rv.theta + k * math.log(rv.theta) - math.lgamma(k + 1)
            pmf = math.exp(logpmf)
        else:
            pmf = 1.0 if k == 0 else 0.0
        if k > rv.theta + 5 and pmf < 1e-19:
            break
        c = rv.y * (k - rv.theta) - w
        acc = 0.0
        for i in range(0, m + 1, 2):
            acc += math.comb(m, i) * rv.v ** (i // 2) * double_fact[i] * c ** (m - i)
        total += pmf * acc
    return total


@pytest.mark.parametrize("w", [-1.3, 0.0, 0.8])
def test_shifted_moments_match_conditioning(w):
    got = mixture_shifted_moments(MIX, w, upto=6)
    for m, g in enumerate(got):
        assert g == pytest.approx(_raw_moment_by_conditioning(MIX, w, m),
                                  rel=1e-11, abs=1e-12)


def test_shifted_moments_order_cap():
    with pytest.raises(DomainError):
        mixture_shifted_moments(MIX, 0.0, upto=7)


@pytest.mark.parametrize("alpha", [2, 3])
def test_deep_left_shift_equals_raw_moment(alpha):
    # At w = -30 stddev the positive part is the whole variable up to mass
    # ~1e-197, so E(eta-w)_+^alpha must equal the raw moment E(eta-w)^alpha.
    w = -30.0 * MIX.stddev
    got = pos_moment(MIX, w, float(alpha))
    raw = mixture_shifted_moments(MIX, w, upto=alpha)[alpha]
    assert got == pytest.approx(raw, rel=1e-10)


def test_dispatcher_two_point_exact():
    rv = TwoPointRV(0.7, 1.3)
    got = pos_moment(rv, 0.2, 3.0)
    ref = oracles.two_point_pos_moment(0.7, 1.3, 0.2, 3.0)
    assert got == pytest.approx(ref, rel=1e-15)


def test_dispatcher_two_point_charfn_cross_check():
    rv = TwoPointRV(0.7, 1.3)
    got = pos_moment(rv, 0.2, 3.0, PosMomentMethod.charfn())
    assert got == pytest.approx(pos_moment(rv, 0.2, 3.0), rel=1e-6)


def test_dispatcher_pure_poisson_routes_to_local():
    # A pure-Poisson mixture (v = 0) is reported as the lattice sum, and its
    # moment is the brute-force lattice sum.
    rv = MixtureRV(0.0, 0.5, 2.0)
    for alpha in (2.5, 3.0):
        assert _route(rv, alpha) == "poisson-local"
        assert pos_moment(rv, 0.4, alpha) == pytest.approx(
            oracles.poisson_pos_moment_direct(2.0, 0.5, 0.4, alpha), rel=1e-12)


def test_dispatcher_fractional_routes_to_series():
    got = pos_moment(MIX, 1.0, 2.5)
    assert got == pos_moment(MIX, 1.0, 2.5, PosMomentMethod.series())
    forced = pos_moment(MIX, 1.0, 2.5, PosMomentMethod.laplace())
    assert got == pytest.approx(forced, rel=1e-10)


@settings(max_examples=25)
@given(st.floats(min_value=-3.0, max_value=4.0),
       st.floats(min_value=0.3, max_value=6.0))
def test_series_any_power_agrees_with_laplace(w, alpha):
    lap = pos_moment(MIX, w, alpha, PosMomentMethod.laplace())
    assert pos_moment(MIX, w, alpha) == pytest.approx(lap, rel=1e-9)


def test_default_route_runs_no_quadrature(monkeypatch):
    # A count of quadrature calls holds on any host, where a timing would
    # not: every default route is quadrature-free, the forced audit is not.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    quad = posmoments.adaptive_quad
    monkeypatch.setattr(posmoments, "adaptive_quad", counted)
    rv = BoundParams(1.0, 0.5, 0.3).mixture()
    for alpha in (1.5, 2.5, 6.0):
        p_alpha(rv, alpha, 3.0)
    hp_counterexample_gap(2.5, 0.05)
    hp_counterexample_gap(2.8, 0.02)
    assert calls == []
    p_alpha(rv, 2.5, 3.0, method=PosMomentMethod.laplace())
    assert len(calls) > 0


def test_dispatcher_rejects_bad_alpha():
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            pos_moment(MIX, 0.0, alpha)
    with pytest.raises(DomainError):
        pos_moment(MIX, 0.0, -1.0, PosMomentMethod.series())
    assert pos_moment(MIX, 0.0, 2.5, PosMomentMethod.series()) == pos_moment(MIX, 0.0, 2.5)


def test_dispatcher_rejects_unknown_law():
    with pytest.raises(DomainError):
        pos_moment(object(), 0.0, 3.0)  # type: ignore[arg-type]


@given(st.floats(min_value=-3.0, max_value=4.0),
       st.sampled_from([1, 2, 3]))
def test_routes_agree_property(w, alpha):
    ser = pos_moment(MIX, w, float(alpha), PosMomentMethod.series())
    lap = pos_moment(MIX, w, float(alpha), PosMomentMethod.laplace())
    assert lap == pytest.approx(ser, rel=1e-6, abs=1e-12)


def _assert_mills_js_match_mpmath(z):
    with mpmath.workdps(40):
        for n, got in zip((3, 2, 1, 0), _mills_js(z)):
            want = oracles.mills_power_mp(z, n)
            assert got == pytest.approx(float(want), rel=2e-15, abs=0.0), (z, n)


def test_mills_ratios_match_mpmath_on_a_grid():
    # Every J_n, n <= 3, of the deep-slice kernel against 40-digit pcfd on
    # both sides of every piece edge and across the continued fraction's
    # range: 2e-15, the kernel's stated accuracy (5.3e-16 seen).
    zs = [0.125 * i for i in range(305)]
    zs += [e * (1.0 - 2.0**-52) for e in _MILLS_EDGES[1:]]
    for z in zs:
        _assert_mills_js_match_mpmath(z)


@given(st.floats(min_value=0.0, max_value=38.0))
def test_mills_ratios_match_mpmath_anywhere(z):
    _assert_mills_js_match_mpmath(z)


def test_mills_ratios_reject_negative_z():
    with pytest.raises(DomainError):
        _mills_ratios(-0.5)


def test_mills_rho4_table_is_the_generated_fit():
    # The committed table is the output of its generator, and the fit is
    # within 3e-17 (z + rho_4) of 40-digit rho_4 on each piece.
    assert _MILLS_EDGES == oracles.MILLS_RHO4_EDGES
    assert _MILLS_RHO4 == oracles.mills_rho4_fit()
    with mpmath.workdps(40):
        for (a, b), (c, coeffs) in zip(zip(_MILLS_EDGES, _MILLS_EDGES[1:]), _MILLS_RHO4):
            for i in range(21):
                z = a + (b - a) * mpmath.mpf(i) / 20
                fit = mpmath.polyval([mpmath.mpf(x) for x in coeffs], z - mpmath.mpf(c))
                rho = oracles.mills_ratio_mp(z, 4)
                assert abs(fit - rho) <= 3e-17 * (z + rho), float(z)


def _walk_tol(theta, value):
    # Each sum is exp(log pmf at its walk's peak + log of the rest), and the
    # scalar walks peak at other counts than the fused one: the logs round to
    # about theta (1 + |ln theta|) + |ln value| units of 2^-52 apart.
    return 16 * 2.0**-52 * (theta * (1.0 + abs(math.log(theta))) + abs(math.log(value)) + 10.0)


@given(st.sampled_from([("mixture", 2.0), ("mixture", 3.0), ("mixture", 2.5), ("lattice", 2.0)]),
       st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=-1.5, max_value=0.5),
       st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=-2.0, max_value=10.0))
def test_pos_moment_triple_matches_the_scalar_sums(law, sigma, log10_y, eps, shift):
    # The fused walk's three sums are the separate walks' sums: pos_moment of
    # each positive power, and for the power 0 the tail P(X > w).
    kind, alpha = law
    params = BoundParams(sigma, 10.0**log10_y, eps)
    rv = params.mixture() if kind == "mixture" else params.bentkus()
    w = shift * sigma
    got = _moments(rv, w, alpha, True)
    for power, value in zip((alpha, alpha - 1.0, alpha - 2.0), got):
        if power > 0.0:
            want = pos_moment(rv, w, power)
        elif kind == "mixture":
            want = mixture_tail(rv, w)
        else:
            want = poisson_tail(rv.theta, math.floor(w / rv.y + rv.theta) + 1)
        assert value == pytest.approx(want, rel=_walk_tol(rv.theta, want), abs=0.0)


def test_one_power_sums_take_one_walk(monkeypatch):
    # mixture_tail, the default pos_moment and poisson_tail are each one call
    # of the one Poisson-count walk.
    from tailbound import distributions, special
    calls, walk = [], special._poisson_log_sums

    def counted(*args):
        calls.append(args[0])
        return walk(*args)
    for module in (special, posmoments, distributions):
        monkeypatch.setattr(module, "_poisson_log_sums", counted)
    for call in (lambda: mixture_tail(MIX, 2.0), lambda: pos_moment(MIX, 1.0, 3),
                 lambda: pos_moment(MIX, 1.0, 2.5), lambda: poisson_tail(3.0, 5.0),
                 lambda: pos_moment(MixtureRV(0.0, 0.5, 2.0), 0.4, 2)):
        calls.clear()
        call()
        assert len(calls) == 1


def test_one_power_walk_fails_fast_on_overflow(monkeypatch):
    # At sigma = y = 1e110 the cube slices overflow (their closed form is
    # NaN) from the first count: a RangeError within a few slice calls, not
    # after half a term budget (131 072 counts) of NaN terms.
    calls = [0]

    def counted(*args, _triple=posmoments._gauss_partial_moments):
        calls[0] += 1
        return _triple(*args)

    monkeypatch.setattr(posmoments, "_gauss_partial_moments", counted)
    with pytest.raises(RangeError):
        pos_moment(BoundParams(1e110, 1e110, 0.5).mixture(), 0.0, 3)
    assert 0 < calls[0] < 100


@pytest.mark.parametrize("w", [-1e103, -1e110])
def test_lone_slice_overflow_is_range_error(w):
    # At theta = 0 the moment is one Gaussian slice, whose cubic closed form
    # overflows by products, not by a power: a RangeError, not inf.
    with pytest.raises(RangeError):
        pos_moment(MixtureRV(1.0, 1.0, 0.0), w, 3)
