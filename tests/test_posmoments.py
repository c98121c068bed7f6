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
    SlowDecayWarning,
    TwoPointRV,
    mixture_mgf,
    mixture_shifted_moments,
    pos_moment,
    pos_moment_charfn,
    pos_moment_laplace,
    pos_moment_mixture_series,
    pos_moment_poisson_local,
    posmoments,
)
from tailbound.bounds import p_alpha
from tailbound.oracle import hp_counterexample_gap
from tailbound.posmoments import (_gauss_partial_moment, _gauss_power_moment, _mills_moment,
                                  _mills_power)
from tailbound.posmoments import _mills_moments, _pos_moment_triple
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
    assert _gauss_partial_moment(v, mu, alpha) == pytest.approx(
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


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_mills_moment_continued_fraction(alpha):
    # phi(z) J_alpha(z) = E(Z - z)_+^alpha, for every z where the closed
    # form cancels and phi(z) is still representable.
    for i in range(65):
        z = 5.0 + 0.5 * i
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        assert phi * _mills_moment(z, alpha) == pytest.approx(
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
        assert _gauss_partial_moment(0.9, mu, alpha) == pytest.approx(
            _gauss_partial_moment_mp(0.9, mu, alpha), rel=5e-13, abs=0.0)


def test_gauss_partial_moment_degenerate():
    assert _gauss_partial_moment(0.0, 2.0, 3) == 8.0
    assert _gauss_partial_moment(0.0, -2.0, 3) == 0.0
    with pytest.raises(DomainError):
        _gauss_partial_moment(1.0, 0.0, 4)


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("rv,w", [
    (MIX, 1.0),
    (MIX, -1.5),
    (MixtureRV(0.25, 0.5, 1.2), 0.7),
    (MixtureRV(1.0, 2.0, 0.05), 2.0),
])
def test_series_against_quadrature(rv, w, alpha):
    got = pos_moment_mixture_series(rv, w, alpha)
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
    assert pos_moment_mixture_series(rv, 0.3, 2) == pytest.approx(
        _gauss_partial_moment(1.44, -0.3, 2), rel=1e-14)


def test_series_delegates_pure_poisson():
    rv = MixtureRV(0.0, 0.5, 2.0)
    assert pos_moment_mixture_series(rv, 0.4, 3) == pytest.approx(
        pos_moment_poisson_local(2.0, 0.5, 0.4, 3.0), rel=1e-14)


def test_series_rejects_bad_alpha():
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            pos_moment_mixture_series(MIX, 0.0, alpha)


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.9))
def test_series_decreasing_in_w(w, dw):
    hi = pos_moment_mixture_series(MIX, w, 3)
    lo = pos_moment_mixture_series(MIX, w + dw, 3)
    assert lo <= hi * (1.0 + 1e-12) + 1e-300


def test_poisson_local_full_mass_shift():
    # w = -10 puts the whole lattice in the positive part, so the moment
    # collapses to E X + 10 = 10 exactly.
    assert pos_moment_poisson_local(1.0, 1.0, -10.0, 1.0) == \
        pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("theta,y,w,alpha", [
    (0.6, 1.0, 0.5, 2.0),
    (0.6, 1.0, 3.7, 2.5),
    (2.0, 0.5, -0.3, 1.0),
    (5.0, 1.0, 4.0, 3.0),
    (0.1, 2.0, 1.0, 4.5),
])
def test_poisson_local_against_brute_force(theta, y, w, alpha):
    got = pos_moment_poisson_local(theta, y, w, alpha)
    ref = oracles.poisson_pos_moment_direct(theta, y, w, alpha)
    assert got == pytest.approx(ref, rel=1e-10)


def test_poisson_local_edges():
    assert pos_moment_poisson_local(0.0, 1.0, -2.0, 3.0) == 8.0
    assert pos_moment_poisson_local(0.0, 1.0, 2.0, 3.0) == 0.0
    with pytest.raises(DomainError):
        pos_moment_poisson_local(-0.1, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        pos_moment_poisson_local(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        pos_moment_poisson_local(1.0, 1.0, 0.0, 0.0)


def test_laplace_matches_series_at_default_abscissa():
    ser = pos_moment_mixture_series(MIX, 2.0, 3)
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
    assert got == pytest.approx(pos_moment_mixture_series(MIX, 1.0, 3), rel=1e-6)


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
    rv = MixtureRV(0.0, 0.5, 2.0)
    assert pos_moment(rv, 0.4, 2.5) == pytest.approx(
        pos_moment_poisson_local(2.0, 0.5, 0.4, 2.5), rel=1e-14)


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
    with pytest.raises(DomainError):
        pos_moment(MIX, 0.0, 0.0)
    with pytest.raises(DomainError):
        pos_moment(MIX, 0.0, math.inf)
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


def test_mills_moments_match_the_generic_loop_bit_for_bit():
    # The unrolled last steps are the generic loop's floating-point steps in
    # its order, so every order and count gives the loop's bits.
    for i in range(141):
        z = 5.0 + 0.25 * i
        for n in range(4):
            for count in range(1, n + 2):
                assert list(_mills_moments(z, n, count)) == oracles.mills_moments_loop(z, n, count)


@given(st.floats(min_value=2.0, max_value=60.0), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_mills_moments_bits_anywhere(z, n, count):
    count = min(count, n + 1)
    assert list(_mills_moments(z, n, count)) == oracles.mills_moments_loop(z, n, count)


def test_mills_moments_rejects_orders_past_three():
    with pytest.raises(DomainError):
        _mills_moments(9.0, 4)


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
    got = _pos_moment_triple(rv, w, alpha)
    for power, value in zip((alpha, alpha - 1.0, alpha - 2.0), got):
        if power > 0.0:
            want = pos_moment(rv, w, power)
        elif kind == "mixture":
            want = mixture_tail(rv, w)
        else:
            want = poisson_tail(rv.theta, math.floor(w / rv.y + rv.theta) + 1)
        assert value == pytest.approx(want, rel=_walk_tol(rv.theta, want), abs=0.0)
