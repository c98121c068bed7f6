"""Scalar kernels: Lambert W, the Bennett function, survival functions,
exponential remainders."""

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from tailbound import (
    DomainError,
    NumericalError,
    bennett_psi,
    exp_remainder,
    lambert_w0,
    lambert_w0_log,
    normal_tail,
    poisson_log_tail,
    poisson_tail,
)
from tailbound.posmoments import _gauss_partial_moment
from tailbound.special import _poisson_log_sum, _root_in_bracket
from tailbound import RangeError
from tailbound.special import _poisson_log_sums


def test_lambert_omega_constant():
    # W(1) is the omega constant.
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-15)


def test_lambert_edge_values():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("z", [-1.0, math.inf, math.nan])
def test_lambert_domain(z):
    with pytest.raises(DomainError):
        lambert_w0(z)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_lambert_defining_relation(z):
    w = lambert_w0(z)
    assert w >= 0.0
    # w e^w = z, checked in log space to keep the comparison scale-free.
    assert w + math.log(w) == pytest.approx(math.log(z), abs=1e-12)


@pytest.mark.parametrize("z", [1e-8, 0.3, 1.0, 4.0, 100.0, 1e6])
def test_lambert_matches_bisection_oracle(z):
    assert lambert_w0(z) == pytest.approx(oracles.lambert_bisect(z), rel=1e-12)


def test_lambert_log_large_argument():
    assert lambert_w0_log(1000.0) == pytest.approx(993.0991694723891, rel=1e-14)
    assert lambert_w0_log(1000.0) == pytest.approx(
        oracles.lambert_log_newton(1000.0), rel=1e-14)


@pytest.mark.parametrize("log_z", [-5.0, 0.0, 3.0, 100.0, 499.0, 501.0, 1e5])
def test_lambert_log_consistent_across_branch(log_z):
    w = lambert_w0_log(log_z)
    assert w + math.log(w) == pytest.approx(log_z, abs=1e-11)


def test_lambert_log_domain():
    with pytest.raises(DomainError):
        lambert_w0_log(math.inf)


def test_bennett_psi_exact_points():
    assert bennett_psi(0.0) == 0.0
    # (1+u) ln(1+u) - u at u = e - 1 collapses to 1.
    assert bennett_psi(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)
    assert bennett_psi(-0.5) == pytest.approx(0.5 - 0.5 * math.log(2.0), rel=1e-14)


@pytest.mark.parametrize("u", [1e-9, -1e-7, 5e-5, -9.9e-5, 1.1e-4, 2e-4])
def test_bennett_psi_series_crossover(u):
    with mpmath.workdps(40):
        ref = float((1 + mpmath.mpf(u)) * mpmath.log1p(mpmath.mpf(u)) - u)
    # The old 1e-4 switch from the series to the direct form, whose
    # cancellation cost ~1e-12 just past it.
    assert bennett_psi(u) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_bennett_psi_against_mpmath():
    # Through the atanh series (-2/3 <= u <= 2) and the direct form past it,
    # including both switches: full double precision everywhere.
    us = [-0.5 + 10.5 * i / 400 for i in range(401)] + [-2.0 / 3.0, 2.0, 2.0000001, 1e-3, -1e-3]
    with mpmath.workdps(40):
        for u in us:
            ref = float((1 + mpmath.mpf(u)) * mpmath.log1p(mpmath.mpf(u)) - u)
            assert bennett_psi(u) == pytest.approx(ref, rel=1e-15, abs=0.0), u


@given(st.floats(min_value=-0.99, max_value=50.0))
def test_bennett_psi_nonnegative(u):
    assert bennett_psi(u) >= 0.0


@given(st.floats(min_value=-0.9, max_value=20.0),
       st.floats(min_value=-0.9, max_value=20.0))
def test_bennett_psi_midpoint_convex(u, v):
    mid = bennett_psi(0.5 * (u + v))
    assert mid <= 0.5 * (bennett_psi(u) + bennett_psi(v)) + 1e-12


def test_bennett_psi_domain():
    with pytest.raises(DomainError):
        bennett_psi(-1.0)


def test_poisson_tail_boundaries():
    assert poisson_tail(2.0, 0.0) == 1.0
    assert poisson_tail(2.0, -3.5) == 1.0
    assert poisson_tail(0.0, 1.0) == 0.0
    assert poisson_tail(0.0, -1.0) == 1.0


def test_poisson_tail_head_complement():
    # P(Pois(3) >= 2) = 1 - e^{-3}(1 + 3).
    assert poisson_tail(3.0, 2.0) == pytest.approx(1.0 - 4.0 * math.exp(-3.0),
                                                   rel=1e-14)


def test_poisson_tail_rounds_to_one_at_any_rate():
    # From theta - sqrt(75 theta) down the tail is 1 to double precision;
    # at theta = 1e10 a walk would exceed its term budget.
    assert poisson_tail(1e10, 5.0) == 1.0
    assert poisson_log_tail(1e10, 5.0) == 0.0
    assert poisson_tail(1e4, 100.0) == 1.0
    # Above the cut (13.4 at theta = 100) the walk still runs: 5 sd below
    # the mode the tail is 1 - 1.2e-8.
    assert poisson_tail(100.0, 50.0) == pytest.approx(oracles.poisson_tail_mp(100.0, 50.0),
                                                      rel=1e-13, abs=0.0)


def test_poisson_tail_deep_right_tail():
    # Far past the mode the head sum would lose everything to cancellation;
    # the upward log-space sum keeps full relative accuracy.
    assert poisson_tail(0.6, 15.0) == pytest.approx(2.049997244750883e-16,
                                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("shift", [-0.5, 0.3, 2.0, 6.0])
def test_poisson_tail_against_gammainc(theta, shift):
    u = theta + shift * math.sqrt(theta)
    if u <= 0:
        return
    assert poisson_tail(theta, u) == pytest.approx(
        oracles.poisson_tail_mp(theta, u), rel=1e-11)


def test_poisson_tail_non_integer_u_rounds_up():
    # P(Pois >= u) only moves at integers.
    assert poisson_tail(2.0, 3.0) == pytest.approx(poisson_tail(2.0, 2.2),
                                                   rel=1e-14)


@given(st.floats(min_value=0.1, max_value=30.0),
       st.floats(min_value=0.1, max_value=60.0),
       st.floats(min_value=0.1, max_value=5.0))
def test_poisson_tail_monotone(theta, u, du):
    assert poisson_tail(theta, u + du) <= poisson_tail(theta, u) + 1e-15
    assert poisson_tail(theta + 0.5, u) >= poisson_tail(theta, u) - 1e-15


def test_poisson_log_tail_matches_linear_scale():
    for theta, u in [(0.6, 3.0), (2.0, 1.0), (5.0, 12.0)]:
        assert math.exp(poisson_log_tail(theta, u)) == pytest.approx(
            poisson_tail(theta, u), rel=1e-12)


def test_poisson_log_tail_beyond_underflow():
    # theta = 0.6, u = 170: the tail itself is ~1e-346 and underflows a
    # double, but its log is an unremarkable -795.
    got = poisson_log_tail(0.6, 170.0)
    with mpmath.workdps(60):
        ref = float(mpmath.log(mpmath.gammainc(170, 0, mpmath.mpf("0.6"),
                                               regularized=True)))
    assert got == pytest.approx(ref, rel=1e-12)
    assert got < -745.0
    assert poisson_tail(0.6, 170.0) == 0.0


def test_poisson_log_tail_boundaries():
    assert poisson_log_tail(2.0, 0.0) == 0.0
    assert poisson_log_tail(0.0, 5.0) == -math.inf


@pytest.mark.parametrize("theta, u", [
    (math.nan, 3.0), (-1.0, 3.0), (math.inf, 3.0),
    (3.0, math.nan), (3.0, math.inf),
])
def test_poisson_log_tail_domain_matches_poisson_tail(theta, u):
    with pytest.raises(DomainError):
        poisson_tail(theta, u)
    with pytest.raises(DomainError):
        poisson_log_tail(theta, u)


def test_normal_tail_degenerate():
    assert normal_tail(0.0, -1.0) == 1.0
    assert normal_tail(0.0, 0.0) == 1.0
    assert normal_tail(0.0, 1e-12) == 0.0


def test_normal_tail_values():
    assert normal_tail(1.0, 0.0) == 0.5
    with mpmath.workdps(40):
        ref = float(mpmath.ncdf(-8.0))
    assert normal_tail(1.0, 8.0) == pytest.approx(ref, rel=1e-13, abs=0.0)
    # Variance scaling: P(N(0,v) >= x) = P(N(0,1) >= x/sqrt(v)).
    assert normal_tail(4.0, 3.0) == pytest.approx(normal_tail(1.0, 1.5),
                                                  rel=1e-14)


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=-30.0, max_value=30.0))
def test_normal_tail_symmetry(v, x):
    assert normal_tail(v, x) + normal_tail(v, -x) == pytest.approx(1.0,
                                                                   abs=1e-14)


def test_normal_tail_deep_keeps_relative_accuracy():
    got = normal_tail(1.0, 38.0)
    with mpmath.workdps(60):
        ref = float(mpmath.ncdf(-38.0))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert 0.0 < got < 1e-300


def test_exp_remainder_is_exp_at_minus_one():
    assert exp_remainder(-1, 1.3) == pytest.approx(math.exp(1.3), rel=1e-15)


def test_exp_remainder_preserves_type():
    assert isinstance(exp_remainder(1, 0.5), float)
    assert isinstance(exp_remainder(1, 0.5 + 0j), complex)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("u", [1e-8, 1e-4, 5e-3, 0.5, 3.0, -2.0])
def test_exp_remainder_against_mpmath(j, u):
    with mpmath.workdps(50):
        z = mpmath.mpf(u)
        ref = mpmath.e**z - sum(z**m / mpmath.factorial(m) for m in range(j + 1))
        ref = float(ref)
    assert exp_remainder(j, u) == pytest.approx(ref, rel=1e-13, abs=0.0)


@given(st.integers(min_value=0, max_value=3),
       st.complex_numbers(max_magnitude=5.0))
def test_exp_remainder_magnitude_bound(j, u):
    bound = abs(u) ** (j + 1) * math.exp(abs(u)) / math.factorial(j + 1)
    assert abs(exp_remainder(j, u)) <= bound * (1.0 + 1e-10) + 1e-300


@given(st.integers(min_value=0, max_value=3),
       st.floats(min_value=-4.0, max_value=4.0))
def test_exp_remainder_peeling_identity(j, u):
    # e_j(u) = e_{j-1}(u) - u^j / j!.
    lhs = exp_remainder(j, u)
    rhs = exp_remainder(j - 1, u) - u**j / math.factorial(j)
    assert lhs == pytest.approx(rhs, abs=1e-12 * math.exp(abs(u)))


def test_exp_remainder_unsupported_order():
    with pytest.raises(DomainError):
        exp_remainder(4, 1.0)


def _brute_log_sum(theta, f, k_min, k_max):
    return math.log(math.fsum(
        math.exp(-theta + k * math.log(theta) - math.lgamma(k + 1.0)) * f(k)
        for k in range(k_min, k_max)))


@given(st.floats(min_value=0.05, max_value=40.0),
       st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=-3.0, max_value=6.0),
       st.integers(min_value=1, max_value=3))
def test_poisson_log_sum_matches_brute_force(theta, y, v, w, alpha):
    # The four log-concave weights the package sums, against math.fsum over
    # every count up to well past the peak.
    k_max = int(theta + abs(w) / y + 40.0 * math.sqrt(theta) + 200)
    k_local = max(0, math.floor(w / y + theta) + 1)
    k_tail = max(0, math.ceil(theta + w))

    def local(k):
        g = y * (k - theta) - w
        return g ** alpha if g > 0.0 else 0.0

    cases = [
        (lambda k: 1.0, k_tail),
        (local, k_local),
        (lambda k: normal_tail(v, w - y * (k - theta)), 0),
        (lambda k: _gauss_partial_moment(v, y * (k - theta) - w, alpha), 0),
    ]
    for f, k_min in cases:
        got = _poisson_log_sum(theta, f, k_min)
        want = _brute_log_sum(theta, f, k_min, k_max)
        assert math.exp(got - want) == pytest.approx(1.0, abs=1e-13)


# Strictly increasing shapes through 0 at u = 0, for the root solver tests.
_MONOTONE = [
    lambda u, c: c[0] * u + c[1] * u**3,
    lambda u, c: math.expm1(c[0] * u) + c[1] * u,
    lambda u, c: math.copysign(math.log1p(c[0] * abs(u)), u) + c[2] * u**5,
    lambda u, c: math.atan(c[0] * u) + 1e-3 * c[1] * u,
]


@given(st.sampled_from(range(len(_MONOTONE))), st.booleans(),
       st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
       st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0),
       st.booleans(), st.floats(-15.0, -4.0),
       st.floats(-15.0, -2.0))
def test_root_in_bracket_takes_brentqs_steps(kind, flip, c, root, left, right,
                                             swap, log_rtol, log_xtol):
    # scipy's brentq is the oracle: the same root to the bit after the same
    # number of f calls, for either orientation of bracket and slope.
    from scipy.optimize import brentq

    sign = -1.0 if flip else 1.0
    a, b = root - left, root + right
    if swap:
        a, b = b, a
    rtol, xtol = 10.0**log_rtol, 10.0**log_xtol
    calls = []

    def f(x):
        calls.append(x)
        return sign * _MONOTONE[kind](x - root, c)

    got = _root_in_bracket(f, a, b, rtol, xtol)
    ours, calls[:] = list(calls), []
    want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
    assert got == want
    assert ours == calls


def test_root_in_bracket_without_sign_change():
    with pytest.raises(NumericalError, match="no sign change"):
        _root_in_bracket(lambda x: x * x + 1.0, -1.0, 2.0, rtol=1e-12)


@pytest.mark.parametrize("nan_at", [lambda x: x == -1.0, lambda x: x == 2.0,
                                    lambda x: -1.0 < x < 2.0],
                         ids=["a", "b", "mid-run"])
def test_root_in_bracket_nan_is_numerical_error(nan_at):
    with pytest.raises(NumericalError, match="NaN"):
        _root_in_bracket(lambda x: math.nan if nan_at(x) else x - 0.3,
                         -1.0, 2.0, rtol=1e-12)


def test_fused_walk_fails_fast_on_a_term_past_the_double_range():
    # Slices that grow by 2 a count from 8e307 at theta = 1: the peak is
    # count 1, count 2 is still finite, count 3 overflows.  The walk raises
    # there, within a few slice calls, not after half a term budget of
    # non-finite terms.
    calls = []

    def slices(mu):
        calls.append(mu)
        return 8e307 * 2.0**mu, 2.0**mu, 1.0

    with pytest.raises(RangeError, match="at count 3"):
        _poisson_log_sums(1.0, 1.0, lambda mu: 8e307 * 2.0**mu, slices)
    assert len(calls) < 100
