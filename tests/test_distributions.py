"""The budget triple, the comparison mixture, and the two-point law."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracles
from tailbound import (
    BoundParams,
    DomainError,
    MixtureRV,
    NumericalError,
    RangeError,
    TwoPointRV,
    mixture_mgf,
    mixture_tail,
    normal_tail,
    poisson_tail,
    pu_exp,
    two_point_palpha_closed,
    two_point_pinf_closed,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


def test_bound_params_derived_quantities():
    p = BoundParams(sigma=2.0, y=0.5, eps=0.3)
    assert p.beta() == pytest.approx(0.3 * 4.0 * 0.5, rel=1e-15)
    mix = p.mixture()
    assert mix.v == pytest.approx(0.7 * 4.0, rel=1e-15)
    assert mix.y == 0.5
    assert mix.theta == pytest.approx(0.3 * 4.0 / 0.25, rel=1e-15)
    # The mixture carries exactly the variance budget.
    assert mix.variance == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("sigma,y,eps", [
    (0.0, 1.0, 0.5),
    (-1.0, 1.0, 0.5),
    (1.0, 0.0, 0.5),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 1.0),
    (math.inf, 1.0, 0.5),
])
def test_bound_params_validation(sigma, y, eps):
    with pytest.raises(DomainError):
        BoundParams(sigma, y, eps)


def test_mixture_rv_edges():
    assert MixtureRV(0.0, 1.0, 0.5).stddev == pytest.approx(math.sqrt(0.5))
    assert MixtureRV(2.0, 1.0, 0.0).variance == 2.0
    with pytest.raises(DomainError):
        MixtureRV(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        MixtureRV(-0.1, 1.0, 0.5)
    with pytest.raises(DomainError):
        MixtureRV(1.0, -1.0, 0.5)


def test_bentkus_law_carries_full_variance_budget():
    p = BoundParams(1.3, 0.7, 0.4)
    rv = p.bentkus()
    assert (rv.v, rv.y) == (0.0, p.y)
    assert rv.variance == pytest.approx(p.sigma**2, rel=1e-15)


@given(positive, positive)
def test_two_point_moment_identities(a, b):
    rv = TwoPointRV(a, b)
    assert rv.prob_neg + rv.prob_pos == pytest.approx(1.0, rel=1e-15)
    # Zero mean by construction.
    assert -a * rv.prob_neg + b * rv.prob_pos == pytest.approx(0.0, abs=1e-12 * (a + b))
    assert rv.second_moment == pytest.approx(a * b, rel=1e-15)
    assert rv.pos_third_moment == pytest.approx(a * b**3 / (a + b), rel=1e-14)


def test_two_point_validation():
    with pytest.raises(DomainError):
        TwoPointRV(0.0, 1.0)
    with pytest.raises(DomainError):
        TwoPointRV(1.0, -2.0)


def test_mixture_mgf_at_zero_and_type():
    rv = MixtureRV(0.9, 1.0, 0.1)
    assert mixture_mgf(rv, 0.0) == 1.0
    assert isinstance(mixture_mgf(rv, 0.3), float)
    assert isinstance(mixture_mgf(rv, 0.3 + 0j), complex)


@given(st.floats(min_value=0.0, max_value=5.0))
def test_mixture_mgf_equals_pu_exp(lam):
    p = BoundParams(1.1, 0.8, 0.35)
    assert mixture_mgf(p.mixture(), lam) == pytest.approx(pu_exp(p, lam),
                                                          rel=1e-13)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_mixture_cf_bounded_by_one(t):
    rv = MixtureRV(0.5, 1.5, 0.2)
    assert abs(mixture_mgf(rv, complex(0.0, t))) <= 1.0 + 1e-12


def test_mixture_mgf_overflow_guard():
    rv = MixtureRV(0.9, 1.0, 0.1)
    with pytest.raises(RangeError):
        mixture_mgf(rv, 701.0)
    # Large imaginary part is fine; only the real part can overflow.
    assert abs(mixture_mgf(rv, complex(1.0, 1e4))) < math.inf


def test_mixture_tail_pure_cases():
    pois = MixtureRV(0.0, 0.5, 2.0)
    assert mixture_tail(pois, 1.2) == pytest.approx(
        poisson_tail(2.0, 2.0 + 1.2 / 0.5), rel=1e-14)
    gauss = MixtureRV(1.7, 1.0, 0.0)
    assert mixture_tail(gauss, 2.4) == pytest.approx(normal_tail(1.7, 2.4),
                                                     rel=1e-14)


def test_mixture_tail_frozen_value():
    rv = MixtureRV(0.9, 1.0, 0.1)
    assert mixture_tail(rv, 4.0) == pytest.approx(1.3716927595631162e-04,
                                                  rel=1e-11)


def test_mixture_tail_agrees_with_monte_carlo():
    # Frozen from an n = 1e8 Philox run (seed 20260823): p_hat = 0.02549793,
    # stderr = 1.576e-5.  The series value must sit within 4 standard errors.
    rv = MixtureRV(0.9, 1.0, 0.1)
    assert abs(mixture_tail(rv, 2.0) - 0.02549793) <= 4.0 * 1.58e-5


def test_mixture_tail_unterminated_series_is_numerical_error():
    # theta = 5e5 puts the Poisson mass past the series' 200 000-term cap.
    with pytest.raises(NumericalError) as info:
        mixture_tail(BoundParams(1.0, 1e-3, 0.5).mixture(), 2.0)
    assert info.value.estimate is not None


def test_mixture_tail_decreasing_in_x():
    rv = MixtureRV(0.4, 0.7, 0.6)
    xs = [0.1 * i for i in range(-5, 40)]
    vals = [mixture_tail(rv, x) for x in xs]
    assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.4])
def test_two_point_palpha_against_dense_grid(alpha, x):
    a, b = 0.8, 3.0
    got = two_point_palpha_closed(TwoPointRV(a, b), alpha, x)
    # The optimal shift runs far left as x shrinks (t ~ -17 already at
    # alpha = 3, x = 0.3), so the grid has to reach well beyond -a.
    ref = oracles.dense_palpha(
        lambda t: oracles.two_point_pos_moment(a, b, t, alpha),
        alpha, x, t_lo=-a - 40.0, t_hi=x, n=120001)
    # The grid oracle only brackets the true optimum, so allow its
    # discretization error on top of agreement.
    assert got <= ref * (1.0 + 1e-12)
    assert got == pytest.approx(ref, rel=2e-6)


def test_two_point_palpha_textbook_point():
    # Symmetric-ish case with round numbers: a=1, b=3, alpha=2, x=1 -> 3/4.
    assert two_point_palpha_closed(TwoPointRV(1.0, 3.0), 2.0, 1.0) == \
        pytest.approx(0.75, rel=1e-13)


def test_two_point_palpha_boundaries():
    rv = TwoPointRV(1.0, 2.0)
    assert two_point_palpha_closed(rv, 2.0, 0.0) == 1.0
    assert two_point_palpha_closed(rv, 2.0, -0.5) == 1.0
    assert two_point_palpha_closed(rv, 2.0, 2.0) == pytest.approx(rv.prob_pos)
    assert two_point_palpha_closed(rv, 2.0, 2.1) == 0.0
    with pytest.raises(DomainError):
        two_point_palpha_closed(rv, 1.0, 0.5)


def test_two_point_palpha_continuous_at_upper_point():
    rv = TwoPointRV(1.0, 2.0)
    # As x -> b from below the bound collapses onto the atom mass.
    near = two_point_palpha_closed(rv, 3.0, 2.0 - 1e-9)
    assert near == pytest.approx(rv.prob_pos, rel=1e-6)


@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_two_point_palpha_dominates_tail(a, b, frac):
    # P_alpha is a tail bound: at x in (0, b) the tail is the atom mass.
    rv = TwoPointRV(a, b)
    x = frac * b
    assert two_point_palpha_closed(rv, 3.0, x) >= rv.prob_pos * (1.0 - 1e-12)


def test_two_point_pinf_frozen_value():
    assert two_point_pinf_closed(TwoPointRV(1.0, 1.0), 0.5) == \
        pytest.approx(0.8773826753016616, rel=1e-13)


@pytest.mark.parametrize("a,b,x", [
    (1.0, 1.0, 0.5),
    (0.5, 2.0, 1.3),
    (3.0, 0.7, 0.6),
    (2.0, 2.0, 3.0),
])
def test_two_point_pinf_matches_golden_section(a, b, x):
    got = two_point_pinf_closed(TwoPointRV(a, b), x)
    if x >= b:
        # Chernoff degenerates past the support; the value is the atom mass
        # at x = b and zero beyond, no optimization to cross-check.
        ref = TwoPointRV(a, b).prob_pos if x == b else 0.0
        assert got == pytest.approx(ref, abs=1e-15)
        return
    assert got == pytest.approx(oracles.two_point_pinf_numeric(a, b, x),
                                rel=1e-9)


@given(st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.0).filter(lambda f: f < 0.999))
def test_two_point_chernoff_dominates_palpha_large_alpha(a, b, frac):
    # As alpha grows P_alpha approaches the Chernoff bound from below;
    # at any fixed alpha the power bound is the sharper of the two.
    rv = TwoPointRV(a, b)
    x = frac * b
    assert two_point_palpha_closed(rv, 6.0, x) <= \
        two_point_pinf_closed(rv, x) * (1.0 + 1e-11)
