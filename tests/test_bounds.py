"""The bound calculators: closed forms, root solves, orderings, majorants."""

import math
import time
import warnings

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from tailbound.posmoments import _moments
from tailbound import (
    BoundParams,
    DomainError,
    MixtureRV,
    NumericalError,
    RangeError,
    SummandBudget,
    TailBoundResult,
    TailboundError,
    TwoPointRV,
    alpha_x_split,
    bh,
    be,
    bounds,
    ca,
    c_const,
    ea,
    effective_epsilon,
    en,
    lc3_bound,
    mixture_tail,
    p_alpha,
    pin,
    plc_mixture_upper,
    poisson_tail,
    pos_moment,
    pu,
    pu_exp,
    pu_numeric,
)
from tailbound.bounds import bh_exp, m_function, plc_poisson_tail, solve_t_x

P_HALF = BoundParams(1.0, 1.0, 0.5)
P_SMALL = BoundParams(1.0, 1.0, 0.1)


def test_result_clamps_round_off_and_rejects_garbage():
    r = TailBoundResult(1.0 + 1e-12, 0.0, "test")
    assert r.value == 1.0
    assert TailBoundResult(-1e-12, 0.0, "test").value == 0.0
    with pytest.raises(DomainError):
        TailBoundResult(1.1, 0.0, "test")
    with pytest.raises(DomainError):
        TailBoundResult(-0.1, 0.0, "test")


def test_bh_closed_form_values():
    assert bh(1.0, 1.0, 0.0).value == 1.0
    # x y / sigma^2 = e - 1 makes the exponent exactly -1.
    r = bh(1.0, 1.0, math.e - 1.0)
    assert r.value == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert r.optimizer == pytest.approx(1.0, rel=1e-14)


def test_bh_matches_direct_minimization():
    for x in (0.5, 2.0, 7.0):
        _, fmin = oracles.golden_min(
            lambda lam: -lam * x + math.expm1(lam) - lam, 0.0, 10.0)
        assert bh(1.0, 1.0, x).value == pytest.approx(math.exp(fmin),
                                                      rel=1e-10)


def test_bh_domain_and_range():
    with pytest.raises(DomainError):
        bh(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        bh(1.0, 1.0, -0.5)
    with pytest.raises(RangeError):
        bh_exp(1.0, 1.0, 701.0)
    with pytest.raises(DomainError):
        bh_exp(1.0, 1.0, -0.1)


def test_exp_bounds_reject_nan_lambda():
    with pytest.raises(DomainError):
        bh_exp(1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        pu_exp(P_HALF, math.nan)


@given(st.floats(min_value=0.0, max_value=5.0))
def test_pu_exp_between_gauss_and_bh_factors(lam):
    # The mixture mgf interpolates: en-factor <= pu_exp <= bh_exp.
    p = P_HALF
    gauss = math.exp(0.5 * lam * lam * (1.0 - p.eps) * p.sigma**2)
    assert gauss * (1.0 - 1e-12) <= pu_exp(p, lam) <= \
        bh_exp(p.sigma, p.y, lam) * (1.0 + 1e-12)
    assert pu_exp(p, lam) == pytest.approx(
        oracles.pu_exp_direct(1.0, 1.0, 0.5, lam), rel=1e-13)


def test_pu_closed_form_frozen_point():
    assert pu(P_HALF, 1.0).value == pytest.approx(0.6522807650761686,
                                                  rel=1e-12)
    assert pu(P_HALF, 1.0).value == pytest.approx(
        oracles.pu_golden(1.0, 1.0, 0.5, 1.0), rel=1e-9)


def test_pu_at_zero():
    r = pu(P_HALF, 0.0)
    assert r.value == 1.0
    assert r.optimizer == 0.0


@pytest.mark.parametrize("eps", [1e-6, 0.3, 0.7, 1.0 - 1e-9, 1.0 - 1e-12])
def test_pu_stable_across_eps_range(eps):
    # eps -> 1 collapses PU onto BH; the closed form must survive the limit
    # without cancellation.
    p = BoundParams(1.0, 1.0, eps)
    for x in (0.5, 2.0, 10.0):
        got = pu(p, x).value
        ref = pu_numeric(p, x).value
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
        if eps > 1.0 - 1e-11:
            assert got == pytest.approx(bh(1.0, 1.0, x).value, rel=1e-6)


def test_pu_optimizer_is_stationary_and_increasing():
    lams = []
    for x in (0.5, 1.0, 2.0, 4.0, 8.0):
        r = pu(P_HALF, x)
        # lambda_x is the root of the derivative of the log bound.
        h = 1e-6 * max(1.0, r.optimizer)
        lo = math.exp(-(r.optimizer - h) * x) * pu_exp(P_HALF, r.optimizer - h)
        hi = math.exp(-(r.optimizer + h) * x) * pu_exp(P_HALF, r.optimizer + h)
        assert r.value <= lo * (1.0 + 1e-9)
        assert r.value <= hi * (1.0 + 1e-9)
        lams.append(r.optimizer)
    assert lams == sorted(lams)


def test_pu_deep_tail_stays_finite():
    r = pu(P_HALF, 500.0)
    assert 0.0 <= r.value < 1e-300 or r.value == 0.0
    assert math.isfinite(r.optimizer)


def test_m_function_two_point_example():
    # For X_{1,3} at t = -1: num = E(X+1)_+^1.2 ... alpha = 1.2 with both
    # atoms active gives m(-1) = 3 by the lever rule.
    assert m_function(TwoPointRV(1.0, 3.0), 1.2, -1.0) == pytest.approx(
        3.0, rel=1e-9)


def test_m_function_strictly_increasing():
    rv = P_SMALL.mixture()
    ts = [-3.0 + 0.5 * i for i in range(10)]
    vals = [m_function(rv, 3.0, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_m_function_rejects_small_alpha():
    with pytest.raises(DomainError):
        m_function(P_SMALL.mixture(), 1.0, 0.0)


def test_solve_t_x_inverts_m():
    rv = P_SMALL.mixture()
    for alpha in (2.0, 3.0):
        for x in (0.5, 2.0, 6.0):
            t = solve_t_x(rv, alpha, x)
            assert m_function(rv, alpha, t) == pytest.approx(x, rel=1e-9)
            assert t < x


def test_solve_t_x_scaling_equivariance():
    # Scaling the law and the level by c scales the optimal shift by c.
    t1 = solve_t_x(TwoPointRV(1.0, 3.0), 2.0, 1.0)
    t2 = solve_t_x(TwoPointRV(2.0, 6.0), 2.0, 2.0)
    assert t2 == pytest.approx(2.0 * t1, rel=1e-9)


def test_solve_t_x_domain():
    rv = TwoPointRV(1.0, 2.0)
    with pytest.raises(DomainError):
        solve_t_x(rv, 2.0, 0.0)
    with pytest.raises(DomainError):
        solve_t_x(rv, 2.0, 2.0)  # at the support supremum


def test_p_alpha_boundary_cases():
    rv = P_SMALL.mixture()
    r = p_alpha(rv, 3.0, 0.0)
    assert r.value == 1.0 and math.isnan(r.optimizer)
    tp = TwoPointRV(1.0, 2.0)
    assert p_alpha(tp, 2.0, 2.0).value == pytest.approx(tp.prob_pos)
    assert p_alpha(tp, 2.0, 5.0).value == 0.0
    with pytest.raises(DomainError):
        p_alpha(rv, 1.0, 1.0)


def test_p_alpha_two_point_matches_closed_form():
    from tailbound import two_point_palpha_closed
    tp = TwoPointRV(1.0, 3.0)
    for x in (0.4, 1.0, 2.6):
        got = p_alpha(tp, 2.0, x)
        assert got.value == pytest.approx(
            two_point_palpha_closed(tp, 2.0, x), rel=1e-9)
        assert got.method == "exact"
    assert p_alpha(tp, 2.0, 1.0).value == pytest.approx(0.75, rel=1e-9)


def test_p_alpha_diagnostic_stays_small():
    r = p_alpha(P_SMALL.mixture(), 3.0, 3.0)
    assert r.err_estimate <= 1e-8 * r.value


def test_p_alpha_reports_route():
    rv = P_SMALL.mixture()
    assert p_alpha(rv, 3.0, 2.0).method == "series"
    assert p_alpha(rv, 2.5, 2.0).method == "series"
    assert be(P_SMALL, 2.0).method == "poisson-local"


@pytest.mark.parametrize("alpha", [1.5, 2.5, 4.0, 6.0])
def test_p_alpha_any_power_against_mpmath(alpha):
    # Fractional powers and integers past 3 take the Gaussian-slice series
    # too; the reference solves m(t) = x on 30-digit parabolic-cylinder
    # slices.
    rv = P_SMALL.mixture()
    want = oracles.p_alpha_mp(rv.v, rv.y, rv.theta, alpha, 2.0)
    assert p_alpha(rv, alpha, 2.0).value == pytest.approx(want, rel=1e-10, abs=0.0)


def test_p_alpha_reports_exact_for_two_point_series():
    # A forced series on a two-point law runs the exact two-term sum.
    from tailbound import PosMomentMethod
    tp = TwoPointRV(1.0, 3.0)
    forced = p_alpha(tp, 2.0, 1.0, method=PosMomentMethod.series())
    assert forced.method == "exact"
    assert forced.value == p_alpha(tp, 2.0, 1.0).value
    from tailbound.posmoments import _route
    assert _route(tp, 2.0, PosMomentMethod.laplace()) == "laplace"


def test_p_alpha_strictly_decreasing_in_x():
    rv = P_SMALL.mixture()
    vals = [p_alpha(rv, 3.0, 0.3 * i).value for i in range(1, 14)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_p_alpha_nondecreasing_in_alpha():
    rv = P_SMALL.mixture()
    for x in (1.5, 3.0):
        vals = [p_alpha(rv, a, x).value for a in (1.5, 2.0, 3.0, 6.0)]
        assert all(a <= b * (1.0 + 1e-7) for a, b in zip(vals, vals[1:]))


def test_p_alpha_dominates_true_tail():
    rv = P_SMALL.mixture()
    for x in (0.5, 2.0, 4.0):
        assert p_alpha(rv, 3.0, x).value >= mixture_tail(rv, x)


def test_be_equals_cantelli_on_the_lattice_gap():
    # Prop-style identity: the P_2 bound of the scaled Poisson agrees with
    # Cantelli up to the first lattice point y.
    for sigma, y in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
        p = BoundParams(sigma, y, 0.5)
        for i in range(8):
            x = y * i / 7.0
            assert be(p, x).value == pytest.approx(ca(sigma, x), rel=1e-10)


def test_be_pin_frozen_values():
    assert pin(P_SMALL, 3.0).value == pytest.approx(0.009610973628124127,
                                                    rel=1e-9)
    assert pin(P_SMALL, 4.0).value == pytest.approx(5.824537812082301e-04,
                                                    rel=1e-9)
    assert be(P_HALF, 2.0).value == pytest.approx(0.14568809216594186,
                                                  rel=1e-9)


def test_pin_bracket_without_sign_change_is_numerical_error(monkeypatch):
    # Moments whose m(t) = t + N_3/N_2 stays at t, below x, leave no sign
    # change on the t_x bracket, so the solve fails at its right end; that
    # is a numerical failure, not bad input.
    monkeypatch.setattr(bounds, "_moments",
                        lambda rv, w, alpha, fused, start=-1: (0.0, 1.0, 1.0, 1.0, -1, math.nan))
    with pytest.raises(NumericalError):
        pin(BoundParams(1.0, 0.1, 0.1), 35.0)


def _count_walks(monkeypatch) -> list[int]:
    """Counts the Poisson-count walks of the series routes: one-power sums
    and (N_a, N_{a-1}, N_{a-2}) triples go through the one walker."""
    from tailbound import posmoments
    count = [0]

    def counted(*args, _walk=posmoments._poisson_log_sums):
        count[0] += 1
        return _walk(*args)
    monkeypatch.setattr(posmoments, "_poisson_log_sums", counted)
    return count


_SOLVES = [
    lambda: pin(BoundParams(1.0, 1.0, 0.1), 3.0),
    lambda: be(BoundParams(1.0, 1.0, 0.5), 2.0),
    lambda: p_alpha(BoundParams(1.0, 1.0, 0.1).mixture(), 2.5, 3.0),
]


@pytest.mark.parametrize("call,budget", list(zip(_SOLVES, (3, 2, 4))),
                         ids=["pin", "be", "p_alpha_2.5"])
def test_t_x_solve_walk_budget(monkeypatch, call, budget):
    # A work gate that holds on any host, at the counts the solve reaches:
    # pin ends from its third walk's Taylor model and be from its second
    # walk's lattice cell; p_alpha at 2.5 keeps its confirming walk.
    walks = _count_walks(monkeypatch)
    call()
    assert 0 < walks[0] <= budget


@pytest.mark.parametrize("call", _SOLVES + [
    lambda: pin(BoundParams(1.0, 0.1, 0.1), 5.0),
    lambda: pin(BoundParams(1.0, 0.3, 0.5), 3.0),
    lambda: be(BoundParams(1.0, 0.1, 0.5), 40.0),
], ids=["pin", "be", "p_alpha_2.5", "pin_t10", "pin_t5.6", "be_t100"])
def test_later_walks_of_a_solve_take_three_peak_probes(monkeypatch, call):
    # Each walk after a solve's first searches its peak from the previous
    # walk's: at most three top-slice evaluations where the peak moved by
    # at most one count the way t did.
    from tailbound import special
    probes, search = [], special._poisson_peak

    def counted(theta, f, k_min, start=-1):
        probes.append([start, 0])

        def top(k):
            probes[-1][1] += 1
            return f(k)
        return search(theta, top, k_min, start)
    monkeypatch.setattr(special, "_poisson_peak", counted)
    call()
    assert probes[0][0] == -1 and len(probes) > 1
    assert all(start >= 0 and n <= 3 for start, n in probes[1:]), probes


@pytest.mark.parametrize("params,x", [
    ((1.0, 1.0, 0.1), 3.0), ((1.0, 1.0, 0.1), 5.0), ((1.0, 0.5, 0.9), 2.0),
    ((1.0, 0.3, 0.5), 4.0), ((1.0, 2.0, 0.3), 1.0),
])
@pytest.mark.parametrize("offset", [-3e-6, 1e-7, 2e-6])
def test_cubic_finish_is_within_its_remainder_of_the_true_moments(params, x, offset):
    # From the exact moments at a t near t_x, the finish lands on the root
    # of the Taylor model without a walk.  Against 30-digit mpmath at the
    # t it returns, N_2 is within its certified remainder, 2^-40 of N_2
    # (plus the rounding of the model), and N_3 is at least the true
    # moment: the ratio stays an upper bound, to the model's rounding.
    rv = BoundParams(*params).mixture()
    t_x = bounds._solve_t_x(rv, 3.0, x)[0]
    t = t_x + offset * (x - t_x)
    mp_moment = lambda t, p: oracles.mixture_pos_moment_mp(rv.v, rv.y, rv.theta, t, p)
    with mpmath.workdps(30):
        n3, n2, n1, n0 = (float(mp_moment(t, p)) for p in (3, 2, 1, 0))
    step = -(t + n3 / n2 - x) / (2.0 * (n3 / n2) * (n1 / n2) - 2.0)
    z_max = _moments(rv, t, 3.0, True)[5]
    done = bounds._cubic_finish(x, t, (n3, n2, n1, n0), z_max, math.sqrt(rv.v), step, 1e-13)
    assert done is not None
    t_fin, e3, e2 = done
    assert abs(t_fin - t_x) <= 1e-11 * max(1.0, abs(x))
    with mpmath.workdps(30):
        true3, true2 = mp_moment(t_fin, 3), mp_moment(t_fin, 2)
        assert abs(e2 - true2) <= (2.0**-40 + 8 * 2.0**-53) * true2
        assert e3 >= true3 * (1 - 4 * 2.0**-53)
        assert e3 / (x - t_fin) ** 3 >= true3 / (x - t_fin) ** 3 * (1 - 4 * 2.0**-53)


@pytest.mark.parametrize("params", [(1.0, 1.0, 0.1), (1.0, 0.3, 0.5), (1.0, 0.5, 0.9),
                                    (1.0, 0.1, 0.1), (1.0, 2.0, 0.3)])
@pytest.mark.parametrize("x", [0.5, 2.0, 4.0, 9.0])
def test_finished_pin_solve_matches_a_walk_at_its_t(monkeypatch, params, x):
    # A pin solve that ends on the Taylor model, against a direct walk at
    # the t it returns: N_3 and N_2 agree to the two walks' own rounding
    # (their pmf factors, up to ~|ln N| units of 2^-53 each where their
    # peaks differ, and their sums'), and N_2 to its remainder besides.
    finishes, finish = [], bounds._cubic_finish

    def spy(*args):
        finishes.append(finish(*args))
        return finishes[-1]
    monkeypatch.setattr(bounds, "_cubic_finish", spy)
    rv = BoundParams(*params).mixture()
    t, e3, e2 = bounds._solve_t_x(rv, 3.0, x)
    assert finishes[-1] is not None and finishes[-1][0] == t
    w3, w2 = _moments(rv, t, 3.0, True)[:2]
    slack = (4.0 + 2.0 * abs(math.log(w3)) + 32.0) * 2.0**-53
    assert e3 >= w3 * (1.0 - slack)
    assert e3 == pytest.approx(w3, rel=slack, abs=0.0)
    assert e2 == pytest.approx(w2, rel=2.0**-40 + slack, abs=0.0)


@pytest.mark.parametrize("params,x", [((1.0, 1.0, 0.5), 2.0), ((1.0, 0.3, 0.5), 3.1),
                                      ((0.8, 0.24, 0.5), 24.0), ((1.0, 0.1, 0.5), 10.0)])
def test_lattice_cell_finish_matches_a_walk_at_its_t(params, x, monkeypatch):
    # be's solve ends where its in-cell step lands strictly inside the cell:
    # N_2 - 2 N_1 d + N_0 d^2 and N_1 - N_0 d are exact there, so a walk at
    # that t gives the same moments to rounding: the walks' own, as in
    # test_posmoments' _walk_tol (their peaks' lgamma differ by ~theta ln
    # theta units of 2^-52), and the cancellation of at most 16 the finish
    # allows.
    walks = _count_walks(monkeypatch)
    rv = BoundParams(*params).bentkus()
    t, e2, e1 = bounds._solve_t_x(rv, 2.0, x)
    edge = rv.y * (math.floor(t / rv.y + rv.theta) - rv.theta)
    assert edge < t < edge + rv.y
    n = walks[0]
    w2, w1 = _moments(rv, t, 2.0, True)[:2]
    assert walks[0] == n + 1
    theta = rv.theta
    slack = 16 * 2.0**-52 * (theta * (1.0 + abs(math.log(theta))) + abs(math.log(w2)) + 10.0)
    assert e2 == pytest.approx(w2, rel=slack, abs=0.0)
    assert e1 == pytest.approx(w1, rel=slack, abs=0.0)


@pytest.mark.parametrize("y,x,want", [(0.1, 1.0, 0.511301423123827),
                                       (10.0, 20.0, 4.93374536768811e-05)])
def test_pin_with_a_vanishing_gaussian_part(y, x, want):
    # v = 1e-9: the finish's density bound e^{z_max |d| / s} leaves the
    # double range, and the solve walks on.  want is tests/_oracles.py's
    # p_alpha_mp at 30 digits.
    value = pin(BoundParams(1.0, y, 1.0 - 1e-9), x).value
    assert value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("params,x", [((1.0, 1.0, 0.1), 4.0), ((1.0, 1.0, 0.1), 5.0),
                                      ((1.0, 0.5, 0.2), 4.5), ((1.0, 2.0, 0.5), 4.0)])
def test_pin_with_deep_slices_against_mpmath(params, x):
    # Laws whose heaviest slices sit at z0 in (3, 5), where the closed forms
    # lose up to 1.3e-11 of a slice: the deep-slice kernel keeps the digits.
    rv = BoundParams(*params).mixture()
    want = oracles.p_alpha_mp(rv.v, rv.y, rv.theta, 3.0, x)
    assert pin(BoundParams(*params), x).value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_lattice_cell_step_lands_on_t_x(monkeypatch):
    # At alpha = 2 on the Poisson lattice, h(t) = N_2 - (x-t) N_1 is linear
    # within a lattice cell: from the seed, one step lands on t_x, here the
    # lattice point y (0 - theta) = -1/8, and the walk there confirms it.
    walks = _count_walks(monkeypatch)
    r = be(BoundParams(0.5, 2.0, 0.5), 2.0)
    assert walks[0] == 2
    assert r.optimizer == pytest.approx(-0.125, rel=1e-14)
    # Cantelli, sigma^2 / (sigma^2 + x^2), as everywhere up to y.
    assert r.value == pytest.approx(1.0 / 17.0, rel=1e-14)
    assert m_function(BoundParams(0.5, 2.0, 0.5).bentkus(), 2.0, r.optimizer) == \
        pytest.approx(2.0, rel=1e-14)


def test_be_deep_tail_lattice_against_mpmath():
    # 100 lattice steps above the mean at theta ~ 11: the solve ends in a
    # cell far in the tail, P_2 ~ 1.2e-69.
    params = BoundParams(0.8, 0.24, 0.5)
    rv = params.bentkus()
    want = oracles.p_alpha_law_mp(
        lambda t, p: oracles.lattice_pos_moment_mp(rv.y, rv.theta, t, p),
        2.0, 24.0, 24.0 - 4 * rv.stddev, rv.stddev)
    assert be(params, 24.0).value == pytest.approx(want, rel=1e-10, abs=0.0)


def _left_of_t_x(alpha, x, sd):
    # m(t) ~ (a - 1) sd^2 / (-t) far left, so t_x lies above -a sd^2 / x.
    return x - 4.0 * sd - 2.0 * alpha * sd * sd / x


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([3.0, 2.5, 1.5]), st.floats(0.05, 0.95), st.floats(0.5, 2.0),
       st.floats(0.3, 5.0))
def test_p_alpha_mixture_solve_against_mpmath(alpha, eps, y, x_sd):
    # The Newton solve (secant slope at 1.5) against a 20-digit Illinois
    # solve of m(t) = x; and the value is the ratio at the reported t.
    rv = BoundParams(1.0, y, eps).mixture()
    x = x_sd * rv.stddev
    r = p_alpha(rv, alpha, x)
    want = oracles.p_alpha_law_mp(
        lambda t, p: oracles.mixture_pos_moment_mp(rv.v, rv.y, rv.theta, t, p),
        alpha, x, _left_of_t_x(alpha, x, rv.stddev), rv.stddev, dps=20)
    assert r.value == pytest.approx(want, rel=1e-10, abs=0.0)
    with mpmath.workdps(20):
        at_t = oracles.mixture_pos_moment_mp(rv.v, rv.y, rv.theta, r.optimizer, alpha)
        ratio = float(at_t / (mpmath.mpf(x) - r.optimizer) ** alpha)
    assert r.value == pytest.approx(min(1.0, ratio), rel=1e-12, abs=0.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.2, 2.0), st.floats(0.05, 6.0))
# Small-theta lattices whose t_x lies left of the oracle's first guess.
@example(0.28125, 1.625, 5.5)
@example(0.1, 0.5, 5.0)
def test_be_lattice_solve_against_mpmath(sigma, y, x_sd):
    params = BoundParams(sigma, y, 0.5)
    rv = params.bentkus()
    x = x_sd * rv.stddev
    r = be(params, x)
    moment = lambda t, p: oracles.lattice_pos_moment_mp(rv.y, rv.theta, t, p)
    want = oracles.p_alpha_law_mp(moment, 2.0, x, _left_of_t_x(2.0, x, rv.stddev), rv.stddev)
    assert r.value == pytest.approx(want, rel=1e-10, abs=0.0)
    with mpmath.workdps(30):
        ratio = float(moment(r.optimizer, 2.0) / (mpmath.mpf(x) - r.optimizer) ** 2)
    assert r.value == pytest.approx(min(1.0, ratio), rel=1e-12, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.01, 0.99),
       st.sampled_from([2.0, 2.5, 3.0, 1.5]))
def test_p_alpha_two_point_solve_against_mpmath(a, b, x_frac, alpha):
    tp = TwoPointRV(a, b)
    x = x_frac * b
    r = p_alpha(tp, alpha, x)
    moment = lambda t, p: oracles.two_point_pos_moment_mp(a, b, t, p)
    want = oracles.p_alpha_law_mp(moment, alpha, x, _left_of_t_x(alpha, x, math.sqrt(a * b)) - a,
                                  math.sqrt(a * b))
    assert r.value == pytest.approx(want, rel=1e-10, abs=0.0)
    with mpmath.workdps(30):
        ratio = float(moment(r.optimizer, alpha) / (mpmath.mpf(x) - r.optimizer) ** alpha)
    assert r.value == pytest.approx(min(1.0, ratio), rel=1e-12, abs=0.0)


def test_huge_power_is_range_error():
    # The moments overflow a double there; the error is typed, and still an
    # OverflowError.
    mix = BoundParams(1.0, 1.0, 0.1).mixture()
    with pytest.raises(RangeError):
        pos_moment(mix, 0.0, 200.5)
    with pytest.raises(OverflowError):
        pos_moment(mix, 0.0, 200.5)
    with pytest.raises(RangeError):
        p_alpha(mix, 170.0, 2.0)


def test_pin_deep_tail_value():
    # 35 standard deviations out, at theta = 10; mpmath (benchmark
    # reference, golden section on P_3) gives 2.18704990305284e-222.
    assert pin(BoundParams(1.0, 0.1, 0.1), 35.0).value == pytest.approx(
        2.18704990305e-222, rel=1e-9, abs=0.0)


def test_pin_method_override_consistency():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        from tailbound import PosMomentMethod
        forced = pin(P_SMALL, 3.0, method=PosMomentMethod.laplace()).value
    assert forced == pytest.approx(pin(P_SMALL, 3.0).value, rel=1e-6)


def test_ca_en_basics():
    assert ca(1.0, -1.0) == 1.0
    assert ca(1.0, 2.0) == pytest.approx(0.2, rel=1e-15)
    assert en(1.0, 0.0) == 1.0
    assert en(2.0, 2.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    with pytest.raises(DomainError):
        ca(0.0, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_ca_en_ea_reject_non_finite_x(x):
    for bound in (lambda: ca(1.0, x), lambda: en(1.0, x), lambda: ea(x)):
        with pytest.raises(DomainError):
            bound()


def test_ca_en_cross_exactly_once():
    # en beats ca in the bulk, ca wins in the far tail; one sign change.
    for sigma in (0.5, 1.0, 2.0):
        xs = [40.0 * sigma * (i + 1) / 400 for i in range(400)]
        signs = [ca(sigma, x) - en(sigma, x) > 0.0 for x in xs]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1


def test_c_const_values():
    assert c_const(3.0, 0.0) == pytest.approx(2.0 * math.e**3 / 9.0, rel=1e-14)
    assert c_const(2.0, 0.0) == pytest.approx(math.e**2 / 2.0, rel=1e-14)
    assert c_const(3.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        c_const(2.0, 3.0)
    with pytest.raises(DomainError):
        c_const(0.0, 0.0)


def test_c_const_monotone_in_beta():
    vals = [c_const(3.0, b) for b in (0.0, 1.0, 2.0, 3.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_plc_poisson_interpolates_geometrically():
    theta = 0.6
    assert plc_poisson_tail(theta, 3.0) == pytest.approx(
        poisson_tail(theta, 3.0), rel=1e-12)
    mid = plc_poisson_tail(theta, 3.5)
    geo = math.sqrt(poisson_tail(theta, 3.0) * poisson_tail(theta, 4.0))
    assert mid == pytest.approx(geo, rel=1e-12)
    assert plc_poisson_tail(theta, -1.0) == 1.0
    for u in (math.nan, math.inf):
        with pytest.raises(DomainError):
            plc_poisson_tail(theta, u)


@given(st.floats(min_value=0.05, max_value=8.0),
       st.floats(min_value=0.0, max_value=25.0))
def test_plc_poisson_majorizes_tail(theta, u):
    assert plc_poisson_tail(theta, u) >= poisson_tail(theta, u) * (1.0 - 1e-12)


def test_plc_poisson_log_concave_on_grid():
    # Log-concavity on a uniform grid: log f(u) midpoint above average.
    theta = 0.6
    us = [0.25 * i for i in range(1, 60)]
    logs = [math.log(plc_poisson_tail(theta, u)) for u in us]
    for i in range(1, len(logs) - 1):
        assert logs[i] >= 0.5 * (logs[i - 1] + logs[i + 1]) - 1e-9


def test_plc_mixture_frozen_against_trapezoid_oracle():
    # 1e5-node trapezoid oracle value: 6.03678522673619e-3.
    got = plc_mixture_upper(P_SMALL, 3.0)
    assert got == pytest.approx(6.03678522673619e-03, rel=1e-6)


def test_plc_mixture_dominates_mixture_tail():
    rv = P_SMALL.mixture()
    for x in (0.5, 2.0, 4.0):
        assert plc_mixture_upper(P_SMALL, x) >= mixture_tail(rv, x) * (1.0 - 1e-9)


def test_plc_mixture_collapses_when_gaussian_vanishes():
    p = BoundParams(1.0, 1.0, 1.0 - 1e-6)
    got = plc_mixture_upper(p, 3.0)
    ref = plc_poisson_tail(p.mixture().theta, 3.0 + p.mixture().theta)
    assert got == pytest.approx(ref, rel=5e-2)


def test_lc3_bound_chain():
    assert lc3_bound(P_SMALL, 0.1) == 1.0  # clamped near the origin
    assert lc3_bound(P_SMALL, 4.0) == pytest.approx(1.8407940694466173e-03,
                                                    rel=1e-8)
    for x in (2.0, 4.0):
        assert pin(P_SMALL, x).value <= lc3_bound(P_SMALL, x) * (1.0 + 1e-9)
        assert mixture_tail(P_SMALL.mixture(), x) <= lc3_bound(P_SMALL, x)


P_DEEP = BoundParams(1.0, 0.1, 0.1)


@pytest.mark.parametrize("params,x", [(P_DEEP, 12.0), (P_DEEP, 20.0), (P_DEEP, 30.0),
                                      (P_SMALL, 3.0)])
def test_plc_mixture_matches_mpmath_cell_sum(params, x):
    rv = params.mixture()
    want = oracles.plc_mixture_cells_mp(rv.v, rv.y, rv.theta, x)
    assert plc_mixture_upper(params, x) == pytest.approx(want, rel=1e-10, abs=0.0)
    # The bound chain holds in the deep tail too, where the mass of the
    # majorant sits far below x.
    assert lc3_bound(params, x) >= pin(params, x).value >= mixture_tail(rv, x)


def test_lc3_deep_tail_value():
    # c_{3,0} times the 40-digit cell sum; nearly all of the majorant's mass
    # comes from u far below m = x/y + theta.
    want = c_const(3.0, 0.0) * 2.9078923176543642e-81
    assert lc3_bound(P_DEEP, 20.0) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eps", [1e-9, 0.5, 1.0 - 1e-9])
@pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
def test_lc3_dominates_mixture_tail_on_edge_grid(eps, y):
    params = BoundParams(1.0, y, eps)
    for x in (0.01, 5.0, 60.0):
        assert lc3_bound(params, x) >= mixture_tail(params.mixture(), x)


def test_lc3_small_y_returns_quickly():
    # theta = 5e5: some ten thousand lattice cells.
    start = time.perf_counter()
    value = lc3_bound(BoundParams(1.0, 1e-3, 0.5), 2.0)
    assert time.perf_counter() - start < 1.0
    assert value >= mixture_tail(BoundParams(1.0, 1e-3, 0.5).mixture(), 2.0)


def test_effective_epsilon_grouping():
    # Summands capped below their own sigma contribute no third-moment mass.
    heavy = SummandBudget(sigma=0.5, beta=0.05, y=1.0)
    light = SummandBudget(sigma=1.0, beta=0.1, y=0.5)
    out = effective_epsilon([heavy, light], 1.0)
    assert out.sigma == pytest.approx(math.sqrt(1.25))
    assert out.eps_tilde == pytest.approx(0.05 / 1.25)
    assert not out.degenerate
    only_light = effective_epsilon([light], 1.0)
    assert only_light.eps_tilde == 0.0
    assert only_light.degenerate


def test_effective_epsilon_validation():
    with pytest.raises(DomainError):
        effective_epsilon([], 1.0)
    with pytest.raises(DomainError):
        effective_epsilon([SummandBudget(1.0, 0.1, 2.0)], 1.0)
    with pytest.warns(UserWarning):
        # beta larger than sigma_i^2 y cannot come from a capped variable.
        effective_epsilon([SummandBudget(0.1, 5.0, 1.0)], 1.0)


def test_ea_against_dense_grid():
    from tailbound.posmoments import _gauss_partial_moments

    def moment(t):
        return 2.0 * _gauss_partial_moments(1.0, math.sqrt(1.0), -t, 3)[0]

    for x in (1.0, 3.0, 5.0):
        ref = oracles.dense_palpha(moment, 3.0, x, t_lo=0.0, t_hi=x, n=40001)
        assert ea(x) == pytest.approx(min(1.0, ref), rel=1e-6)
    assert ea(3.0) == pytest.approx(0.010815640948149213, rel=1e-9)


def _ea_mpmath(x):
    # inf over t of 2 E(Z-t)_+^3 / (x-t)^3 at 40 digits: closed-form
    # moments (exact at this precision) and bisection on m(t) = x.
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        phi, q = mpmath.npdf, lambda t: mpmath.ncdf(-t)
        e3 = lambda t: -t * (3 + t * t) * q(t) + (2 + t * t) * phi(t)
        e2 = lambda t: (1 + t * t) * q(t) - t * phi(t)
        if x <= 4 * phi(0):
            return float(min(1, 4 * phi(0) / x**3))
        lo, hi = mpmath.mpf(0), x
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid + e3(mid) / e2(mid) < x else (lo, mid)
        return float(min(1, 2 * e3(lo) / (x - lo) ** 3))


@pytest.mark.parametrize("x", [1.0, 1.5, 1.6, 3.0, 5.0, 8.0, 20.0, 37.0])
def test_ea_against_mpmath(x):
    # 1 and 1.5 sit below 4 phi(0) (the t -> 0 limit, clamped at 1); the
    # optimal t crosses 5 between x = 5 and 8; ea(37) ~ 5.1e-299.
    assert ea(x) == pytest.approx(_ea_mpmath(x), rel=1e-10, abs=0.0)


def test_ea_clamps_and_validates():
    assert ea(0.05) == 1.0
    # Past x = 40 the bound underflows to 0, even where (x - t)^3 would overflow.
    assert ea(40.0) == ea(1e300) == 0.0
    with pytest.raises(DomainError):
        ea(0.0)


def test_alpha_x_split_identity():
    for x in (0.5, 2.0, 6.0):
        a = alpha_x_split(P_HALF, x)
        assert P_HALF.eps < a < 1.0 or x < 1.0  # split exceeds eps for x >= y
        lhs = en(math.sqrt(1.0 - P_HALF.eps) * P_HALF.sigma, (1.0 - a) * x) \
            * bh(math.sqrt(P_HALF.eps) * P_HALF.sigma, P_HALF.y, a * x).value
        assert lhs == pytest.approx(pu(P_HALF, x).value, rel=1e-9)


def test_alpha_x_split_limits():
    # alpha_x -> eps as x -> 0 and -> 1 as x grows.
    assert alpha_x_split(P_HALF, 1e-6) == pytest.approx(0.5, abs=1e-6)
    assert alpha_x_split(P_HALF, 100.0) > 0.9
    with pytest.raises(DomainError):
        alpha_x_split(P_HALF, 0.0)


@settings(max_examples=30)
@given(st.floats(min_value=0.3, max_value=2.0),
       st.floats(min_value=0.3, max_value=2.0),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=6.0))
def test_ordering_chain_property(sigma, y, eps, x):
    p = BoundParams(sigma, y, eps)
    vbh = bh(sigma, y, x).value
    vpu = pu(p, x).value
    vpin = pin(p, x).value
    vbe = be(p, x).value
    assert vpin <= vpu * (1.0 + 1e-8)
    assert vpu <= vbh * (1.0 + 1e-12)
    assert vbe <= min(ca(sigma, x), vbh) * (1.0 + 1e-8)


def test_bounds_monotone_in_x():
    for f in (lambda x: bh(1.0, 1.0, x).value,
              lambda x: pu(P_HALF, x).value,
              lambda x: pin(P_SMALL, x).value):
        vals = [f(0.4 * i) for i in range(1, 12)]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_overflowing_terms_fail_fast(monkeypatch):
    # On the raw law of sigma = y = 1e110 (pin itself runs at sigma = 1)
    # the top slice is NaN (its closed form overflows) at the walk's first
    # count: a RangeError there, counted in slice calls so that it holds on
    # any host, not after half a term budget of NaNs.
    from tailbound import posmoments
    calls = [0]

    def counted(*args, _triple=posmoments._gauss_partial_moments):
        calls[0] += 1
        return _triple(*args)

    monkeypatch.setattr(posmoments, "_gauss_partial_moments", counted)
    with pytest.raises(RangeError, match="overflows a double"):
        p_alpha(BoundParams(1e110, 1e110, 0.5).mixture(), 3.0, 2e110)
    assert 0 < calls[0] < 100


# Every public bound, as a function of (BoundParams, x).
_SCALED_BOUNDS = {
    "bh": lambda p, x: bh(p.sigma, p.y, x).value,
    "ca": lambda p, x: ca(p.sigma, x),
    "en": lambda p, x: en(p.sigma, x),
    "pu": lambda p, x: pu(p, x).value,
    "pu_numeric": lambda p, x: pu_numeric(p, x).value,
    "be": lambda p, x: be(p, x).value,
    "pin": lambda p, x: pin(p, x).value,
    "lc3_bound": lambda p, x: lc3_bound(p, x),
}


def _outcome(bound, params, x):
    try:
        return bound(params, x)
    except TailboundError as exc:  # the error class must match too
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SCALED_BOUNDS)),
       st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
                 st.integers(-990, 990).map(lambda e: 2.0**e)),
       st.floats(0.05, 20.0), st.floats(0.01, 0.99),
       st.one_of(st.just(0.0), st.floats(1e-6, 30.0)))
@example("pin", 1e-200, 0.3, 0.5, 2.0)
@example("be", 1e-170, 0.3, 0.5, 2.0)
@example("ca", 1e200, 0.3, 0.5, 2.0)
@example("en", 1e200, 0.3, 0.5, 2.0)
@example("pin", 1e160, 0.3, 0.5, 2.0)
@example("lc3_bound", 2.0**-600, 0.3, 0.5, 2.0)
def test_bounds_are_scale_free(name, sigma, r, eps, xi):
    # bound(sigma, r sigma, x sigma) = bound(1, r, x): exactly where sigma is
    # a power of two (the products are then exact), else to the rounding of
    # r sigma and x sigma.  sigma^2 and sigma^3 leave the double range at
    # either end of this interval.
    bound = _SCALED_BOUNDS[name]
    got = _outcome(bound, BoundParams(sigma, r * sigma, eps), xi * sigma)
    want = _outcome(bound, BoundParams(1.0, r, eps), xi)
    if isinstance(want, float) and math.frexp(sigma)[0] == 0.5:
        assert got == want
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert got is want


def test_split_and_mixture_mgf_are_scale_free():
    # alpha_x_split(sigma, y, x) and pu_exp(sigma, y, lam) depend on y/sigma,
    # x/sigma and lam sigma only: the sigma = 1 digits hold across the whole
    # double range, exactly where sigma is a power of two.
    want = (alpha_x_split(BoundParams(1.0, 0.3, 0.5), 2.0),
            pu_exp(BoundParams(1.0, 0.3, 0.5), 0.5))
    assert want == (pytest.approx(0.56730, abs=5e-6), pytest.approx(1.13683, abs=5e-6))
    sigmas = [10.0**e for e in range(-300, 301, 10)] + [2.0**e for e in range(-990, 991, 90)]
    for s in sigmas:
        params = BoundParams(s, 0.3 * s, 0.5)
        got = (alpha_x_split(params, 2.0 * s), pu_exp(params, 0.5 / s))
        if math.frexp(s)[0] == 0.5:
            assert got == want, s
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), s


def test_split_and_mixture_mgf_out_of_range_are_range_errors():
    with pytest.raises(RangeError):  # y / sigma overflows
        alpha_x_split(BoundParams(1e-300, 1e300, 0.5), 1.0)
    with pytest.raises(RangeError):  # x / sigma overflows
        alpha_x_split(BoundParams(1e-300, 1e-300, 0.5), 1e300)
    for x in (1e-158, 1e-200):  # (x / sigma)^2 is subnormal or 0
        with pytest.raises(RangeError):
            alpha_x_split(P_HALF, x)
    with pytest.raises(RangeError):  # lam * sigma overflows
        pu_exp(BoundParams(1e200, 1e200, 0.5), 1e200)
    with pytest.raises(RangeError):  # y / sigma underflows
        pu_exp(BoundParams(1e300, 1e-300, 0.5), 1.0)


def test_pu_exp_finite_where_theta_overflows():
    # theta = eps sigma^2 / y^2 overflows below y / sigma ~ 1e-154, where
    # the Poisson part is Gaussian to within u = lam y: e^{lam^2 / 2} at
    # sigma = 1.
    for r in (1e-160, 1e-300, 2.0**-1070):
        assert pu_exp(BoundParams(1.0, r, 0.5), 1.0) == pytest.approx(
            1.6487212707001282, rel=1e-15, abs=0.0)
    assert pu_exp(BoundParams(1.0, 1e-160, 0.5), 1.0) == pytest.approx(
        math.exp(0.5), rel=1e-15, abs=0.0)


def test_comparison_laws_out_of_range_are_range_errors():
    # sigma^2 underflows at 1e-200 and overflows at 1e160.
    for sigma in (1e-200, 1e160):
        params = BoundParams(sigma, 0.3 * sigma, 0.5)
        for law in (params.mixture, params.bentkus):
            with pytest.raises(RangeError):
                law()
