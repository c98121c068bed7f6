"""Exact enumeration, extremal constructions, and Monte Carlo machinery."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import _oracles as oracles
from tailbound import (
    BoundParams,
    ConstructionError,
    DomainError,
    MCEstimate,
    SumSpec,
    TestFunction,
    TwoPointRV,
    enumerate_expectation,
    exact_tail,
    extremal_sum_spec,
    extremal_two_point,
    hp_counterexample_gap,
    mc_expectation,
    mc_tail,
    mixture_expectation_f,
    pu_exp,
    random_sum_spec,
)
from tailbound.oracle import _binom_pmf, _guide, _inverse_cdf

# A library class, not a test case, despite the name.
TestFunction.__test__ = False


def test_sum_spec_aggregates():
    spec = SumSpec([TwoPointRV(1.0, 1.0), TwoPointRV(0.5, 2.0)], 2.0)
    assert spec.sigma2() == pytest.approx(1.0 + 1.0)
    assert spec.beta() == pytest.approx(0.5 + 0.5 * 8.0 / 2.5)
    assert spec.support_min() == -1.5
    assert spec.support_max() == 3.0
    agg = spec.aggregate_params()
    assert agg.sigma == pytest.approx(math.sqrt(2.0))
    assert agg.y == 2.0
    assert agg.eps == pytest.approx(spec.beta() / (2.0 * 2.0))


def test_sum_spec_validation():
    with pytest.raises(DomainError):
        SumSpec([], 1.0)
    with pytest.raises(DomainError):
        SumSpec([TwoPointRV(1.0, 2.0)], 1.0)  # b above the cap
    with pytest.raises(DomainError):
        SumSpec([TwoPointRV(1.0, 0.5)], 0.0)


def test_test_function_families():
    f = TestFunction.power_part(1.0)
    vals = f(np.array([0.0, 1.5, 3.0]))
    assert vals == pytest.approx([0.0, 0.125, 8.0])
    g = TestFunction.exponential(0.5)
    assert g(np.array([2.0]))[0] == pytest.approx(math.e)
    h = TestFunction.power_part2(0.0, 2.0)
    assert h(np.array([-1.0, 2.0])) == pytest.approx([0.0, 4.0])


@pytest.mark.parametrize("f", [TestFunction.power_part(0.3), TestFunction.power_part2(-0.2),
                               TestFunction.power_part2(0.1, 3.0)])
def test_integer_powers_are_products_within_4_ulp(f):
    # The products for alpha in {2, 3} against the float power they replace.
    x = np.random.default_rng(5).normal(scale=3.0, size=1 << 14)
    want = np.maximum(x - f.t, 0.0) ** f.alpha
    got = f(x)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert np.count_nonzero(got) == np.count_nonzero(want)


def test_test_function_validation():
    with pytest.raises(DomainError):
        TestFunction.power_part(0.0, alpha=2.5)
    with pytest.raises(DomainError):
        TestFunction.power_part2(0.0, alpha=1.5)
    with pytest.raises(DomainError):
        TestFunction.exponential(0.0)
    with pytest.raises(DomainError):
        TestFunction("sine")


def test_extremal_two_point_frozen_root():
    # sigma = y = 1, beta = 1/4: b solves 4 b^3 = b^2 + 1.
    rv = extremal_two_point(1.0, 1.0, 0.25)
    assert rv.b == pytest.approx(0.7252700850720346, rel=1e-12)
    assert rv.a == pytest.approx(1.0 / rv.b, rel=1e-12)
    assert rv.second_moment == pytest.approx(1.0, rel=1e-12)
    assert rv.pos_third_moment == pytest.approx(0.25, rel=1e-12)


def test_extremal_two_point_at_the_cap():
    # beta equal to the attainable maximum forces b = y.
    sigma, y = 1.0, 1.0
    cap = y**3 * sigma**2 / (y**2 + sigma**2)
    rv = extremal_two_point(sigma, y, cap)
    assert rv.b == y
    assert rv.a == pytest.approx(sigma**2 / y)
    with pytest.raises(DomainError):
        extremal_two_point(sigma, y, cap * 1.01)


@given(st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.05, max_value=0.999))
def test_extremal_two_point_hits_budgets(sigma, y, frac):
    cap = y**3 * sigma**2 / (y**2 + sigma**2)
    rv = extremal_two_point(sigma, y, frac * cap)
    assert rv.second_moment == pytest.approx(sigma**2, rel=1e-9)
    assert rv.pos_third_moment == pytest.approx(frac * cap, rel=1e-9)
    assert rv.b <= y * (1.0 + 1e-12)


def test_extremal_sum_spec_structure():
    params = BoundParams(1.0, 1.0, 0.1)
    spec = extremal_sum_spec(params, 400)
    assert len(spec.summands) == 800
    assert spec.sigma2() == pytest.approx(1.0, rel=1e-8)
    assert spec.beta() == pytest.approx(0.1, rel=1e-8)
    # The Gaussian-feeding half is symmetric with b ~ sigma sqrt(1-eps).
    sym = spec.summands[0]
    assert sym.a == sym.b
    b_split = sym.b * math.sqrt(400)
    assert b_split == pytest.approx(math.sqrt(0.9), rel=0.02)


def test_extremal_sum_spec_refines_with_m():
    params = BoundParams(1.0, 1.0, 0.1)
    b400 = extremal_sum_spec(params, 400).summands[0].b * 20.0
    b1600 = extremal_sum_spec(params, 1600).summands[0].b * 40.0
    target = math.sqrt(0.9)
    assert abs(b1600 - target) < abs(b400 - target)


def test_extremal_sum_spec_small_m_fails():
    # Large eps demands more third moment than any small-m split provides.
    with pytest.raises(ConstructionError):
        extremal_sum_spec(BoundParams(1.0, 0.1, 0.9), 1)
    with pytest.raises(DomainError):
        extremal_sum_spec(BoundParams(1.0, 1.0, 0.1), 0)


def test_enumerate_two_coin_product():
    # Two symmetric unit coins: E e^S = ((e + 1/e)/2)^2.
    spec = SumSpec([TwoPointRV(1.0, 1.0)] * 2, 1.0)
    got = enumerate_expectation(spec, TestFunction.exponential(1.0))
    assert got == pytest.approx((0.5 * (math.e + 1.0 / math.e)) ** 2,
                                rel=1e-14)


def test_enumerate_matches_brute_force():
    spec = random_sum_spec(7, seed=123)
    f = TestFunction.power_part(-0.5)
    ref = oracles.enumerate_brute([(rv.a, rv.b) for rv in spec.summands],
                                  lambda s: max(s + 0.5, 0.0) ** 3)
    assert enumerate_expectation(spec, f) == pytest.approx(ref, rel=1e-12)


def _enumerate_by_concatenation(spec, f):
    """E f(S) over the 2^n atoms of the whole sum, built by concatenation."""
    values = np.zeros(1)
    weights = np.ones(1)
    for rv in spec.summands:
        values = np.concatenate([values - rv.a, values + rv.b])
        weights = np.concatenate([weights * rv.prob_neg, weights * rv.prob_pos])
    return float(np.dot(weights, f(values)))


@pytest.mark.parametrize("n", range(1, 23))
def test_enumerate_meets_in_the_middle(n):
    # The two halves' atoms give the whole sum's expectation: the same
    # terms as the concatenation, rounded in another order.
    spec = random_sum_spec(n, seed=1000 + n)
    for f in (TestFunction.power_part(0.1 * n ** 0.5), TestFunction.exponential(0.8)):
        assert enumerate_expectation(spec, f) == pytest.approx(
            _enumerate_by_concatenation(spec, f), rel=1e-12, abs=0.0)


def test_enumerate_size_cap():
    # 24 summands (16.7M atoms) still run; 25 do not.
    spec = SumSpec([TwoPointRV(1.0, 1.0)] * 24, 1.0)
    assert enumerate_expectation(spec, TestFunction.exponential(1.0)) == pytest.approx(
        (0.5 * (math.e + 1.0 / math.e)) ** 24, rel=1e-12)
    spec = SumSpec([TwoPointRV(1.0, 1.0)] * 25, 1.0)
    with pytest.raises(DomainError):
        enumerate_expectation(spec, TestFunction.exponential(1.0))


def test_mixture_expectation_exponential_is_mgf():
    params = BoundParams(1.0, 1.0, 0.3)
    f = TestFunction.exponential(0.7)
    assert mixture_expectation_f(params, f) == pytest.approx(
        pu_exp(params, 0.7), rel=1e-13)


def test_mixture_expectation_power_routes():
    params = BoundParams(1.0, 1.0, 0.3)
    f3 = TestFunction.power_part(0.5)
    ref3 = oracles.mixture_pos_moment_quad(0.7, 1.0, 0.3, 0.5, 3.0)
    assert mixture_expectation_f(params, f3) == pytest.approx(ref3, rel=1e-9)
    # The H_2 route carries the whole variance budget in the Poisson part.
    f2 = TestFunction.power_part2(0.5)
    ref2 = oracles.poisson_pos_moment_direct(1.0, 1.0, 0.5, 2.0)
    assert mixture_expectation_f(params, f2) == pytest.approx(ref2, rel=1e-10)


def test_mc_tail_support_extremes():
    spec = SumSpec([TwoPointRV(1.0, 1.0)] * 4, 1.0)
    assert mc_tail(spec, -4.5, 2000, seed=1).p_hat == 1.0
    assert mc_tail(spec, 4.5, 2000, seed=1).p_hat == 0.0


def test_mc_tail_deterministic_and_seed_sensitive():
    spec = random_sum_spec(6, seed=42)
    a = mc_tail(spec, 0.3, 50_000, seed=7)
    b = mc_tail(spec, 0.3, 50_000, seed=7)
    c = mc_tail(spec, 0.3, 50_000, seed=8)
    assert (a.p_hat, a.stderr, a.n, a.seed) == (b.p_hat, b.stderr, b.n, b.seed)
    assert a.p_hat != c.p_hat
    assert isinstance(a, MCEstimate)


def test_mc_seeds_above_two_to_the_63_stay_distinct():
    # numpy turns a plain list holding a seed >= 2^63 into floats, which
    # round 2^63 and 2^63 + 7 to one Philox key.
    spec = extremal_sum_spec(BoundParams(1.0, 1.0, 0.1), 50)
    a = mc_tail(spec, 1.0, 20_000, 2**63)
    b = mc_tail(spec, 1.0, 20_000, 2**63 + 7)
    assert a.p_hat != b.p_hat


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_mc_seed_outside_uint64_is_domain_error(seed):
    spec = SumSpec([TwoPointRV(1.0, 1.0)] * 4, 1.0)
    with pytest.raises(DomainError):
        mc_tail(spec, 0.0, 2000, seed)
    with pytest.raises(DomainError):
        mc_expectation(spec, TestFunction.power_part(0.0), 2000, seed)
    with pytest.raises(DomainError):
        random_sum_spec(3, seed)


def test_mc_tail_sharding_invariance():
    # Estimates must not depend on the chunk layout: a run whose sample
    # count crosses several chunk boundaries equals the concatenation of
    # its per-chunk pieces by construction; spot-check the first chunk.
    from tailbound.oracle import _CHUNK, _sample_chunks
    spec = random_sum_spec(3, seed=5)
    full = list(_sample_chunks(spec, _CHUNK + 1000, seed=11))
    assert len(full) == 2
    again = list(_sample_chunks(spec, _CHUNK, seed=11))
    np.testing.assert_array_equal(full[0], again[0])


def test_mc_tail_consistent_with_enumeration():
    # Two laws of random_sum_spec, four copies each: small enough to
    # enumerate, and few enough laws for exact_tail.
    laws = random_sum_spec(2, seed=99).summands
    spec = SumSpec(laws * 4, 1.0)
    x = 0.4
    est = mc_tail(spec, x, 200_000, seed=2026)
    p_true = _enumerate_by_concatenation(spec, lambda s: (s >= x).astype(float))
    assert abs(est.p_hat - p_true) <= 5.0 * max(est.stderr, 1e-6)
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1.0 - est.p_hat) / est.n), rel=1e-12)
    assert exact_tail(spec, x) == pytest.approx(p_true, rel=1e-12)
    assert exact_tail(spec, spec.support_min() - 1.0) == pytest.approx(1.0, rel=1e-14)


def test_mc_minimum_sample_size():
    spec = random_sum_spec(3, seed=1)
    with pytest.raises(DomainError):
        mc_tail(spec, 0.0, 999, seed=1)
    with pytest.raises(DomainError):
        mc_expectation(spec, TestFunction.exponential(1.0), 999, seed=1)


def test_mc_expectation_against_enumeration():
    spec = random_sum_spec(6, seed=31)
    f = TestFunction.power_part(-0.2)
    exact = enumerate_expectation(spec, f)
    mean, se = mc_expectation(spec, f, 400_000, seed=17)
    assert abs(mean - exact) <= 5.0 * max(se, 1e-9)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=10_000))
def test_random_sum_spec_is_always_valid(n, seed):
    spec = random_sum_spec(n, seed)
    assert len(spec.summands) == n
    agg = spec.aggregate_params()
    assert 0.0 < agg.eps < 1.0
    for rv in spec.summands:
        assert rv.b <= spec.y_cap * (1.0 + 1e-12)


def test_random_sum_spec_reproducible():
    assert random_sum_spec(5, seed=77) == random_sum_spec(5, seed=77)
    assert random_sum_spec(5, seed=77) != random_sum_spec(5, seed=78)


def test_hp_gap_frozen_values():
    assert hp_counterexample_gap(2.5, 0.01) == pytest.approx(
        -5.94534791964179e-05, rel=1e-6)
    # Quadratic scaling in a: the a = 0.05 gap is ~25x the a = 0.01 one.
    ratio = hp_counterexample_gap(2.5, 0.05) / hp_counterexample_gap(2.5, 0.01)
    assert 12.5 < ratio < 50.0


@pytest.mark.parametrize("p,a", [(2.5, 0.05), (2.8, 0.02)])
def test_hp_gap_against_mpmath(p, a):
    assert hp_counterexample_gap(p, a) == pytest.approx(oracles.hp_gap_mp(p, a),
                                                        rel=1e-10, abs=0.0)


def test_hp_gap_vanishes_at_three():
    assert hp_counterexample_gap(3.0, 0.01) >= -1e-6


def test_hp_gap_validation():
    with pytest.raises(DomainError):
        hp_counterexample_gap(2.0, 0.01)
    with pytest.raises(DomainError):
        hp_counterexample_gap(2.5, 1.5)


def test_comparison_inequality_random_specs():
    funcs = [TestFunction.power_part(t) for t in (-1.0, 0.0, 1.0)] + \
        [TestFunction.exponential(lam) for lam in (0.5, 1.5)] + \
        [TestFunction.power_part2(t) for t in (0.0, 0.5)]
    for i in range(12):
        spec = random_sum_spec(4 + i % 6, seed=500 + i)
        params = spec.aggregate_params()
        for f in funcs:
            lhs = enumerate_expectation(spec, f)
            rhs = mixture_expectation_f(params, f)
            assert lhs <= rhs * (1.0 + 1e-6), (i, f)


# (c, p) pairs of the sampler's tables: one trial, the symmetric laws of
# extremal_sum_spec, a far-skewed law, a near-degenerate one and a wide one.
_BINOMIALS = [(1, 0.3), (100, 0.5), (1600, 0.5), (1600, 2e-4), (50, 0.999), (5000, 0.37)]


def _cdf(c, p):
    cdf = np.cumsum(_binom_pmf(c, p, 1.0 - p))
    return cdf / cdf[-1]


def _near_grid(x):
    """The points of the 2^-53 grid of uniforms in [0, 1) at and next to x."""
    g = np.floor(np.asarray(x) * 2.0**53)
    u = np.concatenate([g - 1.0, g, g + 1.0]) * 2.0**-53
    return u[(u >= 0.0) & (u < 1.0)]


def _words(u, gen):
    """64-bit words whose uniforms (w >> 11) 2^-53 are u, with random low
    bits, which the uniform drops."""
    low = gen.integers(0, 1 << 11, len(u), dtype=np.uint64)
    return ((u * 2.0**53).astype(np.uint64) << np.uint64(11)) | low


def test_words_give_numpys_uniforms():
    # The sampler's uniforms are numpy's random() of the same Philox words.
    words = np.random.Philox(key=[3, 4]).random_raw(5000)
    u = np.random.Generator(np.random.Philox(key=[3, 4])).random(5000)
    np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, u)


@pytest.mark.parametrize("c,p", _BINOMIALS)
def test_guided_draw_is_searchsorted(c, p):
    cdf = _cdf(c, p)
    assert cdf[-1] == 1.0
    guide = _guide(cdf)
    m = len(guide)
    gen = np.random.Generator(np.random.Philox(key=[1, c]))
    # Next to the atoms' cdf values and the buckets' edges, one step of the
    # grid changes the draw or the bucket.
    edges = _near_grid(np.concatenate([cdf[:-1], np.arange(m + 1) / m]))
    u = np.concatenate([gen.random(1 << 16), edges, [0.0, 1.0 - 2.0**-53]])
    np.testing.assert_array_equal(_inverse_cdf(cdf, guide, _words(u, gen)),
                                  np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("offset", [0.0, -2.0**-53, 2.0**-53])
def test_guided_draw_with_cdf_values_on_bucket_edges(offset):
    # 16 atoms, so 64 buckets; cdf[k] = (k+1)/16 sits on the edge 4(k+1)/64,
    # or one grid step below or above it, and in each case the buckets on
    # either side of the value must draw either side of it.
    cdf = np.append(np.arange(1, 16) / 16 + offset, 1.0)
    guide = _guide(cdf)
    assert len(guide) == 64
    gen = np.random.Generator(np.random.Philox(key=[5, 6]))
    u = _near_grid(np.concatenate([cdf[:-1], np.arange(65) / 64]))
    np.testing.assert_array_equal(_inverse_cdf(cdf, guide, _words(u, gen)),
                                  np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("c,p", _BINOMIALS)
def test_guided_draw_follows_the_binomial_law(c, p):
    # Pearson's chi-square over 2^20 draws against scipy's pmf, with the
    # cells of expected count below 5 pooled into their neighbours.
    n = 1 << 20
    cdf = _cdf(c, p)
    words = np.random.Philox(key=[2, c]).random_raw(n)
    counts = np.bincount(_inverse_cdf(cdf, _guide(cdf), words), minlength=c + 1)
    expected = n * stats.binom.pmf(np.arange(c + 1), c, p)
    obs_cells, exp_cells, o_acc, e_acc = [], [], 0.0, 0.0
    for o, e in zip(counts, expected):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 5.0:
            obs_cells.append(o_acc)
            exp_cells.append(e_acc)
            o_acc = e_acc = 0.0
    obs_cells[-1] += o_acc
    exp_cells[-1] += e_acc
    obs, exp = np.array(obs_cells), np.array(exp_cells)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert stats.chi2.sf(chi2, len(obs) - 1) > 1e-4


@pytest.mark.parametrize("c,p", _BINOMIALS)
def test_binom_pmf_against_scipy(c, p):
    k = np.arange(c + 1)
    ref = stats.binom.pmf(k, c, p)
    keep = ref > 1e-290
    np.testing.assert_allclose(_binom_pmf(c, p, 1.0 - p)[keep], ref[keep], rtol=1e-10)


@pytest.mark.parametrize("x", [1.0, 2.0, 3.0])
def test_mc_tail_within_five_sd_of_exact_tail(x):
    spec = extremal_sum_spec(BoundParams(1.0, 1.0, 0.1), 400)
    exact = exact_tail(spec, x)
    n = 1 << 20
    est = mc_tail(spec, x, n, seed=31)
    assert abs(est.p_hat - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / n)


def test_exact_tail_against_enumeration():
    # Small two-law sums, and one-law sums, at points between atoms.
    for seed in (3, 4, 5):
        two = random_sum_spec(2, seed=seed).summands
        for spec in (SumSpec(two[:1] * 3 + two[1:] * 6, 1.0), SumSpec(two[:1] * 9, 1.0)):
            for x in np.linspace(spec.support_min() - 0.1, spec.support_max() + 0.1, 23):
                want = enumerate_expectation(spec, lambda s: (s >= x).astype(float))
                assert exact_tail(spec, x) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_exact_tail_keeps_digits_in_the_deep_tail():
    # P(S >= x) summed exactly in mpmath over the same floating-point atoms:
    # a one-law sum whose top atom has mass 0.6^1300 ~ 1e-288, and a
    # two-law sum near its top.
    spec = SumSpec([TwoPointRV(0.6, 0.4)] * 1300, 1.0)
    q = mpmath.mpf(0.6) / (mpmath.mpf(0.6) + mpmath.mpf(0.4))
    assert exact_tail(spec, spec.support_max() - 1e-9) == pytest.approx(
        float(q ** 1300), rel=1e-11, abs=0.0)
    laws = ((0.3, 1.0, 40), (0.05, 0.5, 40))
    spec = SumSpec([TwoPointRV(a, b) for a, b, c in laws for _ in range(c)], 1.0)
    with mpmath.workdps(40):
        pmfs = []
        for a, b, c in laws:
            q = mpmath.mpf(a) / (mpmath.mpf(a) + mpmath.mpf(b))
            values = np.arange(c + 1) * (a + b) - c * a
            pmfs.append((values, [mpmath.binomial(c, k) * q**k * (1 - q) ** (c - k)
                                  for k in range(c + 1)]))
        (v1, p1), (v2, p2) = pmfs
        for x in (30.0, 45.0, 55.5):
            want = mpmath.fsum(p1[i] * p2[j] for i in range(len(v1)) for j in range(len(v2))
                               if (0.0 + v1[i]) + v2[j] >= x)
            assert exact_tail(spec, x) == pytest.approx(float(want), rel=1e-11, abs=0.0)


def test_exact_tail_needs_at_most_two_laws():
    with pytest.raises(DomainError):
        exact_tail(random_sum_spec(3, seed=8), 0.0)
    with pytest.raises(DomainError):
        exact_tail(SumSpec([TwoPointRV(1.0, 1.0)], 1.0), math.nan)
