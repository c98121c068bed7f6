"""Ground-truth machinery for validating the comparison inequality.

The bound calculators promise E f(S) <= E f(eta) for every f in the test
classes; this module supplies both sides independently of them: exact
enumeration and Monte Carlo sampling of sums of two-point laws on the left,
closed-form mixture expectations on the right, plus the extremal
constructions that approach equality.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from .bounds import pu_exp
from .distributions import BoundParams, TwoPointRV
from .errors import ConstructionError, DomainError, NumericalError
from .posmoments import pos_moment
from .special import _root_in_bracket


class _LazyNumpy:
    """numpy, imported at its first use: a process that imports this
    module but samples and enumerates nothing, such as a cold start of the
    command line or of a benchmark workload of bounds, skips numpy's import,
    the larger part of such a start."""

    def __getattr__(self, name: str):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

__all__ = [
    "SumSpec",
    "TestFunction",
    "MCEstimate",
    "extremal_two_point",
    "extremal_sum_spec",
    "enumerate_expectation",
    "exact_tail",
    "mixture_expectation_f",
    "mc_tail",
    "mc_expectation",
    "random_sum_spec",
    "hp_counterexample_gap",
]

_ENUM_MAX = 24
_CHUNK = 1 << 18
# Elements per block of a vectorized pass (samples in the sampler, atoms
# in the enumeration), so that a block's arrays stay in cache and are
# recycled by the allocator: fresh chunk-sized temporaries cost a page
# fault per 4 KiB on every call.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SumSpec:
    """A sum S = sum X_i of independent two-point summands, all bounded
    above by y_cap."""

    summands: tuple[TwoPointRV, ...]
    y_cap: float

    def __init__(self, summands, y_cap: float):
        object.__setattr__(self, "summands", tuple(summands))
        object.__setattr__(self, "y_cap", float(y_cap))
        if not (self.y_cap > 0.0):
            raise DomainError(f"y_cap must be positive, got {y_cap}")
        if not self.summands:
            raise DomainError("need at least one summand")
        for rv in self.summands:
            if rv.b > self.y_cap * (1.0 + 1e-12):
                raise DomainError(f"summand upper point {rv.b} exceeds y_cap {self.y_cap}")

    def sigma2(self) -> float:
        return sum(rv.second_moment for rv in self.summands)

    def beta(self) -> float:
        return sum(rv.pos_third_moment for rv in self.summands)

    def support_min(self) -> float:
        return -sum(rv.a for rv in self.summands)

    def support_max(self) -> float:
        return sum(rv.b for rv in self.summands)

    def aggregate_params(self) -> BoundParams:
        """The (sigma, y, eps) budget triple this sum realizes."""
        s2 = self.sigma2()
        return BoundParams(math.sqrt(s2), self.y_cap,
                           self.beta() / (s2 * self.y_cap))


@dataclass(frozen=True, slots=True)
class TestFunction:
    """A member of the comparison classes: (x-t)_+^alpha with alpha >= 3
    (tag "power_part"), exp(lam x) (tag "exponential"), or (x-t)_+^alpha
    with alpha >= 2 (tag "power_part2", the H_2 class)."""

    tag: str
    t: float = 0.0
    alpha: float = 3.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.tag == "power_part":
            if self.alpha < 3.0:
                raise DomainError(f"power_part needs alpha >= 3, got {self.alpha}")
        elif self.tag == "power_part2":
            if self.alpha < 2.0:
                raise DomainError(f"power_part2 needs alpha >= 2, got {self.alpha}")
        elif self.tag == "exponential":
            if not (self.lam > 0.0):
                raise DomainError(f"exponential needs lam > 0, got {self.lam}")
        else:
            raise DomainError(f"unknown test function tag {self.tag!r}")

    @classmethod
    def power_part(cls, t: float, alpha: float = 3.0) -> TestFunction:
        return cls("power_part", t=t, alpha=alpha)

    @classmethod
    def power_part2(cls, t: float, alpha: float = 2.0) -> TestFunction:
        return cls("power_part2", t=t, alpha=alpha)

    @classmethod
    def exponential(cls, lam: float) -> TestFunction:
        return cls("exponential", lam=lam)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """f at each x.  The integer powers 2 and 3 are products, within
        2 ulp of the float power and ~9x cheaper than it."""
        if self.tag == "exponential":
            return np.exp(self.lam * np.asarray(x, dtype=float))
        y = np.maximum(np.asarray(x, dtype=float) - self.t, 0.0)
        if self.alpha == 3.0:
            cube = y * y
            cube *= y
            return cube
        return y * y if self.alpha == 2.0 else y ** self.alpha


@dataclass(frozen=True, slots=True)
class MCEstimate:
    """Monte Carlo tail estimate; stderr = sqrt(p_hat (1-p_hat) / n)."""

    p_hat: float
    stderr: float
    n: int
    seed: int


def extremal_two_point(sigma: float, y: float, beta: float) -> TwoPointRV:
    """The two-point law X_{a,b} matching E X^2 = sigma^2 and
    E X_+^3 = beta exactly, with b <= y.

    b is the unique positive root of sigma^2 b^3 = beta (b^2 + sigma^2)
    and a = sigma^2 / b; the moment identities are re-verified on the
    returned law.  beta can be at most y^3 sigma^2 / (y^2 + sigma^2), the
    third moment attained at b = y.
    """
    for name, val in (("sigma", sigma), ("y", y), ("beta", beta)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"{name} must be finite and positive, got {val}")
    s2 = sigma * sigma
    cap = y**3 * s2 / (y * y + s2)
    if beta > cap * (1.0 + 1e-12):
        raise DomainError(f"beta = {beta} exceeds the attainable cap {cap}")

    def h(b: float) -> float:
        return s2 * b**3 - beta * (b * b + s2)

    b = y if beta >= cap else _root_in_bracket(h, 0.0, y, rtol=1e-15)
    a = s2 / b
    rv = TwoPointRV(a, b)
    if abs(rv.second_moment - s2) > 1e-10 * s2 or \
       abs(rv.pos_third_moment - beta) > 1e-10 * beta:
        raise NumericalError(f"moment identities violated for b = {b}")
    return rv


def extremal_sum_spec(params: BoundParams, m: int) -> SumSpec:
    """2m-summand sum approaching the mixture in distribution: m copies of
    the symmetric law X_{b/sqrt(m), b/sqrt(m)} feeding the Gaussian part
    and m copies of X_{a/m, y} feeding the Poisson part.

    The split point b solves the third-moment constraint

        b^3 / (2 sqrt(m)) + m a y^3 / (a + m y) = eps sigma^2 y,

    with a = (sigma^2 - b^2)/y forced by the variance constraint.  For m
    too small the equation has no root in (0, sigma) and the construction
    fails; b tends to sigma sqrt(1 - eps) as m grows.
    """
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    s2, y, eps = params.sigma**2, params.y, params.eps
    target = eps * s2 * y

    def g(b: float) -> float:
        a = (s2 - b * b) / y
        return b**3 / (2.0 * math.sqrt(m)) + m * a * y**3 / (a + m * y) - target

    if not (g(0.0) > 0.0 and g(params.sigma) < 0.0):
        raise ConstructionError(f"no split point for m = {m}; increase m")
    b = _root_in_bracket(g, 0.0, params.sigma, rtol=1e-15)
    a = (s2 - b * b) / y
    sm = b / math.sqrt(m)
    laws = (TwoPointRV(sm, sm), TwoPointRV(a / m, y))
    # The aggregates of m copies of each law, without a pass over all 2m.
    if abs(m * sum(rv.second_moment for rv in laws) - s2) > 1e-8 * s2 or \
       abs(m * sum(rv.pos_third_moment for rv in laws) - target) > 1e-8 * target:
        raise NumericalError(f"aggregate budgets violated at m = {m}")
    return SumSpec([laws[0]] * m + [laws[1]] * m, y)


def _atoms(summands) -> tuple[np.ndarray, np.ndarray]:
    """Values and weights of a partial sum over all its sign patterns,
    weights multiplied along the way."""
    values = np.zeros(1)
    weights = np.ones(1)
    for rv in summands:
        values = np.concatenate([values - rv.a, values + rv.b])
        weights = np.concatenate([weights * rv.prob_neg, weights * rv.prob_pos])
    return values, weights


def enumerate_expectation(spec: SumSpec, f: TestFunction) -> float:
    """Exact E f(S) over all 2^n sign patterns, n capped at 24 (16.7M
    atoms), by meeting in the middle: with the atoms (v1, w1) and (v2, w2)
    of the two halves, E f(S) = w1 . f(v1 + v2^T) . w2, formed a block of
    at most _BLOCK atoms at a time."""
    n = len(spec.summands)
    if n > _ENUM_MAX:
        raise DomainError(f"enumeration supports at most {_ENUM_MAX} summands, got {n}")
    v1, w1 = _atoms(spec.summands[:n // 2])
    v2, w2 = _atoms(spec.summands[n // 2:])
    rows = max(1, _BLOCK // len(v2))
    return float(sum(w1[i:i + rows] @ (f(v1[i:i + rows, None] + v2) @ w2)
                     for i in range(0, len(v1), rows)))


def mixture_expectation_f(params: BoundParams, f: TestFunction) -> float:
    """E f(eta) for the comparison law matched to the budgets.

    power_part integrates against the Gaussian-plus-Poisson mixture,
    power_part2 against the pure-Poisson comparison law carrying the full
    variance budget, and exponential reduces to the mgf product.
    """
    if f.tag == "exponential":
        return pu_exp(params, f.lam)
    if f.tag == "power_part":
        return pos_moment(params.mixture(), f.t, f.alpha)
    if f.tag == "power_part2":
        return pos_moment(params.bentkus(), f.t, f.alpha)
    raise DomainError(f"unsupported test function {f.tag!r}")


def _grouped(spec: SumSpec) -> list[tuple[float, float, int]]:
    """The distinct laws (a, b) of the summands with their multiplicities c,
    in order of first appearance."""
    counts = Counter(map(attrgetter("a", "b"), spec.summands))
    return [(a, b, c) for (a, b), c in counts.items()]


def _philox_key(seed: int, i: int) -> np.ndarray:
    """The key (seed, i) of a Philox stream, for a seed in [0, 2^64).  An
    explicit uint64 array: numpy turns a plain list holding a seed >= 2^63
    into floats, collapsing distinct seeds onto one key."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return np.array([seed, i], dtype=np.uint64)


def _binom_pmf(c: int, q: float, r: float) -> np.ndarray:
    """P(K = k) for k = 0..c and K ~ Bin(c, q), r = 1 - q, each atom from
    its logarithm, lgamma terms plus k log q + (c - k) log r, so that the
    far tails keep their relative digits down to the underflow limit."""
    lf = np.fromiter(map(math.lgamma, range(1, c + 2)), float, c + 1)  # log k!
    k = np.arange(c + 1)
    return np.exp(lf[c] - lf - lf[::-1] + k * math.log(q) + (c - k) * math.log(r))


def _group_law(a: float, b: float, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Values k (a + b) - c a and pmf of the sum of c copies of the law on
    {-a, b}, K ~ Bin(c, a / (a + b)) counting the upper points.  The values
    are formed in the sampler's floating-point order."""
    return np.arange(c + 1) * (a + b) - c * a, _binom_pmf(c, a / (a + b), b / (a + b))


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table (after Chen and Asau) of a cdf ending in 1.0: m = 2^e >=
    4 len(cdf) equal buckets [j/m, (j+1)/m), entry j the atom that every u
    in bucket j draws, or -1 where a cdf value lies in (j/m, (j+1)/m], so
    that the bucket may draw two atoms.  lo[j], the number of cdf values
    <= j/m, is the draw at j/m; the last value, 1.0, is above every u.
    cdf m is exact, so the edges carry no rounding."""
    m = 1 << (4 * len(cdf) - 1).bit_length()
    lo = np.cumsum(np.bincount(np.ceil(cdf[:-1] * m).astype(np.intp), minlength=m + 1))
    return np.where(lo[1:] == lo[:-1], lo[:-1], -1)


def _inverse_cdf(cdf: np.ndarray, guide: np.ndarray, words: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right"), the first k with cdf[k] > u,
    for the uniforms u = (w >> 11) 2^-53 of 64-bit words w, which is how
    numpy's random() forms a double from a word.  The top e bits of w are
    floor(u 2^e), u's bucket; only the u in buckets marked -1 take the
    binary search.  Exact on every sample."""
    shift = np.uint64(65 - len(guide).bit_length())
    k = guide[(words >> shift).view(np.int64)]
    idx = np.flatnonzero(k < 0)
    k[idx] = np.searchsorted(cdf, (words[idx] >> np.uint64(11)) * 2.0**-53, side="right")
    return k


def _sample_chunks(spec: SumSpec, n: int, seed: int):
    """Yield arrays of samples of S in fixed-size chunks.

    Identical summands are grouped, so each sample needs one binomial draw
    per distinct law instead of one Bernoulli per summand: the exact
    inverse-cdf image of a uniform, through a cdf table built per call
    (dividing by its last entry makes that entry exactly 1.0).  Each chunk
    gets its own counter-based generator keyed by (seed, chunk index),
    making the stream independent of how chunks are scheduled; group g of
    a chunk takes the g-th run of ``size`` words of its stream, _BLOCK at
    a time, so that no array but the chunk's own outgrows a block.
    """
    tables = []
    for a, b, c in _grouped(spec):
        values, pmf = _group_law(a, b, c)
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        tables.append((values, cdf, _guide(cdf)))
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    for i in range(n_chunks):
        size = min(_CHUNK, n - i * _CHUNK)
        bitgen = np.random.Philox(key=_philox_key(seed, i))
        s = np.zeros(size)
        for values, cdf, guide in tables:
            for lo in range(0, size, _BLOCK):
                hi = min(lo + _BLOCK, size)
                s[lo:hi] += values[_inverse_cdf(cdf, guide, bitgen.random_raw(hi - lo))]
        yield s


def exact_tail(spec: SumSpec, x: float) -> float:
    """Exact P(S >= x) for a sum with at most two distinct summand laws,
    which covers every extremal_sum_spec: S = V1 + V2 with each V_g a
    scaled binomial, its atoms formed in the sampler's floating-point
    order.  Each tail of V2 is summed from its top end, so that tails
    down to ~1e-300 keep their digits."""
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    groups = _grouped(spec)
    if len(groups) > 2:
        raise DomainError(f"exact_tail supports at most 2 distinct summand laws, got {len(groups)}")
    laws = [(np.zeros(1), np.ones(1))] * (2 - len(groups)) + [_group_law(*g) for g in groups]
    (v1, p1), (v2, p2) = laws
    v1 = 0.0 + v1  # the sampler's first addition, onto s = 0
    # j[i]: the first atom of V2 with v1[i] + v2[j] >= x; the rounded sum
    # is monotone in j, so the guess from x - v1 is off by a step or two.
    j = np.searchsorted(v2, x - v1)
    while (down := (j > 0) & (v1 + v2[np.maximum(j - 1, 0)] >= x)).any():
        j -= down
    while (up := (j < len(v2)) & (v1 + v2[np.minimum(j, len(v2) - 1)] < x)).any():
        j += up
    tail2 = np.append(np.cumsum(p2[::-1])[::-1], 0.0)
    return float(p1 @ tail2[j])


def mc_tail(spec: SumSpec, x: float, n: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of P(S >= x), deterministic given the seed in
    [0, 2^64)."""
    if n < 1000:
        raise DomainError(f"need n >= 1000 samples, got {n}")
    hits = 0
    for s in _sample_chunks(spec, n, seed):
        hits += int(np.count_nonzero(s >= x))
    p_hat = hits / n
    return MCEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), n, seed)


def mc_expectation(spec: SumSpec, f: TestFunction, n: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, stderr) of E f(S) with the same sampling scheme
    as :func:`mc_tail`."""
    if n < 1000:
        raise DomainError(f"need n >= 1000 samples, got {n}")
    total = 0.0
    total_sq = 0.0
    for s in _sample_chunks(spec, n, seed):
        for lo in range(0, len(s), _BLOCK):
            fs = f(s[lo:lo + _BLOCK])
            total += float(fs.sum())
            total_sq += float(np.dot(fs, fs))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def random_sum_spec(n: int, seed: int) -> SumSpec:
    """A random valid SumSpec with y_cap 1: per-summand budgets are drawn
    first and realized through extremal_two_point, so the hypotheses hold
    by construction rather than by rejection."""
    if n < 1:
        raise DomainError(f"need n >= 1 summands, got {n}")
    gen = np.random.Generator(np.random.Philox(key=_philox_key(seed, 0)))
    summands = []
    for _ in range(n):
        sigma_i = float(gen.uniform(0.2, 1.0)) / math.sqrt(n)
        y_i = float(gen.uniform(0.3, 1.0))
        cap = y_i**3 * sigma_i**2 / (y_i**2 + sigma_i**2)
        beta_i = float(gen.uniform(0.05, 1.0)) * cap
        summands.append(extremal_two_point(sigma_i, y_i, beta_i))
    return SumSpec(summands, 1.0)


def hp_counterexample_gap(p: float, a: float) -> float:
    """E(eta + a)_+^p minus E(X_{a,1} + a)_+^p with matched budgets.

    For p = 3 the comparison theorem makes this nonnegative; for p in
    (2, 3) it goes negative like (2^{p-1} - 1 - p) a^2, which is exactly
    why the power class stops at alpha >= 3.
    """
    if not (2.0 < p <= 3.0):
        raise DomainError(f"p must lie in (2, 3], got {p}")
    if not (0.0 < a < 1.0):
        raise DomainError(f"a must lie in (0, 1), got {a}")
    params = BoundParams(math.sqrt(a), 1.0, 1.0 / (1.0 + a))
    e_mix = pos_moment(params.mixture(), -a, p)
    e_two = a * (1.0 + a) ** (p - 1.0)
    return e_mix - e_two
