"""Ground-truth machinery for validating the comparison inequality.

The bound calculators promise E f(S) <= E f(eta) for every f in the test
classes; this module supplies both sides independently of them: exact
enumeration and Monte Carlo sampling of sums of two-point laws on the left,
closed-form mixture expectations on the right, plus the extremal
constructions that approach equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import pu_exp
from .distributions import BoundParams, TwoPointRV
from .errors import ConstructionError, DomainError, NumericalError
from .posmoments import pos_moment
from .special import _MAX_ITER

__all__ = [
    "SumSpec",
    "TestFunction",
    "MCEstimate",
    "extremal_two_point",
    "extremal_sum_spec",
    "enumerate_expectation",
    "mixture_expectation_f",
    "mc_tail",
    "mc_expectation",
    "random_sum_spec",
    "hp_counterexample_gap",
]

_ENUM_MAX = 24
_CHUNK = 1 << 18


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
        if self.tag == "exponential":
            return np.exp(self.lam * np.asarray(x, dtype=float))
        return np.maximum(np.asarray(x, dtype=float) - self.t, 0.0) ** self.alpha


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

    from scipy.optimize import brentq
    b = y if beta >= cap else float(brentq(h, 0.0, y, rtol=1e-15, maxiter=_MAX_ITER))
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
    from scipy.optimize import brentq
    b = float(brentq(g, 0.0, params.sigma, rtol=1e-15, maxiter=_MAX_ITER))
    a = (s2 - b * b) / y
    sm = b / math.sqrt(m)
    summands = [TwoPointRV(sm, sm)] * m + [TwoPointRV(a / m, y)] * m
    spec = SumSpec(summands, y)
    if abs(spec.sigma2() - s2) > 1e-8 * s2 or abs(spec.beta() - target) > 1e-8 * target:
        raise NumericalError(f"aggregate budgets violated at m = {m}")
    return spec


def enumerate_expectation(spec: SumSpec, f: TestFunction) -> float:
    """Exact E f(S) over all 2^n sign patterns, weights multiplied along
    the way; n is capped at 24 (16.7M atoms)."""
    n = len(spec.summands)
    if n > _ENUM_MAX:
        raise DomainError(f"enumeration supports at most {_ENUM_MAX} summands, got {n}")
    values = np.zeros(1)
    weights = np.ones(1)
    for rv in spec.summands:
        values = np.concatenate([values - rv.a, values + rv.b])
        weights = np.concatenate([weights * rv.prob_neg, weights * rv.prob_pos])
    return float(np.dot(weights, f(values)))


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
    counts: dict[tuple[float, float], int] = {}
    for rv in spec.summands:
        counts[(rv.a, rv.b)] = counts.get((rv.a, rv.b), 0) + 1
    return [(a, b, c) for (a, b), c in counts.items()]


def _sample_chunks(spec: SumSpec, n: int, seed: int):
    """Yield arrays of samples of S in fixed-size chunks.

    Identical summands are grouped, so each sample needs one binomial draw
    per distinct law instead of one Bernoulli per summand.  Each chunk gets
    its own counter-based generator keyed by (seed, chunk index), making
    the stream independent of how chunks are scheduled.
    """
    groups = _grouped(spec)
    mask = (1 << 64) - 1
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    for i in range(n_chunks):
        size = min(_CHUNK, n - i * _CHUNK)
        gen = np.random.Generator(np.random.Philox(key=[seed & mask, i]))
        s = np.zeros(size)
        for a, b, c in groups:
            k = gen.binomial(c, a / (a + b), size=size)
            s += k * (a + b) - c * a
        yield s


def mc_tail(spec: SumSpec, x: float, n: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of P(S >= x), deterministic given the seed."""
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
        fs = f(s)
        total += float(fs.sum())
        total_sq += float(np.dot(fs, fs))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def random_sum_spec(n: int, seed: int, y_cap: float = 1.0) -> SumSpec:
    """A random valid SumSpec: per-summand budgets are drawn first and
    realized through extremal_two_point, so the hypotheses hold by
    construction rather than by rejection."""
    if n < 1:
        raise DomainError(f"need n >= 1 summands, got {n}")
    gen = np.random.Generator(np.random.Philox(key=[seed & ((1 << 64) - 1), 0]))
    summands = []
    for _ in range(n):
        sigma_i = float(gen.uniform(0.2, 1.0)) / math.sqrt(n)
        y_i = float(gen.uniform(0.3, 1.0)) * y_cap
        cap = y_i**3 * sigma_i**2 / (y_i**2 + sigma_i**2)
        beta_i = float(gen.uniform(0.05, 1.0)) * cap
        summands.append(extremal_two_point(sigma_i, y_i, beta_i))
    return SumSpec(summands, y_cap)


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
