"""Checks of every operation's output, run after the timed phase.

`tails` and `routes` outputs are compared with the mpmath references in
refs.json.  `grid` tables are checked against properties the bounds must
have, and `montecarlo` estimates against the exact law of the sum, which is
computed here from the summands alone.  A check returns None when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

import reference as ref
from tailbound import bounds, distributions

REFS = Path(__file__).resolve().parent / "refs.json"

# Relative agreement with the mpmath reference, per operation kind.  The
# library's own target is 1e-10 (Tolerance.rel); these leave room for the
# conditioning of a bound near its optimum, not for a wrong sum.
_REL = {"pin": 1e-8, "be": 1e-8, "p_alpha": 1e-8, "pos_moment": 1e-8,
        "laplace": 1e-8, "charfn": 1e-8, "mixture_tail": 1e-9, "hp_gap": 1e-8}
# Round-off allowance for inequalities between printed 12-digit values.
_SLACK = 1e-9
_COLUMNS = "x,bh,pu,be,pin,ca,en,log10_be_bh,log10_pin_bh,log10_pu_bh"
_FLOOR = 1e-300
# Monte Carlo estimates must lie within this many standard errors.
_MC_Z = 5.0


def load_refs(workload: str) -> dict:
    return json.loads(REFS.read_text())["workloads"].get(workload, {})


def check(op, output, refs: dict) -> str | None:
    kind = op.kind
    if any(isinstance(v, float) and not math.isfinite(v) for v in _floats(output)):
        return f"non-finite output {output!r}"
    if kind == "compare":
        return _check_compare(op.inputs, output)
    if kind in ("mc_tail", "mc_expectation", "enumerate"):
        return _CHECK_MC[kind](op.inputs, output)
    entry = refs.get(op.key)
    if entry is None or entry["inputs"] != op.inputs or entry["kind"] != kind:
        raise RuntimeError(f"refs.json has no entry for {op.key} with these inputs; "
                           "regenerate it with python3 benchmark/make_refs.py")
    return _check_against(kind, op.inputs, output, mp.mpf(entry["value"]))


def _floats(output):
    if isinstance(output, float):
        return [output]
    if isinstance(output, tuple):
        return [v for v in output if isinstance(v, float)]
    return [getattr(output, "p_hat", 0.0), getattr(output, "stderr", 0.0)]


def _rel_err(value: float, want) -> float:
    if want == 0:
        return abs(value)
    return float(abs((mp.mpf(value) - want) / want))


def _check_against(kind: str, inp: dict, value, want) -> str | None:
    if not isinstance(value, float):
        return f"returned {value!r}, not a float"
    if kind == "lc3":
        if not (value <= 1.0 and mp.mpf(value) >= want * (1 - _SLACK)):
            return f"lc3 {value!r} not in [P(eta >= x) = {mp.nstr(want, 12)}, 1]"
        return None
    err = _rel_err(value, want)
    if err > _REL[kind]:
        return f"{value!r} against mpmath {mp.nstr(want, 12)} (rel err {err:.2e})"
    if kind == "hp_gap":
        return _check_hp_gap(inp, value)
    return None


def _check_hp_gap(inp: dict, gap: float) -> str | None:
    """Sign and a^2 scaling: for p < 3 the gap is negative and close to
    (2^{p-1} - 1 - p) a^2 for small a; for p = 3 it is nonnegative and
    o(a^2)."""
    p, a = inp["p"], inp["a"]
    c = 2.0 ** (p - 1.0) - 1.0 - p
    if p < 3.0:
        if not (gap < 0.0 and abs(gap / (a * a) - c) <= 0.5 * abs(c)):
            return f"gap {gap!r} at p={p}, a={a}: expected about {c * a * a:.3e}"
    elif not (gap >= 0.0 and gap <= 0.5 * a * a):
        return f"gap {gap!r} at p=3, a={a}: expected in [0, a^2/2]"
    return None


def _check_compare(inp: dict, output) -> str | None:
    code, text = output
    if code != 0:
        return f"compare exited with {code}"
    lines = text.strip().splitlines()
    if not lines or lines[0] != _COLUMNS:
        return "unexpected header"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    n = inp["points"]
    if rows.shape != (n, 10):
        return f"table shape {rows.shape}, expected ({n}, 10)"
    x = rows[:, 0]
    want_x = inp["x_max"] * np.arange(n) / (n - 1)
    if not np.allclose(x, want_x, rtol=1e-11, atol=0.0):
        return "x column is not the requested grid"
    bh, pu, be, pin, ca, en = (rows[:, j] for j in range(1, 7))
    vals = rows[:, 1:7]
    if not ((vals >= 0.0) & (vals <= 1.0)).all():
        return "a bound lies outside [0, 1]"
    up = 1.0 + _SLACK
    if not ((pin <= pu * up) & (pu <= bh * up)).all():
        return "pin <= pu <= bh violated"
    if not (be <= np.minimum(ca, bh) * up).all():
        return "be <= min(ca, bh) violated"
    if not (vals[1:] <= vals[:-1] * up).all():
        return "a bound column increases in x"
    for j, col in ((7, be), (8, pin), (9, pu)):
        want = np.log10(np.maximum(col, _FLOOR) / np.maximum(bh, _FLOOR))
        if not np.allclose(rows[:, j], want, rtol=0.0, atol=1e-9):
            return f"log10 column {j} disagrees with the value columns"
    params = distributions.BoundParams(inp["sigma"], inp["y"], inp["eps"])
    for xi, got in zip(x, pu):
        num = bounds.pu_numeric(params, float(xi)).value
        if abs(got - num) > 1e-8 * max(num, _FLOOR):
            return f"pu {got!r} disagrees with pu_numeric {num!r} at x={xi}"
    return None


# --- Monte Carlo: exact laws of the sampled sums ---------------------------

def _groups(spec) -> list[tuple[float, float, int]]:
    """Distinct two-point laws of a sum with their multiplicities, in order
    of first appearance."""
    counts: dict[tuple[float, float], int] = {}
    for rv in spec.summands:
        counts[(rv.a, rv.b)] = counts.get((rv.a, rv.b), 0) + 1
    return [(a, b, c) for (a, b), c in counts.items()]


def _binom_pmf(c: int, q: float) -> np.ndarray:
    lc = math.lgamma(c + 1.0)
    lq, lr = math.log(q), math.log1p(-q)
    return np.exp(np.array([lc - math.lgamma(k + 1.0) - math.lgamma(c - k + 1.0)
                            + k * lq + (c - k) * lr for k in range(c + 1)]))


def _two_group_law(spec):
    """Atoms of S = sum over two groups of K_g (a_g + b_g) - c_g a_g with
    K_g ~ Bin(c_g, a_g / (a_g + b_g)): per-group values and pmfs.  Values
    are formed in the same floating-point order as a sampled S."""
    groups = _groups(spec)
    if len(groups) != 2:
        raise RuntimeError(f"extremal sum has {len(groups)} distinct laws, expected 2")
    out = []
    for a, b, c in groups:
        k = np.arange(c + 1)
        out.append((k * (a + b) - c * a, _binom_pmf(c, a / (a + b))))
    return out


def _exact_expectation(spec, fn) -> float:
    if getattr(fn, "tag", None) == "exponential":
        # Product of the per-summand mgfs, in logs: the lattice sum would
        # form e^{lam S} at atoms whose mass underflows.
        lam = fn.lam
        return math.exp(sum(c * math.log(b / (a + b) * math.exp(-lam * a)
                                         + a / (a + b) * math.exp(lam * b))
                            for a, b, c in _groups(spec)))
    (v1, p1), (v2, p2) = _two_group_law(spec)
    total = 0.0
    for lo in range(0, len(v2), 64):
        s = (0.0 + v1)[:, None] + v2[None, lo:lo + 64]
        total += float(p1 @ fn(s) @ p2[lo:lo + 64])
    return total


def _budgets(spec):
    """(v, y, theta) of the comparison mixture for the sum's own budgets."""
    s2 = sum(rv.a * rv.b for rv in spec.summands)
    beta = sum(rv.a * rv.b**3 / (rv.a + rv.b) for rv in spec.summands)
    eps = beta / (s2 * spec.y_cap)
    return ref.mixture_of(math.sqrt(s2), spec.y_cap, eps)


def _mixture_f(spec, f) -> float:
    law = _budgets(spec)
    if f.tag == "exponential":
        return float(ref.exp_moment(*law, f.lam))
    return float(ref.pos_moment(*law, f.t, f.alpha))


def _check_mc_tail(inp: dict, est) -> str | None:
    n, x = inp["n"], inp["x"]
    if est.n != n or est.seed != inp["seed"]:
        return "estimate does not echo n and seed"
    exact = _exact_expectation(inp["spec"], lambda s: (s >= x).astype(float))
    sd = math.sqrt(exact * (1.0 - exact) / n)
    if abs(est.p_hat - exact) > _MC_Z * sd + 1.0 / n:
        return f"p_hat {est.p_hat} vs exact {exact:.6e} (sd {sd:.2e})"
    if abs(est.stderr - math.sqrt(est.p_hat * (1.0 - est.p_hat) / n)) > 1e-12 * est.stderr:
        return "stderr is not sqrt(p(1-p)/n)"
    vpin = bounds.pin(inp["params"], x).value
    if est.p_hat > vpin + 4.0 * est.stderr or exact > vpin * (1.0 + _SLACK):
        return f"tail above pin: p_hat {est.p_hat}, exact {exact:.6e}, pin {vpin:.6e}"
    return None


def _check_mc_expectation(inp: dict, out) -> str | None:
    mean, stderr = out
    f, spec = inp["f"], inp["spec"]
    exact = _exact_expectation(spec, f)
    if abs(mean - exact) > _MC_Z * stderr:
        return f"mean {mean} vs exact {exact:.10e} (stderr {stderr:.2e})"
    bound = _mixture_f(spec, f)
    if exact > bound * (1.0 + _SLACK):
        return f"E f(S) = {exact:.10e} above E f(eta) = {bound:.10e}"
    return None


def _half_atoms(summands):
    """Values and weights of a partial sum over every sign pattern."""
    h = len(summands)
    bits = (np.arange(1 << h)[:, None] >> np.arange(h)) & 1
    a = np.array([rv.a for rv in summands])
    b = np.array([rv.b for rv in summands])
    p_pos = a / (a + b)
    values = bits @ (a + b) - a.sum()
    weights = np.prod(np.where(bits == 1, p_pos, 1.0 - p_pos), axis=1)
    return values, weights


def _check_enumerate(inp: dict, value) -> str | None:
    spec, f = inp["spec"], inp["f"]
    half = len(spec.summands) // 2
    v1, w1 = _half_atoms(spec.summands[:half])
    v2, w2 = _half_atoms(spec.summands[half:])
    exact = float(w1 @ f(v1[:, None] + v2[None, :]) @ w2)
    if abs(value - exact) > 1e-9 * abs(exact):
        return f"{value!r} vs meet-in-the-middle {exact!r}"
    bound = _mixture_f(spec, f)
    if exact > bound * (1.0 + _SLACK):
        return f"E f(S) = {exact:.10e} above E f(eta) = {bound:.10e}"
    return None


_CHECK_MC = {"mc_tail": _check_mc_tail, "mc_expectation": _check_mc_expectation,
             "enumerate": _check_enumerate}
