"""The four workloads: how a seed becomes one cycle of operations.

Every operation is a call into tailbound's public API or its CLI entry
point, looked up through the module attribute at call time so that the
traced run's wrappers see it.  A run repeats the same cycle, so the mix of
work, and the share of known-fault operations in it, is the same in every
run whatever the seed and the run length.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import pools
from tailbound import bounds, cli, distributions, oracle, posmoments

# Samples per Monte Carlo call: one sampler chunk of the oracle.
MC_SAMPLES = 1 << 18
GRID_POINTS = 8
# (eps, theta) strata of a grid cycle; theta = eps sigma^2 / y^2 <= ~4.
_GRID_STRATA = [(e, t) for e in (0.1, 0.3, 0.5, 0.8) for t in (0.1, 1.0, 4.0)] + [(0.65, 2.0)]
# Inputs drawn per grid stratum and parameter sets per Monte Carlo cycle:
# the work of a call jumps between neighbouring inputs, so a cycle averages
# it over several.
GRID_DRAWS = 4
MC_DRAWS = 2


@dataclass
class Op:
    key: str
    kind: str
    inputs: dict
    call: Callable[[], object] = field(repr=False)
    fault: dict | None = None


def build(workload: str, seed: int) -> list[Op]:
    """The cycle of operations of a workload for a seed."""
    if workload == "grid":
        return _grid(seed)
    if workload in ("tails", "routes"):
        return [Op(key, kind, inp, _pool_call(kind, inp), fault)
                for key, kind, inp, fault in pools.cycle(workload, seed)]
    if workload == "montecarlo":
        return _montecarlo(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _grid_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()
    return call


def _grid(seed: int) -> list[Op]:
    rng = random.Random(f"grid/{seed}")
    ops = []
    for (eps0, theta0), draw in ((s, d) for d in range(GRID_DRAWS) for s in _GRID_STRATA):
        eps = eps0 * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))
        theta = theta0 * (1.0 + 0.03 * (2.0 * rng.random() - 1.0))
        sigma = 0.9 + 0.2 * rng.random()
        y = sigma * math.sqrt(eps / theta)
        x_max = sigma * (7.9 + 0.2 * rng.random())
        inputs = dict(sigma=float(f"{sigma:.6g}"), y=float(f"{y:.6g}"),
                      eps=float(f"{eps:.6g}"), x_max=float(f"{x_max:.6g}"),
                      points=GRID_POINTS)
        argv = ["compare", "--sigma", repr(inputs["sigma"]), "--y", repr(inputs["y"]),
                "--eps", repr(inputs["eps"]), "--x-max", repr(inputs["x_max"]),
                "--points", str(GRID_POINTS)]
        ops.append(Op(f"compare.e{eps0}.t{theta0}#{draw}", "compare", inputs,
                      _grid_call(argv)))
    return ops


def _pool_call(kind: str, inp: dict) -> Callable[[], object]:
    if kind == "hp_gap":
        return lambda: oracle.hp_counterexample_gap(inp["p"], inp["a"])
    params = distributions.BoundParams(inp["sigma"], inp["y"], inp["eps"])
    mix = params.mixture()
    if kind == "pin":
        return lambda: bounds.pin(params, inp["x"]).value
    if kind == "be":
        return lambda: bounds.be(params, inp["x"]).value
    if kind == "p_alpha":
        return lambda: bounds.p_alpha(mix, inp["alpha"], inp["x"]).value
    if kind == "lc3":
        return lambda: bounds.lc3_bound(params, inp["x"])
    if kind == "mixture_tail":
        return lambda: distributions.mixture_tail(mix, inp["x"])
    if kind == "pos_moment":
        return lambda: posmoments.pos_moment(mix, inp["w"], inp["alpha"])
    if kind in ("laplace", "charfn"):
        method = getattr(posmoments.PosMomentMethod, kind)()
        return lambda: posmoments.pos_moment(mix, inp["w"], inp["alpha"], method=method)
    raise ValueError(f"unknown operation kind {kind!r}")


def _montecarlo(seed: int) -> list[Op]:
    rng = random.Random(f"montecarlo/{seed}")
    return [op for draw in range(MC_DRAWS) for op in _montecarlo_draw(rng, draw)]


def _montecarlo_draw(rng: random.Random, draw: int) -> list[Op]:
    params = distributions.BoundParams(1.0, 0.75 + 0.1 * rng.random(),
                                       0.22 + 0.06 * rng.random())
    specs = {m: oracle.extremal_sum_spec(params, m) for m in (100, 400, 1600)}
    mc_seed = lambda: rng.getrandbits(32)
    ops = []
    for m, spec in specs.items():
        x = 1.5 + 0.5 * rng.random()
        inputs = dict(params=params, m=m, spec=spec, x=x, n=MC_SAMPLES, seed=mc_seed())
        ops.append(Op(f"mc_tail.m{m}#{draw}", "mc_tail", inputs,
                      lambda i=inputs: oracle.mc_tail(i["spec"], i["x"], i["n"], i["seed"])))
    for m, f in ((400, oracle.TestFunction.power_part(0.5 + rng.random())),
                 (1600, oracle.TestFunction.exponential(0.3 + 0.5 * rng.random()))):
        inputs = dict(params=params, m=m, spec=specs[m], f=f, n=MC_SAMPLES, seed=mc_seed())
        ops.append(Op(f"mc_expectation.m{m}.{f.tag}#{draw}", "mc_expectation", inputs,
                      lambda i=inputs: oracle.mc_expectation(i["spec"], i["f"], i["n"], i["seed"])))
    for n, f in ((16, oracle.TestFunction.power_part(0.2 * rng.random())),
                 (18, oracle.TestFunction.power_part(0.3 * rng.random())),
                 (19, oracle.TestFunction.exponential(0.5 + rng.random())),
                 (20, oracle.TestFunction.exponential(0.5 + rng.random()))):
        spec = oracle.random_sum_spec(n, mc_seed())
        inputs = dict(spec=spec, f=f, n=n)
        ops.append(Op(f"enumerate.n{n}.{f.tag}#{draw}", "enumerate", inputs,
                      lambda i=inputs: oracle.enumerate_expectation(i["spec"], i["f"])))
    return ops

