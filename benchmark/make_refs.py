"""Regenerate refs.json, the mpmath references of the `tails` and `routes`
workloads.

    python3 benchmark/make_refs.py            # about five minutes on 2 cores

It imports only mpmath and the benchmark's own pools and reference code,
never tailbound.  Before writing, it checks the Gaussian slice formulas
against direct quadrature.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402

import pools  # noqa: E402
import reference as ref  # noqa: E402

OUT = HERE / "refs.json"
DIGITS = 20


def reference_value(kind: str, inp: dict):
    """The quantity an operation of this kind must return (for lc3, the
    tail it must not fall below)."""
    if kind == "hp_gap":
        a = mp.mpf(inp["a"])
        law = ref.mixture_of(mp.sqrt(a), 1, 1 / (1 + a))
        p = mp.mpf(inp["p"])
        return ref.pos_moment(*law, -a, p) - a * (1 + a) ** (p - 1)
    law = ref.mixture_of(inp["sigma"], inp["y"], inp["eps"])
    if kind == "pin":
        return ref.p_alpha(*law, 3, inp["x"])
    if kind == "be":
        return ref.p_alpha(*ref.poisson_of(inp["sigma"], inp["y"]), 2, inp["x"])
    if kind == "p_alpha":
        return ref.p_alpha(*law, inp["alpha"], inp["x"])
    if kind in ("pos_moment", "laplace", "charfn"):
        return ref.pos_moment(*law, inp["w"], inp["alpha"])
    if kind in ("mixture_tail", "lc3"):
        return ref.tail(*law, inp["x"])
    raise ValueError(f"no reference for kind {kind!r}")


def _one(job):
    workload, key, kind, inp = job
    return workload, key, kind, inp, mp.nstr(reference_value(kind, inp), DIGITS)


def self_check() -> None:
    for v, mu in ((0.7, -0.4), (0.3, 1.2), (2.0, 0.1)):
        v, mu = mp.mpf(v), mp.mpf(mu)
        for p in (1, 2, 3, 2.5):
            got = ref._gauss_pos_moment(v, mu, mp.mpf(p))
            quad = mp.quad(lambda z: (mp.sqrt(v) * z + mu) ** p * mp.npdf(z),
                           [-mu / mp.sqrt(v), mp.inf])
            if abs(got - quad) > mp.mpf(10) ** -20 * abs(quad):
                raise SystemExit(f"Gaussian slice check failed: v={v} mu={mu} p={p}")


def main() -> None:
    self_check()
    jobs = [(wl, key, kind, inp) for wl in pools.POOLS
            for key, kind, inp, _ in pools.entries(wl)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = pool.map(_one, jobs, chunksize=1)
    out = {"command": "python3 benchmark/make_refs.py", "digits": DIGITS,
           "workloads": {}}
    for wl, key, kind, inp, value in results:
        out["workloads"].setdefault(wl, {})[key] = {
            "kind": kind, "inputs": inp, "value": value}
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} references to {OUT}")


if __name__ == "__main__":
    main()
