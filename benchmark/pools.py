"""Input pools of the `tails` and `routes` workloads.

A seeded slot has VARIANTS variants: the base inputs scaled by a factor s
(sigma, y, x and w scale together) with eps jittered by 1%, which moves
every number the program sees.  The run's seed picks PICKS of them, and
the cycle runs each picked variant once.  The work of one call of a root
solver or an adaptive quadrature jumps by up to 2x between neighbouring
inputs, so a cycle averages it over several inputs per slot; with one, the
seed alone would move the figures.  A fixed slot has one variant whatever
the seed: it holds a known fault and is counted as failed while the fault
lasts.  make_refs.py computes an mpmath reference for every variant.

Nothing here imports tailbound, so the reference generator can use it.
"""

from __future__ import annotations

import random

VARIANTS = 12
PICKS = 6
# Range of the scale factors.  The contour routes of `routes` pick their
# abscissa and panels on an absolute scale, so their variants stay close to
# the base inputs.
_SCALES = {"tails": (0.8, 1.25), "routes": (0.98, 1.04)}

# A fault the program shows on a fixed slot.  "raises" names the error class
# and a substring of its message; "wrong" means the value disagrees with the
# mpmath reference.
VANISHED = {"raises": "NumericalError", "match": "vanished"}
WRONG = {"wrong": True}

# kind, inputs.  Keys: sigma, y, eps (budgets), x (tail point), w (moment
# shift), alpha (moment power); hp_gap takes p and a instead.
TAILS = [
    ("pin.t10.x5", "pin", dict(sigma=1, y=0.1, eps=0.1, x=5)),
    ("pin.t10.x12", "pin", dict(sigma=1, y=0.1, eps=0.1, x=12)),
    ("pin.t50.x8", "pin", dict(sigma=1, y=0.1, eps=0.5, x=8)),
    ("pin.t50.x18", "pin", dict(sigma=1, y=0.1, eps=0.5, x=18)),
    ("pin.t90.x4", "pin", dict(sigma=1, y=0.1, eps=0.9, x=4)),
    ("pin.t90.x8", "pin", dict(sigma=1, y=0.1, eps=0.9, x=8)),
    ("pin.t5.x15", "pin", dict(sigma=1, y=0.3, eps=0.5, x=15)),
    ("be.t100.x10", "be", dict(sigma=1, y=0.1, eps=0.5, x=10)),
    ("be.t100.x40", "be", dict(sigma=1, y=0.1, eps=0.5, x=40)),
    ("be.t11.x30", "be", dict(sigma=1, y=0.3, eps=0.5, x=30)),
    ("moment.t50.a3.w4", "pos_moment", dict(sigma=1, y=0.1, eps=0.5, w=4, alpha=3)),
    ("moment.t90.a2.w8", "pos_moment", dict(sigma=1, y=0.1, eps=0.9, w=8, alpha=2)),
    ("moment.t10.a3.w10", "pos_moment", dict(sigma=1, y=0.1, eps=0.1, w=10, alpha=3)),
    ("tail.t90.x20", "mixture_tail", dict(sigma=1, y=0.1, eps=0.9, x=20)),
    ("tail.t10.x30", "mixture_tail", dict(sigma=1, y=0.1, eps=0.1, x=30)),
    ("tail.t5.x12", "mixture_tail", dict(sigma=1, y=0.3, eps=0.5, x=12)),
    ("tail.t50.x15", "mixture_tail", dict(sigma=1, y=0.1, eps=0.5, x=15)),
]

TAILS_FIXED = [
    ("fault.pin.e09.x15", "pin", dict(sigma=1, y=1, eps=0.9, x=15), VANISHED),
    ("fault.pin.e05.x30", "pin", dict(sigma=1, y=1, eps=0.5, x=30), VANISHED),
    ("fault.pin.e01.x40", "pin", dict(sigma=1, y=1, eps=0.1, x=40), VANISHED),
    ("fault.pin.t10.x40", "pin", dict(sigma=1, y=0.1, eps=0.1, x=40), VANISHED),
    # Same cause as the two series faults below, seen through pin: the
    # early stop leaves the moments, and so the bound, ~6e-8 too small.
    ("fault.pin.t10.x20", "pin", dict(sigma=1, y=0.1, eps=0.1, x=20), WRONG),
    ("fault.moment.series.w12", "pos_moment",
     dict(sigma=1, y=0.1, eps=0.9, w=12, alpha=2), WRONG),
    ("fault.moment.series.w14", "pos_moment",
     dict(sigma=1, y=0.1, eps=0.9, w=14, alpha=2), WRONG),
]

ROUTES = [
    ("laplace.a2.w1", "laplace", dict(sigma=1, y=0.5, eps=0.3, w=1, alpha=2)),
    ("laplace.a3.w2", "laplace", dict(sigma=1, y=1, eps=0.1, w=2, alpha=3)),
    ("laplace.a15.w05", "laplace", dict(sigma=1, y=0.3, eps=0.5, w=0.5, alpha=1.5)),
    ("laplace.a25.w3", "laplace", dict(sigma=1, y=0.5, eps=0.7, w=3, alpha=2.5)),
    ("charfn.a2.w1", "charfn", dict(sigma=1, y=0.5, eps=0.3, w=1, alpha=2)),
    ("charfn.a3.w05", "charfn", dict(sigma=1, y=1, eps=0.5, w=0.5, alpha=3)),
    ("charfn.a3.w1", "charfn", dict(sigma=1, y=0.5, eps=0.7, w=1, alpha=3)),
    ("p25.e03.x3", "p_alpha", dict(sigma=1, y=0.5, eps=0.3, x=3, alpha=2.5)),
    ("p25.e01.x2", "p_alpha", dict(sigma=1, y=1, eps=0.1, x=2, alpha=2.5)),
    ("lc3.y05.x3", "lc3", dict(sigma=1, y=0.5, eps=0.3, x=3)),
    ("lc3.y1.x4", "lc3", dict(sigma=1, y=1, eps=0.5, x=4)),
    ("lc3.y03.x2", "lc3", dict(sigma=1, y=0.3, eps=0.1, x=2)),
    ("hp.p25", "hp_gap", dict(p=2.5, a=0.05)),
    ("hp.p28", "hp_gap", dict(p=2.8, a=0.02)),
    ("hp.p3", "hp_gap", dict(p=3.0, a=0.1)),
]

ROUTES_FIXED = [
    # Relative error ~2e-7 here, and ~4e-7 at alpha = 2.75: at fractional
    # alpha the charfn route misses the 1e-8 check with no SlowDecayWarning.
    ("fault.charfn.a25.w2", "charfn", dict(sigma=1, y=0.3, eps=0.5, w=2, alpha=2.5), WRONG),
    ("fault.laplace.w10", "laplace", dict(sigma=1, y=0.1, eps=0.9, w=10, alpha=2), WRONG),
    ("fault.laplace.w12", "laplace", dict(sigma=1, y=0.1, eps=0.9, w=12, alpha=2), WRONG),
]

POOLS = {"tails": (TAILS, TAILS_FIXED), "routes": (ROUTES, ROUTES_FIXED)}


def variant(workload: str, name: str, kind: str, base: dict, i: int) -> dict:
    """Inputs of variant i of a seeded slot."""
    rng = random.Random(f"{name}/{i}")
    jitter = lambda width: 1.0 + width * (2.0 * rng.random() - 1.0)
    if kind == "hp_gap":
        return dict(p=base["p"], a=base["a"] * jitter(0.2))
    lo, hi = _SCALES[workload]
    s = lo + (hi - lo) * i / (VARIANTS - 1)
    out = dict(base)
    out["sigma"] = s * base["sigma"]
    out["y"] = s * base["y"]
    out["eps"] = base["eps"] * jitter(0.01)
    # x and w only scale: a shift of x/y moves the Poisson lattice under
    # the root solver and changes its work by up to half.
    if "x" in base:
        out["x"] = s * base["x"]
    if "w" in base:
        out["w"] = s * base["w"]
    return out


def entries(workload: str):
    """Every (key, kind, inputs, fault) the workload can run, seeded and
    fixed, in slot order; key is "<slot>#<variant>"."""
    seeded, fixed = POOLS[workload]
    for name, kind, base in seeded:
        for i in range(VARIANTS):
            yield f"{name}#{i}", kind, variant(workload, name, kind, base, i), None
    for name, kind, inputs, fault in fixed:
        yield f"{name}#0", kind, dict(inputs), fault


def cycle(workload: str, seed: int):
    """The cycle of a run: PICKS passes over the seeded slots, each with
    its own variant chosen by the seed, then every fixed slot once."""
    rng = random.Random(f"{workload}/{seed}")
    seeded, fixed = POOLS[workload]
    picks = [rng.sample(range(VARIANTS), PICKS) for _ in seeded]
    out = []
    for p in range(PICKS):
        for (name, kind, base), chosen in zip(seeded, picks):
            i = chosen[p]
            out.append((f"{name}#{i}", kind, variant(workload, name, kind, base, i), None))
    for name, kind, inputs, fault in fixed:
        out.append((f"{name}#0", kind, dict(inputs), fault))
    return out
