"""Per-layer tracing by wrappers the benchmark installs around tailbound's
functions.

Each function is wrapped where its caller looks it up (for example
`bounds.solve_t_x`, `posmoments.normal_tail`), so the program itself is
unchanged.  Functions that take milliseconds record a perf_counter span
(name, parent span, start, end); kernels that take microseconds record a
call count only.  A span can also record how many calls of other
functions, and how much time in other spans, happened inside it, which is
how ratios such as series terms per call are measured where the work
happens.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from statistics import median

from tailbound import _quadrature, bounds, cli, distributions, oracle, posmoments, special

_BOUND_CALLS = ("bounds.bh", "bounds.pu", "bounds.be", "bounds.pin", "bounds.ca", "bounds.en")

# name -> (modules whose attribute is replaced, attribute, timed?, watched
# names).  Calls of a watched name made inside the wrapped call are counted,
# and for a timed one also the time spent in the watched name's spans.
_TARGETS = {
    "cli.run": ((cli,), "run", True, _BOUND_CALLS),
    "bounds.bh": ((bounds,), "bh", True, ()),
    "bounds.pu": ((bounds,), "pu", True, ()),
    "bounds.be": ((bounds,), "be", True, ()),
    "bounds.pin": ((bounds,), "pin", True, ()),
    "bounds.ca": ((bounds,), "ca", True, ()),
    "bounds.en": ((bounds,), "en", True, ()),
    "bounds.p_alpha": ((bounds,), "p_alpha", True, ()),
    "bounds.solve_t_x": ((bounds,), "solve_t_x", True, ("bounds.m_function",)),
    "bounds.m_function": ((bounds,), "m_function", False, ()),
    "bounds.lc3_bound": ((bounds,), "lc3_bound", True, ()),
    "posmoments.series": ((posmoments,), "pos_moment_mixture_series", False,
                          ("special.normal_tail",)),
    "posmoments.poisson_local": ((posmoments,), "pos_moment_poisson_local", True, ()),
    "posmoments.laplace": ((posmoments,), "pos_moment_laplace", True,
                           ("distributions.mixture_mgf",)),
    "posmoments.charfn": ((posmoments,), "pos_moment_charfn", True,
                          ("distributions.mixture_mgf",)),
    "distributions.mixture_mgf": ((posmoments,), "mixture_mgf", False, ()),
    "quadrature.adaptive_quad": ((posmoments, _quadrature), "adaptive_quad", False,
                                 ("quadrature.gauss_kronrod_15",)),
    "quadrature.gauss_kronrod_15": ((_quadrature,), "gauss_kronrod_15", False, ()),
    "distributions.mixture_tail": ((distributions,), "mixture_tail", True, ()),
    "special.normal_tail": ((posmoments, distributions, cli), "normal_tail", False, ()),
    "special.poisson_log_tail": ((bounds, special), "poisson_log_tail", False, ()),
    "special.lambert_w0": ((special,), "lambert_w0", False, ()),
    "oracle.mc_tail": ((oracle,), "mc_tail", True, ()),
    "oracle.mc_expectation": ((oracle,), "mc_expectation", True, ()),
    "oracle.enumerate": ((oracle,), "enumerate_expectation", True, ()),
    "oracle.extremal_sum_spec": ((oracle,), "extremal_sum_spec", True, ()),
}


class Recorder:
    """Counts, span times and spans of one traced run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        # "outer>inner" -> calls of inner, or seconds in inner spans, made
        # inside outer
        self.inner_calls: Counter[str] = Counter()
        self.inner_seconds: defaultdict[str, float] = defaultdict(float)
        self.units: Counter[str] = Counter()  # samples / atoms of oracle calls
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (modules, attr, timed, watched) in _TARGETS.items():
            fn = getattr(modules[0], attr)
            wrapper = self._timed(name, fn, watched) if timed else self._counted(name, fn, watched)
            for mod in modules:
                self._originals.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _counted(self, name, fn, watched):
        calls, inner_calls = self.calls, self.inner_calls
        if not watched:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            before = [calls[w] for w in watched]
            try:
                return fn(*args, **kwargs)
            finally:
                for w, b in zip(watched, before):
                    inner_calls[f"{name}>{w}"] += calls[w] - b
        return wrapper

    def _timed(self, name, fn, watched):
        calls, seconds, spans, stack = self.calls, self.seconds, self.spans, self._stack
        inner_calls, inner_seconds, units = self.inner_calls, self.inner_seconds, self.units

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in ("oracle.mc_tail", "oracle.mc_expectation"):
                units[name] += args[2]
            elif name == "oracle.enumerate":
                units[name] += 1 << len(args[0].summands)
            before = [(calls[w], seconds[w]) for w in watched]
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, parent, 0.0, 0.0))
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
                seconds[name] += t1 - t0
                for w, (bc, bs) in zip(watched, before):
                    inner_calls[f"{name}>{w}"] += calls[w] - bc
                    inner_seconds[f"{name}>{w}"] += seconds[w] - bs
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")

    def metrics(self, cycles: int, build: Recorder) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of `cycles` traced cycles; `build` recorded
        the building of the workload's inputs.  Call counts are per cycle,
        so they repeat exactly from run to run."""
        c, s, inner, units = self.calls, self.seconds, self.inner_calls, self.units

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def ms_per_call(name, rec=self):
            return (per(rec.seconds[name], rec.calls[name], 1e3), "ms")

        def per_cycle(name):
            return (per(c[name], cycles), "1/cycle")

        bound_s = sum(self.inner_seconds[f"cli.run>{b}"] for b in _BOUND_CALLS)
        cli_self = per(s["cli.run"] - bound_s, c["cli.run"], 1e3)
        moments = c["posmoments.laplace"] + c["posmoments.charfn"]
        mc_s = s["oracle.mc_tail"] + s["oracle.mc_expectation"]
        mc_n = units["oracle.mc_tail"] + units["oracle.mc_expectation"]
        return {
            "cli.run.self_ms": (cli_self, "ms"),
            "bounds.pin.ms_per_call": ms_per_call("bounds.pin"),
            "bounds.be.ms_per_call": ms_per_call("bounds.be"),
            "bounds.solve_t_x.m_calls_per_solve": (
                per(inner["bounds.solve_t_x>bounds.m_function"], c["bounds.solve_t_x"]), "count"),
            "bounds.p_alpha.ms_per_call": ms_per_call("bounds.p_alpha"),
            "bounds.lc3_bound.ms_per_call": ms_per_call("bounds.lc3_bound"),
            "posmoments.series.calls": per_cycle("posmoments.series"),
            "posmoments.series.terms_per_call": (
                per(inner["posmoments.series>special.normal_tail"], c["posmoments.series"]),
                "count"),
            "posmoments.poisson_local.ms_per_call": ms_per_call("posmoments.poisson_local"),
            "posmoments.laplace.ms_per_call": ms_per_call("posmoments.laplace"),
            "posmoments.charfn.ms_per_call": ms_per_call("posmoments.charfn"),
            "distributions.mixture_mgf.calls_per_moment": (
                per(inner["posmoments.laplace>distributions.mixture_mgf"]
                    + inner["posmoments.charfn>distributions.mixture_mgf"], moments), "count"),
            "quadrature.adaptive_quad.calls": per_cycle("quadrature.adaptive_quad"),
            "quadrature.panels_per_call": (
                per(inner["quadrature.adaptive_quad>quadrature.gauss_kronrod_15"],
                    c["quadrature.adaptive_quad"]), "count"),
            "distributions.mixture_tail.ms_per_call": ms_per_call("distributions.mixture_tail"),
            "special.normal_tail.calls": per_cycle("special.normal_tail"),
            "special.poisson_log_tail.calls": per_cycle("special.poisson_log_tail"),
            "special.lambert_w0.calls": per_cycle("special.lambert_w0"),
            "oracle.mc.samples_per_s": (per(mc_n, mc_s), "1/s"),
            "oracle.enumerate.atoms_per_s": (
                per(units["oracle.enumerate"], s["oracle.enumerate"]), "1/s"),
            "oracle.extremal_sum_spec.ms": ms_per_call("oracle.extremal_sum_spec", build),
        }


def import_times(root, env, repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import time of tailbound and of scipy.optimize within it,
    from `python -X importtime` in fresh interpreters (median of repeats).
    A module that is no longer imported at start-up reads 0."""
    found: dict[str, list[float]] = {"tailbound": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import tailbound, tailbound.cli"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                seen[parts[2]] = int(parts[1]) * 1e-6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {"import.tailbound_s": (median(found["tailbound"]), "s"),
            "import.scipy_optimize_s": (median(found["scipy.optimize"]), "s")}
