"""Command-line front end: evaluate bounds, sweep grids, emit comparison
tables, exercise the extremal construction, and run the validation suites.

All numeric output is CSV on stdout (header row, scientific notation,
12 significant digits by default); diagnostics go to stderr.  Output is
deterministic for fixed flags and seed.
"""

from __future__ import annotations

import functools
import math
import sys

from . import bounds as bd
from .distributions import (BoundParams, MixtureRV, TwoPointRV,
                            two_point_palpha_closed)
from .errors import DomainError, TailboundError
from .posmoments import PosMomentMethod, pos_moment
from .special import normal_tail, poisson_tail

__all__ = ["run", "main"]

# name -> (flags the bound consumes beyond --x, its value at x given the
# parsed flags and the BoundParams built from them).  Each entry looks its
# bound up in `bd` at call time, so a replaced module attribute (a test
# double, a tracing wrapper) takes effect.
_BOUNDS = {
    "bh": (("sigma", "y"), lambda a, p, x: bd.bh(a.sigma, a.y, x).value),
    "pu": (("sigma", "y", "eps"), lambda a, p, x: bd.pu(p, x).value),
    "be": (("sigma", "y"), lambda a, p, x: bd.be(p, x).value),
    "pin": (("sigma", "y", "eps"), lambda a, p, x: bd.pin(p, x).value),
    "ca": (("sigma",), lambda a, p, x: bd.ca(a.sigma, x)),
    "en": (("sigma",), lambda a, p, x: bd.en(a.sigma, x)),
    "ea": ((), lambda a, p, x: bd.ea(x)),
    "lc3": (("sigma", "y", "eps"), lambda a, p, x: bd.lc3_bound(p, x)),
}
_COMPARED = ("bh", "pu", "be", "pin", "ca", "en")
_VS_BH = ("be", "pin", "pu")  # compare's log10(bound / bh) columns


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "digits", 0) < 0:
            raise DomainError(f"--digits must be >= 0, got {args.digits}")
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TailboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first :func:`run` and
    kept: parsing leaves it as it was.  argparse loads here, so importing
    the module does not pay for it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tailbound",
        description="Sharp tail bounds for sums of bounded random variables.")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def add_budgets(p: argparse.ArgumentParser, with_eps: bool = True) -> None:
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--y", type=float, default=None)
        if with_eps:
            p.add_argument("--eps", type=float, default=None)

    p_eval = sub.add_parser("eval", help="evaluate one bound at one point")
    p_eval.add_argument("--bound", required=True, choices=_BOUNDS)
    add_budgets(p_eval)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--digits", type=int, default=12)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate one bound over an x grid")
    p_sweep.add_argument("--bound", required=True, choices=_BOUNDS)
    add_budgets(p_sweep)
    p_sweep.add_argument("--x-min", type=float, required=True)
    p_sweep.add_argument("--x-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--parametric", action="store_true",
                         help="sweep the optimal shift t instead of solving "
                              "it per x (be/pin only)")
    p_sweep.add_argument("--digits", type=int, default=12)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="all bounds side by side")
    add_budgets(p_cmp)
    p_cmp.add_argument("--x-max", type=float, required=True)
    p_cmp.add_argument("--points", type=int, required=True)
    p_cmp.add_argument("--digits", type=int, default=12)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ext = sub.add_parser("extremal",
                           help="near-extremal sum: MC tail vs the Pin bound")
    add_budgets(p_ext)
    p_ext.add_argument("--m", type=int, required=True)
    p_ext.add_argument("--x", type=float, required=True)
    p_ext.add_argument("--samples", type=int, required=True)
    p_ext.add_argument("--seed", type=int, required=True)
    p_ext.add_argument("--digits", type=int, default=12)
    p_ext.set_defaults(func=_cmd_extremal)

    p_val = sub.add_parser("validate", help="run the self-check suite")
    p_val.add_argument("--suite", required=True, choices=("quick", "full"))
    p_val.add_argument("--seed", type=int, required=True)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _fmt(value: float, digits: int) -> str:
    return f"%.{digits}e" % value


def _require(args: argparse.Namespace, needs: tuple[str, ...],
             what: str) -> BoundParams | None:
    """Check the flags in ``needs`` and build BoundParams when y is among
    them (eps defaults to 1/2 where unused)."""
    for name in needs:
        if getattr(args, name, None) is None:
            raise DomainError(f"--{name} is required for {what}")
    if "y" not in needs:
        return None
    return BoundParams(args.sigma, args.y, args.eps if "eps" in needs else 0.5)


def _cmd_eval(args: argparse.Namespace) -> int:
    needs, value_at = _BOUNDS[args.bound]
    params = _require(args, needs, f"--bound {args.bound}")
    value = value_at(args, params, args.x)
    print("value")
    print(_fmt(value, args.digits))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not (args.x_min < args.x_max):
        raise DomainError("--x-min must be below --x-max")
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    needs, value_at = _BOUNDS[args.bound]
    params = _require(args, needs, f"--bound {args.bound}")
    # Rows first, so a failing point leaves stdout empty, not a partial table.
    if args.parametric:
        rows = list(_parametric_rows(args, params))
    else:
        xs = (args.x_min + (args.x_max - args.x_min) * i / (args.points - 1)
              for i in range(args.points))
        rows = [(x, value_at(args, params, x)) for x in xs]
    print("x,value")
    for x, v in rows:
        print(f"{_fmt(x, args.digits)},{_fmt(v, args.digits)}")
    return 0


def _parametric_rows(args: argparse.Namespace, params: BoundParams):
    """Sweep the shift t = u - 1/u on a uniform u grid instead of solving
    t_x per point: each row is (m(t), E(eta-t)_+^a / (m(t)-t)^a), which
    traces the same curve with two root solves total instead of one per
    grid point."""
    if args.bound not in ("be", "pin"):
        raise DomainError("--parametric applies to be and pin only")
    rv, alpha = (params.mixture(), 3.0) if args.bound == "pin" else (params.bentkus(), 2.0)
    if args.x_min <= 0.0:
        raise DomainError("parametric sweeps need 0 < x-min")

    def u_of_x(x: float) -> float:
        t = bd.solve_t_x(rv, alpha, x)
        # invert t = u - 1/u for the positive branch
        return 0.5 * (t + math.sqrt(t * t + 4.0))

    u_lo, u_hi = u_of_x(args.x_min), u_of_x(args.x_max)
    for i in range(args.points):
        u = u_lo + (u_hi - u_lo) * i / (args.points - 1)
        t = u - 1.0 / u
        x = bd.m_function(rv, alpha, t)
        val = min(1.0, pos_moment(rv, t, alpha) / (x - t) ** alpha)
        yield x, val


def _cmd_compare(args: argparse.Namespace) -> int:
    params = _require(args, ("sigma", "y", "eps"), "compare")
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    floor = 1e-300
    rows = []  # all computed before the header, as in sweep
    for i in range(args.points):
        x = args.x_max * i / (args.points - 1)
        v = {name: _BOUNDS[name][1](args, params, x) for name in _COMPARED}
        rows.append([x, *v.values()] + [math.log10(max(v[name], floor) / max(v["bh"], floor))
                                        for name in _VS_BH])
    print(",".join(["x", *_COMPARED, *(f"log10_{name}_bh" for name in _VS_BH)]))
    for row in rows:
        print(",".join(_fmt(val, args.digits) for val in row))
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    # The oracles, and numpy with them, load only for the commands that use them.
    from .oracle import extremal_sum_spec, mc_tail
    params = _require(args, ("sigma", "y", "eps"), "extremal")
    spec = extremal_sum_spec(params, args.m)
    est = mc_tail(spec, args.x, args.samples, args.seed)
    vpin = bd.pin(params, args.x).value
    d = args.digits
    print("m,x,n,seed,p_hat,stderr,pin")
    print(f"{args.m},{_fmt(args.x, d)},{est.n},{est.seed},"
          f"{_fmt(est.p_hat, d)},{_fmt(est.stderr, d)},{_fmt(vpin, d)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not 0 <= args.seed <= 2**64 - 1100:  # the checks also use seed + 1 .. seed + 1099
        raise DomainError(f"--seed must lie in [0, 2^64 - 1100], got {args.seed}")
    checks = _quick_checks(args.seed)
    if args.suite == "full":
        checks += _full_checks(args.seed)
    failures = 0
    print("check,status")
    for name, fn in checks:
        try:
            ok = fn()
        except Exception as exc:  # a crashed check is a failed check
            print(f"{name}: {exc}", file=sys.stderr)
            ok = False
        print(f"{name},{'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    return 0


def _comparison_holds(funcs, cases) -> bool:
    """E f(S) <= E f(eta) for every f in ``funcs`` on the random sum
    random_sum_spec(n, seed) of each (n, seed) in ``cases``."""
    from .oracle import enumerate_expectation, mixture_expectation_f, random_sum_spec
    for n, seed in cases:
        spec = random_sum_spec(n, seed)
        params = spec.aggregate_params()
        for f in funcs:
            lhs = enumerate_expectation(spec, f)
            rhs = mixture_expectation_f(params, f)
            if lhs > rhs * (1.0 + 1e-6):
                return False
    return True


def _quick_checks(seed: int):
    from .oracle import TestFunction, mc_tail, random_sum_spec
    p = BoundParams(1.0, 1.0, 0.5)
    mix = BoundParams(1.0, 1.0, 0.1).mixture()

    def pu_vs_numeric() -> bool:
        for sig in (0.5, 1.0):
            for y in (0.5, 1.0):
                for eps in (0.2, 0.8):
                    pp = BoundParams(sig, y, eps)
                    for x in (0.5, 2.0, 5.0):
                        a = bd.pu(pp, x).value
                        b = bd.pu_numeric(pp, x).value
                        if abs(a - b) > 1e-8 * b:
                            return False
        return True

    def ordering() -> bool:
        pp = BoundParams(1.0, 1.0, 0.3)
        for i in range(8):
            x = 0.5 * (i + 1)
            vbh = bd.bh(1.0, 1.0, x).value
            vpu = bd.pu(pp, x).value
            vpin = bd.pin(pp, x).value
            vbe = bd.be(pp, x).value
            if not (vpin <= vpu * (1 + 1e-8) and vpu <= vbh * (1 + 1e-12)):
                return False
            if not vbe <= min(bd.ca(1.0, x), vbh) * (1 + 1e-8):
                return False
        return True

    def two_point_closed() -> bool:
        tp = TwoPointRV(1.0, 3.0)
        got = bd.p_alpha(tp, 2.0, 1.0).value
        if abs(got - 0.75) > 1e-10:
            return False
        return abs(bd.m_function(tp, 1.2, -1.0) - 3.0) < 1e-9 and \
            abs(two_point_palpha_closed(tp, 2.0, 1.0) - 0.75) < 1e-12

    def posmoment_routes() -> bool:
        ser = pos_moment(mix, 1.0, 3.0, PosMomentMethod.series())
        lap = pos_moment(mix, 1.0, 3.0, PosMomentMethod.laplace())
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chf = pos_moment(mix, 1.0, 3.0, PosMomentMethod.charfn())
        return abs(lap - ser) <= 1e-6 * ser and abs(chf - ser) <= 1e-5 * ser

    def mc_determinism() -> bool:
        spec = random_sum_spec(6, seed)
        a = mc_tail(spec, 0.3, 10_000, seed)
        b = mc_tail(spec, 0.3, 10_000, seed)
        return a.p_hat == b.p_hat and a.stderr == b.stderr

    def split_identity() -> bool:
        x = 2.0
        ax = bd.alpha_x_split(p, x)
        s2e = p.eps * p.sigma**2
        lhs = bd.en(math.sqrt((1 - p.eps)) * p.sigma, (1 - ax) * x) \
            * bd.bh(math.sqrt(s2e), p.y, ax * x).value
        return abs(lhs - bd.pu(p, x).value) <= 1e-8 * lhs

    return [
        ("pu_vs_numeric", pu_vs_numeric),
        ("ordering", ordering),
        ("two_point_closed", two_point_closed),
        ("posmoment_routes", posmoment_routes),
        ("comparison_small", lambda: _comparison_holds(
            [TestFunction.power_part(t) for t in (-1.0, 0.0, 1.0)]
            + [TestFunction.exponential(1.0)],
            [(8, seed + i) for i in range(10)])),
        ("mc_determinism", mc_determinism),
        ("split_identity", split_identity),
    ]


def _full_checks(seed: int):
    from .oracle import (TestFunction, extremal_sum_spec, hp_counterexample_gap,
                         mc_expectation, mc_tail, mixture_expectation_f)
    def tightness() -> bool:
        params = BoundParams(1.0, 1.0, 0.1)
        f = TestFunction.power_part(1.0, 3.0)
        rhs = mixture_expectation_f(params, f)
        gaps = []
        for m in (400, 1600):
            spec = extremal_sum_spec(params, m)
            mean, _ = mc_expectation(spec, f, 10**6, seed)
            gaps.append(abs(mean / rhs - 1.0))
        return gaps[1] < gaps[0] and gaps[1] <= 0.1

    def mc_consistency() -> bool:
        params = BoundParams(1.0, 1.0, 0.1)
        spec = extremal_sum_spec(params, 400)
        est = mc_tail(spec, 3.0, 10**6, seed)
        vpin = bd.pin(params, 3.0).value
        upper = est.p_hat <= vpin + 4.0 * est.stderr
        lower = est.p_hat >= vpin / (1e3 * 3.0**2.5)
        return upper and lower

    def oscillation() -> bool:
        rv = MixtureRV(0.0, 1.0, 0.6)
        x = 15.0 - 0.6
        r1 = bd.p_alpha(rv, 2.0, x).value / poisson_tail(0.6, 15.0)
        r2 = poisson_tail(0.6, 15.0) / (15.0 / 0.6 * poisson_tail(0.6, 16.0))
        return 1.0 <= r1 <= 1.15 and 0.85 <= r2 <= 1.15

    def normal_constant() -> bool:
        rv = MixtureRV(1.0, 1.0, 0.0)
        ratio = bd.p_alpha(rv, 3.0, 8.0).value / normal_tail(1.0, 8.0)
        return 0.9 * bd.c_const(3.0, 0.0) <= ratio <= 1.1 * bd.c_const(3.0, 0.0)

    def u_crossing() -> bool:
        lo, hi = 0.1, 10.0
        g = lambda x: bd.ca(1.0, x) - bd.en(1.0, x)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        return 1.585 < 0.5 * (lo + hi) < 1.586

    def hp_gap() -> bool:
        g_small = hp_counterexample_gap(2.5, 0.01)
        g_big = hp_counterexample_gap(2.5, 0.05)
        pred = (2.0**1.5 - 3.5) * 1e-4
        return g_small < 0.0 and 0.5 < g_small / pred < 2.0 and \
            12.5 < g_big / g_small < 50.0 and \
            hp_counterexample_gap(3.0, 0.01) >= -1e-6

    return [
        ("comparison_full", lambda: _comparison_holds(
            [TestFunction.power_part(t) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
            + [TestFunction.exponential(lam) for lam in (0.5, 1.0, 2.0)],
            [(4 + (i % 9), seed + 1000 + i) for i in range(100)])),
        ("tightness", tightness),
        ("mc_consistency", mc_consistency),
        ("oscillation", oscillation),
        ("normal_constant", normal_constant),
        ("u_crossing", u_crossing),
        ("hp_gap", hp_gap),
    ]


if __name__ == "__main__":
    main()
