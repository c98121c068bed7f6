"""Benchmark of tailbound's bound stack, end to end and layer by layer.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 benchmark/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke      # every workload once, with checks

Run from a checkout of the repository; the program is imported from its
src/ directory, so nothing is installed.  One run times cold starts in
fresh interpreters (setup_s), builds the workload's cycle of operations from
the seed, warms up, then repeats whole cycles for --seconds and times each
operation from outside the program.  Every output is checked after the
timed phase (checks.py).  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics, the end-to-end ones with
--trace 0 and the per-layer ones, from wrappers around the program's
functions (tracing.py), with --trace 1.  README.md lists the workloads, the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("grid", "tails", "routes", "montecarlo")
# The percentile reported as op_tail_ms: the highest with at least ten
# succeeded operations beyond it in each window of a run of RUN_SECONDS
# (README.md gives the counts).
TAIL_PERCENTILE = {"grid": 95, "tails": 99, "routes": 95, "montecarlo": 90}
RUN_SECONDS = 20.0
WINDOWS = 3
COLD_STARTS = 5
WARMUP_S = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate(repeats: int = 5) -> float:
    """Median ms of a fixed pure-Python loop: a witness of machine speed,
    not program code."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(workload: str, seed: int, starts: int) -> float:
    """Median wall time of fresh interpreters that import tailbound and its
    CLI and build the workload's inputs.  One discarded start first, so
    every timed start finds compiled bytecode, as a user's would."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)]
    times = []
    for i in range(starts + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Outcomes:
    """Per-operation results: the first outcome, whether any later one
    differed, and the latency of every timed call."""

    def __init__(self, n: int) -> None:
        self.first: list = [None] * n
        self.first_repr: list[str | None] = [None] * n
        self.differs = [False] * n
        self.latency: list[list[float]] = [[] for _ in range(n)]

    def record(self, i: int, outcome, dt: float | None) -> None:
        r = repr(outcome)
        if self.first_repr[i] is None:
            self.first[i], self.first_repr[i] = outcome, r
        elif r != self.first_repr[i]:
            self.differs[i] = True
        if dt is not None:
            self.latency[i].append(dt)


def run_cycles(ops, outcomes: Outcomes, seconds: float, timed: bool) -> list[float]:
    """Whole cycles until `seconds` have passed (at least one); returns the
    duration of each."""
    durations = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                outcome = ("ok", op.call())
            except Exception as exc:  # a failed operation is counted, not fatal
                outcome = ("raise", type(exc).__name__, str(exc))
            dt = time.perf_counter() - t0
            outcomes.record(i, outcome, dt if timed else None)
        now = time.perf_counter()
        durations.append(now - cycle_start)
        if now - start >= seconds:
            return durations


def classify(op, outcome, differs: bool, check) -> tuple[str, str | None]:
    """("ok" | "known" | "unexpected", reason).  "known" is a fault the
    slot is declared to have, failing for its declared reason."""
    fault = op.fault or {}
    if differs:
        return "unexpected", "repeated calls gave different outputs"
    if outcome[0] == "raise":
        _, name, msg = outcome
        if fault.get("raises") == name and fault.get("match", "") in msg:
            return "known", f"{name}: {msg}"
        return "unexpected", f"{name}: {msg}"
    reason = check(op, outcome[1])
    if reason is None:
        return "ok", None
    return ("known" if fault.get("wrong") else "unexpected"), reason


def _windows(cycles: int) -> list[tuple[int, int]]:
    """WINDOWS runs of consecutive cycles, as [start, end) cycle indices."""
    n = min(WINDOWS, cycles)
    return [(w * cycles // n, (w + 1) * cycles // n) for w in range(n)]


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of values beyond it."""
    vals = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(vals)) - 1)
    return vals[k], len(vals) - k - 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 cold_starts: int = COLD_STARTS, import_repeats: int = 3) -> tuple[dict, dict]:
    """One run: the result line and the details written to OUT."""
    calib_before = calibrate()
    setup_s = None if trace else measure_setup(workload, seed, cold_starts)

    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import tracing
    import workloads

    rec = tracing.Recorder() if trace else None
    build_rec = tracing.Recorder() if trace else None
    if build_rec:
        build_rec.install()
    ops = workloads.build(workload, seed)
    if build_rec:
        build_rec.uninstall()
    refs = checks.load_refs(workload)
    outcomes = Outcomes(len(ops))
    run_cycles(ops, outcomes, WARMUP_S, timed=False)
    # The runner's own objects (references, modules) should not make the
    # program's garbage collections slower.
    gc.collect()
    gc.freeze()

    if not trace:
        durations = run_cycles(ops, outcomes, seconds, timed=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain = run_cycles(ops, outcomes, seconds / 2, timed=True)
        rec.install()
        try:
            traced = run_cycles(ops, outcomes, seconds / 2, timed=True)
        finally:
            rec.uninstall()
        durations = plain + traced
    calib_after = calibrate()
    cycles = len(durations)

    status = [classify(op, outcomes.first[i], outcomes.differs[i],
                       lambda op, out: checks.check(op, out, refs))
              for i, op in enumerate(ops)]
    ok = [i for i, (s, _) in enumerate(status) if s == "ok"]
    attempted = cycles * len(ops)
    failed = cycles * (len(ops) - len(ok))
    correct = all(s != "unexpected" for s, _ in status)

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": cycles, "ops_per_cycle": len(ops), "elapsed_s": sum(durations),
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "ops": {op.key: {"status": s, "reason": r,
                         "median_ms": (statistics.median(outcomes.latency[i]) * 1e3
                                       if outcomes.latency[i] else None)}
                for i, (op, (s, r)) in enumerate(zip(ops, status))},
    }
    if not ok:
        raise SystemExit(f"error: no operation of {workload} succeeded")
    if not trace:
        q = TAIL_PERCENTILE[workload]
        windows = [[dt for i in ok for dt in outcomes.latency[i][a:b]]
                   for a, b in _windows(cycles)]
        tails = [percentile(lat, q) for lat in windows]
        details["tail"] = {"percentile": q, "windows": len(windows),
                           "succeeded": sum(map(len, windows)),
                           "beyond_per_window": min(n for _, n in tails)}
        # Succeeded operations of a cycle over the median cycle time, and
        # latency quantiles as medians over windows of the run: a burst of
        # host contention moves a few cycles or one window, not the figure.
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ok) / statistics.median(durations), "op/s"),
            "op_p50_ms": (statistics.median(statistics.median(w) for w in windows) * 1e3, "ms"),
            "op_tail_ms": (statistics.median(t for t, _ in tails) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = rec.metrics(len(traced), build_rec)
        metrics.update(tracing.import_times(ROOT, child_env(), import_repeats))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        metrics["machine.calib_ms"] = (statistics.median([calib_before, calib_after]), "ms")
        details["spans"] = len(rec.spans)
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if rec:
        rec.write_spans(OUT / f"{stem}.spans.jsonl")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def smoke(seed: int) -> int:
    """Every workload once, untraced and traced, with all checks; exit 0
    only if every output is correct."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            res, details = run_workload(workload, seed, 0.0, trace, cold_starts=1,
                                        import_repeats=1)
            print(f"{workload:10s} trace={int(trace)} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, op in details["ops"].items():
                if op["status"] != "ok":
                    print(f"    {op['status']:10s} {key}: {op['reason']}")
            bad += not res["correct"]
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once with its checks")
    args = parser.parse_args()
    # The benchmark command sets these too; numpy reads them when imported.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "tailbound" / "__init__.py").is_file():
        print(f"error: {SRC / 'tailbound'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
