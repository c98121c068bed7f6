"""The command-line front end: grammar, CSV contracts, determinism."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import tailbound
from tailbound import BoundParams, NumericalError, bh, bounds, pin, pu
from tailbound.cli import run


def _csv(capsys):
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert run(["eval", "--help"]) == 0


def test_unknown_command_is_usage_error(capsys):
    assert run(["plot", "--x", "1"]) == 2


def test_eval_trivial_point(capsys):
    assert run(["eval", "--bound", "bh", "--sigma", "1", "--y", "1",
                "--x", "0"]) == 0
    header, rows = _csv(capsys)
    assert header == ["value"]
    assert float(rows[0][0]) == 1.0


def test_eval_value_round_trips_at_twelve_digits(capsys):
    assert run(["eval", "--bound", "pu", "--sigma", "1", "--y", "1",
                "--eps", "0.5", "--x", "1"]) == 0
    _, rows = _csv(capsys)
    direct = pu(BoundParams(1.0, 1.0, 0.5), 1.0).value
    assert float(rows[0][0]) == pytest.approx(direct, rel=1e-11)


def test_eval_digits_flag(capsys):
    assert run(["eval", "--bound", "bh", "--sigma", "1", "--y", "1",
                "--x", "0", "--digits", "3"]) == 0
    _, rows = _csv(capsys)
    assert rows[0][0] == "1.000e+00"


def test_eval_each_bound_reachable(capsys):
    common = ["--sigma", "1", "--y", "1", "--eps", "0.3", "--x", "2"]
    for bound in ("bh", "pu", "be", "pin", "ca", "en", "ea", "lc3"):
        assert run(["eval", "--bound", bound] + common) == 0
        _, rows = _csv(capsys)
        assert 0.0 <= float(rows[0][0]) <= 1.0


@pytest.mark.parametrize("bound, flag", [
    ("bh", "sigma"), ("bh", "y"),
    ("pu", "sigma"), ("pu", "y"), ("pu", "eps"),
    ("be", "sigma"), ("be", "y"),
    ("pin", "sigma"), ("pin", "y"), ("pin", "eps"),
    ("ca", "sigma"), ("en", "sigma"),
    ("lc3", "sigma"), ("lc3", "y"), ("lc3", "eps"),
])
def test_eval_missing_flag_is_usage_error(capsys, bound, flag):
    flags = {"sigma": "1", "y": "1", "eps": "0.3"}
    del flags[flag]
    argv = ["eval", "--bound", bound, "--x", "1"]
    for name, val in flags.items():
        argv += [f"--{name}", val]
    assert run(argv) == 2
    assert f"--{flag} " in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan", "inf"])
@pytest.mark.parametrize("bound", ["bh", "pu", "be", "pin", "ca", "en", "ea", "lc3"])
def test_eval_non_finite_x_is_usage_error(capsys, bound, x):
    assert run(["eval", "--bound", bound, "--sigma", "1", "--y", "1",
                "--eps", "0.3", "--x", x]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--bound", "ca", "--sigma", "1", "--x", "1"],
    ["sweep", "--bound", "ca", "--sigma", "1", "--x-min", "0", "--x-max", "1",
     "--points", "3"],
    ["compare", "--sigma", "1", "--y", "1", "--eps", "0.3", "--x-max", "1",
     "--points", "3"],
])
def test_negative_digits_is_usage_error(capsys, argv):
    assert run(argv + ["--digits", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --digits must be >= 0, got -1\n"


def test_eval_numerical_failure_exits_one(capsys):
    # At x = 50 the moments behind pin's m(t) underflow ("vanished").
    assert run(["eval", "--bound", "pin", "--sigma", "1", "--y", "0.1",
                "--eps", "0.1", "--x", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_eval_overflowing_moments_exit_one(capsys):
    # At sigma = y = 1e110 the third moments behind pin overflow a double:
    # a RangeError, which exits 1 like every numerical failure.
    assert run(["eval", "--bound", "pin", "--sigma", "1e110", "--y", "1e110",
                "--eps", "0.5", "--x", "2e110"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows a double" in captured.err


def _subprocess_env() -> dict:
    # A fresh interpreter that imports this checkout's tailbound.
    src = str(pathlib.Path(tailbound.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_runs_with_scipy_blocked():
    # scipy is a test-only oracle: every command must run in an interpreter
    # where importing it fails.
    budgets = ["--sigma", "1", "--y", "1", "--eps", "0.1"]
    commands = [["eval", "--bound", b, *budgets, "--x", "3"]
                for b in ("pin", "be", "pu", "ea")]
    commands += [["extremal", *budgets, "--m", "50", "--x", "1",
                  "--samples", "2000", "--seed", "11"],
                 ["validate", "--suite", "quick", "--seed", "1"]]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from tailbound.cli import run\n"
            f"codes = [run(argv) for argv in {commands!r}]\n"
            "print(codes, file=sys.stderr); sys.exit(any(codes))")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_eval():
    argv = ["eval", "--bound", "bh", "--sigma", "1", "--y", "1", "--x", "1"]
    proc = subprocess.run([sys.executable, "-m", "tailbound.cli", *argv],
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"value\n{bh(1.0, 1.0, 1.0).value:.12e}\n"


def test_eval_domain_error_maps_to_two(capsys):
    assert run(["eval", "--bound", "bh", "--sigma", "-1", "--y", "1",
                "--x", "1"]) == 2


def test_sweep_linear_grid(capsys):
    assert run(["sweep", "--bound", "bh", "--sigma", "1", "--y", "1",
                "--x-min", "0", "--x-max", "2", "--points", "5"]) == 0
    header, rows = _csv(capsys)
    assert header == ["x", "value"]
    assert len(rows) == 5
    xs = [float(r[0]) for r in rows]
    assert xs == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)
    for x, v in zip(xs, (float(r[1]) for r in rows)):
        assert v == pytest.approx(bh(1.0, 1.0, x).value, rel=1e-11)


def test_sweep_rejects_bad_grid(capsys):
    base = ["sweep", "--bound", "bh", "--sigma", "1", "--y", "1"]
    assert run(base + ["--x-min", "2", "--x-max", "1", "--points", "5"]) == 2
    assert run(base + ["--x-min", "0", "--x-max", "1", "--points", "1"]) == 2


def test_sweep_failing_row_prints_nothing(capsys):
    # ea rejects x = 0, the first point of this grid.
    assert run(["sweep", "--bound", "ea", "--x-min", "0", "--x-max", "2",
                "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_sweep_parametric_traces_pin(capsys):
    assert run(["sweep", "--bound", "pin", "--sigma", "1", "--y", "1",
                "--eps", "0.1", "--x-min", "0.5", "--x-max", "4",
                "--points", "9", "--parametric"]) == 0
    _, rows = _csv(capsys)
    assert len(rows) == 9
    xs = [float(r[0]) for r in rows]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert xs[0] == pytest.approx(0.5, rel=1e-8)
    assert xs[-1] == pytest.approx(4.0, rel=1e-8)
    params = BoundParams(1.0, 1.0, 0.1)
    for x, v in zip(xs, (float(r[1]) for r in rows)):
        # Each parametric row sits exactly on the solved curve.
        assert v == pytest.approx(pin(params, x).value, rel=1e-6)


def test_sweep_parametric_limits(capsys):
    base = ["sweep", "--sigma", "1", "--y", "1", "--eps", "0.1",
            "--points", "4", "--parametric"]
    assert run(["sweep", "--bound", "bh", "--sigma", "1", "--y", "1",
                "--x-min", "1", "--x-max", "2", "--points", "4",
                "--parametric"]) == 2
    assert run(base[:1] + ["--bound", "pin"] + base[1:] +
               ["--x-min", "0", "--x-max", "2"]) == 2


def test_compare_table_contract(capsys):
    argv = ["compare", "--sigma", "1", "--y", "1", "--eps", "0.1",
            "--x-max", "4", "--points", "9"]
    assert run(argv) == 0
    header, rows = _csv(capsys)
    assert header == ["x", "bh", "pu", "be", "pin", "ca", "en",
                      "log10_be_bh", "log10_pin_bh", "log10_pu_bh"]
    assert len(rows) == 9
    for r in rows:
        x, vbh, vpu, vbe, vpin, vca, ven = (float(c) for c in r[:7])
        # Row-by-row ordering chain.
        assert vpin <= vpu * (1.0 + 1e-8)
        assert vpu <= vbh * (1.0 + 1e-10)
        assert vbe <= min(vca, vbh) * (1.0 + 1e-8)
        if vbh > 1e-290 and vbe > 1e-290:
            assert float(r[7]) == pytest.approx(math.log10(vbe / vbh),
                                                abs=1e-9)


def test_compare_failing_row_prints_nothing(capsys, monkeypatch):
    def pin_failing_late(params, x, **kwargs):
        if x > 2.0:
            raise NumericalError("deep point")
        return pin(params, x, **kwargs)

    monkeypatch.setattr(bounds, "pin", pin_failing_late)
    assert run(["compare", "--sigma", "1", "--y", "1", "--eps", "0.1",
                "--x-max", "4", "--points", "5"]) == 1
    assert capsys.readouterr().out == ""


def test_compare_requires_full_triple(capsys):
    assert run(["compare", "--sigma", "1", "--y", "1", "--x-max", "4",
                "--points", "5"]) == 2


def test_compare_byte_identical_reruns(capsys):
    argv = ["compare", "--sigma", "1", "--y", "0.5", "--eps", "0.4",
            "--x-max", "3", "--points", "7"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_extremal_deterministic(capsys):
    argv = ["extremal", "--sigma", "1", "--y", "1", "--eps", "0.1",
            "--m", "50", "--x", "1", "--samples", "2000", "--seed", "11"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert lines[0] == "m,x,n,seed,p_hat,stderr,pin"
    row = lines[1].split(",")
    assert row[0] == "50"
    assert int(row[2]) == 2000
    assert int(row[3]) == 11
    assert 0.0 <= float(row[4]) <= 1.0


def test_extremal_negative_seed_is_usage_error(capsys):
    assert run(["extremal", "--sigma", "1", "--y", "1", "--eps", "0.1",
                "--m", "50", "--x", "1", "--samples", "2000",
                "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be an integer in [0, 2^64), got -1\n"


def test_extremal_reports_construction_failure(capsys):
    assert run(["extremal", "--sigma", "1", "--y", "0.1", "--eps", "0.9",
                "--m", "1", "--x", "1", "--samples", "2000",
                "--seed", "1"]) == 1


def test_validate_quick_suite(capsys):
    assert run(["validate", "--suite", "quick", "--seed", "7"]) == 0
    header, rows = _csv(capsys)
    assert header == ["check", "status"]
    assert len(rows) == 7
    assert all(r[1] == "pass" for r in rows)


@pytest.mark.parametrize("seed", [-1, 2**64 - 1099])
def test_validate_out_of_range_seed_is_usage_error(capsys, seed):
    # The checks seed samplers with up to seed + 1099, which must be < 2^64.
    assert run(["validate", "--suite", "quick", "--seed", str(seed)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --seed must lie in [0, 2^64 - 1100], got {seed}\n"


def test_validate_accepts_top_seed(capsys):
    assert run(["validate", "--suite", "quick", "--seed", str(2**64 - 1100)]) == 0


def test_validate_full_suite(capsys):
    assert run(["validate", "--suite", "full", "--seed", "7"]) == 0
    _, rows = _csv(capsys)
    assert len(rows) == 14
    assert all(r[1] == "pass" for r in rows)


def test_parser_is_built_once_and_reused(capsys):
    # run builds its parser on the first call and keeps it: a run after a
    # usage error, and after other commands, prints what a fresh
    # interpreter prints.
    from tailbound import cli
    budgets = ["--sigma", "1", "--y", "1", "--eps", "0.1"]
    argvs = [["eval", "--bound", "pin", *budgets, "--x", "3"],
             ["eval", "--bound", "pin", *budgets, "--x"],
             ["compare", *budgets, "--x-max", "4", "--points", "5"],
             ["eval", "--bound", "pin", *budgets, "--x", "3"]]
    got = []
    for argv in argvs:
        code = run(argv)
        got.append((code, capsys.readouterr().out))
    assert [code for code, _ in got] == [0, 2, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    for argv, want in zip(argvs, got):
        proc = subprocess.run([sys.executable, "-m", "tailbound.cli", *argv],
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == want


def test_bound_commands_run_with_numpy_blocked():
    # numpy serves only the oracles (extremal, validate): eval, sweep and
    # compare run in an interpreter where importing it fails.
    budgets = ["--sigma", "1", "--y", "1", "--eps", "0.1"]
    commands = [["eval", "--bound", b, *budgets, "--x", "3"] for b in ("pin", "be", "lc3")]
    commands += [["sweep", "--bound", "pin", *budgets, "--x-min", "1", "--x-max", "4",
                  "--points", "4", "--parametric"],
                 ["compare", *budgets, "--x-max", "4", "--points", "5"]]
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from tailbound.cli import run\n"
            f"codes = [run(argv) for argv in {commands!r}]\n"
            "print(codes, file=sys.stderr); sys.exit(any(codes))")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_bounds_leaves_numpy_out():
    # The oracle names of the package load on first use, numpy with them.
    code = ("import sys, tailbound.bounds, tailbound.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "from tailbound import mc_tail\n"
            "assert 'numpy' in sys.modules and mc_tail.__module__ == 'tailbound.oracle'")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
