"""Smoke test: every script under scripts/ runs to completion on its smallest inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logifold

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(logifold.__file__).resolve().parents[1]

RUNS = [
    ["compile_random_nets.py", "--count", "2", "--samples", "200"],
    ["approx_diagonal_grid.py", "--resolution", "8", "--depth", "2"],
    ["end_to_end_blobs.py", "--n", "300", "--epochs", "5"],
    ["semilinear_round_trip.py", "--arch", "2,3,3", "--seeds", "1,2", "--samples", "50"],
]


def test_every_script_has_a_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(r[0] for r in RUNS)


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)


@pytest.mark.parametrize("argv", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("argv", [
    ["end_to_end_blobs.py", "--n", "-5"],
    ["compile_random_nets.py", "--samples", "-1"],
], ids=["n", "samples"])
def test_a_bad_count_exits_2_without_a_traceback(argv):
    proc = run_script(argv)
    assert proc.returncode == 2
    assert f"error: argument {argv[1]}: {argv[2]} is below 1" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("argv, detail", [
    (["semilinear_round_trip.py", "--seeds", "a"], "'a' is not a list of integers"),
    (["semilinear_round_trip.py", "--seeds", "1,-2"], "-2 is below 0"),
    (["semilinear_round_trip.py", "--arch", "2"], "'2' names fewer than two widths"),
    (["approx_diagonal_grid.py", "--epsilon-frac", "nan"], "'nan' is not a number"),
    (["compile_random_nets.py", "--dims", "3"], "'3' names fewer than two widths"),
    (["compile_random_nets.py", "--dims", "3,a,2"], "'a' is not an integer"),
    (["compile_random_nets.py", "--dims", "3,0,2"], "0 is below 1"),
], ids=["seeds", "negative-seed", "arch", "nan-bound", "dims", "dims-word", "dims-zero"])
def test_a_bad_list_exits_2_without_a_traceback(argv, detail):
    proc = run_script(argv)
    assert proc.returncode == 2
    assert f"error: argument {argv[1]}: {detail}" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_the_relu_sweep_report_gives_its_regions():
    # the acceptance gates' relu sweep: seed 20240902, 50 nets, 10,000 points each
    proc = run_script(["compile_random_nets.py", "--kind", "relu"])
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"relu: 0 mismatches over 500000 points \(50 nets, \d+ targets, "
                    r"\d+ guards, \d+ guard rows, 935 regions total\), compile ", proc.stdout)


def test_the_semilinear_report_gives_the_rebuilt_graphs_guards_and_regions():
    proc = run_script(["semilinear_round_trip.py", "--arch", "3,4,3", "--seeds", "1",
                       "--samples", "50"])
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"relu \[3, 4, 3\] seed 1: compile [\d.]+s, .*; 37 pieces; rebuilt graph "
                    r"\d+ guards, widest [12] rows, \d+ regions; 50/50 points agree$", proc.stdout)


def test_fixed_dims_compile_the_region_audits_first_deep_net():
    # relu nets use --seed + 1: this is random_network(default_rng(1), [3, 4, 4, 4, 4], relu)
    proc = run_script(["compile_random_nets.py", "--kind", "relu", "--count", "1",
                       "--samples", "200", "--dims", "3,4,4,4,4", "--seed", "0"])
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"relu: 0 mismatches over \d+ points \(1 nets, \d+ targets, "
                    r"\d+ guards, \d+ guard rows, 161 regions total\), compile ", proc.stdout)


def test_the_grid_report_times_the_tree_and_its_batch_program():
    proc = run_script(["approx_diagonal_grid.py", "--resolution", "8", "--depth", "2"])
    assert proc.returncode == 0, proc.stderr
    line = re.search(r"^cover graph: \d+ guards, at most \d+ on a path, "
                     r"tree built in \d+\.\d{3} ms, batch program built in \d+\.\d{3} ms, "
                     r"(\d+) steps, cell centres walked in \d+\.\d{3} ms$",
                     proc.stdout, re.MULTILINE)
    assert line, proc.stdout
    assert line.group(1) == "4"  # the fused tree and the targets "lo", "hi" and "*"


def test_the_blobs_report_times_one_history_vote():
    proc = run_script(["end_to_end_blobs.py", "--n", "300", "--epochs", "5"])
    assert proc.returncode == 0, proc.stderr
    # the generalist's body, shared by both specialists, is the only one
    assert re.search(r"^one history vote: \d+\.\d us warm median over 60 test instances; "
                     r"body passes per vote: 1$", proc.stdout, re.MULTILINE), proc.stdout


def test_an_infinite_bound_needs_no_box():
    proc = run_script(["approx_diagonal_grid.py", "--resolution", "8", "--depth", "2",
                       "--epsilon-frac", "inf"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("single cover: 0 boxes")
