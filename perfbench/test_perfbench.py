"""Tests of the benchmark itself (not collected by the repository's test run).

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from logifold import approx, graph, networks, semilinear  # noqa: E402
import logifold  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_ONLY = {"fail_frac": None, "calibrate_s": "blobs_vote",
               "vote_accuracy": "blobs_vote", "cover_boxes": "grid_cover"}


def run_quick(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--quick", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs():
    return {trace: run_quick("--workload", "all", "--trace", str(trace)) for trace in (0, 1)}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["run_seconds"] == bench.DEFAULT_SECONDS
    assert set(bench.WORKLOADS) == set(workloads.WORKLOADS)


def test_quick_run_emits_every_end_to_end_metric(quick_runs):
    summary = quick_runs[0]
    assert summary["correct"]
    for name in bench.WORKLOADS:
        result = summary["workloads"][name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for m in SPEC["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
        reported = result["report"]["metrics"]
        for metric, only in REPORT_ONLY.items():
            assert (metric in reported) == (only in (None, name)), (name, metric)
        assert reported["fail_frac"]["value"] == 0
        assert all(v["samples"] >= 1 for v in reported.values())
        env = result["report"]["env"]
        assert env["src_lines"] > 0 and env["nproc"] >= 1 and env["seed"] == 1


def test_quick_traced_run_emits_every_per_layer_metric(quick_runs):
    summary = quick_runs[1]
    assert summary["correct"]
    for name in bench.WORKLOADS:
        result = summary["workloads"][name]
        assert result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert (ROOT / result["report"]["trace_file"]).is_file()
    layers = {n: summary["workloads"][n]["metrics"] for n in bench.WORKLOADS}
    assert layers["relu_compile"]["networks.compile_relu_net.calls"]["value"] > 0
    assert layers["semilinear_roundtrip"]["feasibility.check_system.calls"]["value"] > 0
    assert layers["batch_eval"]["graph.evaluate_batch.calls"]["value"] > 0
    assert layers["grid_cover"]["graph.evaluate.calls"]["value"] > 0
    assert layers["blobs_vote"]["training.train_sgd.self_s"]["value"] > 0
    assert layers["grid_cover"]["feasibility.find_witness.calls"]["value"] == 0


def test_quality_metrics_repeat_exactly(quick_runs):
    first = quick_runs[0]["workloads"]
    for w, metric in (("grid_cover", "cover_boxes"), ("blobs_vote", "vote_accuracy")):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick", "--workload", w],
                              capture_output=True, text=True, timeout=600, cwd=ROOT)
        line = next(l for l in proc.stdout.splitlines() if l.startswith(bench.REPORT_PREFIX))
        again = json.loads(line[len(bench.REPORT_PREFIX):])["metrics"][metric]["value"]
        assert again == first[w]["report"]["metrics"][metric]["value"]


def test_vectorized_margin_filter_matches_per_point_filter():
    def per_point_keep(net, X):
        keep = []
        for x in X:
            z = np.sort(networks.forward_logits(net, x))
            keep.append(float(z[-1] - z[-2]) > workloads.TIE_MARGIN)
        return np.array(keep)

    seed = bench.PRIMARY_SEED
    for k, dims in enumerate(workloads.RELU_ARCHS):
        rng = workloads.item_rng(seed, k)
        net = networks.random_network(rng, dims, networks.RELU, networks.INDEXMAX)
        X = rng.normal(scale=2.0, size=(2000, dims[0]))
        keep = workloads.logit_margins(net, X) > workloads.TIE_MARGIN
        assert np.array_equal(keep, per_point_keep(net, X))
    # duplicated output rows tie everywhere: both filters drop every point
    rng = np.random.default_rng(seed)
    net = networks.random_network(rng, [2, 3, 2], networks.RELU, networks.INDEXMAX)
    last = net.layers[-1]
    tied = networks.AffineMap(np.vstack([last.matrix[:1]] * 2), np.repeat(last.offset[:1], 2))
    net = networks.NetworkSpec(net.layers[:-1] + [tied], networks.RELU, networks.INDEXMAX)
    X = rng.normal(size=(50, 2))
    keep = workloads.logit_margins(net, X) > workloads.TIE_MARGIN
    assert not keep.any() and np.array_equal(keep, per_point_keep(net, X))


def wrapped_bindings():
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "logifold" or name.startswith("logifold.")):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, tracing.WRAPPED_MARK):
                found.append(f"{name}.{attr}")
            if isinstance(val, type):
                found += [f"{name}.{val.__name__}.{a}" for a, v in vars(val).items()
                          if hasattr(v, tracing.WRAPPED_MARK)]
    return found


def test_tracer_wraps_every_binding_and_restores_them():
    originals = tracing.traced_originals()
    tracer = tracing.Tracer(extra_modules=[workloads])
    with tracer.installed():
        for fn in (semilinear.find_witness, approx.evaluate, logifold.evaluate, graph.evaluate,
                   semilinear.BasicSemilinearSet.is_empty, logifold.compile_relu_net,
                   logifold.ModelChart.outputs):
            assert hasattr(fn, tracing.WRAPPED_MARK), fn
        g = networks.compile_relu_net(networks.random_network(
            np.random.default_rng(0), [2, 3, 2], networks.RELU, networks.INDEXMAX))
        approx.evaluate(g, np.zeros(2))
    assert not wrapped_bindings()
    assert semilinear.find_witness is originals["feasibility.find_witness"]
    assert approx.evaluate is originals["graph.evaluate"]
    assert tracer.calls["networks.compile_relu_net"] == 1
    assert tracer.calls["graph.evaluate"] == 1
    assert tracer.calls["feasibility.find_witness"] > 0
    # self time is span time minus direct children, so it sums to the root spans
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert all(tracer.self_s[n] <= tracer.total_s[n] + 1e-12 for n in tracer.calls)


def test_untraced_run_calls_the_original_functions():
    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    tracer.uninstall()
    wrapper_code = tracer._wrap("probe", len, None).__code__
    original_codes = {fn.__code__: name for name, fn in tracing.traced_originals().items()}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for name in ("relu_compile", "semilinear_roundtrip", "grid_cover"):
            m = bench.measure(workloads.WORKLOADS[name](bench.PRIMARY_SEED, True),
                              speed.SpeedLog(), cycles=1)
            assert m.failed == 0
    finally:
        sys.setprofile(None)
    assert wrapper_code not in called
    seen = {original_codes[c] for c in called if c in original_codes}
    assert {"feasibility.find_witness", "feasibility.check_system", "graph.evaluate",
            "approx.largest_rectangle", "semilinear.is_empty"} <= seen
    assert not tracer.calls


def test_tail_rank():
    assert bench.tail_rank(1) == 0
    assert bench.tail_rank(20) == 19  # the tenth-from-top would sit below the median
    assert bench.tail_rank(21) == 10
    assert bench.tail_rank(100) == 89  # ten samples beyond index 89
    assert bench.tail_rank(1800) == 1619  # capped at p90: 180 samples beyond
