#!/usr/bin/env python3
"""logifold benchmark: five seeded workloads, end-to-end and per-layer metrics.

Run one workload (the form `BENCHMARK.json` names):

    python3 perfbench/run.py --workload batch_eval --seed 1 --seconds 15 --trace 0

or every workload, each in its own process, one after another:

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # per-layer run
    python3 perfbench/run.py --workload all --quick              # tiny inputs

A single-workload run prints readable lines, then one ``perfbench-report``
line (environment, sample counts, workload-only metrics), and as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics, with timings
put on a reference machine speed (see speed.py; the wall times as measured
are in the report line); ``--trace 1`` wraps the library's public functions
(see tracing.py), reports per-layer metrics and writes every span to
``perfbench/out/``.  See README.md.
"""

import time

from speed import SpeedLog

_SPEED = SpeedLog()
_SPEED.maybe_probe()  # with the probe after the imports, brackets them
_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("relu_compile", "semilinear_roundtrip", "batch_eval", "grid_cover", "blobs_vote")
PRIMARY_SEED = 1
RECHECK_SEED = 2  # later claims are re-checked on this seed
DEFAULT_SECONDS = 15
QUICK_SECONDS = 0.2
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REPORT_PREFIX = "perfbench-report "
MAX_PROBLEMS = 5  # failure messages kept per run


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap every BLAS/OpenMP pool at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc()
        os.environ[var] = str(min(n, nproc()))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "seed": seed,
            "recheck_seed": RECHECK_SEED, "src_lines": src_lines()}


def tail_rank(n: int) -> int:
    """Index into sorted samples of the tail percentile: the highest with at
    least ten samples, and at least 10% of them, beyond it (so p90 at most,
    which keeps stray machine stalls in a long run from setting it); the
    maximum when that percentile would fall below the median."""
    rank = n - 1 - max(10, math.ceil(0.10 * n))
    return rank if rank >= n // 2 else n - 1


class Measurement:
    """Timed calls of one pass over whole cycles, as (start, seconds)."""

    def __init__(self):
        self.calls = []  # calls completing work items
        self.aux = {}  # other timed calls, by metric name
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cycles = 0

    def record(self, item, t0, dt, problems):
        if item.size:
            self.calls.append((t0, dt))
            self.items += item.size
            self.attempted += item.size
            self.failed += item.size if problems else 0
        else:
            self.aux.setdefault(item.aux_metric, []).append((t0, dt))
            if problems:  # a failed auxiliary call fails the run
                self.attempted += 1
                self.failed += 1
        self.problems += problems[:max(0, MAX_PROBLEMS - len(self.problems))]

    def seconds(self, speed=None):
        """(work-item call seconds, {aux metric: seconds}), on the reference
        speed when a `SpeedLog` is given, else as measured."""
        def f(t0, dt):
            return dt * speed.scale(t0, t0 + dt) if speed else dt

        return ([f(*c) for c in self.calls],
                {k: [f(*c) for c in v] for k, v in self.aux.items()})


def total_seconds(calls, aux) -> float:
    return sum(calls) + sum(sum(v) for v in aux.values())


def measure(run, speed, seconds=None, cycles=None, tracer=None) -> Measurement:
    """Run whole cycles until `seconds` have passed, or exactly `cycles` cycles."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        for item in run.cycle(m.cycles):
            speed.maybe_probe()
            t0 = time.perf_counter()
            try:
                out = item.call()
            except Exception as exc:  # a failing item is counted, never fatal
                m.record(item, t0, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
                continue
            dt = time.perf_counter() - t0
            with tracer.suspended() if tracer else nullcontext():
                try:
                    problems = item.check(out)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            m.record(item, t0, dt, problems)
        m.cycles += 1
        if cycles is not None:
            if m.cycles >= cycles:
                break
        elif m.cycles >= run.min_cycles and time.perf_counter() - start >= seconds:
            break
    speed.maybe_probe()
    return m


def call_metrics(items, calls, aux):
    """items_per_s, call_ms_p50, call_ms_tail and aux medians: {name: (value, unit, n)}."""
    calls = sorted(calls)
    n = len(calls)
    out = {
        "items_per_s": (items / total_seconds(calls, aux), "1/s", items),
        "call_ms_p50": (statistics.median(calls) * 1e3, "ms", n),
        "call_ms_tail": (calls[tail_rank(n)] * 1e3, "ms", n),
    }
    for name, samples in aux.items():
        out[name] = (statistics.median(samples), "s", len(samples))
    return out


END_TO_END = ("setup_s", "items_per_s", "call_ms_p50", "call_ms_tail", "peak_rss_mb")


def traced_run(args, build, speed, report):
    """Per-layer metrics: set up with tracing on, measure half the time
    untraced, then replay the same cycles traced."""
    import tracing
    import workloads

    tracer = tracing.Tracer(extra_modules=[workloads])
    with tracer.installed():
        run = build(args.seed, args.quick)
    plain = measure(run, speed, seconds=args.seconds / 2)
    with tracer.installed():
        traced = measure(run, speed, cycles=plain.cycles, tracer=tracer)

    overhead = total_seconds(*traced.seconds(speed)) / total_seconds(*plain.seconds(speed)) - 1
    metrics = {k: (v, u, None) for k, (v, u) in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = (overhead, "frac", plain.cycles)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(dump, {"workload": args.workload, "seed": args.seed})
    report["trace_file"] = str(dump.relative_to(ROOT))
    return run, metrics, metrics, [plain, traced]


def timed_run(args, build, speed, import_end, report):
    """End-to-end metrics: set up SETUP_REPEATS times, then measure."""
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.maybe_probe()
        t0 = time.perf_counter()
        run = build(args.seed, args.quick)
        setups.append((t0, time.perf_counter() - t0))
    m = measure(run, speed, seconds=args.seconds)
    imports = (_PROCESS_T0, import_end - _PROCESS_T0)
    metrics, raw = {}, {}
    for out, sp in ((metrics, speed), (raw, None)):
        scaled = [dt * speed.scale(t0, t0 + dt) if sp else dt for t0, dt in [imports] + setups]
        out["setup_s"] = (scaled[0] + statistics.median(scaled[1:]), "s", SETUP_REPEATS)
        out.update(call_metrics(m.items, *m.seconds(sp)))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics["fail_frac"] = (m.failed / m.attempted, "frac", m.attempted)
    for name, (value, unit) in run.quality().items():
        metrics[name] = (value, unit, 1)
    n = len(m.calls)
    report["tail_percentile"] = round(100.0 * (tail_rank(n) + 1) / n, 2)
    report["cycles"] = m.cycles
    report["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in raw.items()}
    return run, metrics, {k: metrics[k] for k in END_TO_END}, [m]


def run_workload(args) -> int:
    if not (SRC / "logifold").is_dir():
        sys.exit(f"perfbench: no logifold sources under {SRC}")
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    from logifold.errors import DegenerateHyperplaneWarning

    warnings.simplefilter("ignore", DegenerateHyperplaneWarning)
    import_end = time.perf_counter()
    speed = _SPEED
    speed.maybe_probe()
    build = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "env": environment(args.seed)}
    if args.trace:
        run, metrics, reported, passes = traced_run(args, build, speed, report)
    else:
        run, metrics, reported, passes = timed_run(args, build, speed, import_end, report)
    attempted = sum(m.attempted for m in passes)
    failed = sum(m.failed for m in passes)
    problems = [p for m in passes for p in m.problems]
    report["notes"] = run.notes
    report["speed"] = speed.summary()
    report["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    report["problems"] = problems

    for name, (value, unit, n) in metrics.items():
        samples = "" if n is None else f"  (n={n})"
        print(f"{args.workload:<22} {name:<52} {value:>14.6g} {unit}{samples}")
    for p in problems:
        print(f"{args.workload:<22} FAILED: {p}")
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in reported.items()}}))
    sys.stdout.flush()
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time; prints a summary."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]
                                 if not l.startswith(REPORT_PREFIX)))
        report = next((json.loads(l[len(REPORT_PREFIX):]) for l in lines
                       if l.startswith(REPORT_PREFIX)), None)
        if proc.returncode != 0 or report is None:
            sys.stderr.write(proc.stderr)
            results[name] = {"error": f"exit code {proc.returncode}"}
            ok = False
            continue
        final = json.loads(lines[-1])
        ok &= final["correct"]
        results[name] = {**final, "report": report}
    print(json.dumps({"correct": ok, "seed": args.seed, "trace": args.trace,
                      "quick": args.quick, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PRIMARY_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured time per run (default {DEFAULT_SECONDS}, "
                         f"{QUICK_SECONDS} with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
