"""Compile random step and relu nets and report forward-pass agreement.

Every sampled point is scored against the exact compiled graph; relu runs
skip points whose top two logits tie within the margin, since indexmax is
genuinely ambiguous there.  Each graph is also checked with `require_valid`,
as `logifold compile` does, and the report line gives the seconds spent
compiling and validating and the graphs' total guards, guard rows and
`walk_regions` regions.

With ``--dims``, every net has those layer widths: each is
``random_network(rng, dims, kind)`` from the same generator, with no
architecture draws.  The relu nets use ``--seed`` + 1, so the first relu
net of ``--seed`` s - 1 is ``random_network(default_rng(s), dims, relu)``,
and these compile the four deep nets of the region audit
(tests/test_sweep_validity.py) one at a time:

    python scripts/compile_random_nets.py --kind relu --count 1 --dims 3,4,4,4,4 --seed 0
    python scripts/compile_random_nets.py --kind relu --count 1 --dims 3,4,4,4,4 --seed 1
    python scripts/compile_random_nets.py --kind relu --count 1 --dims 3,5,5,5,3 --seed 2
    python scripts/compile_random_nets.py --kind relu --count 1 --dims 2,6,6,6,3 --seed 3
"""

import argparse
import time

import numpy as np
from numpy.random import default_rng

from logifold import evaluate_batch
from logifold.cli import _arch, _count
from logifold.graph import require_valid, walk_regions
from logifold.networks import (
    INDEXMAX,
    RELU,
    STEP,
    compile_relu_net,
    compile_step_net,
    forward_logits_batch,
    random_network,
)


def draw_dims(rng) -> list:
    """The sweep's architecture: 1-3 inputs, 1-3 hidden layers of 2-4 units
    and 2-4 outputs."""
    n = int(rng.integers(1, 4))
    hidden = [int(w) for w in rng.integers(2, 5, size=int(rng.integers(1, 4)))]
    return [n] + hidden + [int(rng.integers(2, 5))]


def run_sweep(kind: str, count: int, samples: int, seed: int,
              margin: float, fixed_dims=None) -> None:
    """Compile `count` nets of `kind`, each of widths `fixed_dims`, or of
    drawn widths when it is None, and print one report line."""
    rng = default_rng(seed)
    t0 = time.time()
    mismatches = 0
    checked = 0
    targets = guards = guard_rows = regions = 0
    compile_s = valid_s = 0.0
    for _ in range(count):
        dims = draw_dims(rng) if fixed_dims is None else fixed_dims
        net = random_network(rng, dims, kind, INDEXMAX)
        t = time.perf_counter()
        g = compile_step_net(net) if kind == STEP else compile_relu_net(net)
        compile_s += time.perf_counter() - t
        t = time.perf_counter()
        require_valid(g)
        valid_s += time.perf_counter() - t
        targets += sum(1 for k, v in g.vertices.items() if v == "target")
        guards += len(g.guards)
        guard_rows += sum(guard.rows for guard in g.guards.values())
        regions += sum(1 for _ in walk_regions(g))
        X = rng.normal(scale=2.0, size=(samples, dims[0]))
        z = forward_logits_batch(net, X)
        got = np.fromiter(evaluate_batch(g, X), dtype=object, count=samples)
        top = np.sort(z, axis=1)
        keep = top[:, -1] - top[:, -2] > margin if kind == RELU else np.ones(samples, bool)
        checked += int(np.count_nonzero(keep))
        mismatches += int(np.count_nonzero(keep & (got != np.argmax(z, axis=1))))
    print(f"{kind}: {mismatches} mismatches over {checked} points "
          f"({count} nets, {targets} targets, {guards} guards, {guard_rows} guard rows, "
          f"{regions} regions total), compile {compile_s:.2f}s, require_valid {valid_s:.2f}s, "
          f"{time.time() - t0:.1f}s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=_count, default=50, help="nets per activation")
    ap.add_argument("--samples", type=_count, default=10_000, help="points per net")
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--kind", choices=[STEP, RELU, "both"], default="both")
    ap.add_argument("--margin", type=float, default=1e-9,
                    help="logit-tie exclusion margin for relu")
    ap.add_argument("--dims", type=_arch, default=None,
                    help="comma-separated layer widths of every net (default: drawn)")
    args = ap.parse_args()
    if args.kind in (STEP, "both"):
        run_sweep(STEP, args.count, args.samples, args.seed, args.margin, args.dims)
    if args.kind in (RELU, "both"):
        run_sweep(RELU, args.count, args.samples, args.seed + 1, args.margin, args.dims)


if __name__ == "__main__":
    main()
