"""Round-trip seeded relu nets through semilinear fibers and time each stage.

Each net is compiled, then taken graph -> fibers (`from_llgraph`) -> graph
(`to_llgraph`) -> fibers again.  One line per net gives the seconds of each
stage, the pieces of the first fiber family, the rebuilt graph's guard
count, its widest guard's rows and its region count, and at how many sample
points the two graphs' `evaluate` and the two families' `label_of` all give
one label.  The script exits 1 if any sample point disagrees.

    python scripts/semilinear_round_trip.py --arch 2,3,3 --seeds 1,2
    python scripts/semilinear_round_trip.py --arch 3,4,3 --seeds 1
"""

import argparse
import sys
import time

from numpy.random import default_rng

from logifold import evaluate
from logifold.cli import _arch, _count
from logifold.networks import RELU, compile_relu_net, random_network
from logifold.semilinear import from_llgraph, to_llgraph


def _seeds(text):
    """Comma-separated net seeds, each an integer of at least 0."""
    try:
        seeds = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"{min(seeds)} is below 0")
    return seeds


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def round_trip(dims, seed: int, samples: int) -> bool:
    """Print one report line for the net of `seed`; whether every point agrees."""
    rng = default_rng(seed)
    net = random_network(rng, dims, RELU)
    g, compile_s = _timed(compile_relu_net, net)
    f, from_s = _timed(from_llgraph, g)
    g2, to_s = _timed(to_llgraph, f)
    f2, back_s = _timed(from_llgraph, g2)
    widest = max((guard.rows for guard in g2.guards.values()), default=0)
    regions = sum(len(s.pieces) for s in f2.fibers.values())
    X = rng.normal(scale=2.0, size=(samples, dims[0]))
    agree = sum(1 for x in X
                if evaluate(g, x) == evaluate(g2, x) == f.label_of(x) == f2.label_of(x))
    print(f"relu {dims} seed {seed}: compile {compile_s:.3f}s, from_llgraph {from_s:.3f}s, "
          f"to_llgraph {to_s:.3f}s, from_llgraph again {back_s:.3f}s; "
          f"{sum(len(s.pieces) for s in f.fibers.values())} pieces; rebuilt graph "
          f"{len(g2.guards)} guards, widest {widest} rows, {regions} regions; "
          f"{agree}/{samples} points agree")
    return agree == samples


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--arch", type=_arch, default="2,3,3", help="comma-separated layer widths")
    ap.add_argument("--seeds", type=_seeds, default="1,2", help="comma-separated net seeds")
    ap.add_argument("--samples", type=_count, default=500, help="sample points per net")
    args = ap.parse_args()
    results = [round_trip(args.arch, s, args.samples) for s in args.seeds]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
