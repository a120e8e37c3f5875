"""Cover the diagonal split of the unit square with axis boxes.

First pass: one cover at a fixed leftover bound, with the size of its cover
graph (the guard count and the most guards on one source-to-target path), the
time to build that graph (the k-d tree over the boxes), the time to build the
batch program that `evaluate_batch` walks it with, that program's step count,
and the time of a warm `evaluate_batch` call on the labeled cells' centres.
Second pass: repeat on the leftover cells with the bound halved each round
until nothing is left.
"""

import argparse
import math
import time

import numpy as np

from logifold.approx import (
    _cover_graph,
    approximate,
    chart_family,
    evaluate_batch,
    grid_from_function,
    mismatch_measure,
)
from logifold.cli import _count
from logifold.graph import _batch_program, graph_from_dict, graph_to_dict, topological_order


def _fraction(text):
    """A number that is not NaN; `inf` leaves every cell uncovered."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if math.isnan(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return v


def longest_guard_path(g) -> int:
    """Most guards on one source-to-target path of the graph g."""
    most = {}
    for v in reversed(topological_order(g)):
        after = [most[g.arrows[a].dst] for a in g.out_arrows[v]]
        most[v] = (v in g.guards) + max(after, default=0)
    return most[g.source]


def tree_build_ms(grid, rectangles, repeats: int = 5) -> float:
    """Fastest of `repeats` builds of the cover graph over `rectangles`, in ms."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _cover_graph(grid, rectangles)
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


def program_build_ms(g, repeats: int = 5) -> float:
    """Fastest of `repeats` builds of g's batch program, in ms, each on a
    fresh copy of g."""
    best = float("inf")
    for _ in range(repeats):
        fresh = graph_from_dict(graph_to_dict(g))
        t0 = time.perf_counter()
        _batch_program(fresh)
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


def centres_walk_ms(g, grid, repeats: int = 5) -> float:
    """Fastest of `repeats` warm `evaluate_batch` calls of g on the centres
    of the grid's labeled cells, in ms; g's batch program is built first."""
    centres = grid.center(np.argwhere(grid.labeled_mask()))
    evaluate_batch(g, centres)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluate_batch(g, centres)
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=_count, default=32, help="cells per axis")
    ap.add_argument("--epsilon-frac", type=_fraction, default=0.1,
                    help="leftover bound as a fraction of the labeled measure")
    ap.add_argument("--depth", type=_count, default=6, help="halving rounds")
    args = ap.parse_args()

    grid = grid_from_function(lambda p: int(p[1] >= p[0]),
                              [0.0, 0.0], [1.0, 1.0], args.resolution)
    mu = grid.labeled_measure()
    eps = args.epsilon_frac * mu

    cover = approximate(grid, eps)
    wrong, fallback = mismatch_measure(cover, grid)
    print(f"single cover: {len(cover.rectangles)} boxes, "
          f"residual {cover.residual_measure:.4f} (bound {eps:.4f}), "
          f"wrong measure {wrong}, fallback measure {fallback}")
    print(f"cover graph: {len(cover.graph.guards)} guards, "
          f"at most {longest_guard_path(cover.graph)} on a path, "
          f"tree built in {tree_build_ms(grid, cover.rectangles):.3f} ms, "
          f"batch program built in {program_build_ms(cover.graph):.3f} ms, "
          f"{len(_batch_program(cover.graph).steps)} steps, "
          f"cell centres walked in {centres_walk_ms(cover.graph, grid):.3f} ms")

    family = chart_family(grid, eps0=mu / args.resolution, depth=args.depth)
    for r in family.charts:
        print(f"round {r.index}: bound {r.epsilon:.5f}, "
              f"{len(r.chart.rectangles)} boxes, "
              f"round residual {r.chart.residual_measure:.5f}")
    print(f"family residual after {len(family.charts)} rounds: "
          f"{family.final_residual}")


if __name__ == "__main__":
    main()
