"""The five benchmark workloads and the independent checks of their outputs.

Each workload builds its inputs from the seed alone and hands the library
only those inputs.  Work is organised in cycles: a cycle is a fixed mix of
items, and a run always ends on a cycle boundary, so every run measures the
same mix.  Inputs of item ``i`` come from ``default_rng([seed, i])``, which
makes any cycle reproducible on its own (the traced run replays the cycles of
its untraced pass).

An item's ``call`` is the timed top-level call; its ``check`` runs untimed and
returns a list of problems, empty when every output agrees with its
reference.  References never come from the function being timed:

- compiled labels: ``forward_classical_batch`` of the network, skipping
  points whose top-two logit margin is within ``TIE_MARGIN``;
- fuzzy states: ``forward_smooth`` of the softmax twin, within 1e-9;
- semilinear round trips: ``evaluate`` on both graphs, ``label_of`` on both
  functions and the step network's forward pass agree at every point;
- ``check_system``: witnesses satisfy every row exactly, refutations carry a
  derived constant row;
- grid covers: the first rectangle holding each cell center carries that
  cell's label, and ``mismatch_measure`` reports nothing wrong or uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from logifold import (approx, ensemble, feasibility, fuzzy, graph, networks, semilinear,
                      training, voting)
from logifold.networks import INDEXMAX, RELU, SIGMOID, SOFTMAX, STEP, NetworkSpec

TIE_MARGIN = 1e-9
STATE_TOL = 1e-9


@dataclass
class Item:
    """One timed call plus the untimed check of its output.

    ``size`` is the number of work items (nets, point chunks, grids, test
    instances) the call completes; a call of size 0 is not a work item and
    is timed under ``aux_metric`` only.
    """

    call: Callable[[], object]
    check: Callable[[object], List[str]]
    size: int = 1
    aux_metric: Optional[str] = None


@dataclass
class Run:
    cycle: Callable[[int], List[Item]]
    quality: Callable[[], dict] = dict  # {name: (value, unit)} repeated exactly per seed
    notes: dict = field(default_factory=dict)
    min_cycles: int = 1


def item_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def logit_margins(net: NetworkSpec, X) -> np.ndarray:
    """Top-two logit gap per point, computed like ``forward_classical_batch``."""
    A = np.asarray(X, dtype=float).T
    for layer in net.layers[:-1]:
        A = np.maximum(layer.matrix @ A + layer.offset[:, None], 0.0)
    Z = np.sort(net.layers[-1].matrix @ A + net.layers[-1].offset[:, None], axis=0)
    return Z[-1] - Z[-2]


def label_mismatches(net: NetworkSpec, X, labels) -> int:
    """Compiled labels that disagree with the forward pass, ties excluded."""
    want = networks.forward_classical_batch(net, X)
    keep = logit_margins(net, X) > TIE_MARGIN
    differs = (np.asarray(labels, dtype=object) != want).astype(bool)
    return int(np.count_nonzero(keep & differs))


# -- relu_compile -------------------------------------------------------------

# Within the acceptance-sweep generator's ranges (input dim <= 3, widths <= 4,
# up to 3 hidden layers, 2-4 outputs).  A fixed architecture cycle with seeded
# weights keeps the per-run mix, and so the throughput, steady across seeds.
RELU_ARCHS = ([1, 4, 4, 3], [2, 3, 3], [2, 4, 3], [3, 3, 3],
              [3, 4, 2], [2, 2, 2, 2, 3], [2, 3, 2, 4], [1, 3, 3, 3, 4])
RELU_ARCHS_QUICK = ([1, 2, 2], [2, 2, 3])


def relu_compile(seed: int, quick: bool) -> Run:
    archs = RELU_ARCHS_QUICK if quick else RELU_ARCHS
    label_points, state_points = (200, 8) if quick else (2000, 32)

    def make_item(index, dims):
        rng = item_rng(seed, index)
        net = networks.random_network(rng, dims, RELU, INDEXMAX)
        twin = NetworkSpec(net.layers, RELU, SOFTMAX)
        X = rng.normal(scale=2.0, size=(label_points, dims[0]))

        def call():
            return networks.compile_relu_net(net), fuzzy.from_relu_softmax_net(twin)

        def check(out):
            g, fg = out
            problems = []
            bad = label_mismatches(net, X, graph.evaluate_batch(g, X))
            if bad:
                problems.append(f"relu net {dims} #{index}: {bad} label mismatches")
            gap = max(float(np.max(np.abs(fuzzy.evaluate_fuzzy(fg, x).state
                                          - networks.forward_smooth(twin, x))))
                      for x in X[:state_points])
            if not gap <= STATE_TOL:
                problems.append(f"relu net {dims} #{index}: fuzzy state gap {gap:.3g}")
            return problems

        return Item(call, check)

    def cycle(c):
        base = c * len(archs)
        return [make_item(base + k, dims) for k, dims in enumerate(archs)]

    return Run(cycle)


# -- semilinear_roundtrip -----------------------------------------------------

# Shaped like test_03's step nets, of similar cost, so that the latency
# percentiles do not fall on a boundary between cost groups.
STEP_ARCHS = ([2, 2, 2], [3, 2, 3], [2, 2, 3])
STEP_ARCHS_QUICK = ([2, 2, 2],)
SYSTEMS_PER_ITEM = 10


def random_system(rng):
    """A standalone system like test_03's: 3-8 small-integer rows in 3-d."""
    return [feasibility.make_constraint([int(a) for a in rng.integers(-4, 5, size=3)],
                                        int(rng.integers(-4, 5)),
                                        bool(rng.random() < 0.4))
            for _ in range(int(rng.integers(3, 8)))]


def check_verdict(rows, verdict) -> Optional[str]:
    if verdict.feasible:
        if verdict.witness is None or not all(feasibility.satisfies(r, verdict.witness)
                                              for r in rows):
            return "witness violates its system"
    elif "derived constant row" not in (verdict.contradiction or ""):
        return f"refutation without a derived constant row: {verdict.contradiction!r}"
    return None


def semilinear_roundtrip(seed: int, quick: bool) -> Run:
    archs = STEP_ARCHS_QUICK if quick else STEP_ARCHS
    points = 40 if quick else 200

    def make_item(index, dims):
        rng = item_rng(seed, index)
        net = networks.random_network(rng, dims, STEP, INDEXMAX)
        X = rng.normal(scale=2.0, size=(points, dims[0]))
        systems = [random_system(rng) for _ in range(SYSTEMS_PER_ITEM)]

        def call():
            g = networks.compile_step_net(net)
            f = semilinear.from_llgraph(g)
            g2 = semilinear.to_llgraph(f)
            f2 = semilinear.from_llgraph(g2)
            return g, f, g2, f2, [feasibility.check_system(rows, 3) for rows in systems]

        def check(out):
            g, f, g2, f2, verdicts = out
            want = networks.forward_classical_batch(net, X)
            bad = 0
            for x, w in zip(X, want):
                a = graph.evaluate(g, x)
                if (a != w or graph.evaluate(g2, x) != a or f.label_of(x) != a
                        or f2.label_of(x) != a):
                    bad += 1
            problems = [f"step net {dims} #{index}: {bad} round-trip mismatches"] if bad else []
            for rows, verdict in zip(systems, verdicts):
                problem = check_verdict(rows, verdict)
                if problem:
                    problems.append(f"system of item #{index}: {problem}")
            return problems

        return Item(call, check)

    def cycle(c):
        base = c * len(archs)
        return [make_item(base + k, dims) for k, dims in enumerate(archs)]

    return Run(cycle)


# -- batch_eval ---------------------------------------------------------------

# Evaluation cost differs by tens of percent between random graphs of one
# architecture, so the graph is fixed (70 vertices, 42 guards) and the seed
# draws the points.
BATCH_ARCH = [3, 4, 3, 3]
BATCH_GRAPH_SEED = 9


def batch_eval(seed: int, quick: bool) -> Run:
    dims = [2, 3, 3] if quick else BATCH_ARCH
    chunk, pool, per_cycle = (1000, 4, 2) if quick else (20_000, 50, 10)
    net = networks.random_network(item_rng(BATCH_GRAPH_SEED, 0), dims, RELU, INDEXMAX)
    g = networks.compile_relu_net(net)
    chunks = item_rng(seed, 1).normal(scale=2.0, size=(pool, chunk, dims[0]))

    def make_item(k):
        X = chunks[k % pool]

        def check(labels):
            bad = label_mismatches(net, X, labels) if len(labels) == len(X) else len(X)
            return [f"chunk {k % pool}: {bad} label mismatches"] if bad else []

        return Item(lambda: graph.evaluate_batch(g, X), check)

    def cycle(c):
        return [make_item(c * per_cycle + k) for k in range(per_cycle)]

    return Run(cycle, notes={"graph_vertices": len(g.vertices), "graph_guards": len(g.guards),
                             "points_per_chunk": chunk, "distinct_points": pool * chunk})


# -- grid_cover ---------------------------------------------------------------

RING = 0.18


def radial_grid(center, ring, res) -> approx.LabeledGrid:
    """Four labels by distance from `center` on the unit square: 0, 1, 2 in
    rings of width `ring`, 3 beyond."""
    axis = (np.arange(res) + 0.5) / res
    px, py = np.meshgrid(axis, axis, indexing="ij")
    ring_of = np.minimum(3, np.floor(np.hypot(px - center[0], py - center[1]) / ring))
    labels = np.empty((res, res), dtype=object)
    labels[...] = ring_of.astype(int).tolist()
    return approx.LabeledGrid(np.zeros(2), np.ones(2), labels)


def first_hit_labels(rectangles, centers) -> np.ndarray:
    """Label of the first rectangle holding each center (None if none does)."""
    out = np.full(len(centers), None, dtype=object)
    open_ = np.ones(len(centers), dtype=bool)
    for rect in rectangles:
        inside = open_ & np.all((centers >= rect.lo) & (centers < rect.hi), axis=1)
        out[inside] = rect.label
        open_ &= ~inside
    return out


def grid_cover(seed: int, quick: bool) -> Run:
    res, pool, per_cycle = (12, 4, 2) if quick else (32, 16, 4)
    grids = [radial_grid((0.5, 0.5), RING, res)]  # the centred 4-label radial grid
    grids += [radial_grid(item_rng(seed, k).uniform(0.35, 0.65, size=2), RING, res)
              for k in range(1, pool)]
    boxes = {}

    def make_item(k):
        grid = grids[k]

        def call():
            cover = approx.approximate(grid, 0.0)
            return cover, approx.mismatch_measure(cover, grid)

        def check(out):
            cover, (wrong, fallback) = out
            idx = np.array(list(np.ndindex(*grid.resolution)))
            centers = grid.lo + (idx + 0.5) * grid.cell_width
            truth = grid.labels.ravel()  # np.ndindex order
            labeled = truth != None  # noqa: E711  elementwise on object array
            bad = int(np.count_nonzero(first_hit_labels(cover.rectangles, centers)[labeled]
                                       != truth[labeled]))
            problems = [f"grid {k}: {bad} cells mislabeled by the cover"] if bad else []
            if wrong or fallback:
                problems.append(f"grid {k}: mismatch_measure reports {wrong}, {fallback}")
            n = boxes.setdefault(k, len(cover.rectangles))
            if n != len(cover.rectangles):
                problems.append(f"grid {k}: {len(cover.rectangles)} boxes, earlier {n}")
            return problems

        return Item(call, check)

    def quality():
        return {"cover_boxes": (sum(boxes.values()), "count")}

    def cycle(c):
        first = c * per_cycle % pool
        return [make_item(k) for k in range(first, first + per_cycle)]

    return Run(cycle, quality, notes={"grids": pool, "resolution": res},
               min_cycles=pool // per_cycle)


# -- blobs_vote ---------------------------------------------------------------

# Votes on the test set per calibration: more vote samples, spread over more
# of the run, steady the vote latencies.
VOTE_PASSES = 3
# Test instances voted per timed call.  A single vote takes under a
# millisecond, where fixed interrupt and scheduling stalls set the tail.
VOTE_BLOCK = 10


def train_charts(data, seed: int, epochs: int):
    rng = np.random.default_rng(seed)
    hp = training.Hyperparams(learning_rate=0.5, epochs=epochs, batch_size=32, seed=seed)
    gen = training.train_sgd(networks.random_network(rng, [2, 8, 3], SIGMOID, SOFTMAX),
                             data, hp).model
    pair = training.train_sgd(training.specialize(gen, [[0], [1]]),
                              training.relabel_for_blocks(data, [[0], [1]]), hp).model
    thick = training.train_sgd(training.specialize(gen, [[0, 1], [2]]),
                               training.relabel_for_blocks(data, [[0, 1], [2]]), hp).model
    return [ensemble.chart_from_net("gen", gen, [{0}, {1}, {2}]),
            ensemble.chart_from_net("pair", pair, [{0}, {1}]),
            ensemble.chart_from_net("thick", thick, [{0, 1}, {2}])]


def blobs_vote(seed: int, quick: bool) -> Run:
    n, epochs = (300, 5) if quick else (3000, 30)
    data = training.synth_dataset("blobs", n, seed=seed, spread=1.2)
    charts = train_charts(data, seed, epochs)
    tg = ensemble.build_target_graph(charts, {0, 1, 2})
    Xval, yval = data.subset("val")
    Xtest, ytest = data.subset("test")
    state = {}
    first_entries, first_votes = {}, {}

    def calibrate():
        state["cal"] = voting.calibrate(tg, Xval, yval)
        state["phi"] = voting.make_phi(Xval, yval)
        return state["cal"]

    def check_calibration(cal):
        entries = {k: (e.path, e.alpha, e.rate) for k, e in cal.entries.items()}
        if first_entries.setdefault("entries", entries) != entries:
            return ["calibration differs from the first cycle's"]
        return []

    def check_vote(i, res):
        values = np.array([res.answer[c] for c in sorted(res.answer, key=str)])
        best = max(sorted(res.answer, key=str), key=lambda c: res.answer[c])
        problems = []
        if not (np.all(np.isfinite(values)) and np.all(values >= 0)
                and np.all(values <= 1 + 1e-12)):
            problems.append(f"vote {i}: class values outside [0, 1]")
        if res.prediction != best:
            problems.append(f"vote {i}: prediction is not the top class")
        if first_votes.setdefault(i, res.prediction) != res.prediction:
            problems.append(f"vote {i}: prediction differs from an earlier vote's")
        return problems

    def make_votes(block):
        def call():
            return [voting.vote_with_validation_history(tg, state["cal"], Xtest[i], state["phi"])
                    for i in block]

        def check(results):
            return [p for i, res in zip(block, results) for p in check_vote(i, res)]

        return Item(call, check, size=len(block))

    blocks = [range(i, min(i + VOTE_BLOCK, len(Xtest))) for i in range(0, len(Xtest), VOTE_BLOCK)]

    def cycle(c):
        return ([Item(calibrate, check_calibration, size=0, aux_metric="calibrate_s")]
                + [make_votes(b) for _ in range(VOTE_PASSES) for b in blocks])

    def quality():
        preds = [first_votes.get(i) for i in range(len(Xtest))]
        return {"vote_accuracy": (float(np.mean([p == t for p, t in zip(preds, ytest)])),
                                  "frac")}

    return Run(cycle, quality, notes={"validation": len(Xval), "test": len(Xtest)})


WORKLOADS = {
    "relu_compile": relu_compile,
    "semilinear_roundtrip": semilinear_roundtrip,
    "batch_eval": batch_eval,
    "grid_cover": grid_cover,
    "blobs_vote": blobs_vote,
}
