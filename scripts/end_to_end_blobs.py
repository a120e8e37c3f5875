"""Train a small chart ensemble on blob data and vote with history.

A generalist sees all three classes; two specialists reuse its body with a
retrained head over coarser class blocks. Calibration picks, per class, the
graph path and threshold with the best validation rate; the final vote is
compared against a uniform-spread average and the best single chart.
"""

import argparse
import statistics
import time

import numpy as np
from numpy.random import default_rng

from logifold import networks
from logifold.cli import _count, _positive
from logifold.ensemble import build_target_graph, chart_from_net, fuzzy_accuracy
from logifold.networks import SIGMOID, SOFTMAX, random_network
from logifold.training import (
    Hyperparams,
    relabel_for_blocks,
    specialize,
    synth_dataset,
    train_sgd,
)
from logifold.voting import calibrate, make_phi, vote_with_validation_history


def uniform_spread(chart, X, classes):
    p = chart.outputs(X)
    out = np.zeros((len(X), len(classes)))
    index = {c: i for i, c in enumerate(classes)}
    for j, block in enumerate(chart.partition):
        for c in block:
            out[:, index[c]] += p[:, j] / len(block)
    return out


def body_passes(vote) -> int:
    """Run vote() and count the network body passes it makes."""
    passes = []
    final_rows = networks._final_rows
    networks._final_rows = lambda net, X: passes.append(net) or final_rows(net, X)
    try:
        vote()
    finally:
        networks._final_rows = final_rows
    return len(passes)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_count, default=300, help="dataset size")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=_count, default=30)
    ap.add_argument("--lr", type=_positive, default=0.5)
    args = ap.parse_args()

    t0 = time.time()
    data = synth_dataset("blobs", args.n, seed=args.seed)
    rng = default_rng(args.seed)
    hp = Hyperparams(learning_rate=args.lr, epochs=args.epochs,
                     batch_size=32, seed=args.seed)

    generalist = train_sgd(random_network(rng, [2, 8, 3], SIGMOID, SOFTMAX),
                           data, hp).model
    pair = train_sgd(specialize(generalist, [[0], [1]]),
                     relabel_for_blocks(data, [[0], [1]]), hp).model
    thick = train_sgd(specialize(generalist, [[0, 1], [2]]),
                      relabel_for_blocks(data, [[0, 1], [2]]), hp).model

    charts = [chart_from_net("gen", generalist, [{0}, {1}, {2}]),
              chart_from_net("pair", pair, [{0}, {1}]),
              chart_from_net("thick", thick, [{0, 1}, {2}])]
    graph = build_target_graph(charts, {0, 1, 2})
    print("graph targets:", [sorted(n.target) for n in graph.nodes])

    Xval, yval = data.subset("val")
    Xtest, ytest = data.subset("test")
    cal = calibrate(graph, Xval, yval)
    for label in sorted(cal.entries):
        e = cal.entries[label]
        print(f"class {label}: path {e.path}, threshold {e.alpha}, "
              f"validation rate {e.rate:.4f}")

    phi = make_phi(Xval, yval)
    preds = [vote_with_validation_history(graph, cal, x, phi).prediction
             for x in Xtest]
    vote_acc = float(np.mean([p == t for p, t in zip(preds, ytest)]))
    times = []
    for x in Xtest:  # warm: phi's memo is full and every path's constants are kept
        start = time.perf_counter()
        vote_with_validation_history(graph, cal, x, phi)
        times.append(time.perf_counter() - start)
    passes = body_passes(lambda: vote_with_validation_history(graph, cal, Xtest[0], phi))

    classes = [0, 1, 2]
    avg = sum(uniform_spread(c, Xtest, classes) for c in charts) / len(charts)
    avg_acc = float(np.mean(np.argmax(avg, axis=1) == ytest))
    for chart in charts:
        acc, mask = fuzzy_accuracy(chart, Xtest, ytest, 0.0)
        print(f"single {chart.id}: block-hit accuracy {acc:.4f} "
              f"on {int(mask.sum())} certain points")
    print(f"uniform-spread average: {avg_acc:.4f}")
    print(f"history vote: {vote_acc:.4f}")
    print(f"one history vote: {statistics.median(times) * 1e6:.1f} us warm median over "
          f"{len(Xtest)} test instances; body passes per vote: {passes}")
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
