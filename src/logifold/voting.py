"""Accuracy-weighted voting across charts, nodes, and paths.

Charts that share a partition average their answers, weighted by accuracy on
the instances they are certain about.  At a node, groups with different
partitions combine multiplicatively over the common refinement; probability
landing on incompatible block combinations is pushed back onto compatible
ones in proportion to how much each group is trusted.  A vote walks a path of
shrinking targets, multiplying per-node masses for each surviving class, and
validation history picks the path and threshold that predicted each class
best in the past.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .ensemble import (
    AccuracyCurve,
    ModelChart,
    RefinementTable,
    TargetGraph,
    TargetNode,
    _certain_accuracy,
    accuracy_curve,
    fuzzy_accuracy,
    refinement,
)
from .errors import (
    EmptyValidationError,
    NoValidPathError,
    UncoveredInstanceError,
)
from .graph import label_to_text

# threshold grid for validation history; 1.0 would empty every certain part
DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(20)) + (0.99,)

PhiFn = Callable[[ModelChart, float], float]


def make_phi(X, y) -> PhiFn:
    """Certain-part accuracy lookup backed by a validation set, memoized.

    Each chart runs on X once, however many thresholds are asked for.
    """
    outs: Dict[str, np.ndarray] = {}
    cache: Dict[Tuple[str, float], float] = {}

    def phi(chart: ModelChart, alpha: float) -> float:
        key = (chart.id, alpha)
        if key not in cache:
            if chart.id not in outs:
                outs[chart.id] = chart.outputs(X)
            cache[key] = _certain_accuracy(chart, outs[chart.id], y, alpha)[0]
        return cache[key]

    return phi


def _outputs(charts: Sequence[ModelChart], idxs, X) -> Dict[int, np.ndarray]:
    """The output table every vote reads: {chart index: outputs at X}."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return {i: charts[i].outputs(X) for i in idxs}


# -- node votes ---------------------------------------------------------------


def _group_vote(rows, phis, alpha, uncertain_weight):
    """Weighted average over one group; (distribution, total weight)."""
    k = len(rows[0])
    total = 0.0
    acc = np.zeros(k)
    for row, phi in zip(rows, phis):
        w = phi if row.max() >= alpha else uncertain_weight * phi
        total += w
        acc += w * row
    if total <= 0.0:
        return np.zeros(k), 0.0
    return acc / total, total


@dataclass
class NodeVote:
    blocks: List[FrozenSet]
    values: np.ndarray
    uniform_fallback: bool = False   # redistribution hit a zero denominator
    dropped_groups: int = 0          # groups with no usable answer
    dead: bool = False               # nothing usable at this node

    def value_for(self, label) -> float:
        for b, v in zip(self.blocks, self.values):
            if label in b:
                return float(v)
        raise KeyError(f"label {label!r} not in node blocks")


def _node_vote_from_rows(node: TargetNode, rows_of, phis_of, alpha,
                         uncertain_weight) -> NodeVote:
    answers, weights, live = [], [], []
    for gi, idxs in enumerate(node.groups):
        rows = [rows_of[i] for i in idxs]
        phis = [phis_of[i] for i in idxs]
        p, w = _group_vote(rows, phis, alpha, uncertain_weight)
        if w > 0.0:
            answers.append(p)
            weights.append(w)
            live.append(gi)
    dropped = len(node.groups) - len(live)
    if not live:
        return NodeVote(list(node.table.blocks), np.zeros(len(node.table.blocks)),
                        dropped_groups=dropped, dead=True)
    if len(live) == len(node.groups):
        table = node.table
    else:
        table = refinement([node.partitions[gi] for gi in live])
    psi = np.asarray(weights) / sum(weights)

    mass = {combo: float(np.prod([answers[g][j] for g, j in enumerate(combo)]))
            for combo in iproduct(*(range(len(answers[g]))
                                    for g in range(len(answers))))}
    values = np.array([mass[combo] for combo in table.valid])
    fallback = False
    for combo in table.invalid:
        q = mass[combo]
        if q == 0.0:
            continue
        for g in range(len(answers)):
            # trusting group g keeps its block choice and spreads the mass
            # over compatible combos that agree with it
            family = [s for s, v in enumerate(table.valid) if v[g] == combo[g]]
            denom = sum(mass[table.valid[s]] for s in family)
            if denom > 0.0:
                for s in family:
                    values[s] += q * psi[g] * mass[table.valid[s]] / denom
            else:
                fallback = True
                for s in family:
                    values[s] += q * psi[g] / len(family)
    return NodeVote(list(table.blocks), values, fallback, dropped)


def vote_at_node(node: TargetNode, charts: Sequence[ModelChart], alpha: float,
                 x, phi_of: PhiFn, uncertain_weight: float = 0.0) -> NodeVote:
    """Blend all groups at a node into masses over its refinement blocks.

    A node with one group is the shared-target vote: its charts' weighted
    average, or a dead vote when none of them speaks.
    """
    idxs = [i for group in node.groups for i in group]
    outs = _outputs(charts, idxs, x)
    return _node_vote_from_rows(node, {i: outs[i][0] for i in idxs},
                                {i: phi_of(charts[i], alpha) for i in idxs},
                                alpha, uncertain_weight)


# -- paths ------------------------------------------------------------------


def valid_paths(graph: TargetGraph, label) -> List[Tuple[int, ...]]:
    """Root-anchored node sequences keeping the label, ending on a fine node."""
    if label not in graph.nodes[graph.root].target:
        raise NoValidPathError(f"label {label!r} outside the root target")
    found: List[Tuple[int, ...]] = []

    def walk(path):
        node = graph.nodes[path[-1]]
        if node.table.is_fine:
            found.append(tuple(path))
        for child in graph.children[path[-1]]:
            if label in graph.nodes[child].target:
                walk(path + [child])

    walk([graph.root])
    if not found:
        raise NoValidPathError(
            f"no path for label {label!r} reaches a fine refinement")
    return found


@dataclass
class PathVote:
    classes: List
    values: np.ndarray
    prediction: object
    uniform_fallback: bool = False
    dropped_groups: int = 0
    dead_nodes: int = 0

    def value_for(self, label) -> float:
        return float(self.values[self.classes.index(label)])


def _path_vote_from_rows(graph, path, rows_of, phis_of, alpha,
                         uncertain_weight) -> PathVote:
    classes = sorted((next(iter(b)) for b in graph.nodes[path[-1]].table.blocks),
                     key=str)
    values = np.ones(len(classes))
    fallback, dropped, dead = False, 0, 0
    for vi in path:
        vote = _node_vote_from_rows(graph.nodes[vi], rows_of, phis_of, alpha,
                                    uncertain_weight)
        if vote.dead:
            dead += 1
            continue
        fallback |= vote.uniform_fallback
        dropped += vote.dropped_groups
        values *= np.array([vote.value_for(c) for c in classes])
    if dead == len(path):
        values = np.zeros(len(classes))
    pred = classes[int(np.argmax(values))]
    return PathVote(classes, values, pred, fallback, dropped, dead)


def _charts_on(graph: TargetGraph, paths) -> List[int]:
    """Indices of the charts at the paths' nodes, each once."""
    return list(dict.fromkeys(i for path in paths for vi in path
                              for idxs in graph.nodes[vi].groups for i in idxs))


def _path_votes(graph: TargetGraph, path, alpha, outs, phi_of,
                uncertain_weight) -> List[PathVote]:
    """Path vote at every row of the output table `outs`."""
    idxs = _charts_on(graph, [path])
    phis_of = {i: phi_of(graph.charts[i], alpha) for i in idxs}
    path = tuple(path)
    return [_path_vote_from_rows(graph, path, {i: outs[i][m] for i in idxs},
                                 phis_of, alpha, uncertain_weight)
            for m in range(len(outs[idxs[0]]))]


def vote_along_path(graph: TargetGraph, path: Sequence[int], alpha: float, x,
                    phi_of: PhiFn, uncertain_weight: float = 0.0) -> PathVote:
    """Per-class product of node masses down the path; argmax predicts."""
    outs = _outputs(graph.charts, _charts_on(graph, [path]), x)
    return _path_votes(graph, path, alpha, outs, phi_of, uncertain_weight)[0]


# -- validation history -----------------------------------------------------


def _one_vs_rest_rate(preds, yval, label) -> float:
    agree = sum(1 for p, t in zip(preds, yval) if (p == label) == (t == label))
    return agree / len(yval)


def expected_accuracy(graph: TargetGraph, path, alpha: float, label, Xval,
                      yval, phi_of: PhiFn,
                      uncertain_weight: float = 0.0) -> float:
    """How often the path vote got 'is it this label' right on validation."""
    yval = list(yval)
    if len(yval) == 0:
        raise EmptyValidationError("validation set is empty")
    outs = _outputs(graph.charts, _charts_on(graph, [path]), Xval)
    preds = [v.prediction for v in
             _path_votes(graph, path, alpha, outs, phi_of, uncertain_weight)]
    return _one_vs_rest_rate(preds, yval, label)


@dataclass
class HistoryEntry:
    path: Tuple[int, ...]
    alpha: float
    rate: float


@dataclass
class Calibration:
    entries: Dict[object, HistoryEntry]
    curves: Dict[str, AccuracyCurve] = field(default_factory=dict)
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID


def calibrate(graph: TargetGraph, Xval, yval,
              alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
              uncertain_weight: float = 0.0) -> Calibration:
    """Best (path, threshold) per class by past one-vs-rest accuracy.

    Ties prefer the smaller threshold, then the earlier path.  Chart weights
    are read from the charts' accuracy curves, and each (path, threshold)
    votes on the validation set once, for every label.
    """
    ys = list(yval)
    if len(ys) == 0:
        raise EmptyValidationError("validation set is empty")
    curves = {c.id: accuracy_curve(c, Xval, yval, alphas) for c in graph.charts}
    phi_at = {cid: dict(zip(alphas, curve.values)) for cid, curve in curves.items()}

    def phi_of(chart, alpha):
        return phi_at[chart.id][alpha]

    outs = _outputs(graph.charts, range(len(graph.charts)), Xval)
    preds = {}
    entries = {}
    for label in sorted(graph.nodes[graph.root].target, key=str):
        scored = []
        for pi, path in enumerate(valid_paths(graph, label)):
            for alpha in alphas:
                if (path, alpha) not in preds:
                    preds[path, alpha] = [v.prediction for v in _path_votes(
                        graph, path, alpha, outs, phi_of, uncertain_weight)]
                r = _one_vs_rest_rate(preds[path, alpha], ys, label)
                scored.append((-r, alpha, pi, path))
        neg_r, alpha, _, path = min(scored)
        entries[label] = HistoryEntry(path, alpha, -neg_r)
    return Calibration(entries, curves, tuple(alphas))


@dataclass
class VoteResult:
    answer: Dict[object, float]
    prediction: object
    chosen: Dict[object, HistoryEntry]
    uniform_fallback: bool = False
    dropped_groups: int = 0
    dead_nodes: int = 0


def vote_with_validation_history(graph: TargetGraph, calibration: Calibration,
                                 x, phi_of: PhiFn,
                                 uncertain_weight: float = 0.0) -> VoteResult:
    """Answer each class along its calibrated best path and threshold."""
    entries = calibration.entries
    outs = _outputs(graph.charts,
                    _charts_on(graph, [e.path for e in entries.values()]), x)
    answer, fallback, dropped, dead = {}, False, 0, 0
    for label, entry in entries.items():
        vote = _path_votes(graph, entry.path, entry.alpha, outs, phi_of,
                           uncertain_weight)[0]
        answer[label] = vote.value_for(label)
        fallback |= vote.uniform_fallback
        dropped += vote.dropped_groups
        dead += vote.dead_nodes
    pred = max(sorted(answer, key=str), key=lambda c: answer[c])
    return VoteResult(answer, pred, dict(calibration.entries), fallback,
                      dropped, dead)


# -- fuzzy membership of instances in the ensemble's domain ----------------


@dataclass
class LogifoldBundle:
    charts: List[ModelChart]
    alphas: Dict[str, float]   # per-chart certainty threshold
    phis: Dict[str, float]     # per-chart accuracy at that threshold


def make_bundle(charts: Sequence[ModelChart], alpha: float, Xval, yval):
    phis = {c.id: fuzzy_accuracy(c, Xval, yval, alpha)[0] for c in charts}
    return LogifoldBundle(list(charts), {c.id: alpha for c in charts}, phis)


def fuzzy_belonging(bundle: LogifoldBundle, x) -> float:
    """Accuracy-weighted certainty of the charts willing to speak for x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    certainties, weights = [], []
    for chart in bundle.charts:
        c = float(chart.outputs(x)[0].max())
        certainties.append(c)
        weights.append(bundle.phis[chart.id]
                       if c >= bundle.alphas[chart.id] else 0.0)
    total = sum(weights)
    if total == 0.0:
        raise UncoveredInstanceError("no chart is certain about this instance")
    scale = max(1.0, total)
    return sum(w / scale * c for w, c in zip(weights, certainties))


# -- reports ----------------------------------------------------------------


def write_prediction_matrix(path, chart: ModelChart, X, ids=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = chart.outputs(X)
    if ids is None:
        ids = list(range(len(p)))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance_id"] + [f"p_block_{j + 1}" for j in range(p.shape[1])])
        for i, row in zip(ids, p):
            w.writerow([i] + [repr(float(v)) for v in row])


def _path_targets(graph: TargetGraph, path):
    return [sorted(map(label_to_text, graph.nodes[vi].target)) for vi in path]


def calibration_to_dict(graph: TargetGraph, calibration: Calibration) -> dict:
    return {
        "alpha_grid": list(calibration.alpha_grid),
        "charts": {
            cid: {"alphas": curve.alphas, "phi": curve.values,
                  "certain_sizes": curve.sizes}
            for cid, curve in sorted(calibration.curves.items())
        },
        "classes": {
            label_to_text(label): {"path": _path_targets(graph, entry.path),
                                   "path_nodes": list(entry.path),
                                   "alpha": entry.alpha, "rate": entry.rate}
            for label, entry in calibration.entries.items()
        },
    }


def load_calibration(path, graph: TargetGraph) -> Calibration:
    """Class keys must name labels of the graph's root target."""
    with open(path) as fh:
        doc = json.load(fh)
    named = {label_to_text(l): l for l in graph.nodes[graph.root].target}
    entries = {
        named[key]: HistoryEntry(tuple(rec["path_nodes"]), rec["alpha"],
                                 rec["rate"])
        for key, rec in doc["classes"].items()
    }
    curves = {cid: AccuracyCurve(rec["alphas"], rec["phi"], rec["certain_sizes"])
              for cid, rec in doc["charts"].items()}
    return Calibration(entries, curves, tuple(doc["alpha_grid"]))


def vote_report(graph: TargetGraph, calibration: Calibration, X, phi_of: PhiFn,
                ids=None, uncertain_weight: float = 0.0) -> dict:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if ids is None:
        ids = list(range(X.shape[0]))
    instances = []
    for i, x in zip(ids, X):
        res = vote_with_validation_history(graph, calibration, x, phi_of,
                                           uncertain_weight)
        flags = []
        if res.uniform_fallback:
            flags.append("uniform_fallback")
        if res.dropped_groups:
            flags.append(f"dropped_groups:{res.dropped_groups}")
        if res.dead_nodes:
            flags.append(f"dead_nodes:{res.dead_nodes}")
        instances.append({
            "id": i,
            "answer": {label_to_text(c): res.answer[c]
                       for c in sorted(res.answer, key=label_to_text)},
            "prediction": label_to_text(res.prediction),
            "paths": {label_to_text(c): list(e.path)
                      for c, e in sorted(res.chosen.items(),
                                         key=lambda kv: label_to_text(kv[0]))},
            "flags": flags,
        })
    return {"instances": instances}
