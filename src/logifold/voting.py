"""Accuracy-weighted voting across charts, nodes, and paths.

Charts that share a partition average their answers, weighted by accuracy on
the instances they are certain about.  At a node, groups with different
partitions combine multiplicatively over the common refinement; probability
landing on incompatible block combinations is pushed back onto compatible
ones in proportion to how much each group is trusted.  A vote walks a path of
shrinking targets, multiplying per-node masses for each surviving class, and
validation history picks the path and threshold that predicted each class
best in the past.

Every vote reads one table of chart outputs (`_outputs`), in which each
chart runs once, and network charts that share a body network under one
embedding run that body once.  A vote then takes one of two forms.  A single
instance votes in plain Python floats: from one `tolist()` per chart row,
a history vote builds no array on the way to its `VoteResult`, and a
path's constants (its nodes, charts and classes) are read from the graph,
where its first vote keeps them.  Calibration and whole-split votes run as
array operations over the table, one column per block.  Both read the same
cached `_plan` of each node's live groups (their refinement, redistribution
families and label blocks) and apply the same float operations in the same
order.  A network chart's output at a point does not depend on the batch it
runs in, so a whole split runs each chart once and every row of its table
gets the floats a single vote would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .ensemble import (
    AccuracyCurve,
    ModelChart,
    Partition,
    RefinementTable,
    TargetGraph,
    TargetNode,
    _certain_accuracy,
    _curve_of_outputs,
    _hits,
    fuzzy_accuracy,
    one_table,
    refinement,
)
from .errors import (
    DimensionMismatchError,
    EmptyValidationError,
    NonFinitePointError,
    NoValidPathError,
    UncoveredInstanceError,
)
from .graph import json_object, label_to_text, read_json

# threshold grid for validation history; 1.0 would empty every certain part
DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(20)) + (0.99,)

PhiFn = Callable[[ModelChart, float], float]


def make_phi(X, y) -> PhiFn:
    """Certain-part accuracy lookup backed by a validation set, memoized.

    Each chart runs on X once, however many thresholds are asked for, and
    each body network once for the lookup's lifetime: network charts on one
    body share its run, as they do inside one `_outputs` table.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))  # one array object for every chart
    bodies: dict = {}
    scored: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    cache: Dict[Tuple[str, float], float] = {}

    def phi(chart: ModelChart, alpha: float) -> float:
        key = (chart.id, alpha)
        if key not in cache:
            if chart.id not in scored:
                p = _outputs([chart], [0], X, bodies)[0]
                scored[chart.id] = (p.max(axis=1), _hits(chart, p, y))
            cache[key] = _certain_accuracy(*scored[chart.id], alpha)[0]
        return cache[key]

    return phi


def _curve_phi(curves: Dict[str, AccuracyCurve]) -> PhiFn:
    """Chart weights read off accuracy curves: a chart's phi at one of its
    curve's thresholds.  `calibrate` weighs its votes by them, and a
    calibrated vote reads the same weights back from the calibration."""
    phi_at = {cid: dict(zip(curve.alphas, curve.values)) for cid, curve in curves.items()}

    def phi_of(chart, alpha):
        return phi_at[chart.id][alpha]

    return phi_of


def _finite_rows(X) -> np.ndarray:
    """X as a matrix of instances; a NaN or infinite coordinate is rejected."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        bad = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise NonFinitePointError(
            f"instance {bad} has a NaN or infinite coordinate")
    return X


def _one_instance(x) -> np.ndarray:
    """x as a one-row matrix; anything but exactly one instance is rejected."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim != 2 or len(X) != 1:
        raise DimensionMismatchError(
            f"a single vote takes one instance, got shape {np.shape(x)}")
    return X


def _outputs(charts: Sequence[ModelChart], idxs, X,
             bodies: Optional[dict] = None) -> Dict[int, np.ndarray]:
    """The output table every vote reads: {chart index: outputs at X}, each
    chart run once over all rows, in one `one_table` scope, so network
    charts on one body and one embedded array (a generalist and its
    specialists under the identity embedding) run that body once.  A
    caller's `bodies` dict keeps those runs for its later tables."""
    X = _finite_rows(X)
    with one_table(bodies):
        return {i: charts[i].outputs(X) for i in idxs}


# -- node votes ---------------------------------------------------------------


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


class _Plan(NamedTuple):
    table: RefinementTable
    families: List[List[List[int]]]  # [invalid combo][group]: valid indices
    block_of: Dict[object, int]      # label -> index of its block


@lru_cache(maxsize=256)
def _plan(partitions: Tuple[Partition, ...]) -> _Plan:
    """Refinement of the live groups' partitions, with its redistribution
    families: for each invalid combo and group, the valid combos that keep
    that group's block choice."""
    table = refinement(partitions)
    families = [[[s for s, v in enumerate(table.valid) if v[g] == combo[g]]
                 for g in range(len(partitions))] for combo in table.invalid]
    block_of = {label: s for s, b in enumerate(table.blocks) for label in b}
    return _Plan(table, families, block_of)


# Both forms below read the same plan and apply the same float operations in
# the same order, so they agree bit for bit: a group's answer is
# (0 + w0*p0 + w1*p1 + ...) / (0 + w0 + w1 + ...); a combo's mass is the
# product ((a0*a1)*a2) of its groups' answers; psi = w / (w0 + w1 + ...); and
# trusting group g moves ((q*psi)*m) / denom of an invalid combo's mass q onto
# each valid combo of mass m in its family, whose masses sum to denom.


def _node_vote_from_rows(node: TargetNode, rows_of, phis_of, alpha,
                         uncertain_weight):
    """Node vote at one instance, in plain floats.

    `rows_of` maps each chart index to its output row as a list of floats.
    Returns (plan, masses, fallback, dropped): the live groups' plan, the
    masses on its valid combos, whether a zero denominator spread mass
    evenly, and how many groups had no usable answer.  `plan` is None when
    no group speaks.
    """
    answers, weights, live = [], [], []
    for g, idxs in enumerate(node.groups):
        total = 0.0
        acc = [0.0] * len(rows_of[idxs[0]])
        for i in idxs:
            row, phi = rows_of[i], phis_of[i]
            w = phi if max(row) >= alpha else uncertain_weight * phi
            total += w
            acc = [a + w * p for a, p in zip(acc, row)]
        if total > 0.0:
            answers.append([a / total for a in acc])
            weights.append(total)
            live.append(g)
    dropped = len(node.groups) - len(live)
    if not live:
        return None, [], False, dropped
    plan = _plan(tuple(node.partitions[g] for g in live))
    table = plan.table

    def mass(combo):
        m = answers[0][combo[0]]
        for g in range(1, len(combo)):
            m = m * answers[g][combo[g]]
        return m

    valid = [mass(combo) for combo in table.valid]
    values = list(valid)
    fallback = False
    total = weights[0]
    for w in weights[1:]:
        total = total + w
    psi = [w / total for w in weights]
    for combo, families in zip(table.invalid, plan.families):
        q = mass(combo)
        if q == 0.0:
            continue
        for g, family in enumerate(families):
            # trusting group g keeps its block choice and spreads the mass
            # over compatible combos that agree with it
            denom = valid[family[0]]
            for s in family[1:]:
                denom = denom + valid[s]
            share = q * psi[g]
            if denom > 0.0:
                for s in family:
                    values[s] += share * valid[s] / denom
            else:
                fallback = True
                for s in family:
                    values[s] += share / len(family)
    return plan, values, fallback, dropped


# The table form votes every row of an output table at once, as columns.


def _group_votes(ps, phis, alpha, uncertain_weight):
    """Each group answer at every row: (distributions, total weights).

    Rows whose total is not positive hold no usable distribution.
    """
    total = np.zeros(len(ps[0]))
    acc = np.zeros(ps[0].shape)
    for p, phi in zip(ps, phis):
        w = np.where(p.max(axis=1) >= alpha, phi, uncertain_weight * phi)
        total += w
        acc += w[:, None] * p
    with np.errstate(divide="ignore", invalid="ignore"):
        return acc / total[:, None], total


def _redistribute(plan: _Plan, answers, weights):
    """Masses on the plan's valid combos, one column each, and fallback rows.

    `answers` and `weights` hold the live groups' distributions and total
    weights at the rows being voted.
    """
    table = plan.table
    mass = {}
    for combo in table.valid + table.invalid:
        col = answers[0][:, combo[0]]
        for g in range(1, len(combo)):
            col = col * answers[g][:, combo[g]]
        mass[combo] = col
    valid = [mass[combo] for combo in table.valid]
    values = list(valid)
    fallback = np.zeros(len(answers[0]), dtype=bool)
    total = weights[0]
    for w in weights[1:]:
        total = total + w
    psi = [w / total for w in weights]
    with np.errstate(divide="ignore", invalid="ignore"):
        for combo, families in zip(table.invalid, plan.families):
            q = mass[combo]
            spoken = q != 0.0
            if not spoken.any():
                continue
            for g, family in enumerate(families):
                denom = valid[family[0]]
                for s in family[1:]:
                    denom = denom + valid[s]
                share = q * psi[g]
                spread = spoken & (denom > 0.0)
                for s in family:
                    values[s] = np.where(spread, values[s] + share * valid[s] / denom,
                                         values[s])
                flat = spoken & ~(denom > 0.0)
                if flat.any():
                    fallback |= flat
                    for s in family:
                        values[s] = np.where(flat, values[s] + share / len(family),
                                             values[s])
    return values, fallback


def vote_at_node(node: TargetNode, charts: Sequence[ModelChart], alpha: float,
                 x, phi_of: PhiFn, uncertain_weight: float = 0.0) -> NodeVote:
    """Blend all groups at a node into masses over its refinement blocks.

    A node with one group is the shared-target vote: its charts' weighted
    average, or a dead vote when none of them speaks.
    """
    idxs = [i for group in node.groups for i in group]
    outs = _outputs(charts, idxs, _one_instance(x))
    plan, values, fallback, dropped = _node_vote_from_rows(
        node, {i: outs[i][0].tolist() for i in idxs},
        {i: phi_of(charts[i], alpha) for i in idxs}, alpha, uncertain_weight)
    if plan is None:
        return NodeVote(list(node.table.blocks), np.zeros(len(node.table.blocks)),
                        dropped_groups=dropped, dead=True)
    return NodeVote(list(plan.table.blocks), np.array(values), fallback, dropped)


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


@dataclass
class PathVotes:
    """Path votes at every row of an output table, one row per instance.

    `values` holds one row of class values per instance: an array, or for a
    one-row table, which votes in plain floats, a list of one list.
    """
    classes: List
    values: Union[np.ndarray, List[List[float]]]   # (rows, classes)
    uniform_fallback: List[bool]   # one flag or count per row
    dropped_groups: List[int]
    dead_nodes: List[int]

    @property
    def best(self) -> np.ndarray:
        """Index into classes of each row's prediction."""
        return np.argmax(self.values, axis=1)

    def column(self, label) -> List[float]:
        """Each row's value for the class label, as Python floats."""
        k = self.classes.index(label)
        if isinstance(self.values, list):
            return [row[k] for row in self.values]
        return self.values[:, k].tolist()

    def row(self, r: int) -> PathVote:
        values = np.asarray(self.values[r])
        return PathVote(list(self.classes), values, self.classes[int(np.argmax(values))],
                        self.uniform_fallback[r], self.dropped_groups[r],
                        self.dead_nodes[r])


class _Along(NamedTuple):
    """What a path's votes read at every instance: its nodes, the charts at
    them (each once) and its classes, one label per block of its last node,
    sorted by str."""
    nodes: Tuple[TargetNode, ...]
    charts: List[int]
    classes: List


def _along(graph: TargetGraph, path) -> _Along:
    """The path's constants, made on its first vote and kept on the graph."""
    path = tuple(path)
    along = graph.paths.get(path)
    if along is None:
        nodes = tuple(graph.nodes[vi] for vi in path)
        charts = list(dict.fromkeys(i for node in nodes for idxs in node.groups
                                    for i in idxs))
        classes = sorted((next(iter(b)) for b in nodes[-1].table.blocks), key=str)
        along = graph.paths[path] = _Along(nodes, charts, classes)
    return along


def _path_vote_from_rows(graph, path, rows_of, phis_of, alpha, uncertain_weight):
    """Path vote at one instance, in plain floats: (values, fallback,
    dropped, dead), with a value per class of the path in `_along`'s order.
    `rows_of` maps each chart index to its output row as a list of floats."""
    along = _along(graph, path)
    classes = along.classes
    values = [1.0] * len(classes)
    fallback, dropped, dead = False, 0, 0
    for node in along.nodes:
        plan, masses, node_fallback, node_dropped = _node_vote_from_rows(
            node, rows_of, phis_of, alpha, uncertain_weight)
        if plan is None:
            dead += 1
            continue
        fallback |= node_fallback
        dropped += node_dropped
        values = [v * masses[plan.block_of[c]] for v, c in zip(values, classes)]
    if dead == len(along.nodes):
        values = [0.0] * len(classes)
    return values, fallback, dropped, dead


def _path_vote_table(graph, path, outs, phis_of, alpha,
                     uncertain_weight) -> PathVotes:
    """_path_vote_from_rows at every row of the output table `outs`, as
    array operations over its rows."""
    along = _along(graph, path)
    classes = along.classes
    m = len(outs[next(iter(phis_of))])
    values = np.ones((m, len(classes)))
    fallback = np.zeros(m, dtype=bool)
    dropped = np.zeros(m, dtype=int)
    dead = np.zeros(m, dtype=int)
    for node in along.nodes:
        answers, weights = zip(*(
            _group_votes([outs[i] for i in idxs], [phis_of[i] for i in idxs],
                         alpha, uncertain_weight) for idxs in node.groups))
        # rows sharing a set of live groups vote over that set's refinement
        live_sets, which = np.unique(
            sum((w > 0.0).astype(int) << g for g, w in enumerate(weights)),
            return_inverse=True)
        for k, live_set in enumerate(live_sets.tolist()):
            rows = slice(None) if len(live_sets) == 1 else which == k
            live = [g for g in range(len(weights)) if live_set >> g & 1]
            if not live:
                dead[rows] += 1
                continue
            plan = _plan(tuple(node.partitions[g] for g in live))
            masses, node_fallback = _redistribute(
                plan, [answers[g][rows] for g in live],
                [weights[g][rows] for g in live])
            values[rows] *= np.stack([masses[plan.block_of[c]] for c in classes],
                                     axis=1)
            fallback[rows] |= node_fallback
            dropped[rows] += len(weights) - len(live)
    values[dead == len(along.nodes)] = 0.0
    return PathVotes(classes, values, fallback.tolist(), dropped.tolist(),
                     dead.tolist())


def _charts_on(graph: TargetGraph, paths) -> List[int]:
    """Indices of the charts at the paths' nodes, each once."""
    return list(dict.fromkeys(i for path in paths for i in _along(graph, path).charts))


def _path_votes(graph: TargetGraph, path, alpha, outs, phi_of,
                uncertain_weight) -> PathVotes:
    """Path vote at every row of the output table `outs`.

    A one-row table votes in plain Python floats (`_path_vote_from_rows`),
    from its rows' `tolist()` to a `PathVotes` of lists; a longer one votes
    as array operations over its rows (`_path_vote_table`).  Both read the
    same cached `_plan` of each node's live groups and give the same floats.
    """
    along = _along(graph, path)
    phis_of = {i: phi_of(graph.charts[i], alpha) for i in along.charts}
    if len(outs[along.charts[0]]) != 1:
        return _path_vote_table(graph, path, outs, phis_of, alpha,
                                uncertain_weight)
    values, fallback, dropped, dead = _path_vote_from_rows(
        graph, path, {i: outs[i][0].tolist() for i in along.charts}, phis_of, alpha,
        uncertain_weight)
    return PathVotes(along.classes, [values], [fallback], [dropped], [dead])


def vote_along_path(graph: TargetGraph, path: Sequence[int], alpha: float, x,
                    phi_of: PhiFn, uncertain_weight: float = 0.0) -> PathVote:
    """Per-class product of node masses down the path; argmax predicts."""
    outs = _outputs(graph.charts, _along(graph, path).charts, _one_instance(x))
    return _path_votes(graph, path, alpha, outs, phi_of, uncertain_weight).row(0)


# -- validation history -----------------------------------------------------


def _one_vs_rest_rate(classes, best, truth, label) -> float:
    """Share of rows where 'predicted label' (class indices `best`) agrees
    with `truth`, the rows whose true class is label."""
    said = np.array([c == label for c in classes], dtype=bool)[best]
    return int(np.count_nonzero(said == truth)) / len(truth)


def _is_label(yval, label) -> np.ndarray:
    return np.array([t == label for t in yval], dtype=bool)


def expected_accuracy(graph: TargetGraph, path, alpha: float, label, Xval,
                      yval, phi_of: PhiFn,
                      uncertain_weight: float = 0.0) -> float:
    """How often the path vote got 'is it this label' right on validation."""
    yval = list(yval)
    if len(yval) == 0:
        raise EmptyValidationError("validation set is empty")
    outs = _outputs(graph.charts, _along(graph, path).charts, Xval)
    votes = _path_votes(graph, path, alpha, outs, phi_of, uncertain_weight)
    return _one_vs_rest_rate(votes.classes, votes.best, _is_label(yval, label),
                             label)


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
    outs = _outputs(graph.charts, range(len(graph.charts)), Xval)
    curves = {c.id: _curve_of_outputs(c, outs[i], ys, alphas)
              for i, c in enumerate(graph.charts)}
    phi_of = _curve_phi(curves)
    preds = {}
    entries = {}
    for label in sorted(graph.nodes[graph.root].target, key=str):
        truth = _is_label(ys, label)
        scored = []
        for pi, path in enumerate(valid_paths(graph, label)):
            for alpha in alphas:
                if (path, alpha) not in preds:
                    votes = _path_votes(graph, path, alpha, outs, phi_of,
                                        uncertain_weight)
                    preds[path, alpha] = (votes.classes, votes.best)
                r = _one_vs_rest_rate(*preds[path, alpha], truth, label)
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
    return _history_votes(graph, calibration, _one_instance(x), phi_of,
                          uncertain_weight)[0]


def _history_votes(graph: TargetGraph, calibration: Calibration, X,
                   phi_of: PhiFn, uncertain_weight: float) -> List[VoteResult]:
    """vote_with_validation_history at every row of X, bit for bit: one
    output table, and one path vote over all rows per distinct calibrated
    (path, threshold); each class still adds its vote's flags."""
    entries = calibration.entries
    outs = _outputs(graph.charts, _charts_on(graph, [e.path for e in entries.values()]), X)
    answers, flags, votes_of = {}, [], {}
    for label, entry in entries.items():
        key = (tuple(entry.path), entry.alpha)
        if key not in votes_of:
            votes_of[key] = _path_votes(graph, *key, outs, phi_of, uncertain_weight)
        votes = votes_of[key]
        answers[label] = votes.column(label)
        flags.append((votes.uniform_fallback, votes.dropped_groups,
                      votes.dead_nodes))
    ranked = sorted(answers, key=str)
    results = []
    for r in range(len(X)):
        answer = {label: column[r] for label, column in answers.items()}
        results.append(VoteResult(
            answer, max(ranked, key=answer.get), dict(entries),
            any(f[0][r] for f in flags), sum(f[1][r] for f in flags),
            sum(f[2][r] for f in flags)))
    return results


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
    outs = _outputs(bundle.charts, range(len(bundle.charts)), _one_instance(x))
    certainties, weights = [], []
    for i, chart in enumerate(bundle.charts):
        c = float(outs[i][0].max())
        certainties.append(c)
        weights.append(bundle.phis[chart.id]
                       if c >= bundle.alphas[chart.id] else 0.0)
    total = sum(weights)
    if total == 0.0:
        raise UncoveredInstanceError("no chart is certain about this instance")
    scale = max(1.0, total)
    return sum(w / scale * c for w, c in zip(weights, certainties))


# -- reports ----------------------------------------------------------------


def write_prediction_matrix(path, chart: ModelChart, X) -> np.ndarray:
    """Write the chart's block distribution at each row of X as a CSV, one
    line per row number, and return the output matrix it wrote."""
    X = _finite_rows(X)
    p = chart.outputs(X)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance_id"] + [f"p_block_{j + 1}" for j in range(p.shape[1])])
        for i, row in enumerate(p):
            w.writerow([i] + [repr(float(v)) for v in row])
    return p


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
    """Class keys must name labels of the graph's root target.

    Each class's `path_nodes` must be one of its valid paths and its `alpha`
    a number in [0, 1]; otherwise a ValueError names the class.  `classes`
    and `charts` must be objects, or a ValueError names the key.
    """
    doc = read_json(path)
    named = {label_to_text(l): l for l in graph.nodes[graph.root].target}
    entries = {}
    for key, rec in json_object(doc["classes"], "classes").items():
        label, nodes, alpha = named[key], rec["path_nodes"], rec["alpha"]
        if tuple(nodes) not in valid_paths(graph, label):
            raise ValueError(f"class {key}: path_nodes {nodes} is not a valid "
                             f"path for it")
        if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                or not 0.0 <= alpha <= 1.0):
            raise ValueError(f"class {key}: alpha {alpha!r} is not a number "
                             f"in [0, 1]")
        entries[label] = HistoryEntry(tuple(nodes), alpha, rec["rate"])
    curves = {cid: AccuracyCurve(rec["alphas"], rec["phi"], rec["certain_sizes"])
              for cid, rec in json_object(doc["charts"], "charts").items()}
    return Calibration(entries, curves, tuple(doc["alpha_grid"]))


def _calibrated_phi(graph: TargetGraph, calibration: Calibration) -> PhiFn:
    """The chart weights `calibrate` chose its paths with, read back from the
    calibration's curves.  A curve missing for a chart on a class's path, or
    lacking the class's alpha, raises a ValueError that names the chart."""
    phi_of = _curve_phi(calibration.curves)
    for label, entry in calibration.entries.items():
        for i in _along(graph, entry.path).charts:
            try:
                phi_of(graph.charts[i], entry.alpha)
            except KeyError:
                raise ValueError(
                    f"class {label_to_text(label)}: no phi for chart {graph.charts[i].id!r} "
                    f"at alpha {entry.alpha!r} in the charts curves") from None
    return phi_of


def vote_report(graph: TargetGraph, calibration: Calibration, X, phi_of: PhiFn,
                uncertain_weight: float = 0.0) -> dict:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    instances = []
    for i, res in enumerate(_history_votes(graph, calibration, X, phi_of,
                                           uncertain_weight)):
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
