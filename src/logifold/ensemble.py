"""Model charts over a shared class set and the graph that organizes them.

Each chart predicts a distribution over its own ordered partition of some
subset of the classes.  Charts sharing a flattened target sit at one node of
the target graph; their partitions' common refinement records which block
combinations are compatible.  Nodes are ordered by strict inclusion of
flattened targets, so walking away from the root narrows the label set.
Accuracy curves measure each chart on the instances it is certain about.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    FlatteningMismatchError,
    MalformedEmbeddingError,
    NoRootModelError,
)

Partition = Tuple[FrozenSet, ...]


def as_partition(blocks) -> Partition:
    return tuple(frozenset(b) for b in blocks)


def _flatten(partition: Partition) -> FrozenSet:
    out = frozenset()
    for b in partition:
        out |= b
    return out


_EMBEDDING_KINDS = ("identity", "subset", "resample")


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Embedding:
    """Feature transform applied before a chart's predictor.

    subset keeps the listed coordinates; resample mean-pools consecutive
    groups of `factor` coordinates.  An unknown kind, a subset without
    non-negative integer indices or a resample factor that is not an
    integer of at least 1 raises MalformedEmbeddingError at construction.
    """

    kind: str = "identity"
    indices: Optional[Tuple[int, ...]] = None
    factor: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _EMBEDDING_KINDS:
            raise MalformedEmbeddingError(
                f"unknown embedding kind {self.kind!r}; expected one of {_EMBEDDING_KINDS}")
        if self.kind == "subset" and not (
                self.indices is not None and all(_is_count(i) and i >= 0 for i in self.indices)):
            raise MalformedEmbeddingError(
                f"subset indices must be non-negative integers, got {self.indices!r}")
        if self.kind == "resample" and not (_is_count(self.factor) and self.factor >= 1):
            raise MalformedEmbeddingError(
                f"resample factor must be an integer of at least 1, got {self.factor!r}")

    def check_width(self, n: int):
        """Raise DimensionMismatchError unless this embedding acts on points
        with n coordinates."""
        if self.kind == "subset" and any(i >= n for i in self.indices):
            raise DimensionMismatchError(
                f"subset index {max(self.indices)} is past the data width {n}")
        if self.kind == "resample" and n % self.factor:
            raise DimensionMismatchError(f"cannot pool {n} coordinates by {self.factor}")

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self.check_width(X.shape[-1])
        if self.kind == "subset":
            return X[:, list(self.indices)]
        if self.kind == "resample":
            m, n = X.shape
            return X.reshape(m, n // self.factor, self.factor).mean(axis=2)
        return X


@dataclass
class ModelChart:
    id: str
    partition: Partition
    predict_batch: Callable[[np.ndarray], np.ndarray]
    embedding: Embedding = field(default_factory=Embedding)

    @property
    def flattened(self) -> FrozenSet:
        return _flatten(self.partition)

    def outputs(self, X: np.ndarray) -> np.ndarray:
        """Block distributions at the embedded features, one row per point,
        from one `predict_batch` call, checked to hold one column per block
        and rows that sum to 1."""
        p = np.asarray(self.predict_batch(self.embedding.apply_batch(np.atleast_2d(X))))
        if p.shape[1] != len(self.partition):
            raise DimensionMismatchError(
                f"chart {self.id!r} returned {p.shape[1]} components for "
                f"{len(self.partition)} blocks")
        if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise FlatteningMismatchError(
                f"chart {self.id!r} outputs do not sum to 1")
        return p


# bodies run in the current `one_table` scope (see `forward_smooth_batch`)
_BODIES: ContextVar[Optional[dict]] = ContextVar("bodies", default=None)


@contextmanager
def one_table(bodies: Optional[dict] = None):
    """The scope of one output table.  Inside it, network charts whose
    networks share a body network and whose embeddings hand them one array
    object run that body once (`chart_from_net`).  `bodies`, a dict the
    caller keeps, carries the bodies run from one scope to the next."""
    token = _BODIES.set({} if bodies is None else bodies)
    try:
        yield
    finally:
        _BODIES.reset(token)


def chart_from_net(cid: str, model, partition,
                   embedding: Embedding = Embedding()) -> ModelChart:
    """Chart backed by a softmax network with one output per block.

    Inside `one_table`, its predictor runs the network's body (the network
    itself, or a specialized network's base) once per embedded array
    object: a chart on a body already run at that array applies only its
    head and softmax to the kept rows, the same floats."""
    from .networks import forward_smooth_batch

    return ModelChart(cid, as_partition(partition),
                      lambda X: forward_smooth_batch(model, X, _BODIES.get()), embedding)


# -- refinement -------------------------------------------------------------


@dataclass
class RefinementTable:
    """Common refinement of partitions with one shared flattened target.

    Combos index one block choice per partition.  Valid combos have nonempty
    intersection; blocks lists those intersections in the order of valid.
    """

    partitions: Tuple[Partition, ...]
    valid: List[Tuple[int, ...]]
    invalid: List[Tuple[int, ...]]
    blocks: List[FrozenSet]

    @property
    def is_fine(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


def refinement(partitions: Sequence[Partition]) -> RefinementTable:
    """All block combinations across the partitions, split by realizability."""
    parts = tuple(as_partition(p) for p in partitions)
    if not parts:
        raise FlatteningMismatchError("refinement needs at least one partition")
    flat = _flatten(parts[0])
    for p in parts[1:]:
        if _flatten(p) != flat:
            raise FlatteningMismatchError(
                f"flattened targets differ: {sorted(map(str, flat))} vs "
                f"{sorted(map(str, _flatten(p)))}")
    for p in parts:
        if sum(len(b) for b in p) != len(flat):
            raise FlatteningMismatchError("blocks overlap within a partition")
    valid, invalid, blocks = [], [], []
    for combo in iproduct(*(range(len(p)) for p in parts)):
        meet = flat
        for p, j in zip(parts, combo):
            meet = meet & p[j]
        if meet:
            valid.append(combo)
            blocks.append(meet)
        else:
            invalid.append(combo)
    return RefinementTable(parts, valid, invalid, blocks)


# -- target graph -----------------------------------------------------------


@dataclass
class TargetNode:
    target: FrozenSet
    partitions: List[Partition]      # distinct partitions at this node
    groups: List[List[int]]          # chart indices per partition
    table: RefinementTable


@dataclass
class TargetGraph:
    charts: List[ModelChart]
    nodes: List[TargetNode]          # sorted by decreasing flattened size
    children: Dict[int, List[int]]   # strict-subset arrows, parent -> kids
    root: int
    # each voted path's constants, kept by `voting` on the path's first vote
    paths: Dict[Tuple[int, ...], tuple] = field(default_factory=dict, init=False,
                                                repr=False, compare=False)


def _partition_key(p: Partition):
    return tuple(tuple(sorted(b, key=str)) for b in p)


def _target_key(t: FrozenSet):
    return tuple(sorted(t, key=str))


def build_target_graph(charts: Sequence[ModelChart], classes) -> TargetGraph:
    """Group charts by flattened target, refine per node, wire subset arrows.

    The root node must cover the full class set, and every minimal node's
    refinement must already be fine, otherwise voting cannot terminate there.
    """
    classes = frozenset(classes)
    first = {}
    for i, chart in enumerate(charts):
        j = first.setdefault(chart.id, i)
        if j != i:
            raise AssumptionViolationError(
                f"charts {j} and {i} share the id {chart.id!r}; accuracy "
                "curves and weights are keyed by id")
    by_target: Dict[FrozenSet, Dict[Partition, List[int]]] = {}
    for i, chart in enumerate(charts):
        if not chart.flattened <= classes:
            raise FlatteningMismatchError(
                f"chart {chart.id!r} predicts labels outside the class set")
        by_target.setdefault(chart.flattened, {}).setdefault(chart.partition, []).append(i)

    targets = sorted(by_target, key=lambda t: (-len(t), _target_key(t)))
    if not targets or targets[0] != classes:
        raise NoRootModelError(
            f"no chart has flattened target {sorted(map(str, classes))}")
    nodes = []
    for t in targets:
        parts = sorted(by_target[t], key=_partition_key)
        nodes.append(TargetNode(t, parts, [by_target[t][p] for p in parts],
                                refinement(parts)))
    children = {i: [] for i in range(len(nodes))}
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if b.target < a.target:
                children[i].append(j)
    for i, node in enumerate(nodes):
        if not children[i] and not node.table.is_fine:
            raise AssumptionViolationError(
                f"minimal node {sorted(map(str, node.target))} has a coarse "
                "refinement; no finer charts exist below it")
    return TargetGraph(list(charts), nodes, children, 0)


# -- fuzzy accuracy ---------------------------------------------------------


@dataclass
class AccuracyCurve:
    alphas: List[float]
    values: List[float]
    sizes: List[int]  # certain-part sizes, one per threshold


def _hits(chart: ModelChart, p: np.ndarray, y) -> np.ndarray:
    """Whether each point's top block in the output matrix p holds its label."""
    return np.array([label in chart.partition[block]
                     for label, block in zip(np.asarray(y), p.argmax(axis=1))],
                    dtype=bool)


def _certain_accuracy(top: np.ndarray, hits: np.ndarray, alpha: float):
    """fuzzy_accuracy from each point's top output and hit."""
    certain = top >= alpha
    if not certain.any():
        return 0.0, certain
    return float(hits[certain].mean()), certain


def fuzzy_accuracy(chart: ModelChart, X, y, alpha: float):
    """(accuracy on the certain part, certain mask); 0 on an empty part."""
    return _fuzzy_accuracy_of(chart, chart.outputs(X), y, alpha)


def _fuzzy_accuracy_of(chart: ModelChart, p: np.ndarray, y, alpha: float):
    """fuzzy_accuracy from the chart's output matrix p at the points."""
    return _certain_accuracy(p.max(axis=1), _hits(chart, p, y), alpha)


def accuracy_curve(chart: ModelChart, X, y, alphas) -> AccuracyCurve:
    return _curve_of_outputs(chart, chart.outputs(X), y, alphas)


def _curve_of_outputs(chart: ModelChart, p: np.ndarray, y, alphas) -> AccuracyCurve:
    """accuracy_curve from the chart's output matrix p at the points."""
    top, hits = p.max(axis=1), _hits(chart, p, y)
    values, sizes = [], []
    for a in alphas:
        phi, certain = _certain_accuracy(top, hits, a)
        values.append(phi)
        sizes.append(int(certain.sum()))
    return AccuracyCurve(list(map(float, alphas)), values, sizes)
