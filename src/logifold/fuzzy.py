"""Decision graphs whose states are probability vectors instead of labels.

Vertices carry state spaces (products of simplices, or raw blocks before any
soft activation has been applied) and arrows carry maps between them.  A walk
threads a concrete state through the graph, so the result at a target is a
joint distribution over that target's outcome corners rather than a single
label.  Network importers reproduce sigmoid chains and ReLU-softmax nets
exactly: the graph walk performs the same affine arithmetic as the forward
pass, just grouped by region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Dict, Optional, Tuple

import numpy as np

from .algebra import graft
from .errors import (
    CyclicGraphError,
    DimensionMismatchError,
    NotScalarOutputError,
    StateSpaceMismatchError,
    StateSpaceViolationError,
    UnknownOutcomeError,
)
from .graph import (
    INTERNAL,
    SOURCE,
    TARGET,
    Arrow,
    GraphBuilder,
    LogicalGraph,
    _next_arrow,
    _require_finite,
    graph_from_dict,
    graph_to_dict,
    read_json,
    topological_order,
    write_json,
)
from .networks import (
    CHAMBER_CAP,
    REGION_CAP,
    NetworkSpec,
    _sigmoid,
    _softmax,
    _walk_relu_regions,
    require,
)

IDENTITY = "identity"
AFFINE_SIGMOID = "affine_sigmoid"
AFFINE_SOFTMAX = "affine_softmax"
PROJECT = "project"
DIAGONAL = "diagonal"
CONSTANT = "constant"
COORD_PRODUCT = "coord_product"
MIN = "min"
MAX = "max"

# each arrow map kind and the fields it reads
MAP_FIELDS = {IDENTITY: (), AFFINE_SIGMOID: ("matrix", "offset"),
              AFFINE_SOFTMAX: ("matrix", "offset"), PROJECT: ("indices",), DIAGONAL: (),
              CONSTANT: ("const",), COORD_PRODUCT: (), MIN: (), MAX: ()}

RAW = "R"

STATE_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """Product of simplex factors; ("R", k) marks an unconstrained block.

    A factor m stands for the simplex of distributions over m outcomes and
    occupies m ambient coordinates.  Scalar truth values use the factor 2 via
    the embedding u -> (u, 1 - u), so the value is the first coordinate.
    """

    factors: Tuple = ()

    @classmethod
    def euclidean(cls, n: int) -> "StateSpace":
        return cls(((RAW, int(n)),))

    @classmethod
    def simplex(cls, *sizes: int) -> "StateSpace":
        return cls(tuple(int(m) for m in sizes))

    @classmethod
    def scalar_power(cls, k: int) -> "StateSpace":
        return cls((2,) * k)

    @property
    def dim(self) -> int:
        return sum(f[1] if isinstance(f, tuple) else f for f in self.factors)

    @property
    def is_distributional(self) -> bool:
        return all(not isinstance(f, tuple) for f in self.factors)

    def concat(self, other: "StateSpace") -> "StateSpace":
        return StateSpace(self.factors + other.factors)

    def blocks(self):
        at = 0
        for f in self.factors:
            width = f[1] if isinstance(f, tuple) else f
            yield f, at, at + width
            at += width

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        for f, lo, hi in self.blocks():
            if isinstance(f, tuple):
                continue
            block = x[lo:hi]
            if np.any(block < -STATE_TOL) or abs(float(block.sum()) - 1.0) > STATE_TOL:
                return False
        return True


def scalar_state(values) -> np.ndarray:
    """Embed truth values u as interleaved (u, 1 - u) pairs."""
    u = np.asarray(values, dtype=float)
    out = np.empty(2 * len(u))
    out[0::2] = u
    out[1::2] = 1.0 - u
    return out


def scalar_values(state) -> np.ndarray:
    return np.asarray(state, dtype=float)[0::2]


@dataclass(frozen=True, eq=False)
class ArrowMap:
    """Map applied while crossing an arrow.

    With a span (lo, hi) the map reads coordinates [lo, hi) and leaves the
    rest in place; without one it consumes the whole state.  The coordinate
    kinds (product, min, max) read the even coordinates of their input as
    scalar truth values.  A kind not in MAP_FIELDS, or a field its kind reads
    left None, raises StateSpaceMismatchError.
    """

    kind: str
    matrix: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    indices: Optional[Tuple[int, ...]] = None
    const: Optional[np.ndarray] = None
    span: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        fields = MAP_FIELDS.get(self.kind)
        if fields is None:
            raise StateSpaceMismatchError(f"unknown arrow map kind {self.kind!r}")
        for name in fields:
            if getattr(self, name) is None:
                raise StateSpaceMismatchError(f"{self.kind} arrow map has no {name}")

    def _base(self, z: np.ndarray) -> np.ndarray:
        if self.kind == IDENTITY:
            return z
        if self.kind == AFFINE_SIGMOID:
            return scalar_state(_sigmoid(self.matrix @ z + self.offset))
        if self.kind == AFFINE_SOFTMAX:
            return _softmax(self.matrix @ z + self.offset)
        if self.kind == PROJECT:
            return z[list(self.indices)]
        if self.kind == DIAGONAL:
            return np.concatenate([z, z])
        if self.kind == CONSTANT:
            return np.array(self.const, dtype=float)
        if self.kind == COORD_PRODUCT:
            return scalar_state([float(np.prod(scalar_values(z)))])
        if self.kind == MIN:
            return scalar_state([float(np.min(scalar_values(z)))])
        return scalar_state([float(np.max(scalar_values(z)))])  # MAX

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.span is None:
            return self._base(x)
        lo, hi = self.span
        return np.concatenate([x[:lo], self._base(x[lo:hi]), x[hi:]])

    def out_dim(self, src_dim: int) -> int:
        lo, hi = self.span if self.span is not None else (0, src_dim)
        width = hi - lo
        if self.kind == IDENTITY:
            base = width
        elif self.kind == AFFINE_SIGMOID:
            base = 2 * self.matrix.shape[0]
        elif self.kind == AFFINE_SOFTMAX:
            base = self.matrix.shape[0]
        elif self.kind == PROJECT:
            base = len(self.indices)
        elif self.kind == DIAGONAL:
            base = 2 * width
        elif self.kind == CONSTANT:
            base = len(self.const)
        else:  # one truth value: COORD_PRODUCT, MIN or MAX
            base = 2
        return src_dim - width + base

    def shifted(self, by: int, src_dim: int) -> "ArrowMap":
        """Same map acting on a copy of its source embedded at offset `by`."""
        lo, hi = self.span if self.span is not None else (0, src_dim)
        return ArrowMap(self.kind, self.matrix, self.offset, self.indices,
                        self.const, (lo + by, hi + by))


@dataclass
class FuzzyLogicalGraph:
    skeleton: LogicalGraph
    state_spaces: Dict[str, StateSpace]
    arrow_maps: Dict[str, ArrowMap]

    @property
    def input_dim(self) -> int:
        return self.state_spaces[self.skeleton.source].dim

    def targets(self):
        return [v for v, k in self.skeleton.vertices.items() if k == TARGET]


def validate_fuzzy(fg: FuzzyLogicalGraph):
    """Static consistency: spaces everywhere, guard and map dims line up."""
    sk = fg.skeleton
    for v in sk.vertices:
        if v not in fg.state_spaces:
            raise StateSpaceMismatchError(f"vertex {v!r} has no state space")
    for v, guard in sk.guards.items():
        if guard.dim != fg.state_spaces[v].dim:
            raise StateSpaceMismatchError(
                f"guard at {v!r} reads {guard.dim} coordinates, state has "
                f"{fg.state_spaces[v].dim}")
    for aid, a in sk.arrows.items():
        amap = fg.arrow_maps.get(aid)
        if amap is None:
            raise StateSpaceMismatchError(f"arrow {aid!r} has no map")
        src_dim = fg.state_spaces[a.src].dim
        dst_dim = fg.state_spaces[a.dst].dim
        if amap.out_dim(src_dim) != dst_dim:
            raise StateSpaceMismatchError(
                f"arrow {aid!r} maps {src_dim} -> {amap.out_dim(src_dim)} "
                f"coordinates but {a.dst!r} expects {dst_dim}")


@dataclass
class FuzzyOutcome:
    label: object
    state: np.ndarray
    target: str


def evaluate_fuzzy(fg: FuzzyLogicalGraph, x) -> FuzzyOutcome:
    """Thread a state along the walk; each visited space must contain it.

    Each state is checked once, where it is made (the input and each arrow
    map's output): a NaN or infinite coordinate raises NonFinitePointError.
    Each guard signs the state as a list of Python floats
    (`graph._signs_at`), as `evaluate` signs a point.  A walk longer than
    the vertex count raises CyclicGraphError."""
    sk = fg.skeleton
    v = sk.source
    state = np.asarray(x, dtype=float)
    _require_finite(state)
    if not fg.state_spaces[v].contains(state):
        raise StateSpaceViolationError(
            f"input of shape {state.shape} is not a state of {fg.state_spaces[v]}")
    for _ in range(len(sk.vertices)):
        a = _next_arrow(sk, v, state.tolist())
        if a is None:
            return FuzzyOutcome(sk.target_labels[v], state, v)
        state = fg.arrow_maps[a.id].apply(state)
        _require_finite(state)
        v = a.dst
        if not fg.state_spaces[v].contains(state):
            raise StateSpaceViolationError(
                f"state left {fg.state_spaces[v]} while crossing {a.id!r}")
    raise CyclicGraphError("walk exceeded vertex count; graph has a cycle")


def evaluate_fuzzy_pathsum(fg: FuzzyLogicalGraph, x) -> FuzzyOutcome:
    """Evaluate by expanding all source-to-target paths; a term survives a
    vertex only on the arrow the exit rule takes there, so exactly one term
    survives, and it reproduces the walk, signed and checked as it is."""
    sk = fg.skeleton
    topological_order(sk)  # a cycle would expand forever
    state = np.asarray(x, dtype=float)
    if state.ndim != 1:
        raise DimensionMismatchError(f"input has shape {state.shape}, not one state")
    _require_finite(state)
    live = []
    stack = [(sk.source, state)]
    while stack:
        v, state = stack.pop()
        chosen = _next_arrow(sk, v, state.tolist())
        if chosen is None:
            live.append(FuzzyOutcome(sk.target_labels[v], state, v))
            continue
        for aid in sk.out_arrows[v]:
            if aid == chosen.id:  # every other term's indicator vanishes here
                out = fg.arrow_maps[aid].apply(state)
                _require_finite(out)
                stack.append((sk.arrows[aid].dst, out))
    if len(live) != 1:
        raise StateSpaceViolationError(
            f"path expansion produced {len(live)} surviving terms, expected 1")
    out = live[0]
    if not fg.state_spaces[out.target].contains(out.state):
        raise StateSpaceViolationError("surviving path left its target space")
    return out


def outcome_distribution(fg: FuzzyLogicalGraph, x) -> Dict:
    """Joint probabilities of every target corner; unreached targets get 0."""
    hit = evaluate_fuzzy(fg, x)
    dist = {}
    for t in fg.targets():
        space = fg.state_spaces[t]
        if not space.is_distributional:
            raise StateSpaceViolationError(
                f"target {t!r} still has raw coordinates; no outcome corners")
        label = fg.skeleton.target_labels[t]
        sizes = [f for f in space.factors]
        for corner in iproduct(*(range(m) for m in sizes)):
            if t != hit.target:
                dist[(label, corner)] = 0.0
                continue
            prob = 1.0
            for (f, lo, hi), i in zip(space.blocks(), corner):
                prob *= float(hit.state[lo + i])
            dist[(label, corner)] = prob
    return dist


def characteristic(fg: FuzzyLogicalGraph, x, outcome) -> float:
    """Probability of one (label, corner) outcome."""
    dist = outcome_distribution(fg, x)
    if outcome not in dist:
        known = sorted(map(str, dist))
        raise UnknownOutcomeError(f"outcome {outcome!r} not among {known}")
    return dist[outcome]


def scalar_value(fg: FuzzyLogicalGraph, x) -> float:
    """Truth value of a graph with a single scalar target."""
    t = _single_scalar_target(fg)
    out = evaluate_fuzzy(fg, x)
    if out.target != t:
        raise NotScalarOutputError(f"walk ended at {out.target!r}")
    return float(out.state[0])


# -- network importers ------------------------------------------------------


def _values_matrix(w: np.ndarray) -> np.ndarray:
    """Absorb the (u, 1-u) layout into the weights: act on even coordinates."""
    out = np.zeros((w.shape[0], 2 * w.shape[1]))
    out[:, 0::2] = w
    return out


def from_sigmoid_net(net: NetworkSpec, label="out") -> FuzzyLogicalGraph:
    """Chain graph of a sigmoid network with a softmax head."""
    require(net, "sigmoid importer")
    b = GraphBuilder(net.input_dim)
    spaces = {"s": StateSpace.euclidean(net.input_dim)}
    maps = {}
    prev = "s"
    for k, layer in enumerate(net.layers):
        if k < net.depth - 1:
            v = b.add(f"h{k + 1}")
            spaces[v] = StateSpace.scalar_power(layer.rows)
            kind = AFFINE_SIGMOID
        else:
            v = b.target_for(label)
            spaces[v] = StateSpace.simplex(layer.rows)
            kind = AFFINE_SOFTMAX
        w = layer.matrix if k == 0 else _values_matrix(layer.matrix)
        maps[b.arrow(prev, v)] = ArrowMap(kind, w, layer.offset)
        prev = v
    return FuzzyLogicalGraph(b.graph(), spaces, maps)


def from_relu_softmax_net(net: NetworkSpec, label="out",
                          chamber_cap: int = CHAMBER_CAP,
                          region_cap: int = REGION_CAP) -> FuzzyLogicalGraph:
    """Region tree of a ReLU network whose leaves apply softmax of the
    composed affine map; the state stays the raw input until a leaf arrow."""
    require(net, "relu importer")
    n = net.input_dim
    b = GraphBuilder(n)
    target = b.target_for(label)
    maps = {}

    def leaf(at, composed, region, witness):
        maps[b.arrow(b.vertex(at), target)] = ArrowMap(AFFINE_SOFTMAX, composed.matrix,
                                                       composed.offset)

    _walk_relu_regions(b, net, leaf, chamber_cap, region_cap)
    sk = b.graph()
    spaces = {v: StateSpace.euclidean(n) for v in sk.vertices}
    spaces[target] = StateSpace.simplex(net.output_dim)
    for aid in sk.arrows:
        maps.setdefault(aid, ArrowMap(IDENTITY))
    return FuzzyLogicalGraph(sk, spaces, maps)


# -- combinators ------------------------------------------------------------


def fuzzy_product(fg1: FuzzyLogicalGraph, fg2: FuzzyLogicalGraph) -> FuzzyLogicalGraph:
    """Run both graphs on the same input; final factors concatenate.

    The state doubles up front, the first graph transforms the left block
    while the right block preserves the input, and copies of the second graph
    grafted at each target consume that preserved block.
    """
    n = fg1.input_dim
    if fg2.input_dim != n:
        raise DimensionMismatchError(
            f"product factors read {n} and {fg2.input_dim} coordinates")
    sk1, sk2 = fg1.skeleton, fg2.skeleton
    g, vertex_origin, arrow_origin = graft(sk1, sk2, lambda a, b: (a, b))
    space1, space2 = fg1.state_spaces, fg2.state_spaces

    spaces = {"s*": StateSpace.euclidean(n)}
    for v, (t, w) in vertex_origin.items():
        spaces[v] = (space1[w].concat(StateSpace.euclidean(n)) if t is None
                     else space1[t].concat(space2[w]))
    maps = {"dup": ArrowMap(DIAGONAL)}
    for aid, (t, old) in arrow_origin.items():
        maps[aid] = (fg1.arrow_maps[old].shifted(0, space1[sk1.arrows[old].src].dim)
                     if t is None else
                     fg2.arrow_maps[old].shifted(space1[t].dim,
                                                 space2[sk2.arrows[old].src].dim))
    guards = {}
    for v, guard in g.guards.items():
        # a guard at a g1 target is the grafted copy's source guard
        t, w = vertex_origin[v]
        if t is None and w not in sk1.target_labels:
            guards[v] = guard.padded(0, n)
        else:
            guards[v] = guard.padded(space1[w if t is None else t].dim, 0)

    vertices = {"s*": SOURCE, **g.vertices}
    vertices[g.source] = INTERNAL
    arrows = [Arrow("dup", "s*", g.source)] + list(g.arrows.values())
    sk = LogicalGraph(n, vertices, arrows, guards, g.routing, g.target_labels)
    return FuzzyLogicalGraph(sk, spaces, maps)


def _single_scalar_target(fg: FuzzyLogicalGraph) -> str:
    ts = fg.targets()
    if len(ts) != 1 or fg.state_spaces[ts[0]].factors != (2,):
        raise NotScalarOutputError(
            "operation needs exactly one target carrying a single truth value")
    return ts[0]


def _combine_scalar(fg1, fg2, kind) -> FuzzyLogicalGraph:
    _single_scalar_target(fg1)
    _single_scalar_target(fg2)
    p = fuzzy_product(fg1, fg2)
    (t,) = p.targets()
    sk = p.skeleton
    vertices = dict(sk.vertices)
    vertices[t] = INTERNAL
    vertices["t*"] = TARGET
    arrows = list(sk.arrows.values()) + [Arrow("merge", t, "t*")]
    labels = {"t*": sk.target_labels[t]}
    spaces = dict(p.state_spaces)
    spaces["t*"] = StateSpace.scalar_power(1)
    maps = dict(p.arrow_maps)
    maps["merge"] = ArrowMap(kind)
    merged = LogicalGraph(sk.input_dim, vertices, arrows, sk.guards,
                          sk.routing, labels)
    return FuzzyLogicalGraph(merged, spaces, maps)


def fuzzy_union(fg1: FuzzyLogicalGraph, fg2: FuzzyLogicalGraph) -> FuzzyLogicalGraph:
    """Pointwise max of two scalar-valued graphs."""
    return _combine_scalar(fg1, fg2, MAX)


def fuzzy_intersection(fg1: FuzzyLogicalGraph, fg2: FuzzyLogicalGraph) -> FuzzyLogicalGraph:
    """Pointwise min of two scalar-valued graphs."""
    return _combine_scalar(fg1, fg2, MIN)


# -- serialization ----------------------------------------------------------


def _space_to_list(space: StateSpace):
    return [list(f) if isinstance(f, tuple) else f for f in space.factors]


def _space_from_list(data) -> StateSpace:
    return StateSpace(tuple((f[0], int(f[1])) if isinstance(f, list) else int(f)
                            for f in data))


def _map_to_dict(m: ArrowMap) -> dict:
    out = {"kind": m.kind}
    if m.matrix is not None:
        out["matrix"] = np.asarray(m.matrix).tolist()
        out["offset"] = np.asarray(m.offset).tolist()
    if m.indices is not None:
        out["indices"] = list(m.indices)
    if m.const is not None:
        out["const"] = np.asarray(m.const).tolist()
    if m.span is not None:
        out["span"] = list(m.span)
    return out


def _map_from_dict(d: dict) -> ArrowMap:
    return ArrowMap(
        d["kind"],
        np.array(d["matrix"]) if "matrix" in d else None,
        np.array(d["offset"]) if "offset" in d else None,
        tuple(d["indices"]) if "indices" in d else None,
        np.array(d["const"]) if "const" in d else None,
        tuple(d["span"]) if "span" in d else None,
    )


def fuzzy_to_dict(fg: FuzzyLogicalGraph) -> dict:
    return {
        "graph": graph_to_dict(fg.skeleton),
        "state_spaces": {v: _space_to_list(s) for v, s in fg.state_spaces.items()},
        "arrow_maps": {aid: _map_to_dict(m) for aid, m in fg.arrow_maps.items()},
    }


def fuzzy_from_dict(data: dict) -> FuzzyLogicalGraph:
    sk = graph_from_dict(data["graph"])
    spaces = {v: _space_from_list(s) for v, s in data["state_spaces"].items()}
    maps = {aid: _map_from_dict(m) for aid, m in data["arrow_maps"].items()}
    return FuzzyLogicalGraph(sk, spaces, maps)


def save_fuzzy(fg: FuzzyLogicalGraph, path):
    write_json(fuzzy_to_dict(fg), path)


def load_fuzzy(path) -> FuzzyLogicalGraph:
    return fuzzy_from_dict(read_json(path))
