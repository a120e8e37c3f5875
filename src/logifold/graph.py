"""Finite decision graphs with affine guards.

A graph has exactly one source, a set of labeled target vertices, and routes
points of R^n along arrows: every vertex with more than one outgoing arrow
carries an affine guard, and the sign vector of the guard at a point picks the
arrow.  Sign convention: ``+`` means the guard row is >= 0, ``-`` means < 0,
so boundary points follow the ``+`` side.

Evaluation comes in two equivalent forms: the plain walk (`evaluate`) and the
sum over all source-to-target paths of chamber-indicator products
(`evaluate_pathsum`), which agree on every input with exactly one path
contributing.

Every sign comes from one predicate, `_guard_signs`: a row's value is summed
in a fixed elementwise order, ((a0*x0 + a1*x1) + ...), and compared with -b,
with no BLAS call, so a point's signs do not depend on the points evaluated
with it.  `sign_vector`, `evaluate`, `evaluate_pathsum`, the fuzzy walks and
the batch walk `evaluate_batch` all use it, so `evaluate_batch` returns
`evaluate`'s labels bit for bit.  The batch walk holds the points as one
contiguous (d, m) array and visits each vertex once, in topological order.
A one-row guard splits its points by their sign; a longer guard routes them
through a dense table over its 2**rows sign codes when that table is no
larger than its points, and otherwise looks up each distinct code once.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import feasibility
from .errors import (
    CyclicGraphError,
    DanglingVertexError,
    DimensionMismatchError,
    GuardExplosionError,
    IncompleteRoutingError,
    MultipleSourcesError,
    NonFinitePointError,
    PathExplosionError,
    UnknownSignVectorError,
)

SOURCE = "source"
INTERNAL = "internal"
TARGET = "target"

PATH_CAP = 10**6

# validate_graph checks guard routing against the exactly-realizable sign
# vectors when the problem is small enough for exact elimination
_REALIZABILITY_DIM = feasibility.DIM_BUDGET
_REALIZABILITY_CHAMBERS = 4096


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> matrix @ x + offset, with matrix of shape (k, n)."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatchError(f"guard matrix must be 2-d, got shape {m.shape}")
        b = np.asarray(self.offset, dtype=float).reshape(-1)
        if b.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"offset length {b.shape[0]} does not match {m.shape[0]} rows")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset

    def row(self, i):
        """(coeffs, offset) pair of a single row, for feasibility systems."""
        return self.matrix[i].tolist(), float(self.offset[i])

    @classmethod
    def from_rows(cls, rows, dim: int) -> "AffineMap":
        """Map with the given (coeffs, offset) rows; no rows give a (0, dim) map."""
        return cls(np.array([c for c, _ in rows], dtype=float).reshape(len(rows), dim),
                   np.array([b for _, b in rows], dtype=float))


def _require_finite(x: np.ndarray):
    """NaN compares false with every row and would silently route as '-'."""
    if not np.isfinite(x).all():
        raise NonFinitePointError("points must be finite; got a NaN or infinite coordinate")


def _guard_signs(guard: AffineMap, XT: np.ndarray) -> np.ndarray:
    """(rows, m) signs of the guard at the m columns of XT: entry [i, j] is
    True iff row i is >= 0 at point j.

    Each row value is summed in one fixed elementwise order,
    ((a0*x0 + a1*x1) + ...), and compared with -b, which has the sign of
    the rounded sum plus b.  No BLAS call is made: a BLAS product picks its
    kernel, and so its rounding, by the shape of the batch, and a point's
    signs must not depend on the points it arrives with.
    """
    A = guard.matrix
    acc = A[:, :1] * XT[0] if guard.dim else np.zeros((guard.rows, XT.shape[1]))
    for j in range(1, guard.dim):
        acc += A[:, j:j + 1] * XT[j]
    return acc >= -guard.offset[:, None]


def sign_vector(guard: AffineMap, x: np.ndarray) -> str:
    """Sign string of the guard at x; entry i is '+' iff row i(x) >= 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (guard.dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, guard expects ({guard.dim},)")
    _require_finite(x)
    return "".join("+" if s else "-" for s in _guard_signs(guard, x[:, None])[:, 0].tolist())


def _no_route(vertex: str, signs: str) -> UnknownSignVectorError:
    return UnknownSignVectorError(f"vertex {vertex!r} has no route for sign vector {signs!r}")


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    dst: str


@dataclass
class ValidationReport:
    errors: List[Exception] = field(default_factory=list)
    topo_order: List[str] = field(default_factory=list)
    realizability_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors


class LogicalGraph:
    """Immutable-by-convention decision graph over R^input_dim."""

    def __init__(self, input_dim: int, vertices: Dict[str, str], arrows: Sequence[Arrow],
                 guards: Dict[str, AffineMap], routing: Dict[str, Dict[str, str]],
                 target_labels: Dict[str, object]):
        self.input_dim = int(input_dim)
        self.vertices = dict(vertices)
        self.arrows = {a.id: a for a in arrows}
        self.guards = dict(guards)
        self.routing = {v: dict(r) for v, r in routing.items()}
        self.target_labels = dict(target_labels)
        self.out_arrows: Dict[str, List[str]] = {v: [] for v in self.vertices}
        self.in_degree: Dict[str, int] = {v: 0 for v in self.vertices}
        for a in arrows:
            if a.src in self.out_arrows:
                self.out_arrows[a.src].append(a.id)
            if a.dst in self.in_degree:
                self.in_degree[a.dst] += 1

    # -- structure ---------------------------------------------------------

    @property
    def source(self) -> str:
        for v, kind in self.vertices.items():
            if kind == SOURCE:
                return v
        raise MultipleSourcesError("graph has no source vertex")

    @property
    def labels(self):
        return set(self.target_labels.values())

    def next_arrow(self, vertex: str, x: np.ndarray) -> Arrow:
        out = self.out_arrows[vertex]
        if vertex in self.guards:
            s = sign_vector(self.guards[vertex], x)
            aid = self.routing.get(vertex, {}).get(s)
            if aid not in self.arrows:
                raise _no_route(vertex, s)
            return self.arrows[aid]
        if len(out) != 1:
            raise IncompleteRoutingError(
                f"vertex {vertex!r} has {len(out)} outgoing arrows but no guard")
        return self.arrows[out[0]]


class GraphBuilder:
    """The one place that assembles a graph from scratch; its source is "s".

    Each label gets one target, numbered t0, t1, ... in order of first use,
    so labels that print alike (1 and "1") stay apart.  A guard gets one
    arrow per destination, and a guard whose chambers all route alike is
    replaced by a plain arrow (the redundant-test rule of ROBDD reduction).
    """

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.vertices = {"s": SOURCE}
        self.arrows: List[Arrow] = []
        self.guards: Dict[str, AffineMap] = {}
        self.routing: Dict[str, Dict[str, str]] = {}
        self.target_labels: Dict[str, object] = {}
        self._target_of: Dict[object, str] = {}

    def target_for(self, label) -> str:
        v = self._target_of.get(label)
        if v is None:
            v = self._target_of[label] = f"t{len(self._target_of)}"
            self.vertices[v] = TARGET
            self.target_labels[v] = label
        return v

    def add(self, vid: str) -> str:
        self.vertices[vid] = INTERNAL
        return vid

    def arrow(self, src: str, dst: str) -> str:
        aid = f"e{len(self.arrows)}"
        self.arrows.append(Arrow(aid, src, dst))
        return aid

    def branch(self, vid: str, guard: AffineMap, routes: Dict[str, str]):
        """Guard `vid`, sending each sign vector in `routes` to its vertex."""
        dsts = set(routes.values())
        if len(dsts) == 1:
            self.arrow(vid, dsts.pop())
            return
        self.guards[vid] = guard
        table, arrow_of = {}, {}
        for signs, dst in routes.items():
            if dst not in arrow_of:
                arrow_of[dst] = self.arrow(vid, dst)
            table[signs] = arrow_of[dst]
        self.routing[vid] = table

    def graph(self) -> LogicalGraph:
        return LogicalGraph(self.input_dim, self.vertices, self.arrows,
                            self.guards, self.routing, self.target_labels)


def _topological_order(g: LogicalGraph):
    """Kahn's algorithm, smallest ready vertex id first.

    Returns (order, stuck): `stuck` lists the vertices left on a cycle, empty
    iff `order` holds every vertex.  An arrow with a missing end raises.
    """
    indeg = dict(g.in_degree)
    for a in g.arrows.values():
        for end in (a.src, a.dst):
            if end not in indeg:
                raise DanglingVertexError(f"arrow {a.id!r} references missing vertex {end!r}")
    queue = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(queue)
    order = []
    while queue:
        v = heapq.heappop(queue)
        order.append(v)
        for aid in g.out_arrows[v]:
            w = g.arrows[aid].dst
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(queue, w)
    stuck = sorted(v for v, d in indeg.items() if d > 0)
    return order, stuck


def topological_order(g: LogicalGraph) -> List[str]:
    """Every vertex, in the order of `_topological_order`; a cycle raises
    CyclicGraphError."""
    order, stuck = _topological_order(g)
    if stuck:
        raise CyclicGraphError(f"cycle through vertices {stuck}")
    return order


def validate_graph(g: LogicalGraph, check_realizability: bool = True) -> ValidationReport:
    """Structural audit: acyclicity, single source, finite guards, routing
    totality, labels.

    Routing totality is checked by `walk_regions` against the exactly
    realizable sign vectors of each guard whenever the input dimension and
    chamber count fit the exact elimination budget; larger graphs get the
    structural checks only.  The first realizable unrouted chamber is
    reported.
    """
    rep = ValidationReport()
    err = rep.errors.append

    for a in g.arrows.values():
        for end in (a.src, a.dst):
            if end not in g.vertices:
                err(DanglingVertexError(f"arrow {a.id!r} references missing vertex {end!r}"))
    if any(isinstance(e, DanglingVertexError) for e in rep.errors):
        return rep

    sources = [v for v, k in g.vertices.items() if k == SOURCE]
    if len(sources) != 1:
        err(MultipleSourcesError(f"expected exactly one source, found {sorted(sources)}"))
    structural_roots = [v for v in g.vertices if g.in_degree[v] == 0]
    for v in structural_roots:
        if g.vertices[v] != SOURCE:
            err(DanglingVertexError(f"vertex {v!r} is unreachable (no incoming arrows)"))
    for v in sources:
        if g.in_degree[v] != 0:
            err(MultipleSourcesError(f"source {v!r} has incoming arrows"))

    order, stuck = _topological_order(g)
    if stuck:
        err(CyclicGraphError(f"cycle through vertices {stuck}"))
    else:
        rep.topo_order = order

    for v, kind in g.vertices.items():
        out = g.out_arrows[v]
        if kind == TARGET:
            if out:
                err(DanglingVertexError(f"target {v!r} has outgoing arrows {out}"))
            if v not in g.target_labels:
                err(DanglingVertexError(f"target {v!r} has no label"))
        else:
            if not out:
                err(DanglingVertexError(f"non-target {v!r} has no outgoing arrows"))
    for v in g.target_labels:
        if g.vertices.get(v) != TARGET:
            err(DanglingVertexError(f"label attached to non-target vertex {v!r}"))
    labels = list(g.target_labels.values())
    if len(set(labels)) != len(labels):
        err(DanglingVertexError("target labels are not pairwise distinct"))

    for v, out in g.out_arrows.items():
        guard = g.guards.get(v)
        if len(out) > 1 and guard is None:
            err(IncompleteRoutingError(f"vertex {v!r} branches without a guard"))
        if len(out) <= 1 and guard is not None:
            err(IncompleteRoutingError(f"vertex {v!r} has a guard but does not branch"))
        if guard is None:
            continue
        if guard.dim != g.input_dim:
            err(DimensionMismatchError(
                f"guard at {v!r} acts on R^{guard.dim}, graph is over R^{g.input_dim}"))
            continue
        if not (np.isfinite(guard.matrix).all() and np.isfinite(guard.offset).all()):
            err(NonFinitePointError(f"guard at {v!r} has a NaN or infinite entry"))
        routes = g.routing.get(v, {})
        for s, aid in routes.items():
            if len(s) != guard.rows or set(s) - {"+", "-"}:
                err(IncompleteRoutingError(f"vertex {v!r}: malformed sign key {s!r}"))
            elif aid not in g.arrows or g.arrows[aid].src != v:
                err(IncompleteRoutingError(f"vertex {v!r}: route {s!r} -> bad arrow {aid!r}"))
        routed = set(routes.values())
        for aid in out:
            if aid not in routed:
                err(IncompleteRoutingError(f"vertex {v!r}: arrow {aid!r} is never routed"))

    if check_realizability and not rep.errors and rep.topo_order \
            and g.input_dim <= _REALIZABILITY_DIM:
        try:
            for _ in walk_regions(g, cap=_REALIZABILITY_CHAMBERS):
                pass
        except GuardExplosionError:
            return rep  # budget exceeded: structural checks only
        except IncompleteRoutingError as e:
            err(e)
        rep.realizability_checked = True
    return rep


def walk_regions(g: LogicalGraph, cap: Optional[int] = None):
    """Depth-first walk over the regions of input space that g routes.

    Yields (target, steps) once per source-to-target region that some input
    reaches, where `steps` lists the (guard vertex, sign vector) pairs taken.
    Unguarded vertices are followed; at each guard the realizable chambers
    within the region's constraint system are visited in sorted sign order.
    A realizable chamber without a route raises IncompleteRoutingError, and
    more than `cap` chambers in total raise GuardExplosionError.  Without a
    cap, a guard stops enumerating once its chambers outnumber its routes,
    since one of them must then be unrouted.  A cyclic graph raises
    CyclicGraphError before any region is yielded.
    """
    topological_order(g)
    seen = 0
    stack = [(g.source, [], None, [])]
    while stack:
        v, system, witness, steps = stack.pop()
        while v not in g.guards and g.vertices[v] != TARGET:
            v = g.arrows[g.out_arrows[v][0]].dst
        if g.vertices[v] == TARGET:
            yield v, steps
            continue
        guard = g.guards[v]
        routes = g.routing.get(v, {})
        try:
            chambers = feasibility.enumerate_chambers(
                [guard.row(i) for i in range(guard.rows)], g.input_dim, base=system,
                base_witness=witness, cap=len(routes) if cap is None else cap - seen)
        except GuardExplosionError:
            if cap is None:
                raise IncompleteRoutingError(f"vertex {v!r} has more realizable sign "
                                             f"vectors than its {len(routes)} routes") from None
            raise GuardExplosionError(f"more than {cap} realizable chambers in the walk") from None
        seen += len(chambers)
        children = []
        for signs, (w, sub) in sorted(chambers.items()):
            if signs not in routes:
                raise IncompleteRoutingError(
                    f"vertex {v!r}: realizable sign vector {signs!r} is unrouted")
            children.append((g.arrows[routes[signs]].dst, sub, w, steps + [(v, signs)]))
        stack.extend(reversed(children))  # smallest sign vector is walked first


def require_valid(g: LogicalGraph, check_realizability: bool = True) -> ValidationReport:
    rep = validate_graph(g, check_realizability)
    if not rep.ok:
        raise rep.errors[0]
    return rep


# -- evaluation ------------------------------------------------------------

def evaluate(g: LogicalGraph, x) -> object:
    """Label of the unique walk from the source to a target through x's chambers."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.input_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, graph expects ({g.input_dim},)")
    _require_finite(x)
    v = g.source
    seen = 0
    while g.vertices[v] != TARGET:
        v = g.next_arrow(v, x).dst
        seen += 1
        if seen > len(g.vertices):
            raise CyclicGraphError("walk exceeded vertex count; graph has a cycle")
    return g.target_labels[v]


def evaluate_batch(g: LogicalGraph, X) -> list:
    """Vectorized walk for many points: labels in input order, equal to
    `evaluate` at every point bit for bit.

    One pass over the vertices in topological order visits each vertex once
    per call, with every point that reached it, so points that reach the
    same vertex by different arrows move on together.  The points are held
    once as a contiguous (d, m) array; a guard takes its points' columns and
    signs them with `_guard_signs`, the predicate `evaluate` uses.  A one-row
    guard splits its points by that sign mask; a longer one packs each
    point's signs into an integer code.  When the guard's 2**rows codes
    are no more than its points, a dense table built from its routes maps
    each code to a destination slot; otherwise the route of each distinct
    code is looked up once.  The points then split by slot with one stable
    argsort.  A cyclic graph raises `CyclicGraphError`, and a guard over the
    wrong dimension `DimensionMismatchError`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != g.input_dim:
        raise DimensionMismatchError(
            f"points have shape {X.shape}, graph expects (m, {g.input_dim})")
    _require_finite(X)
    order = topological_order(g)
    targets = [v for v in order if g.vertices[v] == TARGET]
    target_slot = {v: k for k, v in enumerate(targets)}
    slot_labels = np.empty(len(targets), dtype=object)
    for k, v in enumerate(targets):
        slot_labels[k] = g.target_labels[v]  # item-wise, so tuple labels stay whole
    XT = np.ascontiguousarray(X.T)
    source = g.source
    point_slot = np.empty(X.shape[0], dtype=np.intp)
    reached: Dict[str, List[np.ndarray]] = {source: [np.arange(X.shape[0])]}
    for v in order:
        parts = reached.pop(v, None)
        if parts is None:
            continue
        idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if v in target_slot:
            point_slot[idx] = target_slot[v]
        elif v in g.guards:
            cols = XT if v == source else XT.take(idx, axis=1)  # the source has every point
            for dst, members in _route_guard(g, v, cols, idx):
                reached.setdefault(dst, []).append(members)
        else:  # an unguarded vertex ignores the point
            reached.setdefault(g.next_arrow(v, None).dst, []).append(idx)
    return slot_labels[point_slot].tolist()


_SIGN_BITS = str.maketrans("+-", "10")


def _code_key(code: int, k: int) -> str:
    """Sign string of a k-row code whose bit i is set iff row i is '+'."""
    return "".join("+" if code >> i & 1 else "-" for i in range(k))


def _route_guard(g: LogicalGraph, v: str, XT: np.ndarray, idx: np.ndarray):
    """(destination, point indices) pairs for the points `idx`, whose
    coordinates are the columns of XT, at guard `v`."""
    guard = g.guards[v]
    if guard.dim != g.input_dim:
        raise DimensionMismatchError(
            f"guard at {v!r} acts on R^{guard.dim}, graph is over R^{g.input_dim}")
    signs = _guard_signs(guard, XT)
    k, m = signs.shape
    routes = g.routing.get(v, {})
    if k == 1:  # one row splits its points by a mask, with no codes or sort
        split = [(key, idx[mask]) for key, mask in (("-", ~signs[0]), ("+", signs[0]))]
        for key, members in split:
            if len(members) and routes.get(key) not in g.arrows:
                raise _no_route(v, key)
        return [(g.arrows[routes[key]].dst, members) for key, members in split if len(members)]
    slot_of: Dict[str, int] = {}  # destination -> slot, in order of first use

    def slot(key):
        aid = routes.get(key)
        return -1 if aid not in g.arrows else slot_of.setdefault(g.arrows[aid].dst, len(slot_of))

    slot_type = np.int8 if len(routes) < 128 else np.intp  # numpy radix-sorts int8
    if k <= 63:
        codes = np.zeros(m, dtype=np.int64)
        for i in range(k):
            codes += signs[i] * np.int64(1 << i)
    if k <= 63 and 2 ** k <= m:  # a dense table costs no more than the points
        table = np.full(2 ** k, -1, dtype=slot_type)
        for key in routes:
            if len(key) == k and key.count("+") + key.count("-") == k:
                table[int(key[::-1].translate(_SIGN_BITS), 2)] = slot(key)
        point_slot = table[codes]
        unknown = point_slot < 0
        if unknown.any():
            raise _no_route(v, _code_key(int(codes[unknown].min()), k))
    else:
        if k <= 63:
            distinct, inverse = np.unique(codes, return_inverse=True)
            keys = [_code_key(c, k) for c in distinct.tolist()]
        else:  # codes would overflow int64: group the sign columns themselves
            distinct, inverse = np.unique(signs.T, axis=0, return_inverse=True)
            keys = ["".join("+" if b else "-" for b in row) for row in distinct.tolist()]
        slots = []
        for key in keys:
            slots.append(slot(key))
            if slots[-1] < 0:
                raise _no_route(v, key)
        point_slot = np.array(slots, dtype=slot_type)[inverse.reshape(-1)]
    dsts = list(slot_of)
    if len(dsts) == 1:
        return [(dsts[0], idx)]
    by_slot = idx[np.argsort(point_slot, kind="stable")]
    ends = np.bincount(point_slot, minlength=len(dsts)).cumsum().tolist()
    return [(d, by_slot[a:b]) for d, a, b in zip(dsts, [0] + ends, ends) if a < b]


def enumerate_paths(g: LogicalGraph, cap: int = PATH_CAP) -> List[List[str]]:
    """All source-to-target paths as arrow id lists; errors past `cap` paths."""
    counts: Dict[str, int] = {}
    for v in reversed(topological_order(g)):
        if g.vertices[v] == TARGET:
            counts[v] = 1
        else:
            counts[v] = sum(counts[g.arrows[a].dst] for a in g.out_arrows[v])
    total = counts.get(g.source, 0)
    if total > cap:
        raise PathExplosionError(f"graph has {total} paths, cap is {cap}")
    paths: List[List[str]] = []

    def rec(v, acc):
        if g.vertices[v] == TARGET:
            paths.append(list(acc))
            return
        for aid in g.out_arrows[v]:
            acc.append(aid)
            rec(g.arrows[aid].dst, acc)
            acc.pop()

    rec(g.source, [])
    return paths


@dataclass
class PathTerm:
    arrows: List[str]
    coefficient: int
    label: object


def evaluate_pathsum(g: LogicalGraph, x, cap: int = PATH_CAP):
    """Path-sum form of evaluation.

    Returns (label, terms) where each term is a path with its 0/1 chamber
    coefficient; exactly one term carries coefficient 1 and its label is the
    value of the graph at x.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.input_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, graph expects ({g.input_dim},)")
    signs: Dict[str, str] = {}

    def chosen(v) -> Optional[str]:
        if v in g.guards:
            s = signs.get(v)
            if s is None:
                s = signs[v] = sign_vector(g.guards[v], x)
            return g.routing.get(v, {}).get(s)
        out = g.out_arrows[v]
        return out[0] if len(out) == 1 else None

    terms = []
    live_label = None
    live = 0
    for path in enumerate_paths(g, cap):
        coeff = 1
        for aid in path:
            if chosen(g.arrows[aid].src) != aid:
                coeff = 0
                break
        label = g.target_labels[g.arrows[path[-1]].dst] if path else None
        terms.append(PathTerm(path, coeff, label))
        if coeff:
            live += 1
            live_label = label
    if live != 1:
        raise UnknownSignVectorError(
            f"expected exactly one live path, found {live} (unrouted sign vector)")
    return live_label, terms


# -- serialization ---------------------------------------------------------

def label_to_text(label) -> str:
    """The JSON text of a label; tuples are written as arrays, recursively."""
    return json.dumps(label)


def _tupled(value):
    return tuple(map(_tupled, value)) if isinstance(value, list) else value


def label_from_text(text: str):
    """Inverse of `label_to_text`: arrays are read back as tuples."""
    try:
        return _tupled(json.loads(text))
    except json.JSONDecodeError:
        raise ValueError(f"label text {text!r} is not JSON") from None


def graph_to_dict(g: LogicalGraph) -> dict:
    return {
        "input_dim": g.input_dim,
        "vertices": [{"id": v, "kind": k} for v, k in g.vertices.items()],
        "arrows": [{"id": a.id, "src": a.src, "dst": a.dst} for a in g.arrows.values()],
        "guards": {
            v: {"matrix": gd.matrix.tolist(), "offset": gd.offset.tolist()}
            for v, gd in g.guards.items()
        },
        "routing": {v: dict(r) for v, r in g.routing.items()},
        "target_labels": {v: label_to_text(l) for v, l in g.target_labels.items()},
    }


def graph_from_dict(data: dict) -> LogicalGraph:
    vertices = {v["id"]: v["kind"] for v in data["vertices"]}
    arrows = [Arrow(a["id"], a["src"], a["dst"]) for a in data["arrows"]]
    guards = {
        v: AffineMap(np.asarray(gd["matrix"], dtype=float), np.asarray(gd["offset"], dtype=float))
        for v, gd in data.get("guards", {}).items()
    }
    return LogicalGraph(
        input_dim=data["input_dim"],
        vertices=vertices,
        arrows=arrows,
        guards=guards,
        routing=data.get("routing", {}),
        target_labels={v: label_from_text(t) for v, t in data.get("target_labels", {}).items()},
    )


def save_graph(g: LogicalGraph, path: str):
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> LogicalGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def relabel(g: LogicalGraph, mapping) -> LogicalGraph:
    """New graph with target labels pushed through `mapping` (callable or dict).

    The mapping must stay injective on the label set; merging labels is the
    business of graph surgery, not relabeling.
    """
    f = mapping if callable(mapping) else (lambda l: mapping[l])
    new = {v: f(l) for v, l in g.target_labels.items()}
    if len(set(new.values())) != len(new):
        raise DanglingVertexError("relabeling collapses distinct target labels")
    return LogicalGraph(g.input_dim, g.vertices, list(g.arrows.values()),
                        g.guards, g.routing, new)
