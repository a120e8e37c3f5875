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

Every walk (`evaluate`, `evaluate_batch`, `walk_regions` behind
`from_llgraph`, `evaluate_pathsum` and the fuzzy walks) leaves a vertex by
one exit rule, `_exit` and `_route`.  A target stops the walk, and one
without a label raises DanglingVertexError.  A vertex without a guard takes
its one outgoing arrow, and with none or several raises
IncompleteRoutingError.  A guard not over the walk's R^n raises
DimensionMismatchError.  A sign vector takes the arrow its route names if
that arrow leaves the vertex; otherwise it has no route, which raises
UnknownSignVectorError at a point and IncompleteRoutingError for a
realizable chamber in `walk_regions`.  A fault raises only once a walk
reaches its vertex.  An arrow to a missing vertex raises
DanglingVertexError: in `evaluate` and `evaluate_fuzzy` once a point takes
it, and in the other walks before they start, as a cycle does.
`validate_graph` asks the same rule at every vertex, so its report holds
the error a walk reaching a faulty vertex raises, before any walk runs.

Every sign comes from a guard's float view: a guard built from exact rows,
as the relu compiler's are, is split and walked on those rows and signed at
a point by their rounded floats (`AffineMap`).  A row's value is summed in
a fixed elementwise order, ((a0*x0 + a1*x1) + ...), and compared with -b,
with no BLAS call, so a point's signs do not depend on the points evaluated
with it.  The batch walk `evaluate_batch` signs its points by the array
predicate `_guard_signs`; every single point (`sign_vector`, `evaluate`,
`evaluate_pathsum`, `LogicalGraph.next_arrow` and the fuzzy walks) is
signed by the one point predicate `_signs_at`, in Python floats, with the
same products and sums in the same order (`_row_sum`, also behind
`BasicSemilinearSet.contains`), so `evaluate_batch` returns `evaluate`'s
labels bit for bit.  The batch walk runs a program compiled once per graph,
holds the points as one contiguous (d, m) array in a per-thread workspace,
and visits each vertex once, in topological order.
A tree of axis guards x[a] - face >= 0, such as a grid cover's k-d tree,
routes its points in one step, by their per-axis ranks among its faces and a
table over those ranks.  Any other one-row guard splits its points by their
sign; a guard of up to `_DENSE_ROWS` rows routes them through a dense table
over its 2**rows sign codes, and a wider one looks up each distinct code
once.
"""

from __future__ import annotations

import heapq
import json
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from operator import mul
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import feasibility
from .errors import (
    CyclicGraphError,
    DanglingVertexError,
    DimensionMismatchError,
    GuardExplosionError,
    IncompleteRoutingError,
    LogifoldError,
    MultipleSourcesError,
    NonFinitePointError,
    PathExplosionError,
    RegionExplosionError,
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
_STRUCTURAL_ERRORS = "structural errors found first"


def _rounded(values, den: int) -> list:
    """Each int in `values` over `den`, rounded to the nearest float; one too
    large for a float becomes an infinity of its sign."""
    out = []
    for v in values:
        try:
            out.append(v / den)  # int / int rounds correctly
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    return out


class AffineMap:
    """x -> matrix @ x + offset, with matrix of shape (k, n).

    A map is built from floats, ``AffineMap(matrix, offset)``, or from exact
    rows, `AffineMap.from_exact`.  Each form is read into the other only
    when something asks for it, and kept:
    - `exact`, its rows as integers (a1, ..., an, b) over one positive
      denominator: a float map's floats read exactly, by
      `feasibility.read_exact`, over a power of two;
    - `constraints`, each exact row ``row(x) >= 0`` as a weak integer
      `feasibility.Constraint`;
    - `matrix` and `offset`, the float view: an exact map's rows, each entry
      rounded to the nearest float.  Points are signed, and files and
      semilinear pieces written, from it; a map that is only split, such as
      a duel that never becomes a guard, is never rounded.
    `rows` and `dim` round nothing.

    Its chambers within a base system, `chambers`, are kept too, for the
    last base asked: a compiler splits a guard once, and a walk over the
    graph it built (`validate_graph`, `semilinear.from_llgraph`) asks the
    same guard under the same base and reads the record instead of
    eliminating again.  A relu map also keeps its successors: the relu
    region walk (`networks._next_map`) records on each map it splits the
    next layer composed over each chamber, keyed by that layer object and
    the chamber's signs, so a second walk of the same layers (the relu
    compiler's and the relu-softmax import's) reaches the same maps and
    their recorded chambers.  So the map must not be changed in place after
    any view is read: like `LogicalGraph`'s batch program, later reads would
    still see the old rows, chambers and successors.
    """

    _record = None  # (base, chambers) of the last `chambers` call
    _successors = None  # {(next layer, signs): composed map}, kept by the relu walk
    _exact_built = False  # built by `from_exact`, so its floats are a rounding

    def __init__(self, matrix, offset):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatchError(f"guard matrix must be 2-d, got shape {m.shape}")
        b = np.asarray(offset, dtype=float).reshape(-1)
        if b.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"offset length {b.shape[0]} does not match {m.shape[0]} rows")
        self.matrix, self.offset = m, b
        self.rows, self.dim = m.shape

    @classmethod
    def from_exact(cls, rows, den: int, dim: int) -> "AffineMap":
        """The map whose row i is ``rows[i] / den``: `rows` holds tuples of
        dim + 1 ints (a1, ..., an, b), and `den` is a positive int."""
        f = cls.__new__(cls)
        f.exact, f._exact_built = (rows, den), True
        f.rows, f.dim = len(rows), dim
        return f

    def __repr__(self):
        return f"AffineMap(matrix={self.matrix!r}, offset={self.offset!r})"

    @cached_property
    def exact(self) -> tuple:
        """(rows, den): row i is the int tuple (a1, ..., an, b) over den.  A
        float map reads its floats here, once; a NaN or infinite entry raises
        NonFinitePointError."""
        return feasibility.read_exact(
            [*c, b] for c, b in zip(self.matrix.tolist(), self.offset.tolist()))

    @cached_property
    def constraints(self) -> tuple:
        """Each exact row ``row(x) >= 0`` as a weak integer
        `feasibility.Constraint`: the rows every split is made on."""
        return feasibility.weak_constraints(self.exact[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        rows, den = self.exact
        return np.array([_rounded(r[:-1], den) for r in rows],
                        dtype=float).reshape(self.rows, self.dim)

    @cached_property
    def offset(self) -> np.ndarray:
        rows, den = self.exact
        return np.array(_rounded([r[-1] for r in rows], den), dtype=float)

    @cached_property
    def _sign_rows(self) -> tuple:
        """`_sign_terms` as Python floats: per row, its float coefficients as
        a list and its negated float offset."""
        return tuple(zip(self.matrix.tolist(), (-self.offset).tolist()))

    def padded(self, left: int, right: int) -> "AffineMap":
        """The same rows over R^(left + dim + right), reading the middle
        coordinates: `left` zero columns before the matrix and `right` after.
        A map built from floats is padded on its floats, and one built from
        exact rows on its exact rows."""
        if not self._exact_built:
            return AffineMap(np.hstack([np.zeros((self.rows, left)), self.matrix,
                                        np.zeros((self.rows, right))]), self.offset)
        rows, den = self.exact
        zl, zr = (0,) * left, (0,) * right
        return AffineMap.from_exact(tuple(zl + r[:-1] + zr + r[-1:] for r in rows), den,
                                    left + self.dim + right)

    def chambers(self, base=(), base_witness=None, cap: Optional[int] = None) -> dict:
        """The realizable sign vectors of the guard within the `base` system,
        {signs: (witness, system)}, as `feasibility.enumerate_chambers` gives
        them: the one place where a guard is split.

        The result is recorded with its base.  A later call with an equal
        base (a tuple and a list of the same rows are equal here) returns the
        record, whatever its `base_witness`, unless the record holds more
        than `cap` chambers: then the call is made afresh, so it raises the
        fresh call's GuardExplosionError.  Any other base is solved again and
        replaces the record.  Callers must not change the returned dict or
        its systems.
        """
        base = list(base)
        record = self._record
        if record is not None and record[0] == base and (cap is None or len(record[1]) <= cap):
            return record[1]
        chambers = feasibility.enumerate_chambers(self.constraints, self.dim, base=base,
                                                  cap=cap, base_witness=base_witness)
        self._record = (base, chambers)
        return chambers


def _require_finite(x: np.ndarray):
    """NaN compares false with every row and would silently route as '-'."""
    if not np.isfinite(x).all():
        raise NonFinitePointError("points must be finite; got a NaN or infinite coordinate")


def _point(x, dim: int, owner: str = "graph") -> list:
    """x as a finite point of R^dim, for a graph or guard over R^dim: a list
    of floats, as `_signs_at` takes it."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"point has shape {x.shape}, {owner} expects ({dim},)")
    _require_finite(x)
    return x.tolist()


def _sign_terms(guard: AffineMap):
    """The operands of `_guard_signs` for a guard: its coefficient columns,
    each (rows, 1), and its negated offsets as a (rows, 1) column."""
    A = guard.matrix
    return [A[:, j:j + 1] for j in range(guard.dim)], -guard.offset[:, None]


def _guard_signs(columns, neg_offset: np.ndarray, XT: np.ndarray,
                 acc: Optional[np.ndarray] = None, scratch: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """(rows, m) signs of a guard, given by its `_sign_terms`, at the m
    columns of XT: entry [i, j] is True iff row i is >= 0 at point j.  The
    array predicate of the batch steps; a single point is signed by
    `_signs_at`, which gives the same signs.

    Each row value is summed in one fixed elementwise order,
    ((a0*x0 + a1*x1) + ...), and compared with -b, which has the sign of
    the rounded sum plus b.  No BLAS call is made: a BLAS product picks its
    kernel, and so its rounding, by the shape of the batch, and a point's
    signs must not depend on the points it arrives with.  `acc` and
    `scratch` are (rows, m) float buffers for the sum and each product, and
    `out` a (rows, m) bool buffer for the signs; any not given is allocated.

    The batch walk passes only a guard's coordinate span: the columns and
    the rows of XT from its first nonzero coefficient column to its last.
    That is exact.  A column left out adds the products 0*x, each +0.0 or
    -0.0 at a finite point, and a sum plus a zero is the sum itself, but
    for the sign of a zero sum, and +0.0 and -0.0 compare equal with -b.
    """
    if acc is None:
        acc = np.empty((neg_offset.shape[0], XT.shape[1]))
    if scratch is None and len(columns) > 1:
        scratch = np.empty_like(acc)
    if columns:
        np.multiply(columns[0], XT[0], out=acc)
    else:
        acc.fill(0.0)
    for a, x in zip(columns[1:], XT[1:]):
        np.add(acc, np.multiply(a, x, out=scratch), out=acc)
    return np.greater_equal(acc, neg_offset, out=out)


def sign_vector(guard: AffineMap, x: np.ndarray) -> str:
    """Sign string of the guard at x; entry i is '+' iff row i(x) >= 0."""
    return _signs_at(guard, _point(x, guard.dim, "guard"))


def _row_sum(row: list, x: list) -> float:
    """The float row a . x at the list of floats x, summed in `_guard_signs`'
    order, ((a0*x0 + a1*x1) + ...), in Python floats: the same IEEE products
    and sums, none fused, so the same value bit for bit."""
    terms = map(mul, row, x)
    total = next(terms, 0.0)
    for t in terms:
        total += t
    return total


def _signs_at(guard: AffineMap, x: list) -> str:
    """The one point predicate: the guard's sign string at a point already
    checked by `_point`, given as a list of floats.  Each row's `_row_sum`
    is compared with -b, so the signs are `_guard_signs`' bit for bit."""
    signs = []
    for row, neg_offset in guard._sign_rows:
        signs.append("+" if _row_sum(row, x) >= neg_offset else "-")
    return "".join(signs)


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
    skipped_because: Optional[str] = None  # why the realizability walk did not run

    @property
    def ok(self) -> bool:
        return not self.errors


class LogicalGraph:
    """Immutable-by-convention decision graph over R^input_dim.

    The first `evaluate_batch` call builds the graph's batch program and
    keeps it on the graph, so the graph must not be mutated after that call:
    later calls would still walk the old program.
    """

    def __init__(self, input_dim: int, vertices: Dict[str, str], arrows: Sequence[Arrow],
                 guards: Dict[str, AffineMap], routing: Dict[str, Dict[str, str]],
                 target_labels: Dict[str, object]):
        self.input_dim = int(input_dim)
        self.vertices = dict(vertices)
        self.arrows = {a.id: a for a in arrows}
        self.guards = dict(guards)
        self.routing = {v: dict(r) for v, r in routing.items()}
        self.target_labels = dict(target_labels)
        self._batch_program = None  # built by the first evaluate_batch call
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

    def next_arrow(self, vertex: str, x: np.ndarray) -> Optional[Arrow]:
        """The arrow by which the walk at the point x leaves `vertex`, by the
        exit rule, or None at a target.  An arrow to a missing vertex raises
        DanglingVertexError."""
        return _next_arrow(self, vertex, _point(x, self.input_dim))


def _next_arrow(g: LogicalGraph, vertex: str, x: list) -> Optional[Arrow]:
    """`LogicalGraph.next_arrow` at a point already checked, given as a list
    of floats, its guard's signs taken by `_signs_at`."""
    step = _exit(g, vertex, len(x))
    if isinstance(step, AffineMap):
        signs = _signs_at(step, x)
        step = _route(g, vertex, signs)
        if step is None:
            raise _no_route(vertex, signs)
    if step is None:
        return None
    arrow = g.arrows[step]
    if arrow.dst not in g.vertices:
        raise DanglingVertexError(
            f"arrow {arrow.id!r} references missing vertex {arrow.dst!r}")
    return arrow


def _exit(g: LogicalGraph, v: str, dim: int):
    """The exit rule (see the module docstring) at v, for a walk over R^dim:
    None at a labeled target, the one arrow's id at a vertex without a
    guard, and otherwise v's guard, whose sign vector the walk routes by
    `_route`."""
    if g.vertices[v] == TARGET:
        if v not in g.target_labels:
            raise DanglingVertexError(f"target {v!r} has no label")
        return None
    guard = g.guards.get(v)
    if guard is None:
        out = g.out_arrows[v]
        if len(out) != 1:
            raise IncompleteRoutingError(
                f"vertex {v!r} has {len(out)} outgoing arrows but no guard")
        return out[0]
    if guard.dim != dim:
        raise DimensionMismatchError(
            f"guard at {v!r} acts on R^{guard.dim}, the walk is over R^{dim}")
    return guard


def _route(g: LogicalGraph, v: str, signs: str) -> Optional[str]:
    """The arrow that v's routing names for the sign vector `signs`, if that
    arrow leaves v; None means the sign vector has no route."""
    aid = g.routing.get(v, {}).get(signs)
    return aid if aid in g.arrows and g.arrows[aid].src == v else None


class GraphBuilder:
    """The one place that assembles a graph from scratch; its source is "s".

    A slot is the source (None) or (vertex, signs), the route of that
    vertex's guard for one sign vector.  `regions` partitions a slot's region
    by the guards a caller's `expand` gives, `cut` puts a guarded vertex at a
    slot, `leaf` routes one to a label's target (one target per label, t0,
    t1, ... in order of first use, so 1 and "1" stay apart), and `vertex`
    puts there a plain vertex for the caller's own arrows, kept as made.
    `graph()` finishes the cuts bottom up, in one loop, by the redundant-test
    rule of ROBDD reduction (Bryant, IEEE Trans. Comput. 1986): a cut whose
    routes all reach one target is that target, and any other gets one
    arrow per destination.  So each vertex below the source reaches two or
    more targets.
    """

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.vertices = {"s": SOURCE}
        self.arrows: List[Arrow] = []
        self.guards: Dict[str, AffineMap] = {}
        self.routing: Dict[str, Dict[str, str]] = {}
        self.target_labels: Dict[str, object] = {}
        self._target_of: Dict[object, str] = {}
        self._cuts: Dict[str, tuple] = {}  # vertex -> (guard, {signs: vertex below})

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

    def _put(self, at, vid: str) -> str:
        """Route the slot `at` to `vid`: at the source, by a plain arrow."""
        if at is None:
            self.arrow("s", vid)
        else:
            self._cuts[at[0]][1][at[1]] = vid
        return vid

    def cut(self, at, guard: AffineMap, vid: Optional[str] = None) -> str:
        """A vertex at the slot `at` guarded by `guard`: "s", `vid` or "v|signs"."""
        vid = "s" if at is None else self._put(at, self.add(vid or "%s|%s" % at))
        self._cuts[vid] = (guard, {})
        return vid

    def regions(self, expand, state, at=None, system=(), witness=None,
                chamber_cap: Optional[int] = None, region_cap: Optional[int] = None,
                name: Optional[str] = None) -> None:
        """Partition the region at the slot `at` (system `system`, exact
        point `witness`), depth first by an explicit stack: the one place
        where a region is split.  `expand(at, state, system, witness)`
        finishes the slot (`leaf`, or `vertex` and its own arrows) and
        returns None, or returns (guard, next), and each chamber of `guard`,
        in sorted sign order, is expanded with the state ``next(signs)``.
        A guard of constant rows is the one chamber of its offsets' signs
        (``+`` where >= 0); any other is split by `AffineMap.chambers`, capped
        at `chamber_cap`.  A one-chamber guard keeps the slot, system and
        witness; any other is cut there, named `name` and its count of cuts
        so far if given.  Regions count 1 plus every chamber of each cut;
        past `region_cap` they raise RegionExplosionError."""
        count, cuts = 1, 0
        stack = [(at, state, system, witness)]
        while stack:
            at, state, system, witness = stack.pop()
            step = expand(at, state, system, witness)
            if step is None:
                continue
            guard, nxt = step
            rows, _ = guard.exact
            if any(any(r[:-1]) for r in rows):
                chambers = guard.chambers(system, witness, chamber_cap)
            else:
                chambers = {"".join(["+" if r[-1] >= 0 else "-" for r in rows]): None}
            if len(chambers) == 1:
                stack.append((at, nxt(*chambers), system, witness))
                continue
            vid = self.cut(at, guard, name and f"{name}{cuts}")
            cuts, count = cuts + 1, count + len(chambers)
            if region_cap is not None and count > region_cap:
                raise RegionExplosionError(f"more than {region_cap} linear regions")
            stack.extend(reversed([((vid, signs), nxt(signs), sub, w)
                                   for signs, (w, sub) in sorted(chambers.items())]))

    def leaf(self, at, label) -> None:
        self._put(at, self.target_for(label))

    def vertex(self, at) -> str:
        """A plain vertex at the slot `at`, for arrows the caller makes."""
        return "s" if at is None else self._put(at, self.add("%s|%s" % at))

    def graph(self) -> LogicalGraph:
        cuts, self._cuts = self._cuts, {}
        reached = {}  # a cut whose routes all reach one target -> that target
        for vid, (guard, routes) in reversed(cuts.items()):  # each cut after its parent
            routes = {signs: reached.get(v, v) for signs, v in routes.items()}
            dsts = list(dict.fromkeys(routes.values()))
            if len(dsts) == 1 and self.vertices[dsts[0]] == TARGET:
                reached[vid] = dsts[0]
                if vid == "s":
                    self._put(None, dsts[0])
                else:
                    del self.vertices[vid]
                continue
            self.guards[vid] = guard
            arrow_of = {dst: self.arrow(vid, dst) for dst in dsts}
            self.routing[vid] = {signs: arrow_of[dst] for signs, dst in routes.items()}
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

    Each vertex's fault is the one the exit rule (`_exit`, `_route`) gives,
    so the report names, before any walk runs, the error a walk reaching
    that vertex would raise.  Routing totality is checked by `walk_regions`
    against the exactly realizable sign vectors of each guard whenever the
    input dimension and chamber count fit the exact elimination budget;
    larger graphs get the structural checks only.  The first realizable
    unrouted chamber is reported.  The walk splits each guard by
    `AffineMap.chambers`: a graph just built in memory by a compiler or
    `semilinear.to_llgraph` reads the chambers its guards recorded when
    they were split, with no elimination, while a graph loaded from a file,
    whose guards carry no record, walks and eliminates as before.  When the
    walk does not run, `skipped_because` says why: it was not asked for,
    structural errors came first, the input dimension is above
    `feasibility.DIM_BUDGET`, or there are more than
    `_REALIZABILITY_CHAMBERS` chambers.
    """
    rep = ValidationReport()
    err = rep.errors.append

    for a in g.arrows.values():
        for end in (a.src, a.dst):
            if end not in g.vertices:
                err(DanglingVertexError(f"arrow {a.id!r} references missing vertex {end!r}"))
    if any(isinstance(e, DanglingVertexError) for e in rep.errors):
        rep.skipped_because = _STRUCTURAL_ERRORS
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
        out, guard = g.out_arrows[v], g.guards.get(v)
        if kind == TARGET and out:
            err(DanglingVertexError(f"target {v!r} has outgoing arrows {out}"))
        if guard is not None and len(out) <= 1:
            err(IncompleteRoutingError(f"vertex {v!r} has a guard but does not branch"))
        try:
            guard = _exit(g, v, g.input_dim)
        except LogifoldError as e:  # what a walk that reaches v raises
            err(e)
            continue
        if not isinstance(guard, AffineMap):
            continue
        if not (np.isfinite(guard.matrix).all() and np.isfinite(guard.offset).all()):
            err(NonFinitePointError(f"guard at {v!r} has a NaN or infinite entry"))
        routes = g.routing.get(v, {})
        for s, aid in routes.items():
            if len(s) != guard.rows or set(s) - {"+", "-"}:
                err(IncompleteRoutingError(f"vertex {v!r}: malformed sign key {s!r}"))
            elif _route(g, v, s) is None:
                err(IncompleteRoutingError(f"vertex {v!r}: route {s!r} -> bad arrow {aid!r}"))
        routed = set(routes.values())
        for aid in out:
            if aid not in routed:
                err(IncompleteRoutingError(f"vertex {v!r}: arrow {aid!r} is never routed"))
    for v in g.target_labels:
        if g.vertices.get(v) != TARGET:
            err(DanglingVertexError(f"label attached to non-target vertex {v!r}"))
    for part, keyed in (("guard", g.guards), ("routing", g.routing)):
        for v in keyed:
            if v not in g.vertices:
                err(DanglingVertexError(f"{part} at missing vertex {v!r}"))
    labels = list(g.target_labels.values())
    if len(set(labels)) != len(labels):
        err(DanglingVertexError("target labels are not pairwise distinct"))

    if not check_realizability:
        rep.skipped_because = "check_realizability is False"
    elif rep.errors:
        rep.skipped_because = _STRUCTURAL_ERRORS
    elif g.input_dim > _REALIZABILITY_DIM:
        rep.skipped_because = (f"input dimension {g.input_dim} is above "
                               f"DIM_BUDGET ({_REALIZABILITY_DIM})")
    else:
        try:
            for _ in walk_regions(g, cap=_REALIZABILITY_CHAMBERS):
                pass
        except GuardExplosionError:
            rep.skipped_because = f"more than {_REALIZABILITY_CHAMBERS} chambers"
            return rep  # budget exceeded: structural checks only
        except IncompleteRoutingError as e:
            err(e)
        rep.realizability_checked = True
    return rep


def walk_regions(g: LogicalGraph, cap: Optional[int] = None):
    """Depth-first walk over the regions of input space that g routes.

    Yields (target, steps) once per source-to-target region that some input
    reaches, where `steps` lists the (guard vertex, sign vector) pairs taken.
    Vertices are left by the exit rule; at each guard the realizable
    chambers within the region's constraint system (`AffineMap.chambers`)
    are visited in sorted sign order.  A realizable chamber without a route
    raises IncompleteRoutingError, and more than `cap` chambers in total
    raise GuardExplosionError.  Without a cap, a guard stops enumerating
    once its chambers outnumber its routes, since one of them must then be
    unrouted.  A cyclic graph raises CyclicGraphError before any region is
    yielded.
    """
    for target, steps, _ in _walk_regions(g, cap):
        yield target, steps


def _walk_regions(g: LogicalGraph, cap: Optional[int] = None):
    """`walk_regions`, yielding (target, steps, witness): the witness is an
    exact point of the region, that of its last chamber, or None when no
    guard lies on its path."""
    topological_order(g)
    seen = 0
    stack = [(g.source, [], None, [])]
    while stack:
        v, system, witness, steps = stack.pop()
        step = _exit(g, v, g.input_dim)
        while isinstance(step, str):  # an unguarded vertex: take its one arrow
            v = g.arrows[step].dst
            step = _exit(g, v, g.input_dim)
        if step is None:
            yield v, steps, witness
            continue
        guard = step
        routes = g.routing.get(v, {})
        try:
            chambers = guard.chambers(system, witness,
                                      len(routes) if cap is None else cap - seen)
        except GuardExplosionError:
            if cap is None:
                raise IncompleteRoutingError(f"vertex {v!r} has more realizable sign "
                                             f"vectors than its {len(routes)} routes") from None
            raise GuardExplosionError(f"more than {cap} realizable chambers in the walk") from None
        seen += len(chambers)
        children = []
        for signs, (w, sub) in sorted(chambers.items()):
            aid = _route(g, v, signs)
            if aid is None:
                raise IncompleteRoutingError(
                    f"vertex {v!r}: realizable sign vector {signs!r} is unrouted")
            children.append((g.arrows[aid].dst, sub, w, steps + [(v, signs)]))
        stack.extend(reversed(children))  # smallest sign vector is walked first


def require_valid(g: LogicalGraph, check_realizability: bool = True) -> ValidationReport:
    rep = validate_graph(g, check_realizability)
    if not rep.ok:
        raise rep.errors[0]
    return rep


# -- evaluation ------------------------------------------------------------

def evaluate(g: LogicalGraph, x) -> object:
    """Label of the unique walk from the source to a target through x's
    chambers.  The point is checked once, and each guard on the walk signs
    it in Python floats (`_signs_at`)."""
    x = _point(x, g.input_dim)
    v = g.source
    for _ in range(len(g.vertices)):
        arrow = _next_arrow(g, v, x)
        if arrow is None:
            return g.target_labels[v]
        v = arrow.dst
    raise CyclicGraphError("walk exceeded vertex count; graph has a cycle")


def evaluate_batch(g: LogicalGraph, X) -> list:
    """Vectorized walk for many points: labels in input order, equal to
    `evaluate` at every point bit for bit.

    The graph's batch program (see `_batch_program`) is built on its first
    call and kept on the graph; every later call walks it again.  One pass
    over the program's steps, in topological order, visits each step once
    per call with every point that reached it, so points that reach the
    same vertex by different arrows move on together.  The points are
    copied once into a contiguous (d, m) array.  A tree of axis guards
    x[a] - face >= 0 (a grid cover's k-d tree) is one step, `_AxisTree`: it
    ranks its points among its faces by one searchsorted per axis, and one
    take from its table over those ranks gives each point's destination
    slot.  Any other guard gathers its points' columns, over only the
    coordinates from its first nonzero coefficient column to its last
    (`_coordinate_span`: all of them for a dense relu guard), and signs them
    with `_guard_signs`, which gives `evaluate`'s signs.  The coordinates
    left out add only zeros, so the signs are the same bit for bit (see
    `_guard_signs`).  A one-row guard splits its points by that sign mask; a
    longer one packs each point's signs into an integer code and maps the
    codes to destination slots through its table.  Points are split by
    slot with one stable argsort.  Every array a guard fills in place, from
    the transposed points to the codes, lives in this thread's `_Workspace`,
    so a warm call allocates little beyond the index arrays it hands on and
    the returned list.  A batch of more than `_WORKSPACE_POINTS` points
    walks through a workspace of its own, freed when the call returns, so a
    thread's workspace never holds more.  A cyclic graph raises
    `CyclicGraphError`, and a fault at a vertex raises once a point reaches
    it, as the exit rule says.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != g.input_dim:
        raise DimensionMismatchError(
            f"points have shape {X.shape}, graph expects (m, {g.input_dim})")
    _require_finite(X)
    program = g._batch_program or _batch_program(g)
    m = X.shape[0]
    if not m:
        return []
    buf = (_WORKSPACE if m <= _WORKSPACE_POINTS else _Workspace()).fit(
        g.input_dim, program.rows, m)
    XT = buf.XT[:X.size].reshape(g.input_dim, m)
    np.copyto(XT, X.T)
    everyone = buf.index[:m]
    point_slot = buf.point_slot[:m]
    reached: List[Optional[List[np.ndarray]]] = [None] * len(program.steps)
    reached[program.source] = [everyone]
    for step, parts in zip(program.steps, reached):  # steps only route forwards
        if parts is None:
            continue
        if isinstance(step, int):  # a target's slot
            for members in parts:
                point_slot[members] = step
            continue
        idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
        for dst, members in step.route(buf, XT, idx, idx is everyone):
            if reached[dst] is None:
                reached[dst] = [members]
            else:
                reached[dst].append(members)
    return program.labels.take(point_slot).tolist()


class _Workspace(threading.local):
    """One thread's scratch arrays for `evaluate_batch`, flat and sized for
    batches of up to `points` points in at most `dim` dimensions through
    guards of at most `rows` rows.

    They grow to the largest batch, dimension and guard width seen on this
    thread, the batch only up to `_WORKSPACE_POINTS` points, and are then
    reused, through `out=` arguments, by every guard of every later call; a
    smaller walk uses views of their first entries, which it overwrites
    before reading.
    """

    dim = rows = points = -1

    def fit(self, dim: int, rows: int, points: int) -> "_Workspace":
        if dim > self.dim or rows > self.rows or points > self.points:
            d, k, m = max(dim, self.dim), max(rows, self.rows), max(points, self.points)
            self.XT = np.empty(d * m)  # the transposed points
            self.cols = np.empty(d * m)  # a guard's gathered columns
            self.acc = np.empty(k * m)
            self.scratch = np.empty(k * m)
            self.signs = np.empty(k * m, dtype=bool)
            self.codes = np.empty(m, dtype=np.int64)
            self.point_slot = np.empty(m, dtype=np.intp)
            self.index = np.arange(m)  # never written to
            self.dim, self.rows, self.points = d, k, m
        return self


_WORKSPACE = _Workspace()
_WORKSPACE_POINTS = 65536  # the largest batch a thread's workspace is sized for

# a guard of at most this many rows routes through a dense table over its
# 2**rows sign codes; a wider one looks up each distinct code once per call
_DENSE_ROWS = 16


@dataclass(frozen=True)
class _Program:
    """A graph compiled for `evaluate_batch`: one step per vertex, or per
    fused axis tree, in topological order, addressed by position.  A
    target's step is its slot in `labels`; any other step has
    `route(buf, XT, idx, whole)`, which returns (position, point indices)
    pairs for the points `idx` (all of them when `whole`), whose coordinates
    are the columns of XT, using the `_Workspace` buf as scratch."""

    steps: list
    source: int
    labels: np.ndarray  # object array, so tuple labels stay whole
    rows: int  # of the widest guard step


def _batch_program(g: LogicalGraph) -> _Program:
    """Compile g into its batch program and keep it on g.

    Each vertex is compiled by the exit rule, and one that passes its points
    on by its one arrow gets no step: an arrow into it leads to the first
    guard, target or faulty vertex after it.  Each maximal tree of axis
    guards (`_axis_trees`) is one `_AxisTree` step at its root's position,
    and the vertices below the root get none.  Every other guard gets a
    step by its shape (`_guard_step`).  Structural faults that every walk
    meets (a cycle, a dangling arrow, no source) raise here; a fault at a
    vertex, or a sign vector without a route, is compiled into its step and
    raises only when a point reaches it.
    """
    order = topological_order(g)
    exits, lands = {}, {}  # lands[v]: the vertex whose step the points at v reach
    for v in reversed(order):
        try:
            exits[v] = _exit(g, v, g.input_dim)
        except (DanglingVertexError, DimensionMismatchError, IncompleteRoutingError) as e:
            exits[v] = _Fail(e)
        lands[v] = lands[g.arrows[exits[v]].dst] if isinstance(exits[v], str) else v
    stops = [v for v in order if lands[v] == v]
    trees, below = _axis_trees(g, stops, exits)
    stops = [v for v in stops if v not in below]
    position = {v: p for p, v in enumerate(stops)}

    def place(aid):
        return position[lands[g.arrows[aid].dst]]

    steps, labels, rows = [], [], 0
    for v in stops:
        step = exits[v]
        if step is None:  # a target: its slot in the labels
            step = len(labels)
            labels.append(g.target_labels[v])
        elif v in trees:
            step = _AxisTree(*trees[v], place)
        elif isinstance(step, AffineMap):
            rows = max(rows, step.rows)
            step = _guard_step(g, v, step, place)
        steps.append(step)
    # item-wise, so tuple labels stay whole
    labels = np.fromiter(labels, dtype=object, count=len(labels))
    program = _Program(steps, position[lands[g.source]], labels, rows)
    g._batch_program = program
    return program


def _guard_step(g: LogicalGraph, v: str, guard: AffineMap, place):
    """The step of the guard at v; `place` gives the position of the step
    that the points on an arrow reach."""
    k = guard.rows
    # sign vector -> position of the step its points reach, for each route
    routes = {key: place(aid) for key in g.routing.get(v, {})
              if (aid := _route(g, v, key)) is not None}
    if k == 1:
        return _Split(v, guard, routes.get("-"), routes.get("+"))
    slot_of_key: Dict[str, int] = {}
    slot_of_dst: Dict[int, int] = {}  # destination -> slot, in order of first use
    for key, dst in routes.items():
        if len(key) == k and key.count("+") + key.count("-") == k:
            slot_of_key[key] = slot_of_dst.setdefault(dst, len(slot_of_dst))
    dsts = list(slot_of_dst)
    slot_type = np.int8 if len(dsts) < 127 else np.intp  # numpy radix-sorts int8
    if k > _DENSE_ROWS:
        return _Lookup(v, guard, dsts, slot_of_key, slot_type)
    table = np.full(2 ** k, len(dsts), dtype=slot_type)  # the last slot: no route
    for key, slot in slot_of_key.items():
        table[int("0" + key[::-1].translate(_SIGN_BITS), 2)] = slot
    return _Table(v, guard, dsts, table)


# a tree of axis guards whose rank table would hold more cells than this
# keeps one step per vertex
_AXIS_CELLS = 1 << 16


def _axis_face(guard: AffineMap) -> Optional[tuple]:
    """(a, face) if the guard is the one row x[a] - face >= 0, with 1.0 its
    only nonzero float coefficient and a finite face; else None."""
    if guard.rows != 1:
        return None
    (row,) = guard.matrix.tolist()
    face = -float(guard.offset[0])
    if row.count(0.0) == len(row) - 1 and 1.0 in row and math.isfinite(face):
        return row.index(1.0), face
    return None


def _axis_trees(g: LogicalGraph, stops: List[str], exits: dict):
    """The maximal trees of axis guards among the vertices `stops`, which
    are in topological order, each walked once over the boxes it cuts.

    An axis guard is a guard vertex whose guard `_axis_face` reads.  A tree
    grows from its root along the arrows its routes name, to each axis guard
    that such an arrow enters directly and no other arrow enters.  A box is
    a (lo, hi) pair of tuples of faces, -inf and inf at the start: the
    points x with lo[a] <= x[a] < hi[a] on every axis a.  Each route that
    leaves the tree is a leaf (lo, hi, vertex, signs, arrow), the arrow None
    where the sign vector has no route.

    Returns {root: (leaves, {axis: its faces})} and the vertices below those
    roots.  A tree whose rank table would hold more than `_AXIS_CELLS` cells
    is left out: its vertices keep their own steps.
    """
    axis = {}
    for v in stops:
        if isinstance(exits[v], AffineMap) and (face := _axis_face(exits[v])) is not None:
            axis[v] = face
    trees, below, claimed = {}, set(), set()
    everywhere = (-math.inf,) * g.input_dim, (math.inf,) * g.input_dim
    for root in stops:
        if root not in axis or root in claimed:
            continue
        claimed.add(root)
        inside, leaves = {root}, []
        boxes = [(root, *everywhere)]
        while boxes:
            v, lo, hi = boxes.pop()
            a, face = axis[v]
            for key, blo, bhi in (("-", lo, hi[:a] + (min(hi[a], face),) + hi[a + 1:]),
                                  ("+", lo[:a] + (max(lo[a], face),) + lo[a + 1:], hi)):
                if blo[a] >= bhi[a]:  # no part of the box lies on this side
                    continue
                aid = _route(g, v, key)
                w = None if aid is None else g.arrows[aid].dst
                if w not in inside and w in axis and w not in claimed and g.in_degree[w] == 1:
                    claimed.add(w)
                    inside.add(w)
                if w in inside:
                    boxes.append((w, blo, bhi))
                else:
                    leaves.append((blo, bhi, v, key, aid))
        faces: Dict[int, set] = {}
        for v in inside:
            faces.setdefault(axis[v][0], set()).add(axis[v][1])
        if math.prod(len(f) + 1 for f in faces.values()) <= _AXIS_CELLS:
            trees[root] = leaves, faces
            below.update(inside - {root})
    return trees, below


class _AxisTree:
    """A maximal tree of axis guards x[a] - face >= 0 (`_axis_trees`) as one
    step: a table over per-axis ranks in place of a split per vertex.

    A point's rank on axis a is the number of the tree's faces on that axis
    at or below x[a], found by one searchsorted over the sorted distinct
    faces, so x[a] - face >= 0 iff the rank passes the face's index.  The
    table, over the product of the axes' rank ranges, holds at each cell the
    slot in `outs` of where its points go: the position of the step they
    reach, or the `_Fail` of a sign vector without a route, which raises the
    per-vertex step's error once a point lands there.  Each leaf of the
    tree's walk fills its box of ranks.  This is exact: at a finite x,
    1.0*x[a] is x[a], and `_guard_signs` adds only signed zeros for the other
    columns, so every point takes the route `evaluate` takes.
    """

    def __init__(self, leaves: list, faces: Dict[int, set], place):
        axes = sorted(faces)
        faces = [sorted(faces[a]) for a in axes]
        # the rank of the points at or above a box bound: -0.0 finds 0.0's
        rank = [{-math.inf: 0, math.inf: len(fs) + 1, **{f: i + 1 for i, f in enumerate(fs)}}
                for fs in faces]
        shape = [len(fs) + 1 for fs in faces]
        table = np.empty(shape, dtype=np.intp)
        slot_of, outs = {}, []
        for lo, hi, v, key, aid in leaves:
            out = (v, key) if aid is None else place(aid)
            if out not in slot_of:
                slot_of[out] = len(outs)
                outs.append(_Fail(_no_route(v, key)) if aid is None else out)
            table[tuple(slice(r[lo[a]], r[hi[a]]) for a, r in zip(axes, rank))] = slot_of[out]
        self.table = table.astype(np.int8 if len(outs) < 127 else np.intp).ravel()
        strides = [math.prod(shape[k + 1:]) for k in range(len(axes))]
        self.axes = [(a, np.array(fs), s) for a, fs, s in zip(axes, faces, strides)]
        self.outs = outs
        self.fails = [s for s, out in enumerate(outs) if isinstance(out, _Fail)]

    def route(self, buf, XT, idx, whole):
        n = len(idx)
        cells = None
        for a, faces, stride in self.axes:
            x = XT[a] if whole else XT[a].take(idx, 0, buf.cols[:n], "clip")
            ranks = faces.searchsorted(x, "right")
            if stride != 1:
                ranks *= stride
            cells = ranks if cells is None else np.add(cells, ranks, out=cells)
        slots = self.table.take(cells)
        counts = np.bincount(slots, minlength=len(self.outs)).tolist()
        for s in self.fails:
            if counts[s]:
                self.outs[s].route(buf, XT, idx, whole)
        return _split_by_slot(self.outs, slots, counts, idx, whole)


class _Fail:
    """A vertex no point can pass: reaching it raises `error`'s kind and message."""

    def __init__(self, error: Exception):
        self.kind, self.message = type(error), str(error)

    def route(self, buf, XT, idx, whole):
        raise self.kind(self.message)


def _coordinate_span(guard: AffineMap) -> slice:
    """The coordinates from the first column of the guard's matrix with a
    nonzero entry to the last, or none if every entry is zero (-0.0
    included)."""
    used = [j for j, column in enumerate(zip(*guard.matrix.tolist())) if any(column)]
    return slice(used[0], used[-1] + 1) if used else slice(0, 0)


class _GuardStep:
    """A guard vertex outside every fused axis tree: the operands of
    `_guard_signs` for its guard, over the coordinates of its
    `_coordinate_span` only, and how its sign vectors route.

    A guard that reads one coordinate, such as one of an axis tree whose
    table would pass `_AXIS_CELLS`, reads just that one, and a dense relu
    guard reads them all.  The signs are `evaluate`'s bit for bit, for the
    reason `_guard_signs` gives.
    """

    def __init__(self, vertex: str, span: slice, columns, neg_offset):
        self.vertex, self.span = vertex, span
        self.columns, self.neg_offset = columns[span], neg_offset

    def gather(self, buf: _Workspace, XT, idx, whole) -> np.ndarray:
        """The span's rows of XT at the points idx, in buf.cols unless `whole`."""
        XT = XT[self.span]
        if whole:
            return XT
        n = len(idx)  # clip: with a raising mode, take buffers its output
        return XT.take(idx, 1, buf.cols[:len(XT) * n].reshape(-1, n), "clip")

    def signs(self, buf: _Workspace, XT, idx, whole) -> np.ndarray:
        """(rows, len(idx)) signs of the guard at the points idx."""
        k, n = len(self.neg_offset), len(idx)
        kn = k * n
        return _guard_signs(self.columns, self.neg_offset, self.gather(buf, XT, idx, whole),
                            buf.acc[:kn].reshape(k, n), buf.scratch[:kn].reshape(k, n),
                            buf.signs[:kn].reshape(k, n))


class _Split(_GuardStep):
    """A one-row guard: its points split by their sign, with no codes or
    sort.  Its terms are the row's entries as floats, so its sums run over
    1-d buffers."""

    def __init__(self, vertex, guard, minus: Optional[int], plus: Optional[int]):
        super().__init__(vertex, _coordinate_span(guard), guard.matrix[0].tolist(),
                         -float(guard.offset[0]))
        self.dsts = (("-", minus), ("+", plus))

    def route(self, buf, XT, idx, whole):
        n = len(idx)
        plus = _guard_signs(self.columns, self.neg_offset, self.gather(buf, XT, idx, whole),
                            buf.acc[:n], buf.scratch[:n], buf.signs[:n])
        out = []
        for (key, dst), mask in zip(self.dsts, (~plus, plus)):
            members = idx.compress(mask)  # faster than idx[mask]
            if len(members):
                if dst is None:
                    raise _no_route(self.vertex, key)
                out.append((dst, members))
        return out


class _Table(_GuardStep):
    """A guard of 2 to `_DENSE_ROWS` rows: a dense table maps each sign code
    to a destination slot, or to the slot len(dsts) where it has no route."""

    def __init__(self, vertex, guard, dsts: List[int], table: np.ndarray):
        super().__init__(vertex, _coordinate_span(guard), *_sign_terms(guard))
        self.dsts, self.table = dsts, table

    def route(self, buf, XT, idx, whole):
        signs = self.signs(buf, XT, idx, whole)
        codes = _sign_codes(signs, buf.codes)
        slots = self.table.take(codes)
        unrouted = len(self.dsts)
        counts = np.bincount(slots, minlength=unrouted + 1).tolist()
        if counts[unrouted]:
            raise _no_route(self.vertex,
                            _code_key(int(codes[slots == unrouted].min()), len(signs)))
        return _split_by_slot(self.dsts, slots, counts, idx, whole)


class _Lookup(_GuardStep):
    """A guard wider than `_DENSE_ROWS` rows: the route of each distinct
    sign vector among its points is looked up once."""

    def __init__(self, vertex, guard, dsts: List[int], slot_of_key: Dict[str, int], slot_type):
        super().__init__(vertex, _coordinate_span(guard), *_sign_terms(guard))
        self.dsts, self.slot_of_key, self.slot_type = dsts, slot_of_key, slot_type

    def route(self, buf, XT, idx, whole):
        signs = self.signs(buf, XT, idx, whole)
        k = len(signs)
        if k <= 63:
            codes = _sign_codes(signs, buf.codes)
            distinct, inverse = np.unique(codes, return_inverse=True)
            keys = [_code_key(c, k) for c in distinct.tolist()]
        else:  # codes would overflow int64: group the sign columns themselves
            distinct, inverse = np.unique(signs.T, axis=0, return_inverse=True)
            keys = ["".join("+" if b else "-" for b in row) for row in distinct.tolist()]
        slots = []
        for key in keys:
            slots.append(self.slot_of_key.get(key, -1))
            if slots[-1] < 0:
                raise _no_route(self.vertex, key)
        slots = np.array(slots, dtype=self.slot_type)[inverse.reshape(-1)]
        counts = np.bincount(slots, minlength=len(self.dsts)).tolist()
        return _split_by_slot(self.dsts, slots, counts, idx, whole)


_SIGN_BITS = str.maketrans("+-", "10")


def _code_key(code: int, k: int) -> str:
    """Sign string of a k-row code whose bit i is set iff row i is '+'."""
    return "".join("+" if code >> i & 1 else "-" for i in range(k))


def _sign_codes(signs: np.ndarray, space: np.ndarray) -> np.ndarray:
    """Codes of the columns of the (k, n) signs, k <= 63, written into the
    int64 array `space`: bit i of code j is set iff signs[i, j].  They are
    computed in the narrowest unsigned type that holds k bits."""
    k, n = signs.shape
    codes = space.view(np.uint8 if k <= 8 else np.uint16 if k <= 16 else np.int64)[:n]
    if not k:
        codes.fill(0)
        return codes
    np.copyto(codes, signs[-1].view(np.uint8))
    for row in signs[-2::-1]:  # Horner: double, then set the next lower bit
        np.add(codes, codes, out=codes)
        np.bitwise_or(codes, row.view(np.uint8), out=codes)
    return codes


def _split_by_slot(dsts: List[int], slots: np.ndarray, counts: List[int], idx: np.ndarray,
                   whole: bool):
    """(destination, point indices) pairs, the points idx (0, 1, ... when
    `whole`) grouped by their slots, of which counts[s] are s."""
    n = len(idx)
    if n in counts:  # every point takes one route
        return [(dsts[counts.index(n)], idx)]
    by_slot = slots.argsort(kind="stable")
    if not whole:
        by_slot = idx.take(by_slot)
    out, start = [], 0
    for dst, count in zip(dsts, counts):
        if count:
            out.append((dst, by_slot[start:start + count]))
            start += count
    return out


def enumerate_paths(g: LogicalGraph, cap: int = PATH_CAP) -> List[List[str]]:
    """All source-to-target paths as arrow id lists; errors past `cap` paths."""
    return [path for path, _, _ in _path_terms(g, cap)]


def _path_terms(g: LogicalGraph, cap: int, exit_of=None):
    """Yield (path, target, coefficient) for each source-to-target path of
    g, depth first, from a stack of its own; past `cap` paths, raise first.
    The coefficient is 1 iff `exit_of(v)`, the arrow by which the walk
    leaves v, is the path's arrow at each v on it (always, without
    `exit_of`); it is asked at every non-target vertex the walk reaches."""
    counts: Dict[str, int] = {}
    for v in reversed(topological_order(g)):
        if g.vertices[v] == TARGET:
            counts[v] = 1
        else:
            counts[v] = sum(counts[g.arrows[a].dst] for a in g.out_arrows[v])
    total = counts.get(g.source, 0)
    if total > cap:
        raise PathExplosionError(f"graph has {total} paths, cap is {cap}")
    stack = [(g.source, (), True)]  # (vertex, path to it, whether the walk takes it)
    while stack:
        v, path, live = stack.pop()
        if g.vertices[v] == TARGET:
            yield list(path), v, int(live)
            continue
        chosen = exit_of(v) if live and exit_of is not None else None
        stack.extend((g.arrows[a].dst, path + (a,), live and (exit_of is None or a == chosen))
                     for a in reversed(g.out_arrows[v]))


@dataclass
class PathTerm:
    """A path, its 0/1 chamber coefficient and its target's label (None only
    for a target without one, which a term with coefficient 1 never ends at)."""

    arrows: List[str]
    coefficient: int
    label: object


def evaluate_pathsum(g: LogicalGraph, x, cap: int = PATH_CAP):
    """Path-sum form of evaluation.

    Returns (label, terms) where each term is a path with its 0/1 chamber
    coefficient: 1 iff the exit rule at x takes each of its arrows.  Exactly
    one term carries coefficient 1 and its label is the value of the graph
    at x.
    """
    x = _point(x, g.input_dim)
    terms = []
    for path, t, coeff in _path_terms(g, cap, lambda v: _next_arrow(g, v, x).id):
        if coeff:  # the walk ends at t, so the exit rule applies there
            _exit(g, t, g.input_dim)
        terms.append(PathTerm(path, coeff, g.target_labels.get(t)))
    live = [t.label for t in terms if t.coefficient]
    if len(live) != 1:
        raise UnknownSignVectorError(
            f"expected exactly one live path, found {len(live)} (unrouted sign vector)")
    return live[0], terms


# -- serialization ---------------------------------------------------------

def label_to_text(label) -> str:
    """The JSON text of a label; tuples are written as arrays, recursively."""
    return json.dumps(label)


def _tupled(value):
    return tuple(map(_tupled, value)) if isinstance(value, list) else value


def label_from_text(text: str):
    """Inverse of `label_to_text`: arrays are read back as tuples.  A JSON
    object, alone or inside an array, is no label: no label map can hold it."""
    try:
        label = _tupled(json.loads(text))
    except json.JSONDecodeError:
        raise ValueError(f"label text {text!r} is not JSON") from None
    try:
        hash(label)
    except TypeError:
        raise ValueError(f"label text {text!r} holds a JSON object; "
                         f"a label is a number, a string or an array of them") from None
    return label


def write_json(doc, path):
    """Write `doc` to the file at `path` as JSON: indent 2, sorted keys and
    a final newline.  Every JSON file the package writes goes through it."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON document in the file at `path`; every JSON file the package
    reads goes through it."""
    with open(path) as fh:
        return json.load(fh)


def _guard_to_dict(gd: AffineMap) -> dict:
    """A guard's floats, and, for a guard built from exact rows, those rows
    under "exact" when they differ from the exact reading of its floats."""
    out = {"matrix": gd.matrix.tolist(), "offset": gd.offset.tolist()}
    if gd._exact_built:
        rows, den = gd.exact
        try:
            floats, fden = AffineMap(gd.matrix, gd.offset).exact
            same = all(a * fden == f * den for r, fr in zip(rows, floats) for a, f in zip(r, fr))
        except NonFinitePointError:  # a row too large for floats
            same = False
        if not same:
            out["exact"] = {"den": den, "rows": [list(r) for r in rows]}
    return out


def _is_int(v) -> bool:
    return type(v) is int  # a JSON integer; not a bool or a float


def _guard_from_dict(v: str, gd: dict) -> AffineMap:
    """The guard `_guard_to_dict` wrote.  Exact rows that do not round to the
    file's floats raise ValueError naming the vertex."""
    floats = AffineMap(np.asarray(gd["matrix"], dtype=float),
                       np.asarray(gd["offset"], dtype=float))
    if "exact" not in gd:
        return floats
    den, rows = gd["exact"]["den"], gd["exact"]["rows"]
    if not (_is_int(den) and den > 0 and isinstance(rows, list) and len(rows) == floats.rows
            and all(isinstance(r, list) and len(r) == floats.dim + 1 and all(map(_is_int, r))
                    for r in rows)):
        raise ValueError(f"guard at {v!r}: exact rows must be {floats.rows} lists of "
                         f"{floats.dim + 1} integers over a positive integer den")
    exact = AffineMap.from_exact(tuple(map(tuple, rows)), den, floats.dim)
    if not (np.array_equal(exact.matrix, floats.matrix)
            and np.array_equal(exact.offset, floats.offset)):
        raise ValueError(f"guard at {v!r}: exact rows do not round to its matrix and offset")
    return exact


def graph_to_dict(g: LogicalGraph) -> dict:
    return {
        "input_dim": g.input_dim,
        "vertices": [{"id": v, "kind": k} for v, k in g.vertices.items()],
        "arrows": [{"id": a.id, "src": a.src, "dst": a.dst} for a in g.arrows.values()],
        "guards": {v: _guard_to_dict(gd) for v, gd in g.guards.items()},
        "routing": {v: dict(r) for v, r in g.routing.items()},
        "target_labels": {v: label_to_text(l) for v, l in g.target_labels.items()},
    }


def positive_int(value, key: str) -> int:
    """`value`, read from a file under `key`, as an int if it is a positive
    integer (not a bool or a float); otherwise ValueError names the key."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return int(value)


def json_object(value, key: str) -> dict:
    """`value`, read from a file under `key`, if it is a JSON object;
    otherwise ValueError names the key."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def graph_from_dict(data: dict) -> LogicalGraph:
    """The graph `graph_to_dict` wrote.  An `input_dim` that is not a
    positive integer, a `guards`, `routing` or `target_labels` that is not
    an object (of objects, for `routing`), or a route whose arrow id is not
    a string, raises ValueError naming it."""
    vertices = {v["id"]: v["kind"] for v in data["vertices"]}
    arrows = [Arrow(a["id"], a["src"], a["dst"]) for a in data["arrows"]]
    guards = {v: _guard_from_dict(v, gd)
              for v, gd in json_object(data.get("guards", {}), "guards").items()}
    routing = {v: json_object(r, f"routing at {v!r}")
               for v, r in json_object(data.get("routing", {}), "routing").items()}
    for v, r in routing.items():
        for signs, aid in r.items():
            if not isinstance(aid, str):
                raise ValueError(f"routing at {v!r}: arrow id for {signs!r} must be a string, "
                                 f"got {aid!r}")
    labels = json_object(data.get("target_labels", {}), "target_labels")
    return LogicalGraph(
        input_dim=positive_int(data["input_dim"], "input_dim"),
        vertices=vertices,
        arrows=arrows,
        guards=guards,
        routing=routing,
        target_labels={v: label_from_text(t) for v, t in labels.items()},
    )


def save_graph(g: LogicalGraph, path: str):
    write_json(graph_to_dict(g), path)


def load_graph(path: str) -> LogicalGraph:
    return graph_from_dict(read_json(path))


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
