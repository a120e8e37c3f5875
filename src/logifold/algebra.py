"""Graph surgery: products, the Boolean ring on F2 labels, and lifts.

The product of graphs attaches a fresh copy of the second graph at every
target of the first (`graft`), so evaluating the product walks the first graph
and then the copy, producing tuple labels.  Everything else here is built from
that one construction: ring operations relabel a product through F2
arithmetic, parametrization is the product with a point-separating identity
graph, and fuzzy products graft their skeletons the same way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NotF2LabeledError, SeparationFailureError
from .graph import (AffineMap, Arrow, INTERNAL, GraphBuilder, LogicalGraph, TARGET,
                    evaluate)

F2_ADD = "add"
F2_MUL = "mul"


def constant_graph(label, input_dim: int) -> LogicalGraph:
    """Graph with no branching that sends every point to `label`."""
    b = GraphBuilder(input_dim)
    b.arrow("s", b.target_for(label))
    return b.graph()


def graft(g1: LogicalGraph, g2: LogicalGraph, combine):
    """Attach a copy of g2 at each target of g1; labels via combine(l1, l2).

    Returns (graph, vertex_origin, arrow_origin).  The origins map every new
    id to (t, old id): t is None for g1's own elements, else the g1 target
    whose copy of g2 holds the element.  Each copy's source merges into the
    target it hangs from, so that vertex keeps its g1 origin.
    """
    if g1.input_dim != g2.input_dim:
        raise DimensionMismatchError(
            f"product factors act on R^{g1.input_dim} and R^{g2.input_dim}")
    vertices = {}
    arrows = []
    guards = {}
    routing = {}
    labels = {}
    vertex_origin = {}
    arrow_origin = {}

    def m1(v):
        return f"A:{v}"

    for v, kind in g1.vertices.items():
        # g1's targets become the grafted copies' entry vertices
        vertices[m1(v)] = INTERNAL if kind == TARGET else kind
        vertex_origin[m1(v)] = (None, v)
    for a in g1.arrows.values():
        arrows.append(Arrow(m1(a.id), m1(a.src), m1(a.dst)))
        arrow_origin[m1(a.id)] = (None, a.id)
    for v, guard in g1.guards.items():
        guards[m1(v)] = guard
        routing[m1(v)] = {s: m1(aid) for s, aid in g1.routing[v].items()}

    src2 = g2.source
    for t, l1 in g1.target_labels.items():
        def m2(w, t=t):
            return m1(t) if w == src2 else f"A:{t}|B:{w}"

        for w, kind in g2.vertices.items():
            if w == src2:
                continue
            vertices[m2(w)] = kind if kind == TARGET else INTERNAL
            vertex_origin[m2(w)] = (t, w)
        for a in g2.arrows.values():
            aid = f"A:{t}|B:{a.id}"
            arrows.append(Arrow(aid, m2(a.src), m2(a.dst)))
            arrow_origin[aid] = (t, a.id)
        for w, guard in g2.guards.items():
            guards[m2(w)] = guard
            routing[m2(w)] = {s: f"A:{t}|B:{aid}" for s, aid in g2.routing[w].items()}
        for w, l2 in g2.target_labels.items():
            labels[m2(w)] = combine(l1, l2)
    g = LogicalGraph(g1.input_dim, vertices, arrows, guards, routing, labels)
    return g, vertex_origin, arrow_origin


def product(graphs: Sequence[LogicalGraph]) -> LogicalGraph:
    """Product graph computing every factor; labels are k-tuples."""
    if not graphs:
        raise DimensionMismatchError("product needs at least one factor")
    acc, _, _ = graft(constant_graph((), graphs[0].input_dim), graphs[0],
                      lambda _, l: (l,))
    for g in graphs[1:]:
        acc, _, _ = graft(acc, g, lambda a, b: a + (b,))
    return acc


def _require_f2(g: LogicalGraph, who: str):
    if not set(g.target_labels.values()) <= {0, 1}:
        raise NotF2LabeledError(
            f"{who} needs labels in {{0, 1}}, got {sorted(map(str, g.labels))}")


def boolean_combine(g1: LogicalGraph, g2: LogicalGraph, op: str) -> LogicalGraph:
    """Pointwise sum or product in F2: the product graph with each pair target
    forwarded to a shared 0/1 target."""
    _require_f2(g1, "boolean_combine")
    _require_f2(g2, "boolean_combine")
    if op not in (F2_ADD, F2_MUL):
        raise ValueError(f"op must be {F2_ADD!r} or {F2_MUL!r}, got {op!r}")
    p, _, _ = graft(g1, g2, lambda a, b: (a, b))
    vertices = dict(p.vertices)
    arrows = list(p.arrows.values())
    labels = {}
    out_targets = {}
    for v, (a, b) in p.target_labels.items():
        value = (a + b) % 2 if op == F2_ADD else a * b
        tv = out_targets.get(value)
        if tv is None:
            tv = f"f2:{value}"
            out_targets[value] = tv
            vertices[tv] = TARGET
            labels[tv] = value
        vertices[v] = INTERNAL
        arrows.append(Arrow(f"to:{v}", v, tv))
    return LogicalGraph(p.input_dim, vertices, arrows, p.guards, p.routing, labels)


def zero_locus_lift(g: LogicalGraph) -> LogicalGraph:
    """Indicator of the complement of the value graph, over R^(n+1).

    Requires labels 1..p.  The lifted graph reads (x, y) and returns 0 exactly
    when y lands in the unit window centred on the label of x, else 1.
    """
    labels = g.target_labels
    p = len(labels)
    if set(labels.values()) != set(range(1, p + 1)):
        raise ValueError(
            f"zero_locus_lift needs labels 1..{p}, got {sorted(map(str, labels.values()))}")
    n = g.input_dim
    vertices = dict(g.vertices)
    arrows = list(g.arrows.values())
    guards = {v: gd.padded(0, 1) for v, gd in g.guards.items()}
    routing = {v: dict(r) for v, r in g.routing.items()}
    vertices["z:0"] = TARGET
    vertices["z:1"] = TARGET
    new_labels = {"z:0": 0, "z:1": 1}
    for t, k in labels.items():
        vertices[t] = INTERNAL
        window = np.zeros((2, n + 1))
        window[0, n] = 1.0
        window[1, n] = -1.0
        guards[t] = AffineMap(window, np.array([-(k - 0.5), k + 0.5]))
        hit = Arrow(f"z:{t}:in", t, "z:0")
        miss = Arrow(f"z:{t}:out", t, "z:1")
        arrows += [hit, miss]
        routing[t] = {"++": hit.id, "+-": miss.id, "-+": miss.id}
    return LogicalGraph(n + 1, vertices, arrows, guards, routing, new_labels)


def identity_graph(points, seed: int = 0, max_tries: int = 32) -> LogicalGraph:
    """Graph that returns each of the given points as its own label.

    A random direction whose dot products separate the points induces
    parallel midpoint hyperplanes; each slab holds one point.  Directions are
    retried until the construction verifies on every point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise DimensionMismatchError("points must form a nonempty (N, n) array")
    if len({tuple(p) for p in pts}) != len(pts):
        raise SeparationFailureError("duplicate points cannot be separated")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        w = rng.normal(size=pts.shape[1])
        dots = pts @ w
        order = np.argsort(dots, kind="stable")
        v = dots[order]
        if np.any(v[1:] <= v[:-1]):
            continue
        mids = (v[:-1] + v[1:]) / 2.0
        if np.any(mids <= v[:-1]) or np.any(mids >= v[1:]):
            continue  # midpoint rounded onto a sample value
        k = len(pts)
        b = GraphBuilder(pts.shape[1])
        s = b.cut(None, AffineMap(np.tile(w, (k - 1, 1)), -mids))
        for rank in range(k):
            b.leaf((s, "+" * rank + "-" * (k - 1 - rank)), tuple(pts[order[rank]]))
        g = b.graph()
        if all(evaluate(g, p) == tuple(p) for p in pts):
            return g
    raise SeparationFailureError(
        f"no separating direction found in {max_tries} tries for {len(pts)} points")


def parametrize(g: LogicalGraph, points, seed: int = 0) -> LogicalGraph:
    """Graph of g over a finite point set: labels are ((point), value) pairs."""
    ident = identity_graph(points, seed=seed)
    return graft(ident, g, lambda p, l: (p, l))[0]
