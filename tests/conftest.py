import numpy as np
import pytest

from logifold.graph import (AffineMap, Arrow, LogicalGraph, _guard_signs, _sign_terms,
                            topological_order)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def near_hyperplane(rng, a, b, count=3, ulps=3):
    """Float points within `ulps` units in the last place of the hyperplane
    a . x + b = 0: each of `count` random points is moved onto it along its
    largest coefficient's coordinate, then stepped -ulps..ulps floats along
    that coordinate.  No points when the row has no nonzero coefficient."""
    a = np.asarray(a, dtype=float)
    if not a.any():
        return []
    j = int(np.argmax(np.abs(a)))
    out = []
    for _ in range(count):
        p = rng.normal(scale=2.0, size=len(a))
        p[j] = 0.0
        p[j] = -(float(a @ p) + b) / a[j]
        for k in range(-ulps, ulps + 1):
            q = p.copy()
            for _ in range(abs(k)):
                q[j] = np.nextafter(q[j], np.inf if k > 0 else -np.inf)
            out.append(q)
    return out


def array_signs(guard, x):
    """The guard's sign string at the point x by the array predicate
    `graph._guard_signs`, as the batch walk signs it, for checking the one
    point predicate `graph._signs_at` against."""
    signs = _guard_signs(*_sign_terms(guard), np.asarray(x, dtype=float)[:, None])
    return "".join("+" if s else "-" for s in signs[:, 0].tolist())


def narrow_vertices(g):
    """The vertices between the source and the targets that reach fewer than
    two targets; a reduced graph has none."""
    reach = {}
    for v in reversed(topological_order(g)):
        reach[v] = ({v} if g.vertices[v] == "target" else
                    set().union(*(reach[g.arrows[a].dst] for a in g.out_arrows[v])))
    return sorted(v for v, kind in g.vertices.items() if kind == "internal" and len(reach[v]) < 2)


def make_step_graph(labels=(0, 1), threshold=0.0):
    """Smallest branching graph on R^1: sign of (x - threshold) picks a target."""
    return LogicalGraph(
        input_dim=1,
        vertices={"s": "source", "t0": "target", "t1": "target"},
        arrows=[Arrow("a0", "s", "t0"), Arrow("a1", "s", "t1")],
        guards={"s": AffineMap(np.array([[1.0]]), np.array([-threshold]))},
        routing={"s": {"+": "a1", "-": "a0"}},
        target_labels={"t0": labels[0], "t1": labels[1]},
    )


def make_diamond_graph():
    """Two-level graph on R^2: x-sign at the source, y-sign on the + branch."""
    return LogicalGraph(
        input_dim=2,
        vertices={"s": "source", "m1": "internal", "m2": "internal",
                  "ta": "target", "tb": "target", "tc": "target"},
        arrows=[Arrow("a1", "s", "m1"), Arrow("a2", "s", "m2"),
                Arrow("b1", "m1", "ta"), Arrow("b2", "m1", "tb"),
                Arrow("c1", "m2", "tc")],
        guards={"s": AffineMap(np.array([[1.0, 0.0]]), np.array([0.0])),
                "m1": AffineMap(np.array([[0.0, 1.0]]), np.array([0.0]))},
        routing={"s": {"+": "a1", "-": "a2"},
                 "m1": {"+": "b1", "-": "b2"}},
        target_labels={"ta": "A", "tb": "B", "tc": "C"},
    )


def make_nested_graph(shift, routes):
    """Two-level graph on R^2: x >= 0 leads to a guard on (x + shift, y) whose
    routes to targets 1, 2, ... are the given sign vectors; x < 0 is label 0."""
    targets = {f"t{k}": k for k in range(len(routes) + 1)}
    return LogicalGraph(
        input_dim=2,
        vertices={"s": "source", "m": "internal", **{t: "target" for t in targets}},
        arrows=[Arrow("a0", "s", "t0"), Arrow("am", "s", "m")]
        + [Arrow(f"b{k}", "m", f"t{k}") for k in range(1, len(routes) + 1)],
        guards={"s": AffineMap(np.array([[1.0, 0.0]]), np.array([0.0])),
                "m": AffineMap(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([shift, 0.0]))},
        routing={"s": {"+": "am", "-": "a0"},
                 "m": {signs: f"b{k}" for k, signs in enumerate(routes, start=1)}},
        target_labels=targets,
    )


def make_holed_graph():
    """Nested graph whose chamber 0 <= x < 1, y >= 0 ("-+" at m) has no route."""
    return make_nested_graph(-1.0, ("++", "+-", "--"))


def make_pruned_graph():
    """Nested graph routing only "++" and "+-" at m: the guard's "-" chambers
    (x < -1) exist in R^2 but not inside the parent region x >= 0."""
    return make_nested_graph(1.0, ("++", "+-"))


def make_cyclic_graph(guarded: bool):
    """Graph on R^1 with a cycle.  Unguarded: s -> a -> b -> a, no target is
    reached.  Guarded: s routes x >= 0 to t and x < 0 to a, and a -> s."""
    if not guarded:
        return LogicalGraph(1, {"s": "source", "a": "internal", "b": "internal",
                                "t": "target"},
                            [Arrow("sa", "s", "a"), Arrow("ab", "a", "b"),
                             Arrow("ba", "b", "a")], {}, {}, {"t": 0})
    return LogicalGraph(1, {"s": "source", "a": "internal", "t": "target"},
                        [Arrow("st", "s", "t"), Arrow("sa", "s", "a"), Arrow("as", "a", "s")],
                        {"s": AffineMap(np.array([[1.0]]), np.array([0.0]))},
                        {"s": {"+": "st", "-": "sa"}}, {"t": 0})
