"""Graph IR: sign vectors, validation, walk and path-sum evaluation, files."""

import itertools
import json
import math
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logifold import feasibility, graph
from logifold.algebra import product, zero_locus_lift
from logifold.approx import LabeledGrid, approximate, grid_from_function
from logifold.errors import (
    CyclicGraphError,
    DanglingVertexError,
    DimensionMismatchError,
    GuardExplosionError,
    IncompleteRoutingError,
    LogifoldError,
    MultipleSourcesError,
    NonFinitePointError,
    PathExplosionError,
    UnknownSignVectorError,
)
from logifold.fuzzy import (
    IDENTITY,
    ArrowMap,
    FuzzyLogicalGraph,
    StateSpace,
    evaluate_fuzzy,
    evaluate_fuzzy_pathsum,
    from_relu_softmax_net,
    fuzzy_from_dict,
    fuzzy_product,
    fuzzy_to_dict,
)
from logifold.graph import (
    TARGET,
    AffineMap,
    Arrow,
    GraphBuilder,
    LogicalGraph,
    enumerate_paths,
    evaluate,
    evaluate_batch,
    evaluate_pathsum,
    graph_from_dict,
    graph_to_dict,
    relabel,
    require_valid,
    sign_vector,
    validate_graph,
    walk_regions,
)
from logifold.networks import (RELU, SOFTMAX, STEP, NetworkSpec, compile_relu_net,
                               compile_step_net, random_network)
from logifold.semilinear import from_llgraph, semilinear_to_dict, to_llgraph

from conftest import (array_signs, make_cyclic_graph, make_diamond_graph, make_holed_graph,
                      make_pruned_graph, make_step_graph)


def test_sign_vector_example():
    guard = AffineMap(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -1.0]))
    assert logical_signs(guard, [0.0, 0.0]) == "+-"


def logical_signs(guard, x):
    return sign_vector(guard, np.asarray(x))


def test_sign_vector_boundary_is_plus():
    guard = AffineMap(np.array([[1.0]]), np.array([0.0]))
    assert logical_signs(guard, [0.0]) == "+"
    assert logical_signs(guard, [-1e-300]) == "-"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.lists(st.floats(-3, 3), min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
)
def test_sign_vector_matches_rowwise_oracle(point, rows, offs):
    guard = AffineMap(np.array(rows), np.array(offs[: len(rows)]))
    s = logical_signs(guard, point)
    assert len(s) == len(rows)
    for i, ch in enumerate(s):
        v = float(np.dot(rows[i], point) + offs[i])
        assert ch == ("+" if v >= 0 else "-")


# moderate floats, whose sums round, and every float, the extremes included:
# products and sums that overflow to +-inf, inf - inf = nan, subnormals and
# both zeros
FLOATS = st.floats(-10, 10) | st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_single_walk_signs_a_point_as_the_array_predicate_does(data):
    n = data.draw(st.integers(0, 4))
    point = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
    rows = data.draw(st.lists(st.lists(FLOATS, min_size=n, max_size=n), min_size=1, max_size=4))
    offsets = []
    for row in rows:
        # the row's value at the point, summed in _guard_signs' order, so an
        # offset at it, or one ulp either side, rests the sign on the sum's last bit
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.float64(0.0)
            for k, (a, x) in enumerate(zip(row, point)):
                total = np.multiply(a, x) if k == 0 else np.add(total, np.multiply(a, x))
        at = -float(total)
        offsets.append(data.draw(st.sampled_from([at, math.nextafter(at, -math.inf),
                                                  math.nextafter(at, math.inf)])
                                 if math.isfinite(at) else FLOATS))
    guard = AffineMap(np.array(rows).reshape(len(rows), n), np.array(offsets))
    with np.errstate(over="ignore", invalid="ignore"):
        want = array_signs(guard, point)
    assert graph._signs_at(guard, point) == want


def test_a_single_walk_signs_the_mutation_bases_as_the_array_predicate_does():
    for doc, X in MUTATION_BASES:
        g = graph_from_dict(doc)
        probes = np.vstack([X, np.nextafter(X, np.inf), np.nextafter(X, -np.inf),
                            np.zeros((1, 2)), -np.zeros((1, 2))])
        for guard in g.guards.values():
            for x in probes:
                assert graph._signs_at(guard, x.tolist()) == array_signs(guard, x)
        assert_batch_walk_matches_single_walks(g, probes)


def test_sign_vector_dim_mismatch():
    guard = AffineMap(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(DimensionMismatchError):
        logical_signs(guard, [1.0])


def test_evaluate_step_graph_boundary_goes_plus():
    g = make_step_graph(labels=("lo", "hi"))
    assert evaluate(g, [0.0]) == "hi"
    assert evaluate(g, [-0.5]) == "lo"
    assert evaluate(g, [0.5]) == "hi"


def test_validate_smallest_legal_graph():
    g = LogicalGraph(1, {"s": "source", "t": "target"},
                     [Arrow("a", "s", "t")], {}, {}, {"t": "only"})
    rep = require_valid(g)
    assert rep.topo_order == ["s", "t"]


def test_validate_cycle():
    g = LogicalGraph(1, {"s": "source", "v": "internal", "t": "target"},
                     [Arrow("a", "s", "v"), Arrow("b", "v", "v"), Arrow("c", "v", "t")],
                     {"v": AffineMap(np.array([[1.0]]), np.array([0.0]))},
                     {"v": {"+": "b", "-": "c"}}, {"t": 0})
    rep = validate_graph(g)
    assert any(isinstance(e, CyclicGraphError) and "'v'" in str(e) for e in rep.errors)


def test_validate_multiple_sources():
    g = LogicalGraph(1, {"s1": "source", "s2": "source", "t": "target"},
                     [Arrow("a", "s1", "t")], {}, {}, {"t": 0})
    rep = validate_graph(g)
    assert any(isinstance(e, MultipleSourcesError) for e in rep.errors)


def test_validate_incomplete_routing_missing_minus():
    g = LogicalGraph(1, {"s": "source", "t0": "target", "t1": "target"},
                     [Arrow("a0", "s", "t0"), Arrow("a1", "s", "t1")],
                     {"s": AffineMap(np.array([[1.0]]), np.array([0.0]))},
                     {"s": {"+": "a1"}}, {"t0": 0, "t1": 1})
    rep = validate_graph(g)
    assert any(isinstance(e, IncompleteRoutingError) for e in rep.errors)


def test_validate_flags_unrealizable_gap_via_elimination(rng):
    # guard rows x>=0 and x>=1: "-+" is unrealizable, so only three routes needed
    arrows = [Arrow(f"a{i}", "s", f"t{i}") for i in range(3)]
    g = LogicalGraph(1, {"s": "source", "t0": "target", "t1": "target", "t2": "target"},
                     arrows,
                     {"s": AffineMap(np.array([[1.0], [1.0]]), np.array([0.0, -1.0]))},
                     {"s": {"++": "a0", "+-": "a1", "--": "a2"}},
                     {"t0": 0, "t1": 1, "t2": 2})
    rep = validate_graph(g)
    assert rep.ok and rep.realizability_checked


def test_validate_skips_realizability_only_past_the_chamber_budget(monkeypatch):
    def over_budget(*args, **kwargs):
        raise GuardExplosionError("more than 4096 realizable chambers")

    monkeypatch.setattr(feasibility, "enumerate_chambers", over_budget)
    rep = validate_graph(make_step_graph())
    assert rep.ok and not rep.realizability_checked
    assert rep.skipped_because == "more than 4096 chambers"


def step_graph_over(dim):
    """make_step_graph's guard x0 >= 0, over R^dim."""
    g = make_step_graph()
    return LogicalGraph(dim, g.vertices, list(g.arrows.values()),
                        {"s": AffineMap(np.eye(1, dim), np.zeros(1))}, g.routing,
                        g.target_labels)


def test_validate_says_why_realizability_was_skipped():
    rep = validate_graph(make_step_graph())
    assert rep.ok and rep.realizability_checked and rep.skipped_because is None
    rep = validate_graph(make_step_graph(), check_realizability=False)
    assert rep.ok and not rep.realizability_checked
    assert rep.skipped_because == "check_realizability is False"
    wide = feasibility.DIM_BUDGET + 1
    rep = validate_graph(step_graph_over(wide))
    assert rep.ok and not rep.realizability_checked
    assert rep.skipped_because == f"input dimension {wide} is above DIM_BUDGET ({wide - 1})"
    assert validate_graph(step_graph_over(wide - 1)).realizability_checked
    unguarded = make_step_graph()
    del unguarded.guards["s"]
    dangling = LogicalGraph(1, {"s": "source", "t": "target"},
                            [Arrow("a", "s", "t"), Arrow("x", "s", "gone")], {}, {}, {"t": 0})
    for g in (unguarded, dangling, make_cyclic_graph(guarded=True)):
        rep = validate_graph(g)
        assert not rep.ok and not rep.realizability_checked
        assert rep.skipped_because == "structural errors found first"


def test_validate_propagates_enumeration_faults(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("elimination broke an input row")

    monkeypatch.setattr(feasibility, "enumerate_chambers", broken)
    with pytest.raises(ArithmeticError):
        validate_graph(make_step_graph())


def test_walk_regions_prunes_chambers_outside_the_parent_region():
    g = make_pruned_graph()
    assert list(walk_regions(g)) == [
        ("t1", [("s", "+"), ("m", "++")]),
        ("t2", [("s", "+"), ("m", "+-")]),
        ("t0", [("s", "-")]),
    ]
    rep = validate_graph(g)
    assert rep.ok and rep.realizability_checked
    assert len(list(walk_regions(g, cap=4))) == 3
    with pytest.raises(GuardExplosionError):
        list(walk_regions(g, cap=3))


def test_walk_regions_stops_at_a_realizable_unrouted_chamber():
    g = make_holed_graph()
    with pytest.raises(UnknownSignVectorError):
        evaluate(g, [0.5, 1.0])
    # without a cap the guard stops enumerating past its three routes
    with pytest.raises(IncompleteRoutingError, match="vertex 'm' has more realizable sign "
                                                     "vectors than its 3 routes"):
        list(walk_regions(g))
    with pytest.raises(IncompleteRoutingError, match="vertex 'm': realizable sign vector '-\\+'"):
        list(walk_regions(g, cap=100))
    rep = validate_graph(g)
    assert rep.realizability_checked
    assert [str(e) for e in rep.errors] == ["vertex 'm': realizable sign vector '-+' is unrouted"]


def test_a_compiled_graph_carries_its_exact_rows(monkeypatch):
    """Each guard a compiler builds keeps the integer rows its chambers were
    enumerated on, so validating or walking the graph reads no row again."""
    rng = np.random.default_rng(11)
    relu = compile_relu_net(random_network(rng, [2, 3, 3, 3], RELU))
    step = compile_step_net(random_network(rng, [2, 3, 3], STEP))
    graphs = [relu, step, to_llgraph(from_llgraph(step))]
    calls = counted(monkeypatch, "read_exact")
    for g in graphs:
        assert g.guards and require_valid(g).realizability_checked
        assert len(list(walk_regions(g))) > 1
    assert calls == []


def counted(monkeypatch, name):
    """The argument tuples of every later call of `feasibility.<name>`."""
    calls = []
    real = getattr(feasibility, name)
    monkeypatch.setattr(feasibility, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_chambers_keeps_one_record_keyed_on_its_base(monkeypatch):
    rows = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    guard = AffineMap(*rows)
    splits = counted(monkeypatch, "enumerate_chambers")
    first = guard.chambers()
    assert sorted(first) == ["++", "+-", "-+", "--"] and len(splits) == 1
    # () and [] are one base, and the witness is not part of the key
    assert guard.chambers([], (Fraction(5), Fraction(5))) is first
    with pytest.raises(GuardExplosionError) as fresh:
        AffineMap(*rows).chambers(cap=3)
    with pytest.raises(GuardExplosionError) as recorded:
        guard.chambers(cap=3)
    assert str(recorded.value) == str(fresh.value)
    # the record outlives a call that raised, and serves one within its cap
    assert guard.chambers(cap=4) is first and len(splits) == 3
    x_positive = [feasibility.Constraint((1, 0), 0, True)]
    assert sorted(guard.chambers(x_positive)) == ["++", "+-"] and len(splits) == 4
    assert guard.chambers() == first and len(splits) == 5  # the record was replaced


def test_a_freshly_compiled_graph_is_validated_and_converted_without_elimination(monkeypatch):
    g = compile_relu_net(random_network(np.random.default_rng(3), [2, 3, 3, 3], RELU))
    fm = counted(monkeypatch, "_fm_verdict")
    assert require_valid(g).realizability_checked
    f = from_llgraph(g)
    assert fm == []
    # a copy read back from its dict carries no record: it eliminates, to the same pieces
    loaded = graph_from_dict(graph_to_dict(g))
    assert semilinear_to_dict(from_llgraph(loaded)) == semilinear_to_dict(f)
    assert fm


def test_a_record_still_finds_an_unrouted_chamber():
    g = compile_relu_net(random_network(np.random.default_rng(3), [2, 3, 3, 3], RELU))
    v = min(g.guards)
    signs = min(g.routing[v])
    del g.routing[v][signs]
    with pytest.raises(IncompleteRoutingError, match="more realizable sign vectors than"):
        list(walk_regions(g))
    with pytest.raises(IncompleteRoutingError,
                       match=re.escape(f"vertex {v!r}: realizable sign vector {signs!r}")):
        list(walk_regions(g, cap=10**6))


def test_a_guard_walked_under_another_base_is_split_again(monkeypatch):
    # the second factor's guard x >= 1 hangs, as one object, below both
    # chambers of the first factor's guard x >= 0
    g = product([make_step_graph(), make_step_graph(threshold=1.0)])
    assert len(g.guards) == 3 and len({id(m) for m in g.guards.values()}) == 2
    splits = counted(monkeypatch, "enumerate_chambers")
    want = [(0, 0)] + [(1, 0), (1, 1)]
    for _ in range(2):
        assert sorted(g.target_labels[t] for t, _ in walk_regions(g)) == sorted(want)
    # three splits, then the shared guard twice again: x < 0 and x >= 0 alternate
    assert len(splits) == 5
    fresh = graph_from_dict(graph_to_dict(g))
    assert list(walk_regions(fresh)) == list(walk_regions(g))


def test_validate_dangling_vertex():
    g = LogicalGraph(1, {"s": "source", "v": "internal", "t": "target"},
                     [Arrow("a", "s", "t")], {}, {}, {"t": 0})
    rep = validate_graph(g)
    assert any(isinstance(e, DanglingVertexError) and "'v'" in str(e) for e in rep.errors)


def test_unknown_sign_vector_is_an_error():
    g = make_step_graph()
    del g.routing["s"]["-"]
    with pytest.raises(UnknownSignVectorError):
        evaluate(g, [-1.0])
    with pytest.raises(UnknownSignVectorError):
        evaluate_batch(g, np.array([[1.0], [-1.0]]))


def test_route_to_a_missing_arrow_is_an_unknown_sign_vector():
    g = make_step_graph()
    g.routing["s"]["-"] = "gone"
    for batch in (np.array([[-1.0]]), np.array([[1.0], [-1.0]])):  # looked up, tabled
        with pytest.raises(UnknownSignVectorError, match="'-'"):
            evaluate_batch(g, batch)
    with pytest.raises(UnknownSignVectorError, match="'-'"):
        evaluate(g, [-1.0])


def test_evaluate_diamond():
    g = make_diamond_graph()
    require_valid(g)
    assert evaluate(g, [1.0, 2.0]) == "A"
    assert evaluate(g, [1.0, -2.0]) == "B"
    assert evaluate(g, [-1.0, 9.0]) == "C"


def test_evaluate_batch_matches_pointwise(rng):
    g = make_diamond_graph()
    X = rng.uniform(-2, 2, size=(500, 2))
    batch = evaluate_batch(g, X)
    for x, got in zip(X, batch):
        assert got == evaluate(g, x)


def test_evaluate_batch_of_no_points():
    assert evaluate_batch(make_diamond_graph(), np.zeros((0, 2))) == []


def test_evaluate_batch_rejects_a_cycle():
    # s -> a <-> b, a -> t: a walk that takes "+" at a never ends
    g = LogicalGraph(1, {"s": "source", "a": "internal", "b": "internal", "t": "target"},
                     [Arrow("sa", "s", "a"), Arrow("ab", "a", "b"), Arrow("ba", "b", "a"),
                      Arrow("at", "a", "t")],
                     {"a": AffineMap(np.array([[1.0]]), np.array([0.0]))},
                     {"a": {"+": "ab", "-": "at"}}, {"t": 0})
    with pytest.raises(CyclicGraphError):
        evaluate_batch(g, np.array([[1.0], [-1.0]]))


@pytest.mark.parametrize("src, dst", [("a", "gone"), ("gone", "a")])
def test_path_expansion_reports_a_dangling_arrow(src, dst):
    # a cycle check alone would see the missing end as a stuck vertex
    g = LogicalGraph(1, {"s": "source", "a": "internal", "t": "target"},
                     [Arrow("sa", "s", "a"), Arrow("at", "a", "t"), Arrow("x", src, dst)],
                     {}, {}, {"t": 0})
    with pytest.raises(DanglingVertexError, match="'x'"):
        enumerate_paths(g)
    with pytest.raises(DanglingVertexError, match="'x'"):
        evaluate_pathsum(g, np.array([0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    g = make_diamond_graph()
    with pytest.raises(NonFinitePointError):
        evaluate(g, [bad, 0.5])
    with pytest.raises(NonFinitePointError):
        evaluate_batch(g, np.array([[1.0, 1.0], [bad, 0.5]]))
    with pytest.raises(NonFinitePointError):
        sign_vector(g.guards["s"], np.array([0.5, bad]))


def merging_graph(top, left, right):
    """Integer guards on R^2 whose routes merge: `top` (two rows) sends two
    chambers each to `u` and `w`, whose "-" sides both reach `m`."""
    def guard(rows):
        return AffineMap(np.array([r[:2] for r in rows], dtype=float),
                         np.array([r[2] for r in rows], dtype=float))

    return LogicalGraph(
        2, {"s": "source", "u": "internal", "w": "internal", "m": "internal",
            "t0": "target", "t1": "target", "t2": "target"},
        [Arrow("su", "s", "u"), Arrow("sw", "s", "w"), Arrow("ut", "u", "t0"),
         Arrow("um", "u", "m"), Arrow("wt", "w", "t2"), Arrow("wm", "w", "m"),
         Arrow("mt", "m", "t1")],
        {"s": guard(top), "u": guard([left]), "w": guard([right])},
        {"s": {"++": "su", "--": "su", "+-": "sw", "-+": "sw"},
         "u": {"+": "ut", "-": "um"}, "w": {"+": "wt", "-": "wm"}},
        {"t0": "A", "t1": "B", "t2": "C"})


int_row = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.lists(int_row, min_size=2, max_size=2), int_row, int_row,
       st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=1, max_size=40))
def test_evaluate_batch_matches_pointwise_on_guard_boundaries(top, left, right, points):
    # small integer rows and points put many points exactly on a guard
    # hyperplane, where both walks must take "+"
    g = merging_graph(top, left, right)
    X = np.array(points, dtype=float)
    assert evaluate_batch(g, X) == [evaluate(g, x) for x in X]


@pytest.mark.parametrize("k", [63, 70, 2, 3])
def test_evaluate_batch_guard_with_many_rows(k):
    # thresholds x >= j for j < k; 70 rows no longer fit an int64 sign code
    routing = {"+" * j + "-" * (k - j): ("even" if j % 2 == 0 else "odd")
               for j in range(k + 1)}
    g = LogicalGraph(1, {"s": "source", "t0": "target", "t1": "target"},
                     [Arrow("even", "s", "t0"), Arrow("odd", "s", "t1")],
                     {"s": AffineMap(np.ones((k, 1)), -np.arange(k, dtype=float))},
                     {"s": routing}, {"t0": "even", "t1": "odd"})
    X = np.arange(-1.0, k + 1.0, 0.5)[:, None]
    assert evaluate_batch(g, X) == [evaluate(g, x) for x in X]


def threshold_graph(k, unrouted=()):
    """Guard rows x >= j for j < k on R^1: a point where exactly j rows hold
    has sign vector "+" * j + "-" * (k - j) and goes to "even" or "odd" by
    j, unless j is in `unrouted`."""
    routing = {"+" * j + "-" * (k - j): ("even" if j % 2 == 0 else "odd")
               for j in range(k + 1) if j not in unrouted}
    return LogicalGraph(1, {"s": "source", "t0": "target", "t1": "target"},
                        [Arrow("even", "s", "t0"), Arrow("odd", "s", "t1")],
                        {"s": AffineMap(np.ones((k, 1)), -np.arange(k, dtype=float))},
                        {"s": routing}, {"t0": "even", "t1": "odd"})


@pytest.mark.parametrize("k, n", [(3, 200), (3, 4), (63, 300), (70, 300), (1, 50)],
                         ids=["dense-table", "few-points", "63-rows", "70-rows", "one-row"])
def test_unknown_sign_vector_is_named_alike_on_both_routing_paths(k, n):
    # a dense route table serves a guard of up to 16 rows whatever its point
    # count; 63 and 70 rows look up each distinct code, and a one-row guard
    # splits its points by their sign
    g = threshold_graph(k, unrouted=(1, k - 1))
    X = np.linspace(-1.0, k + 1.0, n)[:, None]
    messages = []
    for x in X:
        try:
            evaluate(g, x)
        except UnknownSignVectorError as e:
            messages.append(str(e))
    assert messages  # the smallest unrouted vector comes first in x order
    for batch in (X, X[::-1]):
        with pytest.raises(UnknownSignVectorError) as caught:
            evaluate_batch(g, batch)
        assert str(caught.value) == messages[0]


def test_guard_over_the_wrong_dimension_is_a_dimension_error():
    g = make_step_graph()
    g.guards["s"] = AffineMap(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(DimensionMismatchError):
        evaluate(g, [1.0])
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(g, np.array([[1.0], [-1.0]]))


def hyperplane_points(g, rng, per_row):
    """`per_row` Gaussian points projected onto each guard row's hyperplane,
    where the last bits of a row's value decide its sign."""
    pts = []
    for v in sorted(g.guards):
        guard = g.guards[v]
        for a, b in zip(guard.matrix, guard.offset):
            X = rng.normal(scale=2.0, size=(per_row, g.input_dim))
            pts.append(X - np.outer((X @ a + b) / (a @ a), a))
    return np.vstack(pts)


@pytest.mark.parametrize("seed", range(6))
def test_batch_walk_matches_single_walks_on_guard_hyperplanes(seed):
    rng = np.random.default_rng(seed)
    g = compile_relu_net(random_network(rng, [3, 4, 3, 3], RELU))
    X = hyperplane_points(g, rng, per_row=10)
    single = [evaluate(g, x) for x in X]
    assert evaluate_batch(g, X) == single
    assert evaluate_batch(g, X[::-1]) == single[::-1]
    for i in range(0, len(X), 50):
        assert evaluate_batch(g, X[i:i + 1]) == [single[i]]


def test_batch_program_reruns_over_stale_workspace_contents():
    # a small batch after a large one reads only what it writes itself
    rng = np.random.default_rng(7)
    g = compile_relu_net(random_network(rng, [3, 4, 3, 3], RELU))
    X = rng.normal(scale=2.0, size=(20_000, 3))
    single = [evaluate(g, x) for x in X]
    assert evaluate_batch(g, X) == single
    program = g._batch_program
    assert evaluate_batch(g, X[:3][::-1]) == single[:3][::-1]
    assert evaluate_batch(g, X[:0]) == []
    assert evaluate_batch(g, X[::-1]) == single[::-1]
    assert g._batch_program is program  # built once, on the first call


def test_a_batch_above_the_cap_leaves_the_thread_workspace_at_the_cap():
    rng = np.random.default_rng(10)
    g = compile_relu_net(random_network(rng, [3, 4, 3, 3], RELU))
    cap = graph._WORKSPACE_POINTS
    X = rng.normal(scale=2.0, size=(cap + 5000, 3))
    chunks = [evaluate_batch(g, X[i:i + cap]) for i in range(0, len(X), cap)]
    assert evaluate_batch(g, X) == chunks[0] + chunks[1]
    assert graph._WORKSPACE.points <= cap


def test_batch_programs_of_two_graphs_interleave_on_one_thread():
    rng = np.random.default_rng(8)
    relu = compile_relu_net(random_network(rng, [3, 4, 3, 3], RELU))  # R^3, <= 4 rows
    wide = threshold_graph(70)  # R^1, one 70-row guard
    X = rng.normal(scale=2.0, size=(500, 3))
    Y = np.linspace(-1.0, 71.0, 900)[:, None]
    want_x, want_y = [evaluate(relu, x) for x in X], [evaluate(wide, y) for y in Y]
    for n in (500, 40, 1, 500):
        assert evaluate_batch(relu, X[:n]) == want_x[:n]
        assert evaluate_batch(wide, Y[-2 * n:]) == want_y[-2 * n:]


def test_one_graph_evaluated_from_several_threads_at_once():
    rng = np.random.default_rng(9)
    g = compile_relu_net(random_network(rng, [3, 4, 3, 3], RELU))
    batches = [rng.normal(scale=2.0, size=(n, 3)) for n in (3000, 700, 1, 2000)]
    wants = [[evaluate(g, x) for x in X] for X in batches]
    g = graph_from_dict(graph_to_dict(g))  # no program yet: the threads race to build it
    mismatches = []

    def work(k):
        for r in range(15):
            j = (k + r) % len(batches)
            if evaluate_batch(g, batches[j]) != wants[j]:
                mismatches.append((k, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def sign_graph(guard):
    """The guard at the source of a graph over its R^n, each of its 2**rows
    sign vectors routed to a target labeled by that vector."""
    keys = ["".join(bits) for bits in itertools.product("+-", repeat=guard.rows)]
    return LogicalGraph(guard.dim, {"s": "source", **{f"t{k}": "target" for k in keys}},
                        [Arrow(f"a{k}", "s", f"t{k}") for k in keys], {"s": guard},
                        {"s": {k: f"a{k}" for k in keys}}, {f"t{k}": k for k in keys})


# rows over R^5 with zero coefficients before, inside and after their nonzero
# ones, -0.0 coefficients, and zero rows; each offset puts points on a face
SPAN_ROWS = {
    "leading-and-trailing": ([0.0, 0.0, 1.0, -1.0, 0.0], 0.0),
    "middle": ([0.0, 2.0, 0.0, 0.5, -0.0], -1.0),
    "first-only": ([1.0, -0.0, -0.0, 0.0, -0.0], -0.5),
    "last-only": ([0.0, 0.0, -0.0, 0.0, -1.0], 1.0),
    "negative-zeros": ([-0.0, -0.0, -0.0, -0.0, -0.0], 0.0),
    "zero-below": ([0.0, 0.0, 0.0, 0.0, 0.0], -1.0),
}
# guard rows, and the coordinates [start, stop) that its step reads
SPAN_GUARDS = {
    "leading-and-trailing": (["leading-and-trailing"], (2, 4)),
    "middle": (["middle"], (1, 4)),
    "first-only": (["first-only"], (0, 1)),
    "last-only": (["last-only"], (4, 5)),
    "negative-zeros": (["negative-zeros"], (0, 0)),
    "zero-below": (["zero-below"], (0, 0)),
    "two-middle-rows": (["leading-and-trailing", "middle"], (1, 4)),
    "with-a-zero-row": (["negative-zeros", "leading-and-trailing", "zero-below"], (2, 4)),
    "all-zero": (["negative-zeros", "zero-below"], (0, 0)),
}


def guard_steps(g):
    """The steps of g's batch program that are not targets."""
    return [s for s in graph._batch_program(g).steps if not isinstance(s, int)]


def coordinates_read(step):
    """The coordinates [start, stop) that a guard step reads: its span, or
    from the first axis of a fused axis tree to its last."""
    if isinstance(step, graph._AxisTree):
        return step.axes[0][0], step.axes[-1][0] + 1
    return step.span.start, step.span.stop


@pytest.mark.parametrize("name", list(SPAN_GUARDS))
def test_a_guard_step_reads_only_its_coordinate_span_and_signs_alike(name):
    names, span = SPAN_GUARDS[name]
    rows = [SPAN_ROWS[r] for r in names]
    guard = AffineMap(np.array([r for r, _ in rows]), np.array([b for _, b in rows]))
    g = sign_graph(guard)
    (step,) = guard_steps(g)
    # x[0] - 0.5 >= 0 is an axis guard: a rank table over coordinate 0
    assert isinstance(step, graph._AxisTree) == (name == "first-only")
    assert coordinates_read(step) == span
    # signed zeros, points on each face, and 1e308, whose products overflow
    values = [-0.0, 0.0, 0.5, -1.0, 1.0, 1e308]
    X = np.array(list(itertools.product(values, repeat=5)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = [sign_vector(guard, x) for x in X]
        assert [evaluate(g, x) for x in X] == want
        assert evaluate_batch(g, X) == want
        assert evaluate_batch(g, X[::7]) == want[::7]  # gathered, not the whole batch


def test_dense_guards_still_read_every_coordinate():
    # the batch benchmark's graph: a [3, 4, 3, 3] relu net, seeded as it seeds it
    g = compile_relu_net(random_network(np.random.default_rng([9, 0]), [3, 4, 3, 3], RELU))
    steps = [s for s in graph._batch_program(g).steps if not isinstance(s, int)]
    assert steps and len(steps) == len(g.guards)
    assert all(s.span == slice(0, 3) for s in steps)


def test_a_cover_guard_step_reads_one_coordinate():
    grid = grid_from_function(lambda x: int(x[0] + x[1] > 1), [0.0, 0.0], [1.0, 1.0], 8)
    g = approximate(grid, 0.0).graph
    (step,) = guard_steps(g)
    # the whole cover is one fused step; each of its ranks reads one coordinate
    assert isinstance(step, graph._AxisTree)
    assert [a for a, _, _ in step.axes] == [0, 1]


def assert_batch_walk_matches_single_walks(g, X):
    """evaluate_batch gives evaluate's labels on X, in either order, and on
    a sub-batch of every seventh point."""
    want = [evaluate(g, x) for x in X]
    assert evaluate_batch(g, X) == want
    assert evaluate_batch(g, X[::-1]) == want[::-1]
    assert evaluate_batch(g, X[::7]) == want[::7]


def grid_probes(grid):
    """Every cell centre, then along each axis every face of the grid, the
    floats one ulp either side of it, both zeros and points beyond the grid,
    each with the other coordinates of a cell centre."""
    centres = grid.center(np.array(list(np.ndindex(*grid.resolution))))
    points = [centres]
    for a in range(grid.dim):
        faces = grid.lo[a] + np.arange(grid.resolution[a] + 1) * grid.cell_width[a]
        values = np.concatenate([faces, np.nextafter(faces, -np.inf),
                                 np.nextafter(faces, np.inf),
                                 [0.0, -0.0, grid.lo[a] - 1.0, grid.hi[a] + 1.0, -1e300, 1e300]])
        X = centres[np.arange(len(values)) % len(centres)].copy()
        X[:, a] = values
        points.append(X)
    return np.vstack(points)


def radial_grid(center, res=32, ring=0.18):
    """Four labels on the unit square by distance from `center`: 0, 1 and 2
    in rings of width `ring`, 3 beyond (the grid_cover benchmark's grids)."""
    axis = (np.arange(res) + 0.5) / res
    px, py = np.meshgrid(axis, axis, indexing="ij")
    ring_of = np.minimum(3, np.floor(np.hypot(px - center[0], py - center[1]) / ring))
    labels = np.empty((res, res), dtype=object)
    labels[...] = ring_of.astype(int).tolist()
    return LabeledGrid(np.zeros(2), np.ones(2), labels)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_benchmark_grid_covers_walk_as_one_fused_step(seed):
    centres = [(0.5, 0.5)] + [np.random.default_rng([seed, k]).uniform(0.35, 0.65, size=2)
                              for k in range(1, 16)]
    for centre in centres:
        grid = radial_grid(centre)
        g = approximate(grid, 0.0).graph
        (step,) = guard_steps(g)
        assert isinstance(step, graph._AxisTree)
        assert_batch_walk_matches_single_walks(g, grid_probes(grid))


@pytest.mark.parametrize("lo, hi, res, fn", [
    ([-1.3], [2.9], 37, lambda x: int(3 * np.sin(2 * x[0])) % 3),
    ([-0.7, 0.1, -2.3], [0.9, 1.7, 0.4], 6,
     lambda x: int(x[0] + x[1] - x[2] > 1.9) + 2 * int(x[1] > 0.8)),
], ids=["1-d", "3-d"])
def test_covers_in_one_and_three_dimensions_walk_as_one_fused_step(lo, hi, res, fn):
    grid = grid_from_function(fn, lo, hi, res)
    g = approximate(grid, 0.0).graph
    (step,) = guard_steps(g)
    assert isinstance(step, graph._AxisTree) and len(step.axes) == len(lo)
    assert_batch_walk_matches_single_walks(g, grid_probes(grid))


@pytest.mark.parametrize("cover_first", [True, False], ids=["cover-then-relu", "relu-then-cover"])
def test_a_product_of_a_cover_and_a_relu_compile_enters_and_leaves_its_trees(cover_first):
    grid = grid_from_function(lambda x: int(2 * x[0] - x[1] > 0.4) + int(x[1] > 1.1),
                              [-0.35, 0.2], [1.45, 1.9], 9)
    cover = approximate(grid, 0.0).graph
    relu = compile_relu_net(random_network(np.random.default_rng(3), [2, 3, 3], RELU))
    g = product([cover, relu] if cover_first else [relu, cover])
    steps = guard_steps(g)
    trees = [s for s in steps if isinstance(s, graph._AxisTree)]
    # one tree for the cover, or one for each copy of it below a relu target
    assert len(trees) == (1 if cover_first else len(relu.target_labels))
    assert len(steps) > len(trees)  # and relu guard steps around them
    X = np.vstack([grid_probes(grid), np.random.default_rng(5).normal(scale=1.5, size=(300, 2))])
    assert_batch_walk_matches_single_walks(g, X)


def test_an_axis_guard_that_two_arrows_enter_starts_a_tree_of_its_own():
    # s: x0 >= 0 leads to m, and to the dense guard d below it, which also
    # leads to m; m: x1 >= 0.5 is entered twice, so it is not in s's tree
    vertices = {"s": "source", "d": "internal", "m": "internal",
                "A": "target", "B": "target", "C": "target"}
    arrows = [Arrow(a, src, dst) for a, src, dst in
              [("sm", "s", "m"), ("sd", "s", "d"), ("dm", "d", "m"), ("dA", "d", "A"),
               ("mB", "m", "B"), ("mC", "m", "C")]]
    guards = {"s": AffineMap(np.array([[1.0, 0.0]]), np.array([0.0])),
              "d": AffineMap(np.array([[1.0, 1.0]]), np.array([0.0])),
              "m": AffineMap(np.array([[0.0, 1.0]]), np.array([-0.5]))}
    routing = {"s": {"+": "sm", "-": "sd"}, "d": {"+": "dm", "-": "dA"},
               "m": {"+": "mB", "-": "mC"}}
    g = LogicalGraph(2, vertices, arrows, guards, routing, {"A": "A", "B": "B", "C": "C"})
    kinds = [type(s).__name__ for s in guard_steps(g)]
    assert kinds == ["_AxisTree", "_Split", "_AxisTree"]
    values = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0]
    X = np.array(list(itertools.product(values, repeat=2)))
    assert_batch_walk_matches_single_walks(g, X)


def test_a_tree_whose_table_passes_the_cell_cap_keeps_a_step_per_vertex(monkeypatch):
    grid = radial_grid((0.41, 0.57), res=12)
    X = grid_probes(grid)
    g = approximate(grid, 0.0).graph
    (fused,) = guard_steps(g)
    cells = len(fused.table)
    assert cells == math.prod(len(faces) + 1 for _, faces, _ in fused.axes)
    monkeypatch.setattr(graph, "_AXIS_CELLS", cells - 1)
    g = graph_from_dict(graph_to_dict(g))
    steps = guard_steps(g)
    assert len(steps) == len(g.guards) and all(isinstance(s, graph._Split) for s in steps)
    assert_batch_walk_matches_single_walks(g, X)
    monkeypatch.setattr(graph, "_AXIS_CELLS", cells)
    g = graph_from_dict(graph_to_dict(g))
    (step,) = guard_steps(g)
    assert isinstance(step, graph._AxisTree)
    assert_batch_walk_matches_single_walks(g, X)


def test_wrong_dimension_guard_raises_only_once_a_point_reaches_it():
    g = make_diamond_graph()  # x < 0 goes straight to "C", x >= 0 meets the guard at m1
    g.guards["m1"] = AffineMap(np.array([[0.0, 1.0, 0.0]]), np.array([0.0]))
    assert evaluate_batch(g, np.array([[-1.0, 2.0], [-3.0, -1.0]])) == ["C", "C"]
    with pytest.raises(DimensionMismatchError, match="guard at 'm1' acts on R\\^3"):
        evaluate_batch(g, np.array([[-1.0, 2.0], [1.0, 2.0]]))


def test_pathsum_agrees_with_walk(rng):
    g = make_diamond_graph()
    for x in rng.uniform(-3, 3, size=(100, 2)):
        label, terms = evaluate_pathsum(g, x)
        assert label == evaluate(g, x)
        assert sum(t.coefficient for t in terms) == 1
        assert len(terms) == 3  # every source-target path shows up


def test_pathsum_cap():
    g = make_diamond_graph()
    with pytest.raises(PathExplosionError):
        evaluate_pathsum(g, np.array([0.1, 0.1]), cap=2)


def test_graph_dict_roundtrip_bit_identical(rng):
    g = make_diamond_graph()
    h = graph_from_dict(graph_to_dict(g))
    require_valid(h)
    for x in rng.uniform(-2, 2, size=(200, 2)):
        assert evaluate(g, x) == evaluate(h, x)


# -- exact rows in graph files ------------------------------------------------


def deep_relu_graph():
    """A compiled relu graph whose deeper guards keep rows their floats
    cannot hold."""
    return compile_relu_net(random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], RELU))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_exact_rows_beyond_float_precision_survive_both_file_kinds(n, data, tmp_path_factory):
    big = st.integers(-2**256, 2**256)
    rows = data.draw(st.lists(st.tuples(*[big] * (n + 1)), min_size=1, max_size=3))
    guard = AffineMap.from_exact(tuple(rows), 2 ** data.draw(st.integers(0, 256)), n)
    b = GraphBuilder(n)
    signs = ["".join(s) for s in np.array(np.meshgrid(*[["+", "-"]] * len(rows)))
             .reshape(len(rows), -1).T.tolist()]
    source = b.cut(None, guard)
    for s in signs:
        b.leaf((source, s), s.count("+") % 2)
    g = b.graph()
    path = tmp_path_factory.mktemp("exact") / "g.json"
    graph.save_graph(g, path)
    loaded = graph.load_graph(path).guards["s"]
    fg = FuzzyLogicalGraph(g, {v: StateSpace.euclidean(n) for v in g.vertices},
                           {aid: ArrowMap(IDENTITY) for aid in g.arrows})
    reread = fuzzy_from_dict(json.loads(json.dumps(fuzzy_to_dict(fg)))).skeleton.guards["s"]
    for copy in (loaded, reread):
        assert copy.constraints == guard.constraints
        assert np.array_equal(copy.matrix, guard.matrix)
        assert np.array_equal(copy.offset, guard.offset)


def test_only_guards_whose_floats_lose_rows_write_exact_rows():
    g = deep_relu_graph()
    doc = graph_to_dict(g)
    for v, gd in g.guards.items():
        assert ("exact" in doc["guards"][v]) == (gd.exact != AffineMap(gd.matrix, gd.offset).exact)
    assert any("exact" in gd for gd in doc["guards"].values())
    grid = grid_from_function(lambda x: int(3 * np.hypot(x[0] - 0.4, x[1] - 0.6)),
                              [0.0, 0.0], [1.0, 1.0], 6)
    step = compile_step_net(random_network(np.random.default_rng(2), [2, 3, 3, 3], STEP))
    for float_built in (step, approximate(grid, 0.0).graph, to_llgraph(from_llgraph(step))):
        require_valid(float_built)  # reads every guard's exact rows
        assert not any("exact" in gd for gd in graph_to_dict(float_built)["guards"].values())


def test_exact_rows_that_do_not_round_to_the_floats_name_their_vertex():
    doc = graph_to_dict(deep_relu_graph())
    v = next(v for v, gd in doc["guards"].items() if "exact" in gd)
    row = doc["guards"][v]["exact"]["rows"][0]
    row[0] = 2 * row[0] or doc["guards"][v]["exact"]["den"]  # a float twice, or 1 for 0
    with pytest.raises(ValueError, match=re.escape(f"guard at {v!r}: exact rows do not round")):
        graph_from_dict(doc)
    huge = graph_to_dict(deep_relu_graph())  # rows beyond the float range round to inf
    huge["guards"][v]["exact"]["rows"][0][0] = 10**400 * huge["guards"][v]["exact"]["den"]
    with pytest.raises(ValueError, match=re.escape(f"guard at {v!r}: exact rows do not round")):
        graph_from_dict(huge)
    for key, bad in (("den", 0), ("den", 2.0), ("rows", [[1.5, 0, 0, 0]])):
        broken = graph_to_dict(deep_relu_graph())
        broken["guards"][v]["exact"][key] = bad
        with pytest.raises(ValueError, match=re.escape(f"guard at {v!r}: exact rows must be")):
            graph_from_dict(broken)


def test_rows_beyond_the_float_range_round_to_infinities_and_keep_their_file():
    net = NetworkSpec([AffineMap([[1e200], [-1e200]], [0.0, 1.0]),
                       AffineMap([[1e200, 1.0], [0.0, 1.0]], [0.0, 1.0])], RELU, "indexmax")
    g = compile_relu_net(net)  # the composed row 1e400 x - 1 >= 0 splits exactly
    (v,) = [v for v, gd in g.guards.items() if np.isinf(gd.matrix).any()]
    loaded = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
    assert loaded.guards[v].constraints == g.guards[v].constraints
    for h in (g, loaded):
        assert [type(e) for e in validate_graph(h).errors] == [NonFinitePointError]


def test_a_lifted_or_padded_relu_guard_keeps_its_exact_rows_with_zero_columns():
    net = random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], RELU)
    g = compile_relu_net(net)

    def padded(gd, left, right):
        return tuple(feasibility.Constraint((0,) * left + c.coeffs + (0,) * right, c.offset,
                                            False) for c in gd.constraints)

    lifted = zero_locus_lift(relabel(g, lambda label: label + 1))
    assert all(lifted.guards[v].constraints == padded(gd, 0, 1) for v, gd in g.guards.items())
    fg = from_relu_softmax_net(NetworkSpec(net.layers, RELU, SOFTMAX))
    guards = fg.skeleton.guards.values()
    n, k = net.input_dim, net.output_dim
    want = Counter([padded(gd, 0, n) for gd in guards] + [padded(gd, k, 0) for gd in guards])
    both = fuzzy_product(fg, fg).skeleton.guards.values()
    assert Counter(gd.constraints for gd in both) == want


def test_a_float_guard_is_padded_on_its_floats_whatever_was_read_before():
    grid = grid_from_function(lambda x: int(3 * np.hypot(x[0] - 0.4, x[1] - 0.6)),
                              [0.0, 0.0], [1.0, 1.0], 6)
    covers = [approximate(grid, 0.0).graph for _ in range(2)]
    ranks = {label: i + 1 for i, label in enumerate(sorted(map(str, covers[0].labels)))}
    fresh, validated = (relabel(g, lambda label: ranks[str(label)]) for g in covers)
    require_valid(validated)  # reads every guard's exact rows
    want = json.dumps(graph_to_dict(zero_locus_lift(fresh)))
    assert "-0.0" in want  # a cover's first cut offsets are -0.0
    assert json.dumps(graph_to_dict(zero_locus_lift(validated))) == want


def test_relabel_injective_only():
    g = make_step_graph(labels=(0, 1))
    h = relabel(g, {0: 1, 1: 2})
    assert evaluate(h, [-1.0]) == 1 and evaluate(h, [1.0]) == 2
    with pytest.raises(DanglingVertexError):
        relabel(g, {0: 9, 1: 9})


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded-cycle", "guarded-back-edge"])
def test_region_walk_rejects_a_cycle(guarded):
    g = make_cyclic_graph(guarded)
    with pytest.raises(CyclicGraphError):
        list(walk_regions(g))
    with pytest.raises(CyclicGraphError):
        from_llgraph(g)


def test_builder_keeps_labels_that_print_alike_apart():
    b = GraphBuilder(1)
    assert b.target_for(1) == b.target_for(1)
    # rows x and x - 1: "++" is x >= 1, "+-" is 0 <= x < 1, "--" is x < 0
    s = b.cut(None, AffineMap(np.array([[1.0], [1.0]]), np.array([0.0, -1.0])))
    for signs, label in (("++", 1), ("+-", "1"), ("--", (1,))):
        b.leaf((s, signs), label)
    g = b.graph()
    require_valid(g)
    assert len(g.target_labels) == 3
    got = [evaluate(g, [x]) for x in (2.0, 0.5, -1.0)]
    assert got == [1, "1", (1,)] and [type(v) for v in got] == [int, str, tuple]
    h = graph_from_dict(graph_to_dict(g))
    assert evaluate_batch(h, np.array([[2.0], [0.5], [-1.0]])) == got


def test_nested_cuts_that_reach_one_label_finish_as_one_plain_arrow():
    b = GraphBuilder(2)
    s = b.cut(None, AffineMap(np.eye(2), np.zeros(2)))
    for signs in ("++", "+-", "-+"):
        b.leaf((s, signs), "only")
    inner = b.cut((s, "--"), AffineMap(np.array([[1.0, 1.0]]), np.array([1.0])))
    b.leaf((inner, "-"), "only")
    below = b.cut((inner, "+"), AffineMap(np.array([[0.0, 1.0]]), np.array([2.0])))
    b.leaf((below, "+"), "only")
    b.leaf((below, "-"), "only")
    g = b.graph()
    assert g.vertices == {"s": "source", "t0": "target"} and not g.guards
    assert [(a.src, a.dst) for a in g.arrows.values()] == [("s", "t0")]
    assert evaluate(g, [-1.0, 3.0]) == "only"


def test_a_cut_keeps_one_arrow_per_destination_and_drops_a_cut_below_it_that_does_not_split():
    b = GraphBuilder(1)
    # rows x and x - 1: "++" is x >= 1, "+-" is 0 <= x < 1, "--" is x < 0
    s = b.cut(None, AffineMap(np.array([[1.0], [1.0]]), np.array([0.0, -1.0])))
    b.leaf((s, "++"), "hi")
    b.leaf((s, "--"), "hi")
    mid = b.cut((s, "+-"), AffineMap(np.array([[1.0]]), np.array([-0.5])))
    b.leaf((mid, "+"), "lo")
    b.leaf((mid, "-"), "lo")
    g = b.graph()
    require_valid(g)
    assert set(g.vertices) == {"s", "t0", "t1"} and list(g.guards) == ["s"]
    assert sorted((a.src, a.dst) for a in g.arrows.values()) == [("s", "t0"), ("s", "t1")]
    routes = {signs: g.arrows[a].dst for signs, a in g.routing["s"].items()}
    assert routes == {"++": "t0", "--": "t0", "+-": "t1"}
    assert [evaluate(g, [x]) for x in (2.0, 0.75, 0.25, -1.0)] == ["hi", "lo", "lo", "hi"]


def test_an_explicit_arrow_below_a_cut_is_never_collapsed():
    # the relu import's shape: each chamber's plain vertex carries its own
    # map to the one target, so the chambers stay apart
    b = GraphBuilder(1)
    t = b.target_for("out")
    s = b.cut(None, AffineMap(np.array([[1.0]]), np.array([0.0])))
    made = {signs: b.arrow(b.vertex((s, signs)), t) for signs in ("+", "-")}
    g = b.graph()
    assert set(g.vertices) == {"s", "s|+", "s|-", "t0"} and list(g.guards) == ["s"]
    assert {signs: (g.arrows[a].src, g.arrows[a].dst) for signs, a in made.items()} == {
        "+": ("s|+", "t0"), "-": ("s|-", "t0")}
    assert {signs: g.arrows[a].dst for signs, a in g.routing["s"].items()} == {
        "+": "s|+", "-": "s|-"}
    assert len(g.arrows) == 4


def test_a_pending_chain_deeper_than_the_recursion_limit_finishes(monkeypatch):
    def refuse(limit):
        raise AssertionError("the finish changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    depth = 3000
    assert depth > sys.getrecursionlimit()
    guard = AffineMap(np.array([[1.0]]), np.array([0.0]))
    for labels in (("lo", "hi"), ("one", "one")):
        b = GraphBuilder(1)
        at = None
        for k in range(depth):  # each cut's "-" a leaf, its "+" the next cut
            v = b.cut(at, guard, f"q{k}")
            b.leaf((v, "-"), labels[0])
            at = (v, "+")
        b.leaf(at, labels[1])
        g = b.graph()
        if labels[0] == labels[1]:
            assert set(g.vertices) == {"s", "t0"} and len(g.arrows) == 1
        else:
            assert len(g.guards) == depth and len(g.vertices) == depth + 2
            assert evaluate(g, [1.0]) == "hi" and evaluate(g, [-1.0]) == "lo"


# -- one exit rule behind every walk ------------------------------------------


def identity_fuzzy(g):
    """g as a fuzzy graph whose every state is the point and every map the identity."""
    return FuzzyLogicalGraph(g, {v: StateSpace.euclidean(g.input_dim) for v in g.vertices},
                             {aid: ArrowMap(IDENTITY) for aid in g.arrows})


WALKS = {
    "evaluate": lambda g, x: evaluate(g, x),
    "evaluate_batch": lambda g, x: evaluate_batch(g, np.array([x]))[0],
    "walk_regions": lambda g, x: list(walk_regions(g)),
    "from_llgraph": lambda g, x: from_llgraph(g).label_of(x),
    "evaluate_pathsum": lambda g, x: evaluate_pathsum(g, x)[0],
    "evaluate_fuzzy": lambda g, x: evaluate_fuzzy(identity_fuzzy(g), x).label,
    "evaluate_fuzzy_pathsum": lambda g, x: evaluate_fuzzy_pathsum(identity_fuzzy(g), x).label,
}
REGION_WALKS = ("walk_regions", "from_llgraph")


def faulty_graph(fault):
    """r -> p -> s on R^1, where s routes x >= 0 to label 1 and x < 0 to label
    0, and a vertex o off the walk has an arrow o1 to label 1; then one fault
    at s, at its arrow s1 or at its target t1, which the walk of x = 1 reaches."""
    vertices = {"r": "source", "p": "internal", "s": "internal", "o": "internal",
                "t0": "target", "t1": "target"}
    arrows = [Arrow("rp", "r", "p"), Arrow("ps", "p", "s"), Arrow("s0", "s", "t0"),
              Arrow("s1", "s", "t1"), Arrow("o1", "o", "t1")]
    guards = {"s": AffineMap(np.array([[1.0]]), np.array([0.0]))}
    routing = {"s": {"+": "s1", "-": "s0"}}
    if fault.startswith("no guard"):
        del guards["s"], routing["s"]
    if fault == "no guard, no arrow":
        arrows = arrows[:2] + arrows[4:]
    elif fault == "route names a missing arrow":
        routing["s"]["+"] = "gone"
    elif fault == "route names an arrow that leaves another vertex":
        routing["s"]["+"] = "o1"
    elif fault == "guard with no routing entry":
        del routing["s"]
    elif fault == "guard over R^2":
        guards["s"] = AffineMap(np.array([[1.0, 0.0]]), np.array([0.0]))
    elif fault == "arrow to a missing vertex":
        arrows[3] = Arrow("s1", "s", "u")
    labels = {"t0": 0} if fault == "target without a label" else {"t0": 0, "t1": 1}
    return LogicalGraph(1, vertices, arrows, guards, routing, labels)


FAULTS = {
    "no guard, 2 arrows": (IncompleteRoutingError,
                           "^vertex 's' has 2 outgoing arrows but no guard$"),
    "no guard, no arrow": (IncompleteRoutingError,
                           "^vertex 's' has 0 outgoing arrows but no guard$"),
    "route names a missing arrow": (UnknownSignVectorError, None),
    "route names an arrow that leaves another vertex": (UnknownSignVectorError, None),
    "guard with no routing entry": (UnknownSignVectorError, None),
    "guard over R^2": (DimensionMismatchError, "^guard at 's' acts on R\\^2"),
    "target without a label": (DanglingVertexError, "^target 't1' has no label$"),
    "arrow to a missing vertex": (DanglingVertexError,
                                  "^arrow 's1' references missing vertex 'u'$"),
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("fault", FAULTS)
def test_every_walk_meets_a_fault_by_the_one_exit_rule(fault, walk):
    kind, message = FAULTS[fault]
    if kind is UnknownSignVectorError:
        message = "^vertex 's' has no route for sign vector '\\+'$"
        if walk in REGION_WALKS:  # a realizable chamber without a route
            kind, message = IncompleteRoutingError, "^vertex 's'"
    with pytest.raises(kind, match=message):
        WALKS[walk](faulty_graph(fault), np.array([1.0]))


@pytest.mark.parametrize("walk", WALKS)
def test_a_lone_source_names_its_arrow_to_a_missing_vertex(walk):
    g = LogicalGraph(1, {"s": "source"}, [Arrow("a", "s", "u")], {}, {}, {})
    with pytest.raises(DanglingVertexError, match="^arrow 'a' references missing vertex 'u'$"):
        WALKS[walk](g, np.array([1.0]))


def test_a_target_without_a_label_raises_only_once_a_point_reaches_it():
    g = faulty_graph("target without a label")  # t1, label 1, lost its label
    for name in ("evaluate", "evaluate_batch", "evaluate_pathsum", "evaluate_fuzzy",
                 "evaluate_fuzzy_pathsum"):
        assert WALKS[name](g, np.array([-1.0])) == 0, name
    with pytest.raises(DanglingVertexError, match="^target 't1' has no label$"):
        evaluate_batch(g, np.array([[-1.0], [1.0]]))


@pytest.mark.parametrize("fault", [f for f, (kind, _) in FAULTS.items()
                                   if kind is not UnknownSignVectorError])
def test_the_audit_reports_the_error_a_walk_raises(fault):
    g = faulty_graph(fault)
    with pytest.raises(LogifoldError) as walked:
        evaluate(g, np.array([1.0]))
    report = validate_graph(g, check_realizability=False)
    assert (type(walked.value), str(walked.value)) in {(type(e), str(e)) for e in report.errors}


def test_the_audit_reports_a_guard_on_a_target():
    g = faulty_graph("none")
    g.guards["t1"] = AffineMap(np.array([[1.0]]), np.array([0.0]))
    messages = [str(e) for e in validate_graph(g, check_realizability=False).errors]
    assert "vertex 't1' has a guard but does not branch" in messages


def chain_graph(length):
    """A chain of `length` unguarded vertices on R^1 that ends in the one-row
    guard x - 0.5 >= 0: label "hi" above 0.5, "lo" below."""
    vertices = {f"v{i}": "internal" for i in range(length)}
    vertices.update(v0="source", lo="target", hi="target")
    arrows = [Arrow(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(length - 1)]
    arrows += [Arrow("down", f"v{length - 1}", "lo"), Arrow("up", f"v{length - 1}", "hi")]
    return LogicalGraph(1, vertices, arrows,
                        {f"v{length - 1}": AffineMap(np.array([[1.0]]), np.array([-0.5]))},
                        {f"v{length - 1}": {"+": "up", "-": "down"}}, {"lo": "lo", "hi": "hi"})


def test_a_chain_deeper_than_the_recursion_limit_gives_one_label_in_every_walk():
    g = chain_graph(3000)
    assert len(g.vertices) > sys.getrecursionlimit()
    for x, want in ((0.75, "hi"), (0.25, "lo")):
        for name, walk in WALKS.items():
            if name != "walk_regions":
                assert walk(g, np.array([x])) == want, name
    regions = list(walk_regions(g))
    assert [(t, steps[0][1]) for t, steps in regions] == [("hi", "+"), ("lo", "-")]
    assert len(enumerate_paths(g)) == 2 and len(enumerate_paths(g)[0]) == 3000


def mutation_bases():
    """Two well-formed graphs on R^2, as dicts, with points spread over them:
    a seeded relu compile and the k-d tree of a grid cover."""
    relu = compile_relu_net(random_network(np.random.default_rng(3), [2, 3, 3], RELU))
    grid = grid_from_function(lambda x: int(3 * np.hypot(x[0] - 0.4, x[1] - 0.6)),
                              [0.0, 0.0], [1.0, 1.0], 6)
    cover = approximate(grid, 0.0).graph
    rng = np.random.default_rng(4)
    return [(graph_to_dict(relu), rng.normal(scale=2.0, size=(12, 2))),
            (graph_to_dict(cover), rng.uniform(-0.1, 1.1, size=(12, 2)))]


MUTATION_BASES = mutation_bases()
MUTATIONS = ("delete a guard", "drop a route", "route to a missing arrow",
             "route to an arrow of another vertex", "delete the outgoing arrows",
             "widen a guard", "none")  # "none" keeps the graph well formed


def mutate(data, doc, x):
    """One mutation of the graph dict doc, at a vertex on x's walk."""
    g = graph_from_dict(doc)
    on_walk, v = [], g.source
    while g.vertices[v] != TARGET:
        on_walk.append(v)
        v = g.next_arrow(v, x).dst
    mutation = data.draw(st.sampled_from(MUTATIONS))
    guarded = [v for v in on_walk if v in g.guards]
    anywhere = mutation == "delete the outgoing arrows" or not guarded
    v = data.draw(st.sampled_from(on_walk if anywhere else guarded))
    routes = doc["routing"].get(v, {})
    if mutation == "delete a guard":
        doc["guards"].pop(v, None)
    elif mutation == "delete the outgoing arrows":
        doc["arrows"] = [a for a in doc["arrows"] if a["src"] != v]
    elif mutation == "widen a guard" and v in doc["guards"]:
        guard = doc["guards"][v]
        guard["matrix"] = [row + [0.0] for row in guard["matrix"]]
        if "exact" in guard:
            guard["exact"]["rows"] = [row[:-1] + [0] + row[-1:] for row in guard["exact"]["rows"]]
    elif mutation in ("drop a route", "route to a missing arrow",
                      "route to an arrow of another vertex") and routes:
        key = data.draw(st.sampled_from(sorted(routes)))
        if mutation == "drop a route":
            del routes[key]
        elif mutation == "route to a missing arrow":
            routes[key] = "missing"
        else:
            routes[key] = data.draw(st.sampled_from(
                sorted(a["id"] for a in doc["arrows"] if a["src"] != v)))
    return graph_from_dict(doc)


def outcome(walk, *args):
    """("label", value) or ("error", the LogifoldError subclass raised)."""
    try:
        return "label", walk(*args)
    except LogifoldError as e:
        return "error", type(e)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_every_walk_agrees_on_a_mutated_graph(data):
    doc, X = MUTATION_BASES[data.draw(st.integers(0, 1))]
    doc = graph_to_dict(graph_from_dict(doc))  # a fresh copy
    g = mutate(data, doc, X[data.draw(st.integers(0, len(X) - 1))])
    point_walks = [WALKS[name] for name in
                   ("evaluate", "evaluate_batch", "evaluate_pathsum", "evaluate_fuzzy")]
    got = []
    for x in X:
        outcomes = {outcome(walk, g, x) for walk in point_walks}
        assert len(outcomes) == 1, (x, outcomes)
        got.append(outcomes.pop())
    whole = outcome(evaluate_batch, g, X)
    if any(kind == "error" for kind, _ in got):
        assert whole[0] == "error"
    else:
        assert whole == ("label", [label for _, label in got])
    try:
        f = from_llgraph(g)
    except LogifoldError:
        return
    for x, (kind, label) in zip(X, got):
        if kind == "label":
            assert f.label_of(x) == label
