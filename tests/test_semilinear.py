import ast
import re
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logifold import evaluate, feasibility
from logifold.errors import (
    AmbiguousFiberError,
    DimensionMismatchError,
    IncompleteRoutingError,
    NonFinitePointError,
    RegionExplosionError,
)
from logifold.feasibility import Verdict, check_system
from logifold.graph import (AffineMap, Arrow, GraphBuilder, LogicalGraph, _guard_signs,
                            _sign_terms, _walk_regions, graph_from_dict, graph_to_dict,
                            walk_regions)
from logifold.networks import RELU, STEP, compile_relu_net, compile_step_net, random_network
from logifold.semilinear import (
    UNCOVERED,
    BasicSemilinearSet,
    SemilinearFunction,
    SemilinearSet,
    from_llgraph,
    load_semilinear,
    save_semilinear,
    semilinear_from_dict,
    semilinear_to_dict,
    to_llgraph,
)

from conftest import (make_diamond_graph, make_holed_graph, make_pruned_graph, make_step_graph,
                      narrow_vertices, near_hyperplane)


def halfline() -> BasicSemilinearSet:
    # x + y - 1 = 0, x > 0
    return BasicSemilinearSet(2, ((1.0, 1.0, -1.0),), ((1.0, 0.0, 0.0),))


def test_float_membership_agrees_with_the_graph_on_its_guard_hyperplane():
    # x lies on the guard's hyperplane as the graph sums it, ((c0*x0 + c1*x1) + c2*x2),
    # so the guard routes it to "+"; a dot product may round the sum the other way
    rng = np.random.default_rng(3)
    for _ in range(2000):
        c, x = rng.normal(size=3), rng.normal(size=3)
        b = GraphBuilder(3)
        s = b.cut(None, AffineMap(c[None], [-((c[0] * x[0] + c[1] * x[1]) + c[2] * x[2])]))
        b.leaf((s, "+"), "up")
        b.leaf((s, "-"), "down")
        g = b.graph()
        assert evaluate(g, x) == from_llgraph(g).label_of(x) == "up"


def guard_signs_contains(piece, x) -> bool:
    """Float membership by the array predicate `graph._guard_signs`: each
    row's sum compared with -b, as an eq, gt or ge row."""
    sums = np.empty((piece._rows.rows, 1))
    _guard_signs(*_sign_terms(piece._rows), np.asarray(x, dtype=float)[:, None], acc=sums)
    s, b = sums[:, 0].tolist(), (-piece._rows.offset).tolist()
    ne, ng = len(piece.eq), len(piece.gt)
    return all(v == w if i < ne else v > w if i < ne + ng else v >= w
               for i, (v, w) in enumerate(zip(s, b)))


@pytest.mark.parametrize("seed", range(4))
def test_float_membership_is_the_array_predicate_next_to_every_hyperplane(seed):
    rng = np.random.default_rng(seed)
    f = from_llgraph(compile_relu_net(random_network(rng, [2, 4, 4, 3], RELU)))
    pieces = [p for s in f.fibers.values() for p in s.pieces]
    # an eq piece, as the step compiler's zero loci give
    pieces.append(BasicSemilinearSet(2, ((1 / 3, 0.7, -0.1),), ((0.2, -1.0, 0.5),)))
    seen = {True: 0, False: 0}
    for piece in pieces:
        for *a, b in piece.eq + piece.gt + piece.ge:
            for x in near_hyperplane(rng, a, b):
                want = guard_signs_contains(piece, x)
                seen[want] += 1
                assert piece.contains(x.tolist()) == want
                assert piece.contains(x) == want  # numpy float64 coordinates
                assert piece.contains([x[0], float(x[1])]) == want
    assert seen[True] and seen[False]


def test_contains_rejects_a_point_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        halfline().contains([0.25, 0.75, 0.0])


def test_contains_float_mode():
    s = halfline()
    assert s.contains([0.25, 0.75])
    assert not s.contains([0.25, 0.5])   # off the line
    assert not s.contains([0.0, 1.0])    # x not strictly positive
    assert not s.contains([-1.0, 2.0])
    # no tolerance: a row value of 1e-13 is off the line, as a guard sees it
    assert not s.contains([0.25, 0.75 + 1e-13])


def test_contains_exact_mode_ignores_tolerance():
    s = halfline()
    x = [Fraction(1, 3), Fraction(2, 3)]
    assert s.contains(x)
    assert not s.contains([Fraction(1, 3), Fraction(2, 3) + Fraction(1, 10**18)])


def test_contains_is_exact_on_int_and_fraction_points():
    # 49 * (1/49) - 1 is exactly 0, but 49 * float(1/49) - 1 rounds below it
    s = BasicSemilinearSet(2, (), (), ((49.0, 0.0, -1.0),))
    f = SemilinearFunction(2, {"on": SemilinearSet(2, (s,))})
    assert s.contains([Fraction(1, 49), 0]) and f.label_of([Fraction(1, 49), 0]) == "on"
    assert s.contains([1, 0]) and not s.contains([0, 5])
    assert not s.contains([Fraction(1, 49) - Fraction(1, 10**30), 0])
    # a float point keeps the guard's float fold
    assert not s.contains([1 / 49, 0]) and f.label_of([1 / 49, 0.0]) is None


@pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [1, np.nan],
                               [Fraction(1, 2), np.inf]],
                         ids=["nan", "inf", "-inf", "int-nan", "fraction-inf"])
def test_a_non_finite_coordinate_is_never_routed(x):
    g = compile_step_net(random_network(np.random.default_rng(11), [2, 3, 2], STEP))
    f = from_llgraph(g)
    with pytest.raises(NonFinitePointError):
        f.label_of(x)
    for fiber in f.fibers.values():
        for piece in fiber.pieces:
            with pytest.raises(NonFinitePointError):
                piece.contains(x)
    # a function with no piece to read the point checks it itself
    for empty in (SemilinearFunction(2, {}), SemilinearFunction(2, {0: SemilinearSet(2, ())})):
        with pytest.raises(NonFinitePointError):
            empty.label_of(x)
        assert empty.label_of([1, 0.5]) is None
    # a mixed int and float point is read as floats, as the graph reads it
    assert f.label_of([1, 0.5]) == f.label_of([1.0, 0.5]) == evaluate(g, [1.0, 0.5])


def test_emptiness_verdicts_carry_certificates():
    wedge = BasicSemilinearSet(2, (), ((1.0, 0.0, 0.0), (0.0, 1.0, -2.0)))
    v = wedge.emptiness()
    assert v.feasible
    assert all(c.strict is not None for c in wedge.constraints())
    assert wedge.contains(list(v.witness))

    void = BasicSemilinearSet(1, (), ((1.0, 0.0), (-1.0, 0.0)))
    v = void.emptiness()
    assert not v.feasible and v.contradiction is not None


def test_semilinear_set_union_semantics():
    s = SemilinearSet(1, (
        BasicSemilinearSet(1, (), ((1.0, -1.0),)),    # x > 1
        BasicSemilinearSet(1, ((1.0, 1.0),), ()),     # x = -1
    ))
    assert s.contains([2.0]) and s.contains([-1.0])
    assert not s.contains([0.0])
    assert not s.is_empty()
    empty = SemilinearSet(1, (BasicSemilinearSet(1, ((0.0, 1.0),), ()),))
    assert empty.is_empty()


def test_from_llgraph_makes_one_piece_per_region():
    g = make_step_graph(labels=("lo", "hi"), threshold=2.0)
    f = from_llgraph(g)
    assert set(f.fibers) == {"lo", "hi"}
    # x >= 2 stays one piece, with its guard row kept weak
    (hi,) = f.fibers["hi"].pieces
    assert hi == BasicSemilinearSet(1, (), (), ((1.0, -2.0),))
    (lo,) = f.fibers["lo"].pieces
    assert lo == BasicSemilinearSet(1, (), ((-1.0, 2.0),), ())
    assert f.label_of([2.0]) == "hi"
    assert f.label_of([1.99]) == "lo"
    assert f.label_of([2 - 1e-13]) == "lo"
    assert f.label_of([5.0]) == "hi"


def test_from_llgraph_checks_no_system(monkeypatch):
    # the first walk splits each guard once; from_llgraph reads their records
    g = make_diamond_graph()
    regions = list(walk_regions(g))
    calls = []
    check_system = feasibility.check_system
    monkeypatch.setattr(feasibility, "check_system",
                        lambda *a, **k: calls.append(1) or check_system(*a, **k))
    f = from_llgraph(g)
    assert not calls
    assert sum(len(s.pieces) for s in f.fibers.values()) == len(regions) == 3


def counted_fm(monkeypatch):
    """The argument tuples of every later elimination."""
    calls = []
    real = feasibility._fm_verdict
    monkeypatch.setattr(feasibility, "_fm_verdict", lambda *a: calls.append(a) or real(*a))
    return calls


def test_pieces_carry_their_walk_witness_and_a_round_trip_reads_its_records(monkeypatch):
    g = compile_step_net(random_network(np.random.default_rng(5), [2, 3, 3], STEP))
    f = from_llgraph(g)
    pieces = [p for s in f.fibers.values() for p in s.pieces]
    fm = counted_fm(monkeypatch)
    for p in pieces:
        assert all(feasibility.satisfies(c, p.witness) for c in p.constraints())
        assert p.emptiness() == Verdict(True, p.witness, None)
    assert fm == []
    g2 = to_llgraph(f)
    splits = len(fm)  # those of the partition's cuts
    f2 = from_llgraph(g2)
    assert len(fm) == splits
    # a copy read back from its dict carries no record: it eliminates, to the same pieces
    assert semilinear_to_dict(f2) == semilinear_to_dict(from_llgraph(graph_from_dict(
        graph_to_dict(g2))))
    assert len(fm) > splits


def test_a_piece_whose_witness_breaks_a_row_is_decided_by_elimination(monkeypatch):
    # x > 0 and -x > 0 is empty; 0 breaks both rows
    void = BasicSemilinearSet(1, (), ((1.0, 0.0), (-1.0, 0.0)), (), witness=(Fraction(0),))
    # x > 0 and x >= 1: 1/2 breaks the weak row only, 2 holds them both
    ray = BasicSemilinearSet(1, (), ((1.0, 0.0),), ((1.0, -1.0),), witness=(Fraction(1, 2),))
    fm = counted_fm(monkeypatch)
    assert void.is_empty() and len(fm) == 1
    v = ray.emptiness()
    assert v.feasible and v.witness != (Fraction(1, 2),) and len(fm) == 2
    assert ray.contains(v.witness)
    held = BasicSemilinearSet(1, (), ((1.0, 0.0),), ((1.0, -1.0),), witness=(Fraction(2),))
    assert not held.is_empty() and len(fm) == 2
    # the witness is a hint, not part of the set's value
    assert held == ray == BasicSemilinearSet(1, (), ((1.0, 0.0),), ((1.0, -1.0),))
    assert hash(held) == hash(ray)


def test_from_llgraph_matches_walks(rng):
    g = make_diamond_graph()
    f = from_llgraph(g)
    for x in rng.normal(scale=2.0, size=(60, 2)):
        assert f.label_of(x) == evaluate(g, x)


def test_from_llgraph_rejects_a_realizable_unrouted_chamber():
    with pytest.raises(IncompleteRoutingError, match="'m'"):
        from_llgraph(make_holed_graph())


def test_from_llgraph_stops_at_a_guard_with_fewer_routes_than_chambers(monkeypatch):
    # 20 lines in general position cut R^3 into 1351 chambers; 2 are routed
    rows = np.random.default_rng(3).normal(size=(20, 4))
    g = LogicalGraph(3, {"s": "source", "t0": "target", "t1": "target"},
                     [Arrow("a0", "s", "t0"), Arrow("a1", "s", "t1")],
                     {"s": AffineMap(rows[:, :3], rows[:, 3])},
                     {"s": {"+" * 20: "a1", "-" * 20: "a0"}}, {"t0": 0, "t1": 1})
    calls = []
    find_witness = feasibility.find_witness
    monkeypatch.setattr(feasibility, "find_witness",
                        lambda *a, **k: calls.append(1) or find_witness(*a, **k))
    with pytest.raises(IncompleteRoutingError, match="more realizable sign vectors than its 2"):
        from_llgraph(g)
    assert len(calls) < 100


def test_from_llgraph_covers_the_parent_region_of_a_pruned_guard(rng):
    g = make_pruned_graph()
    f = from_llgraph(g)
    assert set(f.fibers) == {0, 1, 2}
    points = [[0.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [1e-9, 1e-9]]
    for x in list(rng.normal(scale=2.0, size=(60, 2))) + points:
        assert f.label_of(x) == evaluate(g, x)


def test_from_llgraph_pieces_are_pairwise_disjoint():
    f = from_llgraph(make_diamond_graph())
    pieces = [p for fiber in f.fibers.values() for p in fiber.pieces]
    for p, q in combinations(pieces, 2):
        verdict = check_system(p.constraints() + q.constraints(), 2)
        assert not verdict.feasible


def test_from_llgraph_region_cap():
    with pytest.raises(RegionExplosionError):
        from_llgraph(make_diamond_graph(), region_cap=2)
    assert len(from_llgraph(make_diamond_graph(), region_cap=3).fibers) == 3


def test_round_trip_through_graph(rng):
    g = make_diamond_graph()
    f = from_llgraph(g)
    g2 = to_llgraph(f)
    for x in rng.normal(scale=2.0, size=(60, 2)):
        assert evaluate(g2, x) == evaluate(g, x)
    for x in ([0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [-1e-9, 3.0]):
        assert evaluate(g2, np.array(x)) == evaluate(g, np.array(x))


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5, allow_nan=False), st.floats(-8, 8, allow_nan=False))
def test_round_trip_on_random_thresholds(t, x):
    g = make_step_graph(labels=("lo", "hi"), threshold=t)
    f = from_llgraph(g)
    pt = np.array([x])
    assert evaluate(to_llgraph(f), pt) == evaluate(g, pt)
    # exact at the weak boundary and at its float neighbours
    for p in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
        assert f.label_of([p]) == evaluate(g, np.array([p]))


def test_to_llgraph_deduplicates_scaled_rows():
    f = SemilinearFunction(2, {
        "a": SemilinearSet(2, (BasicSemilinearSet(2, (), ((2.0, 2.0, -2.0),)),)),
        "b": SemilinearSet(2, (BasicSemilinearSet(2, (), ((-1.0, -1.0, 1.0),)),)),
    })
    g = to_llgraph(f)
    # one hyperplane, stored as a (row, -row) pair
    assert g.guards[g.source].rows == 2
    assert evaluate(g, np.array([1.0, 1.0])) == "a"
    assert evaluate(g, np.array([0.0, 0.0])) == "b"
    assert evaluate(g, np.array([0.5, 0.5])) == UNCOVERED


@st.composite
def fiber_functions(draw):
    """1-3-d functions whose pieces reuse a few hyperplanes, scaled by positive
    and negative factors, next to constant rows that hold or fail."""
    n = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    planes = draw(st.lists(st.tuples(*[small] * (n + 1)).filter(lambda r: any(r[:-1])),
                           min_size=1, max_size=3))
    plane = st.builds(lambda p, k: tuple(k * v for v in p), st.sampled_from(planes),
                      st.sampled_from([1.0, 2.0, 0.5, -1.0, -3.0, -0.25]))
    constant = st.builds(lambda b: (0.0,) * n + (float(b),), st.integers(-1, 1))
    row = st.one_of(plane, plane, plane, constant)
    kinded = st.tuples(st.sampled_from(["gt", "ge", "eq"]), row)
    piece = st.lists(kinded, min_size=1, max_size=4).map(lambda rows: BasicSemilinearSet(
        n, *(tuple(r for k, r in rows if k == kind) for kind in ("eq", "gt", "ge"))))
    labels = draw(st.lists(st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]),
                                     st.tuples(st.integers(0, 1), st.sampled_from(["x", "y"]))),
                           min_size=1, max_size=3, unique=True))
    pieces = st.lists(piece, min_size=1, max_size=3)
    return SemilinearFunction(n, {label: SemilinearSet(n, tuple(draw(pieces))) for label in labels})


def _arrangement(f):
    """The sorted realizable chambers of f's distinct hyperplanes over its
    nonempty pieces, each as a (row, -row) pair in order of first appearance."""
    keys, rows = set(), []
    for fiber in f.fibers.values():
        for p in fiber.pieces:
            if p.is_empty():
                continue
            for r in p.eq + p.gt + p.ge:
                lead = next((Fraction(v) for v in r[:-1] if v), None)
                key = lead and tuple(Fraction(v) / lead for v in r)
                if key and key not in keys:
                    keys.add(key)
                    rows += [(list(r[:-1]), r[-1]), ([-v for v in r[:-1]], -r[-1])]
    weak = [feasibility.make_constraint(c, b, strict=False) for c, b in rows]
    return sorted(feasibility.enumerate_chambers(weak, f.dim).items())


def _named_point(err) -> tuple:
    """The exact point and the fiber texts an AmbiguousFiberError names."""
    point, names = re.fullmatch(r"point \((.*)\) lies in fibers (\[.*\])", str(err)).groups()
    return tuple(map(Fraction, point.split(", "))), ast.literal_eval(names)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fiber_functions())
def test_to_llgraph_routes_each_chamber_witness_to_its_label(f):
    witnesses = [w for _, (w, _) in _arrangement(f)]
    if any(sum(s.contains(w) for s in f.fibers.values()) > 1 for w in witnesses):
        with pytest.raises(AmbiguousFiberError) as err:
            to_llgraph(f)
        point, names = _named_point(err.value)
        fiber_of = {str(label): s for label, s in f.fibers.items()}
        assert len(names) > 1 and all(fiber_of[t].contains(point) for t in names)
        return
    g = to_llgraph(f)
    assert all(guard.rows <= 2 for guard in g.guards.values()) and not narrow_vertices(g)
    back = from_llgraph(g)
    for w in witnesses:
        got = back.label_of(w)
        assert f.label_of(w) == (None if got == UNCOVERED else got)


def test_to_llgraph_flags_overlap():
    ray = SemilinearSet(1, (BasicSemilinearSet(1, (), ((1.0, 0.0),)),))
    f = SemilinearFunction(1, {"a": ray, "b": ray})
    with pytest.raises(AmbiguousFiberError):
        to_llgraph(f)


def test_to_llgraph_uncovered_chamber():
    f = SemilinearFunction(1, {"a": SemilinearSet(1, (
        BasicSemilinearSet(1, (), ((1.0, 0.0),)),))})
    g = to_llgraph(f)
    assert evaluate(g, np.array([3.0])) == "a"
    assert evaluate(g, np.array([-3.0])) == UNCOVERED
    assert evaluate(g, np.array([0.0])) == UNCOVERED  # boundary is not x > 0


def test_to_llgraph_whole_space_fiber():
    f = SemilinearFunction(3, {"all": SemilinearSet(3, (
        BasicSemilinearSet(3, (), ()),))})
    g = to_llgraph(f)
    assert evaluate(g, np.zeros(3)) == "all"
    assert not g.guards


def test_one_fiber_function_compiles_guard_free_and_round_trips():
    # x > 0 and -x >= 0 cover the line, so every chamber is in fiber "a"
    f = SemilinearFunction(1, {"a": SemilinearSet(1, (
        BasicSemilinearSet(1, (), ((1.0, 0.0),)),
        BasicSemilinearSet(1, (), (), ((-1.0, 0.0),))))})
    g = to_llgraph(f)
    assert not g.guards and len(g.arrows) == 1
    back = from_llgraph(g)
    assert list(back.fibers) == ["a"] and len(back.fibers["a"].pieces) == 1
    for x in (-2.0, 0.0, 3.0):
        assert evaluate(g, np.array([x])) == back.label_of([x]) == f.label_of([x]) == "a"
    assert not to_llgraph(back).guards


def test_json_round_trip(tmp_path):
    f = from_llgraph(make_diamond_graph())
    path = tmp_path / "fibers.json"
    save_semilinear(f, path)
    f2 = load_semilinear(path)
    assert semilinear_to_dict(f2) == semilinear_to_dict(f)
    assert f2.label_of([1.0, 1.0]) == "A"


def test_dict_round_trip_preserves_rows():
    wedge = BasicSemilinearSet(2, (), ((1.0, 0.0, 0.0),), ((0.0, 1.0, -2.0),))
    f = SemilinearFunction(2, {"z": SemilinearSet(2, (halfline(), wedge))})
    d = semilinear_to_dict(f)
    f2 = semilinear_from_dict(d)
    assert f2.fibers["z"].pieces == f.fibers["z"].pieces


def test_a_piece_without_a_ge_key_loads(tmp_path):
    path = tmp_path / "fibers.json"
    path.write_text('{"dim": 1, "fibers": {"1": [{"eq": [], "gt": [[1.0, 0.0]]}]}}')
    f = load_semilinear(path)
    assert f.fibers[1].pieces == (BasicSemilinearSet(1, (), ((1.0, 0.0),)),)
    assert f.label_of([1.0]) == 1 and f.label_of([0.0]) is None


@pytest.mark.parametrize("dims, seed", [([2, 3, 3], 1), ([2, 4, 3], 0), ([3, 4, 3], 1)])
def test_relu_round_trips_agree_exactly_at_every_region_witness(dims, seed):
    g = compile_relu_net(random_network(np.random.default_rng(seed), dims, RELU))
    f = from_llgraph(g)
    g2 = to_llgraph(f)
    f2 = from_llgraph(g2)
    assert all(guard.rows <= 2 for guard in g2.guards.values())
    witnesses = [w for graph in (g, g2) for _, _, w in _walk_regions(graph)]
    assert all(isinstance(v, Fraction) for w in witnesses for v in w)
    for w in witnesses:
        assert f.label_of(w) == f2.label_of(w)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_partition_deeper_than_the_recursion_limit_round_trips():
    # label k on [k, k + 1): each interval is cut off the ones above it in turn
    limit = _stack_depth() + 50
    f = SemilinearFunction(1, {k: SemilinearSet(1, (BasicSemilinearSet(
        1, (), ((-1.0, k + 1.0),), ((1.0, -float(k)),)),)) for k in range(limit + 10)})
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        g = to_llgraph(f)
        regions = list(_walk_regions(g))
        back = from_llgraph(g)
    finally:
        sys.setrecursionlimit(old)
    assert max(len(steps) for _, steps, _ in regions) > limit
    for _, _, w in regions:
        got = back.label_of(w)
        assert f.label_of(w) == (None if got == UNCOVERED else got)
