import numpy as np
import pytest

from logifold.algebra import graft, product
from logifold.errors import (
    CyclicGraphError,
    DimensionMismatchError,
    NonFinitePointError,
    NotScalarOutputError,
    StateSpaceMismatchError,
    StateSpaceViolationError,
    UnknownOutcomeError,
    UnsupportedActivationError,
)
from logifold.fuzzy import (
    AFFINE_SIGMOID,
    AFFINE_SOFTMAX,
    CONSTANT,
    COORD_PRODUCT,
    DIAGONAL,
    PROJECT,
    ArrowMap,
    FuzzyLogicalGraph,
    StateSpace,
    characteristic,
    evaluate_fuzzy,
    evaluate_fuzzy_pathsum,
    from_relu_softmax_net,
    from_sigmoid_net,
    fuzzy_from_dict,
    fuzzy_intersection,
    fuzzy_product,
    fuzzy_to_dict,
    fuzzy_union,
    outcome_distribution,
    scalar_state,
    scalar_value,
    scalar_values,
    validate_fuzzy,
)
from logifold.graph import SOURCE, TARGET, Arrow, LogicalGraph, _signs_at, evaluate
from logifold.networks import (
    RELU,
    SIGMOID,
    SOFTMAX,
    NetworkSpec,
    AffineMap,
    forward_smooth,
    random_network,
)

from conftest import array_signs, make_cyclic_graph, near_hyperplane


def scalar_sigmoid_graph(w, b, label):
    sk = LogicalGraph(1, {"s": SOURCE, "t": TARGET}, [Arrow("a", "s", "t")],
                      {}, {}, {"t": label})
    spaces = {"s": StateSpace.euclidean(1), "t": StateSpace.scalar_power(1)}
    maps = {"a": ArrowMap(AFFINE_SIGMOID, np.array([[float(w)]]), np.array([float(b)]))}
    return FuzzyLogicalGraph(sk, spaces, maps)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_state_space_membership():
    s = StateSpace.simplex(3)
    assert s.dim == 3
    assert s.contains([0.2, 0.3, 0.5])
    assert not s.contains([0.2, 0.3, 0.4])
    assert not s.contains([-0.1, 0.6, 0.5])
    assert s.contains([-1e-12, 0.5, 0.5])  # tolerance absorbs roundoff


def test_state_space_euclidean_and_concat():
    s = StateSpace.euclidean(2).concat(StateSpace.scalar_power(2))
    assert s.dim == 6
    assert not s.is_distributional
    assert s.contains([5.0, -7.0, 0.3, 0.7, 1.0, 0.0])
    assert not s.contains([5.0, -7.0, 0.3, 0.6, 1.0, 0.0])


def test_scalar_embedding_round_trip():
    state = scalar_state([0.25, 0.9])
    assert state.tolist() == [0.25, 0.75, 0.9, pytest.approx(0.1)]
    assert scalar_values(state).tolist() == [0.25, 0.9]


def test_arrow_map_span_leaves_rest_alone():
    m = ArrowMap(PROJECT, indices=(1,), span=(2, 4))
    out = m.apply(np.array([9.0, 8.0, 0.3, 0.7, 5.0]))
    assert out.tolist() == [9.0, 8.0, 0.7, 5.0]
    assert m.out_dim(5) == 4


def test_arrow_map_out_dim_matches_apply():
    x = np.array([0.5, 0.5, 0.2, 0.8])
    for m in (ArrowMap(DIAGONAL), ArrowMap(COORD_PRODUCT),
              ArrowMap(AFFINE_SOFTMAX, np.ones((3, 4)), np.zeros(3)),
              ArrowMap(AFFINE_SIGMOID, np.ones((2, 4)), np.zeros(2))):
        assert len(m.apply(x)) == m.out_dim(4)


def test_coord_product_multiplies_truth_values():
    m = ArrowMap(COORD_PRODUCT)
    out = m.apply(scalar_state([0.5, 0.4]))
    assert out[0] == pytest.approx(0.2)
    assert out.sum() == pytest.approx(1.0)


def test_sigmoid_chain_matches_forward_pass(rng):
    net = random_network(rng, [3, 5, 4], SIGMOID, final=SOFTMAX)
    fg = from_sigmoid_net(net)
    validate_fuzzy(fg)
    for x in rng.normal(size=(25, 3)):
        got = evaluate_fuzzy(fg, x).state
        want = forward_smooth(net, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_sigmoid_chain_single_layer(rng):
    net = random_network(rng, [2, 3], SIGMOID, final=SOFTMAX)
    fg = from_sigmoid_net(net)
    x = rng.normal(size=2)
    assert np.allclose(evaluate_fuzzy(fg, x).state, forward_smooth(net, x), atol=1e-12)


def test_relu_region_tree_matches_forward_pass(rng):
    for _ in range(5):
        net = random_network(rng, [2, 4, 3], RELU, final=SOFTMAX)
        fg = from_relu_softmax_net(net)
        validate_fuzzy(fg)
        for x in rng.normal(scale=2.0, size=(40, 2)):
            got = evaluate_fuzzy(fg, x).state
            want = forward_smooth(net, x)
            assert np.max(np.abs(got - want)) < 1e-9


def test_relu_import_rejects_wrong_head(rng):
    net = random_network(rng, [2, 4, 3], RELU, final="indexmax")
    with pytest.raises(UnsupportedActivationError):
        from_relu_softmax_net(net)


def test_pathsum_agrees_with_walk(rng):
    net = random_network(rng, [2, 3, 3], RELU, final=SOFTMAX)
    fg = from_relu_softmax_net(net)
    for x in rng.normal(size=(10, 2)):
        walk = evaluate_fuzzy(fg, x)
        path = evaluate_fuzzy_pathsum(fg, x)
        assert walk.target == path.target
        assert np.allclose(walk.state, path.state)


def array_walk(fg, x):
    """(target, state) of the walk with each guard signed by the array
    predicate `graph._guard_signs`."""
    sk, v, state = fg.skeleton, fg.skeleton.source, np.asarray(x, dtype=float)
    while sk.vertices[v] != TARGET:
        guard = sk.guards.get(v)
        aid = sk.out_arrows[v][0] if guard is None else sk.routing[v][array_signs(guard, state)]
        state, v = fg.arrow_maps[aid].apply(state), sk.arrows[aid].dst
    return v, state


@pytest.mark.parametrize("seed", range(4))
def test_fuzzy_walks_sign_as_the_array_predicate_next_to_every_hyperplane(seed):
    rng = np.random.default_rng(seed)
    fg = from_relu_softmax_net(random_network(rng, [2, 4, 4, 3], RELU, final=SOFTMAX))
    sk = fg.skeleton
    source = sk.guards[sk.source]
    crossed = set()
    for i, (row, b) in enumerate(zip(source.matrix, source.offset)):
        for x in near_hyperplane(rng, row, b):
            crossed.add((i, array_signs(source, x)[i]))
            target, state = array_walk(fg, x)
            for got in (evaluate_fuzzy(fg, x), evaluate_fuzzy_pathsum(fg, x)):
                assert got.target == target
                assert got.state.tobytes() == state.tobytes()
    assert len(crossed) == 2 * source.rows  # both sides of every row
    for guard in sk.guards.values():
        for row, b in zip(guard.matrix, guard.offset):
            for x in near_hyperplane(rng, row, b):
                assert _signs_at(guard, x.tolist()) == array_signs(guard, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fuzzy_walks_reject_a_non_finite_state(rng, bad):
    # a sigmoid chain has no guard, so no sign is asked of its input
    for fg in (from_relu_softmax_net(random_network(rng, [2, 4, 3], RELU, final=SOFTMAX)),
               from_sigmoid_net(random_network(rng, [2, 4, 3], SIGMOID, final=SOFTMAX))):
        for walk in (evaluate_fuzzy, evaluate_fuzzy_pathsum):
            with pytest.raises(NonFinitePointError):
                walk(fg, [0.5, bad])


@pytest.mark.parametrize("importer, kind", [(from_sigmoid_net, AFFINE_SIGMOID),
                                            (from_relu_softmax_net, AFFINE_SOFTMAX)])
def test_fuzzy_walks_reject_a_non_finite_state_an_arrow_map_makes(rng, importer, kind):
    hidden = SIGMOID if importer is from_sigmoid_net else RELU
    doc = fuzzy_to_dict(importer(random_network(rng, [2, 3, 2], hidden, final=SOFTMAX)))
    for m in doc["arrow_maps"].values():
        if m["kind"] == kind:  # the sigmoid chain's hidden map, or every relu leaf's map
            m["offset"][1] = np.nan
    fg = fuzzy_from_dict(doc)
    for x in rng.normal(size=(5, 2)):
        for walk in (evaluate_fuzzy, evaluate_fuzzy_pathsum):
            with pytest.raises(NonFinitePointError):
                walk(fg, x)


@pytest.mark.parametrize("change, named", [
    (lambda m: m.update(kind="bogus"), "'bogus'"),
    (lambda m: m.pop("matrix"), "no matrix"),
    (lambda m: m.pop("offset"), "no offset"),
])
def test_an_arrow_map_names_an_unknown_kind_or_a_missing_field(rng, change, named):
    doc = fuzzy_to_dict(from_sigmoid_net(random_network(rng, [2, 3, 2], SIGMOID,
                                                        final=SOFTMAX)))
    for m in doc["arrow_maps"].values():
        if m["kind"] == AFFINE_SOFTMAX:
            change(m)
    with pytest.raises(StateSpaceMismatchError, match=named):
        fuzzy_from_dict(doc)
    for kind, field in ((PROJECT, "indices"), (CONSTANT, "const")):
        with pytest.raises(StateSpaceMismatchError, match=f"no {field}"):
            ArrowMap(kind)


def test_pathsum_takes_one_state(rng):
    fg = from_relu_softmax_net(random_network(rng, [2, 4, 3], RELU, final=SOFTMAX))
    with pytest.raises(DimensionMismatchError):
        evaluate_fuzzy_pathsum(fg, [[0.5, 0.5], [1.0, 0.0]])


def test_outcome_distribution_sums_to_one(rng):
    net = random_network(rng, [2, 4, 3], RELU, final=SOFTMAX)
    fg = from_relu_softmax_net(net)
    for x in rng.normal(size=(20, 2)):
        dist = outcome_distribution(fg, x)
        assert set(dist) == {("out", (j,)) for j in range(3)}
        assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_characteristic_reads_one_outcome(rng):
    net = random_network(rng, [2, 3], SIGMOID, final=SOFTMAX)
    fg = from_sigmoid_net(net)
    x = rng.normal(size=2)
    p = forward_smooth(net, x)
    assert characteristic(fg, x, ("out", (1,))) == pytest.approx(p[1], abs=1e-12)
    with pytest.raises(UnknownOutcomeError):
        characteristic(fg, x, ("out", (7,)))


def test_input_outside_source_space_raises(rng):
    net = random_network(rng, [2, 3], SIGMOID, final=SOFTMAX)
    fg = from_sigmoid_net(net)
    with pytest.raises(StateSpaceViolationError):
        evaluate_fuzzy(fg, np.zeros(5))


def test_product_distribution_factorizes(rng):
    n1 = random_network(rng, [2, 3, 2], SIGMOID, final=SOFTMAX)
    n2 = random_network(rng, [2, 3], SIGMOID, final=SOFTMAX)
    p = fuzzy_product(from_sigmoid_net(n1, label="a"), from_sigmoid_net(n2, label="b"))
    validate_fuzzy(p)
    for x in rng.normal(size=(15, 2)):
        state = evaluate_fuzzy(p, x).state
        want = np.concatenate([forward_smooth(n1, x), forward_smooth(n2, x)])
        assert np.max(np.abs(state - want)) < 1e-12
        dist = outcome_distribution(p, x)
        for (label, (i, j)), prob in dist.items():
            assert label == ("a", "b")
            assert prob == pytest.approx(forward_smooth(n1, x)[i] * forward_smooth(n2, x)[j],
                                         abs=1e-12)


def test_product_with_branching_left_factor(rng):
    net1 = random_network(rng, [2, 3, 2], RELU, final=SOFTMAX)
    net2 = random_network(rng, [2, 3], SIGMOID, final=SOFTMAX)
    p = fuzzy_product(from_relu_softmax_net(net1, label="r"),
                      from_sigmoid_net(net2, label="s"))
    validate_fuzzy(p)
    for x in rng.normal(size=(15, 2)):
        state = evaluate_fuzzy(p, x).state
        want = np.concatenate([forward_smooth(net1, x), forward_smooth(net2, x)])
        assert np.max(np.abs(state - want)) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_grafts_like_the_crisp_product(seed):
    # both factors branch, so the grafted copies of the second graph route too
    rng = np.random.default_rng(seed)
    n1 = random_network(rng, [2, 3, 3], RELU, final=SOFTMAX)
    n2 = random_network(rng, [2, 4, 2], RELU, final=SOFTMAX)
    f1, f2 = from_relu_softmax_net(n1, label="r"), from_relu_softmax_net(n2, label="q")
    p = fuzzy_product(f1, f2)
    validate_fuzzy(p)
    crisp = product([f1.skeleton, f2.skeleton])
    grafted, _, _ = graft(f1.skeleton, f2.skeleton, lambda a, b: (a, b))
    assert set(p.skeleton.vertices) == set(grafted.vertices) | {"s*"}
    assert set(p.skeleton.arrows) == set(grafted.arrows) | {"dup"}
    for x in rng.normal(size=(40, 2)):
        out = evaluate_fuzzy(p, x)
        assert out.label == evaluate(crisp, x)
        want = np.concatenate([forward_smooth(n1, x), forward_smooth(n2, x)])
        assert np.max(np.abs(out.state - want)) < 1e-9


def test_union_takes_max_intersection_min(rng):
    f = scalar_sigmoid_graph(1.0, 0.0, "f")
    g = scalar_sigmoid_graph(2.0, -1.0, "g")
    u = fuzzy_union(f, g)
    i = fuzzy_intersection(f, g)
    validate_fuzzy(u)
    for x in rng.normal(scale=2.0, size=(25, 1)):
        fv, gv = sigmoid(x[0]), sigmoid(2.0 * x[0] - 1.0)
        assert scalar_value(u, x) == pytest.approx(max(fv, gv), abs=1e-12)
        assert scalar_value(i, x) == pytest.approx(min(fv, gv), abs=1e-12)


def test_union_requires_scalar_targets(rng):
    net = random_network(rng, [1, 3], SIGMOID, final=SOFTMAX)
    with pytest.raises(NotScalarOutputError):
        fuzzy_union(from_sigmoid_net(net), scalar_sigmoid_graph(1.0, 0.0, "g"))


def test_validate_flags_missing_map():
    fg = scalar_sigmoid_graph(1.0, 0.0, "f")
    del fg.arrow_maps["a"]
    with pytest.raises(StateSpaceMismatchError):
        validate_fuzzy(fg)


def test_validate_flags_dim_mismatch():
    fg = scalar_sigmoid_graph(1.0, 0.0, "f")
    fg.state_spaces["t"] = StateSpace.simplex(3)
    with pytest.raises(StateSpaceMismatchError):
        validate_fuzzy(fg)


def test_json_round_trip(tmp_path, rng):
    net = random_network(rng, [2, 3, 3], RELU, final=SOFTMAX)
    fg = from_relu_softmax_net(net)
    fg2 = fuzzy_from_dict(fuzzy_to_dict(fg))
    validate_fuzzy(fg2)
    for x in rng.normal(size=(10, 2)):
        assert np.allclose(evaluate_fuzzy(fg, x).state,
                           evaluate_fuzzy(fg2, x).state, atol=0)


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded-cycle", "guarded-back-edge"])
def test_cyclic_skeleton_fails_fast(guarded):
    sk = make_cyclic_graph(guarded)
    fg = FuzzyLogicalGraph(sk, {v: StateSpace.euclidean(1) for v in sk.vertices},
                           {aid: ArrowMap("identity") for aid in sk.arrows})
    with pytest.raises(CyclicGraphError):
        evaluate_fuzzy(fg, [-1.0])  # x < 0 takes the back edge
    with pytest.raises(CyclicGraphError):
        evaluate_fuzzy_pathsum(fg, [-1.0])
