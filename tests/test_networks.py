"""Network forward passes and the step/ReLU compilers against oracles."""

import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logifold import feasibility
from logifold.errors import (
    DegenerateHyperplaneWarning,
    DimensionMismatchError,
    GuardExplosionError,
    NonFinitePointError,
    RegionExplosionError,
    UnsupportedActivationError,
)
from logifold.cli import main
from logifold.fuzzy import (
    AFFINE_SOFTMAX,
    evaluate_fuzzy,
    from_relu_softmax_net,
    from_sigmoid_net,
    fuzzy_to_dict,
    validate_fuzzy,
)
from logifold.graph import (
    AffineMap,
    GraphBuilder,
    evaluate,
    evaluate_batch,
    graph_to_dict,
    require_valid,
    walk_regions,
)
from logifold.networks import (
    CHAMBER_CAP,
    REGION_CAP,
    NetworkSpec,
    SpecializedNet,
    compile_relu_net,
    compile_step_net,
    forward_classical,
    forward_classical_batch,
    forward_exact,
    forward_logits,
    forward_logits_batch,
    forward_smooth,
    forward_smooth_batch,
    model_from_dict,
    model_to_dict,
    random_network,
    save_model,
    _walk_relu_regions,
)
from logifold.semilinear import from_llgraph, semilinear_to_dict, to_llgraph
from logifold.training import Hyperparams, specialize, synth_dataset, train_sgd

from conftest import narrow_vertices


def _net(mats, offs, hidden="step", final="indexmax"):
    layers = [AffineMap(np.asarray(m, dtype=float), np.asarray(o, dtype=float))
              for m, o in zip(mats, offs)]
    return NetworkSpec(layers, hidden, final)


def test_forward_classical_lowest_index_tie():
    net = _net([[[1.0, 0.0], [1.0, 0.0]]], [[0.0, 0.0]])
    assert forward_classical(net, [2.0, 1.0]) == 0  # identical logits: lowest index


def test_forward_classical_step_hidden():
    net = _net([[[1.0]], [[1.0], [0.0]]], [[0.0], [0.0, 0.5]])
    # x >= 0: hidden 1 -> logits (1, 0.5) -> 0 ; x < 0: logits (0, 0.5) -> 1
    assert forward_classical(net, [0.3]) == 0
    assert forward_classical(net, [0.0]) == 0  # step(0) = 1
    assert forward_classical(net, [-0.3]) == 1


def test_forward_exact_sees_what_the_float_sum_rounds_away():
    # l1 = x0 + x1 at (1e16, 1) is 1e16 + 1 exactly but rounds to l0 = 1e16
    net = _net([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]],
               [[0.0, 0.0], [1e16, 0.0]], hidden="relu")
    assert forward_classical(net, [1e16, 1.0]) == 0
    for x in ([1e16, 1.0], [10**16, 1], [Fraction(10**16), Fraction(1)]):
        assert forward_exact(net, x) == 1
    assert forward_exact(net, [Fraction(10**16), Fraction(-1, 3)]) == 0


def test_forward_exact_ties_go_low_and_steps_fire_at_zero():
    assert forward_exact(_net([[[1.0, 0.0], [1.0, 0.0]]], [[0.0, 0.0]]), [2.0, 1.0]) == 0
    assert forward_exact(_net([[[0.0], [1.0], [1.0]]], [[5.0, 0.0, 0.0]]), [6.0]) == 1
    net = _net([[[1.0]], [[1.0], [0.0]]], [[0.0], [0.0, 0.5]])
    assert [forward_exact(net, [x]) for x in (0.3, 0.0, -0.3)] == [0, 0, 1]


@pytest.mark.parametrize("hidden", ["relu", "step"])
def test_forward_exact_agrees_with_the_forward_pass_off_ties(rng, hidden):
    for _ in range(5):
        n = int(rng.integers(1, 4))
        net = random_network(rng, [n, 4, 3, 3], hidden)
        X = rng.normal(scale=2.0, size=(100, n))
        top = np.sort(forward_logits_batch(net, X), axis=1)
        for x, want, gap in zip(X, forward_classical_batch(net, X), top[:, -1] - top[:, -2]):
            if gap > 1e-9:
                assert forward_exact(net, x) == want


def test_forward_exact_refuses_bad_points_and_smooth_nets():
    net = _net([[[1.0, 0.0]]], [[0.0]], hidden="relu")
    with pytest.raises(DimensionMismatchError):
        forward_exact(net, [1.0])
    with pytest.raises(NonFinitePointError):
        forward_exact(net, [float("nan"), 0.0])
    with pytest.raises(UnsupportedActivationError):
        forward_exact(_net([[[1.0]]], [[0.0]], hidden="sigmoid", final="softmax"), [1.0])


def test_the_walk_reads_each_layer_exactly_once(monkeypatch):
    reads = []
    read_exact = feasibility.read_exact
    monkeypatch.setattr(feasibility, "read_exact",
                        lambda rows: reads.append(1) or read_exact(rows))
    net = random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], "relu")
    compile_relu_net(net)
    from_relu_softmax_net(NetworkSpec(net.layers, "relu", "softmax"))
    assert len(reads) == net.depth


def test_compiled_regions_are_exact_where_float_composition_made_slivers():
    # float composition gave this net 530 regions, 259 of them mislabelled
    net = random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], "relu")
    g = compile_relu_net(net)
    exact = [v for v, gd in g.guards.items()
             if gd.exact != AffineMap(gd.matrix, gd.offset).exact]
    assert exact, "no guard keeps rows its floats cannot hold"
    assert sum(1 for _ in walk_regions(g)) == 161


def test_forward_rejects_smooth_activations():
    net = _net([[[1.0]]], [[0.0]], hidden="sigmoid", final="softmax")
    with pytest.raises(UnsupportedActivationError):
        forward_classical(net, [1.0])


def test_batch_forward_checks_activation_and_width():
    net = random_network(np.random.default_rng(0), [2, 3, 2], "sigmoid", "indexmax")
    with pytest.raises(UnsupportedActivationError):
        forward_classical(net, [0.5, 0.5])
    with pytest.raises(UnsupportedActivationError):
        forward_classical_batch(net, np.zeros((4, 2)))
    net = random_network(np.random.default_rng(0), [2, 3, 2], "relu", "indexmax")
    for bad in (np.zeros((4, 3)), np.zeros(2)):
        with pytest.raises(DimensionMismatchError):
            forward_classical_batch(net, bad)
    X = np.random.default_rng(1).normal(size=(5, 2))
    assert list(forward_classical_batch(net, X)) == [forward_classical(net, x) for x in X]


def test_compile_step_tiny_net_matches_forward():
    net = _net([[[1.0]], [[1.0], [0.0]]], [[0.0], [0.0, 0.5]])
    g = compile_step_net(net)
    require_valid(g)
    for x in (-1.0, 0.0, 1.0):
        assert evaluate(g, [x]) == forward_classical(net, [x])


def test_compile_step_boundary_follows_plus_side():
    net = _net([[[1.0]], [[1.0], [0.0]]], [[-2.0], [0.0, 0.5]])
    g = compile_step_net(net)
    assert evaluate(g, [2.0]) == forward_classical(net, [2.0]) == 0


def test_compile_step_random_agreement(rng):
    for trial in range(8):
        n = int(rng.integers(1, 4))
        dims = [n] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3)))] \
            + [int(rng.integers(2, 5))]
        net = random_network(rng, dims, "step")
        g = compile_step_net(net)
        require_valid(g)
        X = rng.uniform(-2, 2, size=(300, n))
        for x in X:
            assert evaluate(g, x) == forward_classical(net, x)


def test_compile_step_degenerate_hyperplane_warns():
    # second layer sends the Boolean outcome 1 exactly onto its hyperplane
    net = _net([[[1.0]], [[1.0]], [[1.0], [0.0]]], [[0.0], [-1.0], [0.0, 0.5]])
    with pytest.warns(DegenerateHyperplaneWarning):
        g = compile_step_net(net)
    for x in (-1.0, 0.5):
        assert evaluate(g, [x]) == forward_classical(net, [x])


def test_compile_step_final_tie_warns():
    # both logits equal the hidden unit on every outcome
    net = _net([[[1.0]], [[1.0], [1.0]]], [[0.0], [0.0, 0.0]])
    with pytest.warns(DegenerateHyperplaneWarning, match="final layer ties"):
        g = compile_step_net(net)
    assert [evaluate(g, [x]) for x in (-1.0, 1.0)] == [0, 0]


def test_compile_step_hidden_zero_warns_at_its_layer():
    net = _net([[[1.0]], [[1.0]], [[1.0], [0.0]]], [[0.0], [-1.0], [0.0, 0.5]])
    with pytest.warns(DegenerateHyperplaneWarning,
                      match="layer 2 image of outcome '\\+' lies on a decision hyperplane"):
        compile_step_net(net)


def _fresh(net, final):
    """The net over fresh copies of its layers, which share no walk."""
    layers = [AffineMap(l.matrix.copy(), l.offset.copy()) for l in net.layers]
    return NetworkSpec(layers, net.hidden_activation, final)


@pytest.mark.parametrize("import_first", [False, True])
def test_the_compiler_and_the_import_share_one_walk(import_first):
    for seed, dims in ((1, [3, 4, 4, 4, 4]), (5, [2, 3, 3, 3]), (6, [1, 4, 4, 3])):
        net = random_network(np.random.default_rng(seed), dims, "relu")
        twin = NetworkSpec(net.layers, "relu", "softmax")
        if import_first:
            fg, g = from_relu_softmax_net(twin), compile_relu_net(net)
        else:
            g, fg = compile_relu_net(net), from_relu_softmax_net(twin)
        assert graph_to_dict(g) == graph_to_dict(compile_relu_net(_fresh(net, "indexmax")))
        assert fuzzy_to_dict(fg) == fuzzy_to_dict(from_relu_softmax_net(_fresh(net, "softmax")))


def test_nets_that_share_a_first_layer_keep_their_own_maps():
    rng = np.random.default_rng(7)
    a, b = (random_network(rng, [2, 3, 3, 3], "relu") for _ in range(2))
    b = NetworkSpec([a.layers[0]] + b.layers[1:], "relu", "indexmax")
    for net in (a, b, a):
        assert graph_to_dict(compile_relu_net(net)) == graph_to_dict(
            compile_relu_net(_fresh(net, "indexmax")))


def test_the_import_after_a_compile_eliminates_nothing(monkeypatch):
    net = random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], "relu")
    compile_relu_net(net)
    calls = []
    real = feasibility._fm_verdict
    monkeypatch.setattr(feasibility, "_fm_verdict", lambda *a: calls.append(a) or real(*a))
    fg = from_relu_softmax_net(NetworkSpec(net.layers, "relu", "softmax"))
    assert calls == [] and len(fg.skeleton.vertices) > 100


def test_a_step_net_warns_on_every_compile():
    # step maps are not kept, so each compile meets the degenerate outcome again
    net = _net([[[1.0]], [[1.0]], [[1.0], [0.0]]], [[0.0], [-1.0], [0.0, 0.5]])
    for _ in range(2):
        with pytest.warns(DegenerateHyperplaneWarning):
            compile_step_net(net)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from([3, 4]),
       n=st.integers(1, 3), outputs=st.integers(2, 4),
       widths=st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_deep_step_net_routes_each_first_layer_chamber_straight_to_a_target(seed, depth, n,
                                                                            outputs, widths):
    rng = np.random.default_rng(seed)
    net = random_network(rng, [n] + widths[:depth - 1] + [outputs], "step")
    g = compile_step_net(net)
    X = rng.normal(scale=2.0, size=(200, n))
    assert evaluate_batch(g, X) == list(forward_classical_batch(net, X))
    assert [evaluate(g, x) for x in X[:20]] == [forward_classical(net, x) for x in X[:20]]
    first = net.layers[0]
    chambers = feasibility.enumerate_chambers(first.constraints, n)
    assert not [v for v, k in g.vertices.items() if k == "internal"]  # so s routes to targets
    if len(g.target_labels) > 1:  # chambers of two or more labels
        assert list(g.guards) == ["s"] and set(g.routing["s"]) == set(chambers)
    else:  # every chamber has one label: one plain arrow
        assert not g.guards and len(g.arrows) == 1


@pytest.mark.parametrize("seed", range(5))
def test_a_step_compile_splits_only_its_first_layer(seed, monkeypatch):
    # after a step layer every composed map is constant: one chamber, no split
    calls = []
    real = feasibility.enumerate_chambers
    monkeypatch.setattr(feasibility, "enumerate_chambers",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    net = random_network(np.random.default_rng(seed), [3, 4, 4, 3], "step")
    g = compile_step_net(net)
    assert len(calls) == 1
    X = np.random.default_rng(seed).normal(scale=2.0, size=(200, 3))
    assert evaluate_batch(g, X) == list(forward_classical_batch(net, X))


def test_a_relu_chamber_with_every_unit_off_is_not_split_again(monkeypatch):
    # x >= 1 and -x >= 1 are never both on; where both are off, the next
    # layer's map is the constant (1, -1): one chamber, taken without a split
    net = _net([[[1.0], [-1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, -1.0], [-1.0, 1.0]]],
               [[-1.0, -1.0], [1.0, -1.0], [0.0, 0.0]], hidden="relu")
    calls = []
    real = feasibility.enumerate_chambers
    monkeypatch.setattr(feasibility, "enumerate_chambers",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    g = compile_relu_net(net)
    assert not any(all(not any(r.coeffs) for r in c[0]) for c in calls)
    X = np.linspace(-3, 3, 61).reshape(-1, 1)
    assert evaluate_batch(g, X) == list(forward_classical_batch(net, X))


def test_compile_step_chamber_cap():
    net = random_network(np.random.default_rng(3), [3, 4, 2], "step")
    with pytest.raises(GuardExplosionError):
        compile_step_net(net, chamber_cap=2)


def test_compile_relu_single_layer_is_difference_guard():
    net = _net([[[1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0]], hidden="relu")
    g = compile_relu_net(net)
    require_valid(g)
    assert g.guards["s"].rows == 1  # one duel, l0 - l1
    assert evaluate(g, [2.0, 1.0]) == 0
    assert evaluate(g, [1.0, 2.0]) == 1
    assert evaluate(g, [1.0, 1.0]) == 0  # tie routed to the lower index


def test_compile_relu_random_agreement(rng):
    for trial in range(6):
        n = int(rng.integers(1, 4))
        dims = [n] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3)))] \
            + [int(rng.integers(1, 5))]
        net = random_network(rng, dims, "relu")
        g = compile_relu_net(net)
        require_valid(g)
        X = rng.uniform(-2, 2, size=(400, n))
        want = forward_classical_batch(net, X)
        got = evaluate_batch(g, X)
        assert list(got) == list(want)


def test_compile_relu_region_cap():
    net = random_network(np.random.default_rng(11), [2, 4, 4, 3], "relu")
    with pytest.raises(RegionExplosionError):
        compile_relu_net(net, region_cap=3)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_region_cap_parity_between_compile_and_import(seed):
    net = random_network(np.random.default_rng(seed), [2, 4, 4, 3], "relu")
    twin = NetworkSpec(net.layers, "relu", "softmax")
    # the import has one non-target vertex per counted region: the source and
    # every child of a branching layer
    regions = sum(1 for k in from_relu_softmax_net(twin).skeleton.vertices.values()
                  if k != "target")
    assert regions > 1
    for build, model in ((compile_relu_net, net), (from_relu_softmax_net, twin)):
        with pytest.raises(RegionExplosionError):
            build(model, region_cap=regions - 1)
        build(model, region_cap=regions)


def test_a_relu_chain_deeper_than_the_recursion_limit_compiles_and_imports(tmp_path):
    # width 1: on x >= -1 layer k's pre-activation is x + k, so no layer
    # past the first splits; the final duel, out0 - out1 = 2x - 2, splits
    # that deepest region at x = 1, and x < -1 is label 1 throughout
    hidden = sys.getrecursionlimit() + 50
    net = _net([[[1.0]]] * hidden + [[[1.0], [-1.0]]],
               [[1.0]] * hidden + [[0.0, 2.0 * hidden + 2.0]], hidden="relu")
    X = np.linspace(-5.0, 5.0, 81)[:, None]
    g = compile_relu_net(net)
    require_valid(g)
    assert len(g.guards) == 2
    assert evaluate_batch(g, X) == forward_classical_batch(net, X).tolist()
    assert evaluate_batch(g, [[-1.0], [0.999], [1.0]]) == [1, 1, 0]
    twin = NetworkSpec(net.layers, "relu", "softmax")
    fg = from_relu_softmax_net(twin)
    for x in X[::8]:
        assert np.allclose(evaluate_fuzzy(fg, x).state, forward_smooth(twin, x))
    model, out = tmp_path / "deep.json", tmp_path / "g.json"
    save_model(net, model)
    assert main(["compile", "--model", str(model), "--out", str(out)]) == 0


def test_compile_relu_collapses_guard_whose_chambers_share_a_target():
    # several final-layer chambers of one region route to the same label, so
    # that vertex gets one plain arrow instead of a guard that cannot branch
    g = compile_relu_net(random_network(np.random.default_rng(1), [2, 3, 3], "relu"))
    assert require_valid(g).realizability_checked


def test_tournament_routes_equal_final_rows_to_index_zero_without_a_guard():
    net = _net([[[1.0, -2.0]] * 3], [[0.5, 0.5, 0.5]], hidden="relu")
    g = compile_relu_net(net)
    assert not g.guards and list(g.target_labels.values()) == [0]
    assert evaluate_batch(g, np.random.default_rng(0).normal(size=(50, 2))) == [0] * 50


def test_tournament_routes_a_tie_between_outputs_1_and_2_to_1():
    # l0 = x, l1 = l2 = 0: the duel of 1 and 2 is the constant 0, kept by 1
    net = _net([[[1.0], [0.0], [0.0]]], [[0.0, 0.0, 0.0]], hidden="relu")
    g = compile_relu_net(net)
    require_valid(g)
    assert set(g.target_labels.values()) == {0, 1}
    assert g.guards["s"].rows == 1 and len(g.guards) == 1
    assert [evaluate(g, [x]) for x in (-2.0, -1e-12, 0.0, 3.0)] == [1, 1, 0, 0]


def counted_splits(monkeypatch) -> list:
    """The systems every later `enumerate_chambers` call splits."""
    calls = []
    real = feasibility.enumerate_chambers
    monkeypatch.setattr(feasibility, "enumerate_chambers",
                        lambda rows, *a, **k: calls.append(rows) or real(rows, *a, **k))
    return calls


def test_a_constant_duel_keeps_its_offsets_side_without_a_split(monkeypatch):
    # l0 = 0 and l1 = l2 = 1: the duel of 0 and 1 is -1, which 1 wins, and the
    # duel of 1 and 2 is the constant 0, kept by 1
    calls = counted_splits(monkeypatch)
    g = compile_relu_net(_net([[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]], [[0.0, 1.0, 1.0]],
                              hidden="relu"))
    assert calls == [] and not g.guards and list(g.target_labels.values()) == [1]


@pytest.mark.parametrize("seed", range(4))
def test_duels_after_a_step_layer_split_nothing(seed, monkeypatch):
    # every duel after a step layer is constant, so only the step layer splits
    net = random_network(np.random.default_rng(seed), [2, 3, 3], "step")
    calls = counted_splits(monkeypatch)
    g = compile_step_net(net)
    assert calls == [net.layers[0].constraints]
    X = np.random.default_rng(seed).normal(scale=2.0, size=(200, 2))
    assert evaluate_batch(g, X) == list(forward_classical_batch(net, X))


def test_one_output_net_compiles_to_a_plain_arrow():
    g = compile_relu_net(random_network(np.random.default_rng(4), [2, 1], "relu"))
    assert not g.guards and g.vertices == {"s": "source", "t0": "target"}
    assert [(a.src, a.dst) for a in g.arrows.values()] == [("s", "t0")]


@pytest.mark.parametrize("seed", range(4))
def test_every_leaf_guard_of_a_relu_graph_has_one_row(seed):
    net = random_network(np.random.default_rng([6, seed]), [2, 3, 3, 4], "relu")
    g = compile_relu_net(net)
    # the import walks the same hidden-layer regions with a softmax leaf; the
    # compile keeps the hidden guards whose chambers reach two labels
    hidden = from_relu_softmax_net(NetworkSpec(net.layers, "relu", "softmax")).skeleton.guards
    kept = [v for v in g.guards if v in hidden]
    leaf = [v for v in g.guards if v not in hidden]
    assert kept and leaf and all(g.guards[v].rows == 1 for v in leaf)
    for v in kept:
        assert np.array_equal(g.guards[v].matrix, hidden[v].matrix)


def _linear_regions(net):
    """The leaves the region walker visits, one per linear region."""
    leaves = []
    _walk_relu_regions(GraphBuilder(net.input_dim), net, lambda *region: leaves.append(region),
                       CHAMBER_CAP, REGION_CAP)
    return len(leaves)


@pytest.mark.parametrize("seed, dims", [([6, 0], [2, 3, 3, 4]), ([6, 1], [2, 3, 3, 4]),
                                        (4, [2, 6, 6, 6, 3])])
def test_the_relu_import_keeps_one_leaf_arrow_per_linear_region(seed, dims):
    # seed 4 [2, 6, 6, 6, 3] is constant: its compile is one arrow, its
    # import a softmax map on each of its regions
    net = random_network(np.random.default_rng(seed), dims, "relu")
    fg = from_relu_softmax_net(NetworkSpec(net.layers, "relu", "softmax"))
    (target,) = fg.targets()
    into = [a.id for a in fg.skeleton.arrows.values() if a.dst == target]
    assert len(into) == _linear_regions(net) > 1
    assert all(fg.arrow_maps[aid].kind == AFFINE_SOFTMAX for aid in into)
    assert not narrow_vertices(compile_relu_net(net))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outputs=st.integers(2, 5))
def test_tournament_graph_agrees_with_the_forward_pass(seed, outputs):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    dims = [n] + [int(w) for w in rng.integers(1, 4, size=int(rng.integers(0, 3)))] + [outputs]
    net = random_network(rng, dims, "relu")
    g = compile_relu_net(net)
    assert require_valid(g).realizability_checked and not narrow_vertices(g)
    X = rng.normal(scale=2.0, size=(300, n))
    got, want = np.asarray(evaluate_batch(g, X)), forward_classical_batch(net, X)
    top2 = np.sort([forward_logits(net, x) for x in X], axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9
    assert np.array_equal(got[clear], want[clear])


def _small_dims(rng):
    """Input dim <= 3, widths <= 4, up to 3 hidden layers, 1-4 outputs."""
    return ([int(rng.integers(1, 4))]
            + [int(w) for w in rng.integers(1, 5, size=int(rng.integers(0, 4)))]
            + [int(rng.integers(1, 5))])


@pytest.mark.parametrize("seed", range(10))
def test_compiled_and_imported_graphs_pass_their_validator(seed):
    rng = np.random.default_rng([5, seed])
    dims = _small_dims(rng)
    relu = random_network(rng, dims, "relu")
    step = random_network(rng, dims, "step")
    fg = from_relu_softmax_net(NetworkSpec(relu.layers, "relu", "softmax"))
    validate_fuzzy(fg)
    for g in (compile_relu_net(relu), compile_step_net(step), fg.skeleton):
        assert require_valid(g).realizability_checked, dims


def test_forward_smooth_is_a_distribution(rng):
    net = random_network(rng, [2, 8, 3], "sigmoid", "softmax")
    p = forward_smooth(net, rng.normal(size=2))
    assert p.shape == (3,) and abs(p.sum() - 1.0) < 1e-12 and (p > 0).all()


def _batch_view(big, m, n, layout):
    """m rows of width n taken from the larger array big in the given layout."""
    if layout == "offset":
        return big[1:m + 1, 1:n + 1]
    if layout == "rows":
        return big[::2, 3:n + 3][:m]
    if layout == "columns":
        return big[:m, ::2][:, :n]
    return np.asfortranarray(big[:m, :n]) if layout == "fortran" else big[:m, :n].copy()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.sampled_from(["sigmoid", "relu"]),
       widths=st.lists(st.integers(1, 64), min_size=2, max_size=4),
       specialized=st.booleans(), m=st.integers(1, 50),
       layout=st.sampled_from(["contiguous", "offset", "rows", "columns", "fortran"]))
def test_smooth_forward_row_does_not_depend_on_the_batch(seed, hidden, widths, specialized,
                                                         m, layout):
    rng = np.random.default_rng(seed)
    net = random_network(rng, widths, hidden, "softmax")
    if specialized:
        k = int(rng.integers(1, 65))
        net = SpecializedNet(net, AffineMap(rng.normal(size=(k, net.output_dim)),
                                            rng.normal(size=k)))
    n = widths[0]
    X = _batch_view(rng.normal(size=(2 * m + 2, 2 * n + 4)), m, n, layout)
    Z = forward_smooth_batch(net, X)
    for r in range(m):
        assert Z[r].tobytes() == forward_smooth_batch(net, X[r:r + 1])[0].tobytes()
        assert Z[r].tobytes() == forward_smooth(net, X[r].copy()).tobytes()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.sampled_from(["step", "relu"]),
       widths=st.lists(st.integers(1, 8), min_size=2, max_size=5), m=st.integers(1, 50),
       layout=st.sampled_from(["contiguous", "offset", "rows", "columns", "fortran"]))
def test_classical_logits_row_does_not_depend_on_the_batch(seed, hidden, widths, m, layout):
    rng = np.random.default_rng(seed)
    net = random_network(rng, widths, hidden, "indexmax")
    n = widths[0]
    X = _batch_view(rng.normal(scale=2.0, size=(2 * m + 2, 2 * n + 4)), m, n, layout)
    Z = forward_logits_batch(net, X)
    labels = forward_classical_batch(net, X)
    for r in range(m):
        assert Z[r].tobytes() == forward_logits_batch(net, X[r:r + 1])[0].tobytes()
        assert labels[r] == np.argmax(Z[r])


def _boundary_probes(net, rng, pairs=40, ulps=3):
    """Float points next to the network's label boundaries: pairs of Gaussian
    points whose batch labels differ are bisected to adjacent floats, and
    each coordinate of the boundary point found is moved -ulps..ulps floats."""
    n = net.input_dim
    A, B = rng.normal(scale=2.0, size=(2, pairs, n))
    differ = forward_classical_batch(net, A) != forward_classical_batch(net, B)
    lo, hi = A[differ], B[differ]
    for _ in range(64):  # the label at lo stays lo's start, at hi hi's
        mid = lo + (hi - lo) / 2
        same = forward_classical_batch(net, mid) == forward_classical_batch(net, lo)
        lo[same], hi[~same] = mid[same], mid[~same]
    probes = []
    for p in lo:
        for j in range(n):
            for toward in (-np.inf, np.inf):
                q = p.copy()
                for _ in range(ulps):
                    q[j] = np.nextafter(q[j], toward)
                    probes.append(q.copy())
    return np.array([*lo, *probes]).reshape(-1, n)


@pytest.mark.parametrize("seed", range(8))
def test_the_one_point_forward_pass_is_its_batch_row(seed):
    # seeded sweep-range relu nets, at Gaussian points and next to their
    # label boundaries, where a second float sum would flip labels
    rng = np.random.default_rng([4003, seed])
    for _ in range(5):
        net = random_network(rng, _sweep_dims(rng), "relu")
        X = np.vstack([rng.normal(scale=2.0, size=(100, net.input_dim)),
                       _boundary_probes(net, rng)])
        Z, labels = forward_logits_batch(net, X), forward_classical_batch(net, X)
        for x, z, label in zip(X, Z, labels):
            assert forward_logits(net, x).tobytes() == z.tobytes()
            assert forward_classical(net, x) == label


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_forward_passes_reject_non_finite_points(rng, bad):
    x = np.array([0.5, bad])
    X = np.array([[0.5, 0.5], x])
    for hidden in ("step", "relu"):
        net = random_network(rng, [2, 3, 3], hidden)
        for run in (lambda: forward_classical(net, x), lambda: forward_logits(net, x),
                    lambda: forward_classical_batch(net, X),
                    lambda: forward_logits_batch(net, X)):
            with pytest.raises(NonFinitePointError):
                run()
    for net in _each_kind(rng).values():
        if "softmax" in net.kind:
            with pytest.raises(NonFinitePointError):
                forward_smooth(net, x)
            with pytest.raises(NonFinitePointError):
                forward_smooth_batch(net, X)


def _each_kind(rng):
    """One model of each kind, by the name an UnsupportedActivationError gives it."""
    plain = {f"{h}/{f}": random_network(rng, [2, 3, 3], h, f) for h, f in [
        ("step", "indexmax"), ("relu", "indexmax"), ("sigmoid", "softmax"), ("relu", "softmax")]}
    charts = {f"specialized {k}": SpecializedNet(plain[k], AffineMap(np.eye(3), np.zeros(3)))
              for k in ("sigmoid/softmax", "relu/softmax")}
    return {**plain, **charts}


X4 = np.random.default_rng(0).normal(size=(4, 2))
SMOOTH = {"sigmoid/softmax", "relu/softmax"}
CHARTS = {"specialized sigmoid/softmax", "specialized relu/softmax"}
ENTRY_POINTS = {
    "forward_logits": (lambda net: forward_logits(net, X4[0]), {"step/indexmax", "relu/indexmax"}),
    "forward_classical_batch": (lambda net: forward_classical_batch(net, X4),
                                {"step/indexmax", "relu/indexmax"}),
    "compile_step_net": (compile_step_net, {"step/indexmax"}),
    "compile_relu_net": (compile_relu_net, {"relu/indexmax"}),
    "forward_smooth_batch": (lambda net: forward_smooth_batch(net, X4), SMOOTH | CHARTS),
    "from_sigmoid_net": (from_sigmoid_net, {"sigmoid/softmax"}),
    "from_relu_softmax_net": (from_relu_softmax_net, {"relu/softmax"}),
    "specialize": (lambda net: specialize(net, [[0], [1, 2]]), SMOOTH),
    "train_sgd": (lambda net: train_sgd(net, synth_dataset("blobs", 30, seed=0),
                                        Hyperparams(epochs=1)), {"sigmoid/softmax"} | CHARTS),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_each_entry_point_takes_its_kinds_and_refuses_the_rest(rng, entry):
    run, takes = ENTRY_POINTS[entry]
    for kind, net in _each_kind(rng).items():
        if kind in takes:
            run(net)
        else:
            with pytest.raises(UnsupportedActivationError, match=f"not a {kind} network"):
                run(net)


def test_model_dict_roundtrip(rng):
    net = random_network(rng, [2, 3, 4], "relu")
    back = model_from_dict(model_to_dict(net))
    x = rng.normal(size=2)
    assert forward_classical(back, x) == forward_classical(net, x)
    assert back.hidden_activation == "relu"


@pytest.mark.parametrize("where", ["layer matrix", "layer offset", "head matrix", "head offset"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_model_dict_rejects_non_finite_weights(rng, where, bad):
    data = model_to_dict(random_network(rng, [2, 3, 4], "relu", "softmax"))
    data["head"] = {"matrix": np.eye(2, 4).tolist(), "offset": [0.0, 0.0]}
    part, key = where.split()
    entry = data["layers"][1] if part == "layer" else data["head"]
    if key == "matrix":
        entry["matrix"][1][0] = bad
    else:
        entry["offset"][0] = bad
    with pytest.raises(NonFinitePointError, match="layer 1" if part == "layer" else "head"):
        model_from_dict(data)


def _sweep_dims(rng):
    """Dimensions in the acceptance sweep's ranges: input dim 1-3, 1-3 hidden
    layers of width 2-4, 2-4 outputs."""
    n = int(rng.integers(1, 4))
    hidden = [int(w) for w in rng.integers(2, 5, size=int(rng.integers(1, 4)))]
    return [n] + hidden + [int(rng.integers(2, 5))]


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def _relu_outputs(count):
    rng = np.random.default_rng(4001)
    for _ in range(count):
        net = random_network(rng, _sweep_dims(rng), "relu")
        yield graph_to_dict(compile_relu_net(net))
        yield fuzzy_to_dict(from_relu_softmax_net(NetworkSpec(net.layers, "relu", "softmax")))


def _step_outputs(count):
    rng = np.random.default_rng(4002)
    for _ in range(count):
        g = compile_step_net(random_network(rng, _sweep_dims(rng), "step"))
        f = from_llgraph(g)
        g2 = to_llgraph(f)
        yield from (graph_to_dict(g), semilinear_to_dict(f), graph_to_dict(g2),
                    semilinear_to_dict(from_llgraph(g2)))


# sha256 of the files of seeded compiles, relu-softmax imports and semilinear
# round trips, recorded before the region splits moved into
# `GraphBuilder.split`; any change to a vertex name, guard row, route or
# piece changes them.
RELU_DIGEST = "14081ae0536adf9bb131adea63665402bb7090f07b28cb001b783d209087f3d2"
STEP_DIGEST = "09d985ac030beb8337e6fc6c0860a777eeaa676eab7fb0c93dfd5567e4476749"


def test_built_outputs_are_pinned():
    assert _digest(_relu_outputs(80)) == RELU_DIGEST
    assert _digest(_step_outputs(80)) == STEP_DIGEST
