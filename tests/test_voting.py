import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logifold.ensemble import (
    ModelChart,
    TargetGraph,
    TargetNode,
    as_partition,
    build_target_graph,
    chart_from_net,
    refinement,
)
from logifold.errors import (
    DimensionMismatchError,
    EmptyValidationError,
    NonFinitePointError,
    NoValidPathError,
    UncoveredInstanceError,
)
from logifold import networks
from logifold.ensemble import Embedding
from logifold.graph import AffineMap, label_to_text
from logifold.networks import (SIGMOID, SOFTMAX, SpecializedNet, forward_smooth_batch,
                               random_network)
from logifold.training import (Hyperparams, relabel_for_blocks, specialize, synth_dataset,
                               train_sgd)
from logifold.voting import (
    DEFAULT_ALPHA_GRID,
    _path_vote_from_rows,
    _path_vote_table,
    calibrate,
    calibration_to_dict,
    expected_accuracy,
    fuzzy_belonging,
    load_calibration,
    make_bundle,
    make_phi,
    valid_paths,
    vote_along_path,
    vote_at_node,
    vote_report,
    vote_with_validation_history,
    write_prediction_matrix,
)


def const_chart(cid, blocks, row):
    row = np.asarray(row, dtype=float)
    return ModelChart(cid, as_partition(blocks),
                      lambda X: np.tile(row, (len(X), 1)))


def flat_phi(chart, alpha):
    return 1.0


def two_partition_node(rows_coarse, row_fine):
    """Two charts on {1,2,3}|{4,5}, one on {1,2}|{3,4}|{5}."""
    parts = [as_partition([{1, 2, 3}, {4, 5}]),
             as_partition([{1, 2}, {3, 4}, {5}])]
    charts = [const_chart("a1", parts[0], rows_coarse[0]),
              const_chart("a2", parts[0], rows_coarse[1]),
              const_chart("b", parts[1], row_fine)]
    node = TargetNode(frozenset({1, 2, 3, 4, 5}), parts, [[0, 1], [2]],
                      refinement(parts))
    return node, charts


def shared_target_vote(group, alpha, phi_of, uncertain_weight=0.0):
    """vote_at_node on a node whose charts all share one partition."""
    part = group[0].partition
    node = TargetNode(frozenset().union(*part), [part],
                      [list(range(len(group)))], refinement([part]))
    return vote_at_node(node, group, alpha, [[0.0]], phi_of, uncertain_weight)


class TestSharedTargets:
    def test_equal_weights_average(self):
        group = [const_chart("a", [{0}, {1}], [0.8, 0.2]),
                 const_chart("b", [{0}, {1}], [0.4, 0.6])]
        p = shared_target_vote(group, 0.0, flat_phi).values
        assert np.allclose(p, [0.6, 0.4])

    def test_accuracy_weights_tilt_the_average(self):
        group = [const_chart("a", [{0}, {1}], [0.8, 0.2]),
                 const_chart("b", [{0}, {1}], [0.4, 0.6])]
        phis = {"a": 0.9, "b": 0.3}
        p = shared_target_vote(group, 0.0, lambda c, alpha: phis[c.id]).values
        want = (0.9 * np.array([0.8, 0.2]) + 0.3 * np.array([0.4, 0.6])) / 1.2
        assert np.allclose(p, want)

    def test_uncertain_chart_is_silenced(self):
        group = [const_chart("a", [{0}, {1}], [0.8, 0.2]),
                 const_chart("b", [{0}, {1}], [0.55, 0.45])]
        p = shared_target_vote(group, 0.7, flat_phi).values
        assert np.allclose(p, [0.8, 0.2])

    def test_uncertain_weight_keeps_a_whisper(self):
        group = [const_chart("a", [{0}, {1}], [0.8, 0.2]),
                 const_chart("b", [{0}, {1}], [0.55, 0.45])]
        p = shared_target_vote(group, 0.7, flat_phi, uncertain_weight=0.5).values
        want = (1.0 * np.array([0.8, 0.2]) + 0.5 * np.array([0.55, 0.45])) / 1.5
        assert np.allclose(p, want)

    def test_all_uncertain_yields_zero_vector(self):
        group = [const_chart("a", [{0}, {1}], [0.6, 0.4])]
        vote = shared_target_vote(group, 0.9, flat_phi)
        assert vote.dead
        assert np.array_equal(vote.values, [0.0, 0.0])


class TestVoteAtNode:
    def test_redistribution_matches_frozen_example(self):
        node, charts = two_partition_node([[0.8, 0.2], [0.4, 0.6]],
                                          [0.5, 0.3, 0.2])
        vote = vote_at_node(node, charts, 0.0, [[0.0]], flat_phi)
        assert vote.blocks == [frozenset({1, 2}), frozenset({3}),
                               frozenset({4}), frozenset({5})]
        assert np.allclose(vote.values, [0.416667, 0.21, 0.20, 0.173333],
                           atol=1e-6)
        assert not vote.uniform_fallback and not vote.dead

    def test_share_denominator_follows_trusted_block(self):
        # spreading 0.12 over the {1,2,3} family by mass gives 0.18+0.03;
        # normalizing by the other partition's family would give 0.228 instead
        node, charts = two_partition_node([[0.8, 0.2], [0.4, 0.6]],
                                          [0.5, 0.3, 0.2])
        vote = vote_at_node(node, charts, 0.0, [[0.0]], flat_phi)
        assert vote.values[1] == pytest.approx(0.21, abs=1e-6)
        assert abs(vote.values[1] - 0.228) > 1e-3

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_mass_is_conserved(self, seed):
        rng = np.random.default_rng(seed)
        node, charts = two_partition_node(rng.dirichlet(np.ones(2), size=2),
                                          rng.dirichlet(np.ones(3)))
        phis = {c.id: rng.uniform(0.1, 1.0) for c in charts}
        vote = vote_at_node(node, charts, 0.0, [[0.0]],
                            lambda c, a: phis[c.id])
        assert vote.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vote.values >= -1e-15)

    def test_single_group_reindexes_its_answer(self):
        parts = [as_partition([{1, 2}, {3, 4}, {5}])]
        charts = [const_chart("b", parts[0], [0.5, 0.3, 0.2])]
        node = TargetNode(frozenset({1, 2, 3, 4, 5}), parts, [[0]],
                          refinement(parts))
        vote = vote_at_node(node, charts, 0.0, [[0.0]], flat_phi)
        assert np.allclose(vote.values, [0.5, 0.3, 0.2])
        assert vote.blocks == list(parts[0])

    def test_uncertain_group_is_dropped_not_fatal(self):
        node, charts = two_partition_node([[0.8, 0.2], [0.75, 0.25]],
                                          [0.4, 0.35, 0.25])
        vote = vote_at_node(node, charts, 0.6, [[0.0]], flat_phi)
        assert vote.dropped_groups == 1
        assert vote.blocks == [frozenset({1, 2, 3}), frozenset({4, 5})]
        assert np.allclose(vote.values, [0.775, 0.225])

    def test_all_groups_uncertain_is_dead(self):
        node, charts = two_partition_node([[0.6, 0.4], [0.55, 0.45]],
                                          [0.4, 0.35, 0.25])
        vote = vote_at_node(node, charts, 0.95, [[0.0]], flat_phi)
        assert vote.dead
        assert np.array_equal(vote.values, np.zeros(4))

    def test_zero_denominator_falls_back_to_uniform(self):
        parts = [as_partition([{1}, {2}]), as_partition([{1}, {2}])]
        charts = [const_chart("a", parts[0], [1.0, 0.0]),
                  const_chart("b", parts[1], [0.0, 1.0])]
        node = TargetNode(frozenset({1, 2}), parts, [[0], [1]],
                          refinement(parts))
        vote = vote_at_node(node, charts, 0.0, [[0.0]], flat_phi)
        assert vote.uniform_fallback
        assert np.allclose(vote.values, [0.5, 0.5])
        assert vote.values.sum() == pytest.approx(1.0)


def stepped(intervals):
    """Piecewise-constant predictor on 1-d inputs; intervals are (hi, row)."""
    edges = [hi for hi, _ in intervals]
    rows = np.array([row for _, row in intervals], dtype=float)

    def fn(X):
        idx = np.searchsorted(edges, X[:, 0], side="right")
        return rows[np.minimum(idx, len(rows) - 1)]

    return fn


def three_class_graph():
    """Generalist confuses 0 with 1 on [0,1); a {0,1} specialist fixes it."""
    gen = ModelChart("gen", as_partition([{0}, {1}, {2}]), stepped([
        (1.0, [0.45, 0.50, 0.05]),
        (2.0, [0.10, 0.80, 0.10]),
        (np.inf, [0.05, 0.05, 0.90]),
    ]))
    spec = ModelChart("spec", as_partition([{0}, {1}]), stepped([
        (1.0, [0.90, 0.10]),
        (2.0, [0.10, 0.90]),
        (np.inf, [0.34, 0.66]),
    ]))
    graph = build_target_graph([gen, spec], {0, 1, 2})
    X = np.array([[0.25], [0.5], [1.25], [1.5], [2.25], [2.5]])
    y = [0, 0, 1, 1, 2, 2]
    return graph, X, y


class TestPaths:
    def test_paths_keep_the_label_and_end_fine(self):
        graph, _, _ = three_class_graph()
        assert valid_paths(graph, 0) == [(0,), (0, 1)]
        assert valid_paths(graph, 2) == [(0,)]
        for path in valid_paths(graph, 0):
            for vi in path:
                assert 0 in graph.nodes[vi].target
            assert graph.nodes[path[-1]].table.is_fine

    def test_paths_route_around_foreign_targets(self):
        charts = [
            const_chart("coarse", [{1, 2}, {3}], [0.5, 0.5]),
            const_chart("lo", [{1}, {2}], [0.5, 0.5]),
            const_chart("three", [{3}], [1.0]),
        ]
        graph = build_target_graph(charts, {1, 2, 3})
        three = [node.target for node in graph.nodes].index(frozenset({3}))
        assert valid_paths(graph, 3) == [(0, three)]
        paths = valid_paths(graph, 1)
        assert all(three not in p for p in paths)

    def test_unknown_label_raises(self):
        graph, _, _ = three_class_graph()
        with pytest.raises(NoValidPathError):
            valid_paths(graph, 7)

    def test_root_only_coarse_label_raises(self):
        coarse = const_chart("r", [{1, 2}, {3}], [0.5, 0.5])
        fine = const_chart("f", [{1}, {2}], [0.6, 0.4])
        graph = build_target_graph([coarse, fine], {1, 2, 3})
        with pytest.raises(NoValidPathError):
            valid_paths(graph, 3)


class TestVoteAlongPath:
    def test_products_compose_node_masses(self):
        graph, X, _ = three_class_graph()
        phi = flat_phi
        vote = vote_along_path(graph, (0, 1), 0.0, X[0], phi)
        assert vote.classes == [0, 1]
        assert vote.values[0] == pytest.approx(0.45 * 0.9)
        assert vote.values[1] == pytest.approx(0.50 * 0.1)
        assert vote.prediction == 0
        assert np.all(vote.values >= 0) and np.all(vote.values <= 1)

    def test_single_fine_node_reduces_to_chart(self):
        graph, X, _ = three_class_graph()
        vote = vote_along_path(graph, (0,), 0.0, X[2], flat_phi)
        assert np.allclose(vote.values, [0.10, 0.80, 0.10])
        assert vote.prediction == 1

    def test_dead_node_is_skipped(self):
        graph, X, _ = three_class_graph()
        # at 0.7 the specialist is uncertain beyond x=2, so only the root votes
        vote = vote_along_path(graph, (0, 1), 0.7, X[4], flat_phi)
        assert vote.dead_nodes == 1
        assert np.allclose(vote.values, [0.05, 0.05])


class TestValidationHistory:
    def test_expected_accuracy_counts_both_hit_kinds(self):
        graph, X, y = three_class_graph()
        r = expected_accuracy(graph, (0,), 0.0, 0, X, y, flat_phi)
        # generalist never predicts 0: misses both class-0 points
        assert r == pytest.approx(4 / 6)
        r = expected_accuracy(graph, (0, 1), 0.0, 0, X, y, flat_phi)
        assert r == pytest.approx(1.0)

    def test_empty_validation_raises(self):
        graph, _, _ = three_class_graph()
        with pytest.raises(EmptyValidationError):
            expected_accuracy(graph, (0,), 0.0, 0, np.zeros((0, 1)), [],
                              flat_phi)
        with pytest.raises(EmptyValidationError):
            calibrate(graph, np.zeros((0, 1)), [])

    def test_calibration_picks_fixing_paths(self):
        graph, X, y = three_class_graph()
        cal = calibrate(graph, X, y, alphas=(0.0, 0.6))
        assert cal.entries[0].path == (0, 1)
        assert cal.entries[0].alpha == 0.0
        assert cal.entries[0].rate == 1.0
        # silencing the confused generalist below 0.6 also fixes class 1
        assert cal.entries[1].path == (0,)
        assert cal.entries[1].alpha == 0.6
        assert cal.entries[1].rate == 1.0
        assert cal.entries[2].path == (0,)
        assert cal.entries[2].alpha == 0.0
        assert cal.entries[2].rate == 1.0

    def test_history_vote_beats_generalist_alone(self):
        graph, X, y = three_class_graph()
        cal = calibrate(graph, X, y, alphas=(0.0, 0.6))
        phi = make_phi(X, y)
        preds = [vote_with_validation_history(graph, cal, x, phi).prediction
                 for x in X]
        assert preds == y
        gen_preds = [int(np.argmax(row))
                     for row in graph.charts[0].outputs(X)]
        gen_acc = np.mean([p == t for p, t in zip(gen_preds, y)])
        assert gen_acc < 1.0

    def test_tie_prefers_smaller_alpha_then_earlier_path(self):
        chart = const_chart("only", [{0}, {1}], [0.7, 0.3])
        graph = build_target_graph([chart], {0, 1})
        cal = calibrate(graph, [[0.0], [1.0]], [0, 0])
        for entry in cal.entries.values():
            assert entry.path == (0,)
            assert entry.alpha == DEFAULT_ALPHA_GRID[0]

    def test_single_chart_single_path_reduces_to_argmax(self):
        chart = const_chart("only", [{0}, {1}, {2}], [0.2, 0.5, 0.3])
        graph = build_target_graph([chart], {0, 1, 2})
        cal = calibrate(graph, [[0.0]], [1], alphas=(0.0,))
        res = vote_with_validation_history(graph, cal, [0.0], flat_phi)
        assert res.prediction == 1
        assert [res.answer[c] for c in (0, 1, 2)] == [0.2, 0.5, 0.3]


def softmax_chart(cid, blocks, rng, calls):
    """Chart with a random linear softmax head; counts its predictions."""
    W = rng.normal(scale=2.0, size=(2, len(blocks)))
    b = rng.normal(size=len(blocks))

    def predict(X):
        calls[cid] = calls.get(cid, 0) + 1
        z = X @ W + b
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return ModelChart(cid, as_partition(blocks), predict)


def softmax_ensemble(seed, calls):
    """Generalist, {0,1} pair and {0,1}|{2} thick charts on 40 points."""
    rng = np.random.default_rng(seed)
    charts = [softmax_chart("gen", [{0}, {1}, {2}], rng, calls),
              softmax_chart("pair", [{0}, {1}], rng, calls),
              softmax_chart("thick", [{0, 1}, {2}], rng, calls)]
    X = rng.normal(size=(40, 2))
    y = list(rng.integers(0, 3, size=40))
    return build_target_graph(charts, {0, 1, 2}), X, y


def net_ensemble(seed):
    """softmax_ensemble's layout with sigmoid-network charts, whose output at
    a point does not depend on the batch the point runs in."""
    rng = np.random.default_rng(seed)
    charts = [chart_from_net(cid, random_network(rng, [2, 8, len(blocks)],
                                                 SIGMOID, SOFTMAX), blocks)
              for cid, blocks in [("gen", [{0}, {1}, {2}]), ("pair", [{0}, {1}]),
                                  ("thick", [{0, 1}, {2}])]]
    X = rng.normal(size=(40, 2))
    y = list(rng.integers(0, 3, size=40))
    return build_target_graph(charts, {0, 1, 2}), X, y


ALPHAS = (0.0, 0.4, 0.5, 0.6, 0.8)


class TestCalibrationReference:
    @pytest.mark.parametrize("uncertain_weight", [0.0, 0.25])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_are_the_brute_force_argmax(self, seed, uncertain_weight):
        graph, X, y = softmax_ensemble(seed, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS,
                        uncertain_weight=uncertain_weight)
        phi = make_phi(X, y)
        for label in (0, 1, 2):
            scored = [(expected_accuracy(graph, path, alpha, label, X, y, phi,
                                         uncertain_weight), alpha, pi, path)
                      for pi, path in enumerate(valid_paths(graph, label))
                      for alpha in ALPHAS]
            top = max(r for r, _, _, _ in scored)
            # ties go to the smaller threshold, then to the earlier path
            alpha, _, path = min((alpha, pi, path)
                                 for r, alpha, pi, path in scored if r == top)
            entry = cal.entries[label]
            assert (entry.path, entry.alpha) == (path, alpha)
            assert type(entry.rate) is float and entry.rate == top

    def test_each_chart_runs_once_per_calibration(self):
        calls = {}
        graph, X, y = softmax_ensemble(0, calls)
        calibrate(graph, X, y, alphas=ALPHAS)
        assert calls == {"gen": 1, "pair": 1, "thick": 1}

    @pytest.mark.parametrize("uncertain_weight", [0.0, 0.25])
    def test_history_answers_are_the_per_class_path_votes(self, uncertain_weight):
        calls = {}
        graph, X, y = softmax_ensemble(1, calls)
        cal = calibrate(graph, X, y, alphas=ALPHAS,
                        uncertain_weight=uncertain_weight)
        phi = make_phi(X, y)
        vote_with_validation_history(graph, cal, X[0], phi)  # fills phi's memo
        for x in X:
            calls.clear()
            res = vote_with_validation_history(graph, cal, x, phi,
                                               uncertain_weight)
            assert set(calls.values()) == {1}  # each chart runs once per vote
            for label, entry in cal.entries.items():
                vote = vote_along_path(graph, entry.path, entry.alpha, x, phi,
                                       uncertain_weight)
                assert res.answer[label] == vote.value_for(label)

    def test_history_votes_each_shared_entry_once(self, monkeypatch):
        from logifold import voting
        graph, X, y = softmax_ensemble(1, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        shared = {(e.path, e.alpha) for e in cal.entries.values()}
        assert len(shared) < len(cal.entries)  # classes 1 and 2 share one
        phi = make_phi(X, y)
        want = []
        for x in X:
            votes = {label: vote_along_path(graph, e.path, e.alpha, x, phi)
                     for label, e in cal.entries.items()}
            want.append(({label: v.value_for(label) for label, v in votes.items()},
                         any(v.uniform_fallback for v in votes.values()),
                         sum(v.dropped_groups for v in votes.values()),
                         sum(v.dead_nodes for v in votes.values())))
        calls = []
        real = voting._path_votes
        monkeypatch.setattr(voting, "_path_votes",
                            lambda *a: calls.append(a[1:3]) or real(*a))
        got = voting._history_votes(graph, cal, X, phi, 0.0)
        assert sorted(calls) == sorted(shared)
        assert [(r.answer, r.uniform_fallback, r.dropped_groups, r.dead_nodes)
                for r in got] == want


def random_partition(rng, labels):
    """An ordered partition of labels into randomly many nonempty blocks."""
    assign = rng.integers(0, rng.integers(1, len(labels) + 1), size=len(labels))
    blocks = [frozenset(l for l, a in zip(labels, assign) if a == b)
              for b in sorted(set(assign))]
    return as_partition(blocks)


def random_rows(rng, k, rows):
    """Dirichlet rows, about a quarter replaced by one-hot rows (exact zeros)."""
    out = rng.dirichlet(np.full(k, 0.5), size=rows)
    hot = rng.random(rows) < 0.25
    out[hot] = np.eye(k)[rng.integers(0, k, size=hot.sum())]
    return out


def assert_table_matches_rows(graph, path, outs, phis_of, alpha,
                              uncertain_weight):
    """The table vote equals the per-row vote on every row, bit for bit."""
    table = _path_vote_table(graph, path, outs, phis_of, alpha,
                             uncertain_weight)
    assert table.values.shape[0] == len(next(iter(outs.values())))
    for r in range(table.values.shape[0]):
        values, *flags = _path_vote_from_rows(graph, path,
                                              {i: o[r].tolist() for i, o in outs.items()},
                                              phis_of, alpha, uncertain_weight)
        got = table.row(r)
        assert got.values.tobytes() == np.array(values).tobytes()
        assert got.prediction == got.classes[values.index(max(values))]
        assert [got.uniform_fallback, got.dropped_groups, got.dead_nodes] == flags
    return table


class TestTableVotes:
    @given(seed=st.integers(0, 10 ** 6), groups=st.integers(1, 3),
           rows=st.integers(1, 25), alpha=st.sampled_from([0.0, 0.4, 0.6, 0.8]),
           uncertain_weight=st.sampled_from([0.0, 0.25]), deep=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_table_vote_is_the_per_row_vote(self, seed, groups, rows, alpha,
                                            uncertain_weight, deep):
        rng = np.random.default_rng(seed)
        labels = (0, 1, 2, 3)
        parts = [random_partition(rng, labels) for _ in range(groups)]
        members = [list(range(g * 2, g * 2 + rng.integers(1, 3)))
                   for g in range(groups)]
        root = TargetNode(frozenset(labels), parts, members, refinement(parts))
        nodes, path = [root], (0,)
        chart_blocks = {i: len(parts[g]) for g, idxs in enumerate(members)
                        for i in idxs}
        if deep:  # a fine child node over {0, 1}, as its own chart
            fine = as_partition([{0}, {1}])
            nodes.append(TargetNode(frozenset({0, 1}), [fine], [[6]],
                                    refinement([fine])))
            path, chart_blocks[6] = (0, 1), 2
        graph = TargetGraph([], nodes, {0: [1] if deep else [], 1: []}, 0)
        outs = {i: random_rows(rng, k, rows) for i, k in chart_blocks.items()}
        phis_of = {i: float(rng.choice([0.0, rng.uniform(0.2, 1.0)],
                                       p=[0.15, 0.85]))
                   for i in chart_blocks}
        assert_table_matches_rows(graph, path, outs, phis_of, alpha,
                                  uncertain_weight)

    def test_rows_with_different_live_groups_and_fallbacks(self):
        # row 0: incompatible certain answers, so a zero denominator;
        # row 1: only b is certain; row 2: nobody is
        parts = [as_partition([{1}, {2}]), as_partition([{1}, {2}])]
        node = TargetNode(frozenset({1, 2}), parts, [[0], [1]],
                          refinement(parts))
        graph = TargetGraph([], [node], {0: []}, 0)
        outs = {0: np.array([[1.0, 0.0], [0.6, 0.4], [0.55, 0.45]]),
                1: np.array([[0.0, 1.0], [0.9, 0.1], [0.52, 0.48]])}
        table = assert_table_matches_rows(graph, (0,), outs, {0: 1.0, 1: 1.0},
                                          0.7, 0.0)
        assert table.uniform_fallback == [True, False, False]
        assert table.dropped_groups == [0, 1, 0]
        assert table.dead_nodes == [0, 0, 1]
        assert table.values.tolist() == [[0.5, 0.5], [0.9, 0.1], [0.0, 0.0]]


class TestNonFiniteInstances:
    def test_history_vote_rejects_a_nan_instance(self):
        graph, X, y = softmax_ensemble(0, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        with pytest.raises(NonFinitePointError):
            vote_with_validation_history(graph, cal, [np.nan, 0.0],
                                         make_phi(X, y))

    def test_calibrate_rejects_an_infinite_validation_row(self):
        graph, X, y = softmax_ensemble(0, {})
        X[5, 1] = np.inf
        with pytest.raises(NonFinitePointError, match="instance 5"):
            calibrate(graph, X, y, alphas=ALPHAS)

    def test_vote_report_and_phi_reject_non_finite_rows(self):
        graph, X, y = softmax_ensemble(0, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        bad = X.copy()
        bad[3, 0] = -np.inf
        with pytest.raises(NonFinitePointError, match="instance 3"):
            vote_report(graph, cal, bad, make_phi(X, y))
        with pytest.raises(NonFinitePointError):
            vote_report(graph, cal, X[:2], make_phi(bad, y))

    def test_fuzzy_belonging_rejects_nan(self):
        bundle = make_bundle([const_chart("c", [{0}, {1}], [0.7, 0.3])], 0.5,
                             [[0.0]], [0])
        with pytest.raises(NonFinitePointError):
            fuzzy_belonging(bundle, [np.nan])


class TestSingleInstanceVotes:
    @pytest.mark.parametrize("rows", [0, 2])
    def test_single_votes_take_exactly_one_instance(self, rows):
        graph, X, y = softmax_ensemble(0, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        phi = make_phi(X, y)
        path = cal.entries[0].path
        bundle = make_bundle(graph.charts, 0.5, X, y)
        votes = [
            lambda x: vote_with_validation_history(graph, cal, x, phi),
            lambda x: vote_along_path(graph, path, 0.0, x, phi),
            lambda x: vote_at_node(graph.nodes[graph.root], graph.charts, 0.0,
                                   x, phi),
            lambda x: fuzzy_belonging(bundle, x),
        ]
        for vote in votes:
            vote(X[0])
            vote(X[:1])
            with pytest.raises(DimensionMismatchError, match="one instance"):
                vote(X[:rows])


def shared_body_ensemble(seed, subset, opaque):
    """Charts on two sigmoid bases A and B, over {0, 1, 2} in R^2: A itself
    (gen), A specialized to {0,1}|{2} (thick), B specialized to {0}|{1}
    (pair) and to {0}|{1}|{2} (fine), A specialized to {0}|{1,2} under a
    `subset` embedding (sub), and a third network behind an opaque callable
    (blind).  With `opaque`, every chart's predictor is an opaque callable
    over its network, so no chart shares a body.  Returns the graph, 30
    validation points with labels and 20 test points."""
    rng = np.random.default_rng(seed)
    a, b, c = (random_network(rng, [2, int(rng.integers(2, 6)), 3], SIGMOID, SOFTMAX,
                              scale=2.0) for _ in range(3))

    def on(base, k):
        """base with a random head of k outputs"""
        return SpecializedNet(base, AffineMap(rng.normal(scale=2.0, size=(k, 3)),
                                              rng.normal(size=k)))

    specs = [("gen", a, [{0}, {1}, {2}], Embedding()),
             ("thick", on(a, 2), [{0, 1}, {2}], Embedding()),
             ("pair", on(b, 2), [{0}, {1}], Embedding()),
             ("fine", on(b, 3), [{0}, {1}, {2}], Embedding()),
             ("sub", on(a, 2), [{0}, {1, 2}], Embedding("subset", subset))]
    charts = [ModelChart(cid, as_partition(blocks),
                         lambda X, net=net: forward_smooth_batch(net, X), emb)
              if opaque else chart_from_net(cid, net, blocks, emb)
              for cid, net, blocks, emb in specs]
    charts.append(ModelChart("blind", as_partition([{0}, {1}, {2}]),
                             lambda X: forward_smooth_batch(c, X)))
    X = rng.normal(scale=1.5, size=(50, 2))
    y = [int(v) for v in rng.integers(0, 3, size=30)]
    return build_target_graph(charts, {0, 1, 2}), X[:30], y, X[30:]


def vote_bits(res):
    """A VoteResult with its answer floats as hex, so -0.0 and 0.0 differ."""
    return ({label_to_text(c): v.hex() for c, v in res.answer.items()},
            label_to_text(res.prediction), res.uniform_fallback, res.dropped_groups,
            res.dead_nodes)


def report_bits(row):
    """vote_bits of the VoteResult a vote_report row was written from."""
    flags = dict(f.split(":") if ":" in f else (f, True) for f in row["flags"])
    return ({c: v.hex() for c, v in row["answer"].items()}, row["prediction"],
            bool(flags.get("uniform_fallback")), int(flags.get("dropped_groups", 0)),
            int(flags.get("dead_nodes", 0)))


class TestSharedBodies:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10 ** 6), subset=st.sampled_from([(0, 1), (1, 0)]),
           uncertain_weight=st.sampled_from([0.0, 0.25]))
    def test_shared_bodies_vote_as_charts_that_share_nothing(self, seed, subset,
                                                             uncertain_weight):
        graph, Xval, yval, X = shared_body_ensemble(seed, subset, opaque=False)
        alone, *_ = shared_body_ensemble(seed, subset, opaque=True)
        cal = calibrate(graph, Xval, yval, alphas=ALPHAS,
                        uncertain_weight=uncertain_weight)
        assert calibration_to_dict(graph, cal) == calibration_to_dict(
            alone, calibrate(alone, Xval, yval, alphas=ALPHAS,
                             uncertain_weight=uncertain_weight))
        phi = make_phi(Xval, yval)
        for chart in graph.charts:
            phi(chart, 0.0)  # runs every chart on the validation rows, one table each
        on_paths = {graph.charts[i].id for e in cal.entries.values()
                    for vi in e.path for idxs in graph.nodes[vi].groups for i in idxs}
        # one pass of A's body for gen and thick, one of B's for pair and
        # fine, and one each for sub, under its own embedding, and blind
        bodies = {"gen": "A", "thick": "A", "pair": "B", "fine": "B", "sub": "sub",
                  "blind": "blind"}
        passes = []
        final_rows = networks._final_rows

        def counted(net, X):
            passes.append((id(net), id(X)))
            return final_rows(net, X)

        def one_pass_each(vote):
            """vote(), asserting that it ran each (body, array) pair once."""
            passes.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(networks, "_final_rows", counted)
                got = vote()
            assert len(set(passes)) == len(passes) == len({bodies[c] for c in on_paths})
            return got

        rows = one_pass_each(lambda: vote_report(graph, cal, X, phi, uncertain_weight))
        for x, row in zip(X, rows["instances"]):
            res = one_pass_each(lambda: vote_with_validation_history(
                graph, cal, x, phi, uncertain_weight))
            assert vote_bits(res) == report_bits(row)
            assert vote_bits(res) == vote_bits(vote_with_validation_history(
                alone, cal, x, phi, uncertain_weight))

    def test_make_phi_runs_each_body_once_for_its_lifetime(self, monkeypatch):
        # a generalist and two specialists trained on one frozen body, as
        # the blobs workload builds them
        data = synth_dataset("blobs", 300, seed=1, spread=1.2)
        hp = Hyperparams(learning_rate=0.5, epochs=2, batch_size=32, seed=1)
        gen = train_sgd(random_network(np.random.default_rng(1), [2, 8, 3], SIGMOID, SOFTMAX),
                        data, hp).model
        specs = [("gen", gen, [[0], [1], [2]])]
        for cid, blocks in (("pair", [[0], [1]]), ("thick", [[0, 1], [2]])):
            specs.append((cid, train_sgd(specialize(gen, blocks),
                                         relabel_for_blocks(data, blocks), hp).model, blocks))
        graph = build_target_graph([chart_from_net(cid, net, [set(b) for b in blocks])
                                    for cid, net, blocks in specs], {0, 1, 2})
        Xval, yval = data.subset("val")
        x = data.subset("test")[0][0]
        cal = calibrate(graph, Xval, yval)
        passes = []
        final_rows = networks._final_rows
        monkeypatch.setattr(networks, "_final_rows",
                            lambda net, X: passes.append(len(X)) or final_rows(net, X))
        got = vote_with_validation_history(graph, cal, x, make_phi(Xval, yval))
        # one pass for the instance, one for every chart on the validation rows
        assert passes == [1, len(Xval)]
        fresh = vote_with_validation_history(
            graph, cal, x, lambda chart, alpha: make_phi(Xval, yval)(chart, alpha))
        assert vote_bits(got) == vote_bits(fresh) and got == fresh


class TestFuzzyBelonging:
    def test_single_chart_passthrough(self):
        chart = const_chart("c", [{0}, {1}, {2}], [0.7, 0.2, 0.1])
        bundle = make_bundle([chart], 0.5, [[0.0]], [0])
        assert bundle.phis["c"] == 1.0
        assert fuzzy_belonging(bundle, [0.0]) == pytest.approx(0.7)

    def test_two_charts_mix_linearly(self):
        a = const_chart("a", [{0}, {1}, {2}], [0.4, 0.3, 0.3])
        b = const_chart("b", [{0}, {1}], [0.8, 0.2])
        bundle = make_bundle([a, b], 0.2, [[0.0], [1.0]], [0, 1])
        bundle.phis["a"] = 0.5
        bundle.phis["b"] = 0.5
        assert fuzzy_belonging(bundle, [0.0]) == pytest.approx(
            0.5 * 0.4 + 0.5 * 0.8)

    def test_weights_rescale_to_a_convex_mix(self):
        charts = [const_chart("a", [{0}, {1}], [0.9, 0.1]),
                  const_chart("b", [{0}, {1}], [0.8, 0.2]),
                  const_chart("c", [{0}, {1}], [0.7, 0.3])]
        bundle = make_bundle(charts, 0.0, [[0.0]], [0])
        value = fuzzy_belonging(bundle, [0.0])
        assert value == pytest.approx((0.9 + 0.8 + 0.7) / 3)
        assert 0.0 < value <= 1.0

    def test_uncovered_instance_raises(self):
        chart = const_chart("c", [{0}, {1}], [0.6, 0.4])
        bundle = make_bundle([chart], 0.9, [[0.0]], [0])
        with pytest.raises(UncoveredInstanceError):
            fuzzy_belonging(bundle, [0.0])


class TestReports:
    def test_prediction_matrix_layout(self, tmp_path):
        chart = const_chart("c", [{0}, {1}], [0.75, 0.25])
        out = tmp_path / "pred.csv"
        write_prediction_matrix(out, chart, [[0.0], [1.0]])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance_id,p_block_1,p_block_2"
        assert lines[1].startswith("0,0.75,")
        assert len(lines) == 3

    def test_calibration_round_trip(self, tmp_path):
        graph, X, y = three_class_graph()
        cal = calibrate(graph, X, y, alphas=(0.0, 0.6))
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(calibration_to_dict(graph, cal)))
        loaded = load_calibration(path, graph)
        assert loaded.entries == cal.entries
        assert loaded.alpha_grid == cal.alpha_grid
        assert loaded.curves["gen"].values == cal.curves["gen"].values

    @pytest.mark.parametrize("uncertain_weight", [0.0, 0.25])
    def test_vote_report_is_the_per_instance_votes(self, uncertain_weight):
        graph, X, y = net_ensemble(2)
        cal = calibrate(graph, X, y, alphas=ALPHAS,
                        uncertain_weight=uncertain_weight)
        phi = make_phi(X, y)
        doc = vote_report(graph, cal, X, phi, uncertain_weight=uncertain_weight)
        assert len(doc["instances"]) == len(X)
        for i, (x, rec) in enumerate(zip(X, doc["instances"])):
            res = vote_with_validation_history(graph, cal, x, phi,
                                               uncertain_weight)
            flags = ((["uniform_fallback"] if res.uniform_fallback else [])
                     + ([f"dropped_groups:{res.dropped_groups}"]
                        if res.dropped_groups else [])
                     + ([f"dead_nodes:{res.dead_nodes}"] if res.dead_nodes
                        else []))
            assert rec == {
                "id": i,
                "answer": {label_to_text(c): v for c, v in res.answer.items()},
                "prediction": label_to_text(res.prediction),
                "paths": {label_to_text(c): list(e.path)
                          for c, e in res.chosen.items()},
                "flags": flags,
            }

    def test_vote_report_runs_each_chart_once(self):
        graph, X, y = net_ensemble(2)
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        phi = make_phi(X, y)
        for chart in graph.charts:
            phi(chart, 0.0)  # runs every chart on the validation rows
        calls = {}

        def counted(chart, predict):
            def predict_batch(X):
                calls[chart.id] = calls.get(chart.id, 0) + 1
                return predict(X)
            return predict_batch

        for chart in graph.charts:
            chart.predict_batch = counted(chart, chart.predict_batch)
        vote_report(graph, cal, X, phi)
        on_paths = {graph.charts[i].id for e in cal.entries.values()
                    for vi in e.path for idxs in graph.nodes[vi].groups for i in idxs}
        assert calls == {cid: 1 for cid in on_paths}

    def test_vote_report_on_no_rows(self):
        graph, X, y = softmax_ensemble(2, {})
        cal = calibrate(graph, X, y, alphas=ALPHAS)
        assert vote_report(graph, cal, X[:0], make_phi(X, y)) == {
            "instances": []}

    def test_vote_report_is_deterministic_and_flagged(self, tmp_path):
        graph, X, y = three_class_graph()
        cal = calibrate(graph, X, y, alphas=(0.0, 0.6))
        phi = make_phi(X, y)
        doc = vote_report(graph, cal, X, phi)
        assert [rec["prediction"] for rec in doc["instances"]] == \
            [str(t) for t in y]
        again = vote_report(graph, cal, X, phi)
        assert json.dumps(doc, sort_keys=True) == json.dumps(again,
                                                             sort_keys=True)
        out = tmp_path / "report.json"
        out.write_text(json.dumps(doc))
        assert json.loads(out.read_text()) == doc
