import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logifold.ensemble import (
    Embedding,
    ModelChart,
    accuracy_curve,
    as_partition,
    build_target_graph,
    fuzzy_accuracy,
    refinement,
)
from logifold.errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    FlatteningMismatchError,
    MalformedEmbeddingError,
    NoRootModelError,
)


def const_chart(cid, blocks, row):
    row = np.asarray(row, dtype=float)
    return ModelChart(cid, as_partition(blocks),
                      lambda X: np.tile(row, (len(X), 1)))


def table_chart(cid, blocks, fn):
    return ModelChart(cid, as_partition(blocks), fn)


class TestEmbedding:
    def test_identity_passes_through(self):
        X = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(Embedding().apply_batch(X), X)

    def test_subset_keeps_listed_coordinates(self):
        X = np.arange(8.0).reshape(2, 4)
        out = Embedding("subset", indices=(0, 2)).apply_batch(X)
        assert np.array_equal(out, X[:, [0, 2]])

    def test_resample_mean_pools(self):
        X = np.array([[1.0, 3.0, 5.0, 7.0]])
        out = Embedding("resample", factor=2).apply_batch(X)
        assert np.array_equal(out, [[2.0, 6.0]])

    def test_resample_rejects_indivisible_width(self):
        with pytest.raises(DimensionMismatchError):
            Embedding("resample", factor=2).apply_batch(np.ones((1, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(MalformedEmbeddingError):
            Embedding("warp").apply_batch(np.ones((1, 2)))

    @pytest.mark.parametrize("kind,indices,factor", [
        ("subset", None, None), ("subset", (0, -1), None), ("subset", (0.5,), None),
        ("resample", None, 0), ("resample", None, None), ("resample", None, 2.0),
    ])
    def test_bad_parameters_rejected(self, kind, indices, factor):
        with pytest.raises(MalformedEmbeddingError):
            Embedding(kind, indices, factor)

    def test_subset_index_past_the_width_is_a_dimension_error(self):
        emb = Embedding("subset", indices=(0, 5))
        emb.check_width(6)
        with pytest.raises(DimensionMismatchError, match="index 5 is past the data width 2"):
            emb.apply_batch(np.ones((1, 2)))


class TestChartOutputs:
    def test_rows_must_sum_to_one(self):
        bad = table_chart("b", [{0}, {1}], lambda X: np.full((len(X), 2), 0.6))
        with pytest.raises(FlatteningMismatchError):
            bad.outputs(np.zeros((1, 2)))

    def test_nan_rows_fail_the_sum_check(self):
        bad = table_chart("b", [{0}, {1}],
                          lambda X: np.array([[0.5, 0.5], [np.nan, 0.5]]))
        with pytest.raises(FlatteningMismatchError):
            bad.outputs(np.zeros((2, 2)))

    def test_component_count_must_match_blocks(self):
        bad = table_chart("b", [{0}, {1}, {2}],
                          lambda X: np.tile([0.5, 0.5], (len(X), 1)))
        with pytest.raises(DimensionMismatchError):
            bad.outputs(np.zeros((1, 2)))


class TestRefinement:
    def test_two_partition_example(self):
        table = refinement([[{1, 2, 3}, {4, 5}], [{1, 2}, {3, 4}, {5}]])
        assert table.blocks == [frozenset({1, 2}), frozenset({3}),
                                frozenset({4}), frozenset({5})]
        assert table.valid == [(0, 0), (0, 1), (1, 1), (1, 2)]
        assert set(table.invalid) == {(0, 2), (1, 0)}

    def test_identical_partitions_invalidate_off_diagonal(self):
        p = [{1}, {2}, {3}]
        table = refinement([p, p])
        assert table.valid == [(0, 0), (1, 1), (2, 2)]
        assert len(table.invalid) == 6
        assert all(i != j for i, j in table.invalid)
        assert table.is_fine

    def test_flattening_mismatch_rejected(self):
        with pytest.raises(FlatteningMismatchError):
            refinement([[{1, 2}], [{1, 3}]])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(FlatteningMismatchError):
            refinement([[{1, 2}, {2, 3}], [{1, 2, 3}]])

    def test_single_partition_is_its_own_refinement(self):
        table = refinement([[{1, 2}, {3}]])
        assert table.blocks == [frozenset({1, 2}), frozenset({3})]
        assert table.invalid == []

    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_the_target(self, n, seed):
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(2):
            assign = rng.integers(0, rng.integers(1, n + 1), size=n)
            blocks = [set(np.flatnonzero(assign == b))
                      for b in np.unique(assign)]
            parts.append(blocks)
        table = refinement(parts)
        union = set()
        for b in table.blocks:
            assert not (union & b)
            union |= b
        assert union == set(range(n))
        for combo, block in zip(table.valid, table.blocks):
            meet = set(range(n))
            for p, j in zip(table.partitions, combo):
                meet &= p[j]
            assert meet == set(block)
        for combo in table.invalid:
            meet = set(range(n))
            for p, j in zip(table.partitions, combo):
                meet &= p[j]
            assert not meet


class TestTargetGraph:
    def test_nodes_sorted_and_arrowed_by_inclusion(self):
        charts = [
            const_chart("g", [{1}, {2}, {3}, {4}], [0.25] * 4),
            const_chart("m", [{1}, {2}, {3}], [0.5, 0.25, 0.25]),
            const_chart("s", [{1}, {2}], [0.5, 0.5]),
        ]
        g = build_target_graph(charts, {1, 2, 3, 4})
        targets = [node.target for node in g.nodes]
        assert targets == [frozenset({1, 2, 3, 4}), frozenset({1, 2, 3}),
                           frozenset({1, 2})]
        for i in range(3):
            expect = [j for j in range(3) if targets[j] < targets[i]]
            assert g.children[i] == expect
        assert g.root == 0

    def test_groups_split_by_partition(self):
        charts = [
            const_chart("a", [{1, 2}, {3}], [0.5, 0.5]),
            const_chart("b", [{1, 2}, {3}], [0.4, 0.6]),
            const_chart("c", [{1}, {2, 3}], [0.7, 0.3]),
            const_chart("fine", [{1}, {2}, {3}], [0.4, 0.3, 0.3]),
        ]
        g = build_target_graph(charts, {1, 2, 3})
        root = g.nodes[0]
        assert len(root.partitions) == 3
        sizes = sorted(len(idx) for idx in root.groups)
        assert sizes == [1, 1, 2]
        pair = next(idxs for idxs in root.groups if len(idxs) == 2)
        assert {charts[i].id for i in pair} == {"a", "b"}

    def test_missing_root_chart_raises(self):
        charts = [const_chart("s", [{1}, {2}], [0.5, 0.5])]
        with pytest.raises(NoRootModelError):
            build_target_graph(charts, {1, 2, 3})

    def test_labels_outside_class_set_raise(self):
        charts = [const_chart("s", [{1}, {7}], [0.5, 0.5])]
        with pytest.raises(FlatteningMismatchError):
            build_target_graph(charts, {1, 2})

    def test_minimal_node_must_refine_to_singletons(self):
        charts = [const_chart("coarse", [{1, 2}, {3}], [0.5, 0.5])]
        with pytest.raises(AssumptionViolationError):
            build_target_graph(charts, {1, 2, 3})

    def test_shared_chart_ids_are_rejected(self):
        # both would vote with one accuracy curve, the one keyed by "c"
        charts = [const_chart("c", [{0}, {1}], [0.9, 0.1]),
                  const_chart("c", [{0}, {1}], [0.2, 0.8])]
        with pytest.raises(AssumptionViolationError, match="'c'"):
            build_target_graph(charts, {0, 1})

    def test_coarse_root_allowed_when_finer_children_exist(self):
        charts = [
            const_chart("coarse", [{1, 2}, {3}], [0.5, 0.5]),
            const_chart("lo", [{1}, {2}], [0.5, 0.5]),
            const_chart("hi", [{3}], [1.0]),
        ]
        g = build_target_graph(charts, {1, 2, 3})
        assert not g.nodes[0].table.is_fine
        assert {g.nodes[i].target for i in g.children[0]} == {
            frozenset({1, 2}), frozenset({3})}


def step_chart(cid):
    # certain and right below 0, hesitant and wrong above
    def fn(X):
        return np.where(X[:, :1] < 0, [[0.9, 0.1]], [[0.45, 0.55]])

    return table_chart(cid, [{0}, {1}], fn)


class TestFuzzyAccuracy:
    def test_hand_counted_rates(self):
        chart = step_chart("s")
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        y = [0, 0, 1, 0]
        phi, certain = fuzzy_accuracy(chart, X, y, 0.5)
        assert certain.all()
        assert phi == pytest.approx(3 / 4)
        phi, certain = fuzzy_accuracy(chart, X, y, 0.8)
        assert list(certain) == [True, True, False, False]
        assert phi == 1.0

    def test_empty_certain_part_scores_zero(self):
        phi, certain = fuzzy_accuracy(step_chart("s"), [[-1.0]], [0], 0.95)
        assert phi == 0.0 and not certain.any()

    def test_coarse_block_containing_label_counts_as_hit(self):
        chart = const_chart("c", [{0, 1}, {2}], [0.8, 0.2])
        phi, _ = fuzzy_accuracy(chart, np.zeros((3, 1)), [0, 1, 2], 0.5)
        assert phi == pytest.approx(2 / 3)

    def test_certain_parts_nest_as_threshold_grows(self):
        rng = np.random.default_rng(3)
        raw = rng.dirichlet(np.ones(3), size=40)
        chart = table_chart("r", [{0}, {1}, {2}], lambda X: raw[: len(X)])
        X = np.zeros((40, 2))
        y = rng.integers(0, 3, size=40)
        curve = accuracy_curve(chart, X, y, [0.0, 0.4, 0.5, 0.7, 0.9])
        assert curve.sizes == sorted(curve.sizes, reverse=True)
        masks = [fuzzy_accuracy(chart, X, y, a)[1] for a in curve.alphas]
        for tight, loose in zip(masks[1:], masks):
            assert not np.any(tight & ~loose)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_curve_matches_a_per_threshold_recount(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet(np.full(3, 0.5), size=30)
        chart = table_chart("r", [{0, 1}, {2}, {3}], lambda X: raw[: len(X)])
        X = np.zeros((30, 1))
        y = rng.integers(0, 4, size=30)
        alphas = [0.0, 0.3, 0.5, 0.7, 0.9, 0.99]
        curve = accuracy_curve(chart, X, y, alphas)
        for a, value, size in zip(alphas, curve.values, curve.sizes):
            certain = raw.max(axis=1) >= a
            hits = [label in chart.partition[block] for label, block
                    in zip(y[certain], raw.argmax(axis=1)[certain])]
            assert type(value) is float
            assert value == (float(np.mean(hits)) if hits else 0.0)
            assert size == len(hits)
            assert fuzzy_accuracy(chart, X, y, a)[0] == value
