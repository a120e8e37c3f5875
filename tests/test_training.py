import numpy as np
import pytest

from logifold.errors import BlockMismatchError, DimensionMismatchError, DivergenceError
from logifold.networks import (
    SIGMOID,
    SOFTMAX,
    forward_smooth,
    forward_smooth_batch,
    random_network,
)
from logifold.training import (
    Dataset,
    Hyperparams,
    _batch_gradient,
    _loss_only,
    _one_hot,
    analytic_gradient,
    classification_accuracy,
    load_dataset,
    numeric_gradient,
    relabel_for_blocks,
    save_dataset,
    save_trace,
    specialize,
    synth_dataset,
    train_sgd,
)


def rel_err(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-12)


def test_analytic_gradient_matches_central_differences(rng):
    net = random_network(rng, [2, 8, 3], SIGMOID, final=SOFTMAX)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 3, size=40)
    grads = analytic_gradient(net, X, y)
    params = [(l.matrix.copy(), l.offset.copy()) for l in net.layers]
    target = _one_hot(y, 3)
    coords = [(0, 0, (3, 1)), (0, 0, (0, 0)), (0, 1, (5,)),
              (1, 0, (2, 7)), (1, 0, (0, 3)), (1, 1, (1,)),
              (0, 0, (7, 0)), (1, 0, (1, 0)), (0, 1, (2,)), (1, 1, (0,))]
    numeric = numeric_gradient(lambda: _loss_only(params, X, target), params, coords)
    for (layer, which, idx), num in zip(coords, numeric):
        ana = grads[layer][which][idx]
        assert rel_err(ana, num) < 1e-6


def test_head_gradient_matches_central_differences(rng):
    base = random_network(rng, [2, 5, 4], SIGMOID, final=SOFTMAX)
    model = specialize(base, [[0, 1], [2], [3]])
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 3, size=30)
    feats = forward_smooth_batch(base, X)
    params = [(model.head.matrix.copy(), model.head.offset.copy())]
    target = _one_hot(y, 3)
    grads, _ = _batch_gradient(params, feats, target)
    coords = [(0, 0, (0, 1)), (0, 0, (2, 3)), (0, 1, (1,))]
    numeric = numeric_gradient(lambda: _loss_only(params, feats, target), params, coords)
    for (layer, which, idx), num in zip(coords, numeric):
        assert rel_err(grads[layer][which][idx], num) < 1e-6


def test_single_full_batch_step_is_plain_descent(rng):
    net = random_network(rng, [2, 4, 3], SIGMOID, final=SOFTMAX)
    data = synth_dataset("blobs", 50, seed=1)
    X, y = data.subset("train")
    hp = Hyperparams(learning_rate=0.3, epochs=1, batch_size=len(X), noise_std=0.0)
    result = train_sgd(net, data, hp)
    grads = analytic_gradient(net, X, y)
    for layer, before, (dw, db) in zip(result.model.layers, net.layers, grads):
        assert np.allclose(layer.matrix, before.matrix - 0.3 * dw)
        assert np.allclose(layer.offset, before.offset - 0.3 * db)


def test_training_reduces_loss_and_is_seeded(rng):
    net = random_network(rng, [2, 6, 3], SIGMOID, final=SOFTMAX, scale=0.5)
    data = synth_dataset("blobs", 300, seed=3)
    hp = Hyperparams(learning_rate=0.5, epochs=25, batch_size=32, seed=11)
    r1 = train_sgd(net, data, hp)
    r2 = train_sgd(net, data, hp)
    assert r1.losses[-1] < r1.losses[0]
    assert r1.losses == r2.losses
    for a, b in zip(r1.model.layers, r2.model.layers):
        assert np.array_equal(a.matrix, b.matrix)
    X, y = data.subset("test")
    assert classification_accuracy(r1.model, X, y) > 0.8


def test_noise_perturbs_but_stays_finite(rng):
    net = random_network(rng, [2, 4, 3], SIGMOID, final=SOFTMAX, scale=0.5)
    data = synth_dataset("blobs", 120, seed=5)
    hp = Hyperparams(learning_rate=0.3, epochs=5, batch_size=32, seed=2)
    clean = train_sgd(net, data, hp)
    noisy = train_sgd(net, data, Hyperparams(learning_rate=0.3, epochs=5,
                                             batch_size=32, noise_std=0.05, seed=2))
    assert not np.array_equal(clean.model.layers[0].matrix, noisy.model.layers[0].matrix)
    assert all(np.isfinite(l) for l in noisy.losses)


def test_divergence_raises(rng):
    net = random_network(rng, [2, 4, 3], SIGMOID, final=SOFTMAX)
    data = synth_dataset("blobs", 60, seed=0)
    with pytest.raises(DivergenceError):
        train_sgd(net, data, Hyperparams(learning_rate=1e18, epochs=50, batch_size=8))


def test_a_label_past_the_outputs_is_rejected(rng):
    net = random_network(rng, [2, 3, 2], SIGMOID, final=SOFTMAX)
    data = synth_dataset("blobs", 60, seed=0)
    with pytest.raises(DimensionMismatchError, match=r"labels \[2\] are outside the model's 2"):
        train_sgd(net, data, Hyperparams(epochs=1))
    head = specialize(random_network(rng, [2, 3, 3], SIGMOID, final=SOFTMAX), [[0], [1]])
    with pytest.raises(DimensionMismatchError, match="outside the model's 2 outputs"):
        train_sgd(head, data, Hyperparams(epochs=1))


def test_specialize_identity_head_preserves_argmax(rng):
    net = random_network(rng, [2, 5, 4], SIGMOID, final=SOFTMAX)
    model = specialize(net, [[0], [1], [2], [3]])
    for x in rng.normal(size=(40, 2)):
        assert int(np.argmax(forward_smooth(model, x))) == int(
            np.argmax(forward_smooth(net, x)))


def test_specialize_rejects_bad_blocks(rng):
    net = random_network(rng, [2, 4, 3], SIGMOID, final=SOFTMAX)
    with pytest.raises(BlockMismatchError):
        specialize(net, [[0, 1], [1, 2]])
    with pytest.raises(BlockMismatchError):
        specialize(net, [[0], [5]])


def test_head_training_leaves_base_frozen(rng):
    net = random_network(rng, [2, 5, 3], SIGMOID, final=SOFTMAX, scale=0.5)
    data = synth_dataset("blobs", 200, seed=9)
    merged = relabel_for_blocks(data, [[0, 1], [2]])
    model = specialize(net, [[0, 1], [2]])
    result = train_sgd(model, merged, Hyperparams(learning_rate=0.5, epochs=15))
    assert result.losses[-1] <= result.losses[0]
    for before, after in zip(net.layers, result.model.base.layers):
        assert np.array_equal(before.matrix, after.matrix)
        assert np.array_equal(before.offset, after.offset)
    assert not np.array_equal(result.model.head.matrix, model.head.matrix)


def test_relabel_drops_unlisted_classes():
    data = Dataset(np.zeros((6, 1)), np.array([0, 1, 2, 0, 2, 1]),
                   np.array(["train"] * 6, dtype=object))
    merged = relabel_for_blocks(data, [[2], [0]])
    assert merged.y.tolist() == [1, 0, 1, 0]
    assert len(merged.X) == 4


def test_synth_dataset_shapes_and_splits():
    data = synth_dataset("blobs", 200, seed=4)
    assert data.X.shape == (200, 2)
    assert set(data.classes) == {0, 1, 2}
    n_train = int((data.split == "train").sum())
    n_val = int((data.split == "val").sum())
    n_test = int((data.split == "test").sum())
    assert (n_train, n_val, n_test) == (120, 40, 40)
    again = synth_dataset("blobs", 200, seed=4)
    assert np.array_equal(data.X, again.X)

    rings = synth_dataset("rings", 150, seed=1)
    radii = np.linalg.norm(rings.X, axis=1)
    assert np.all(radii[rings.y == 0] <= 1.0)
    assert np.all(radii[rings.y == 1] >= 1.5)

    diag = synth_dataset("grid_diagonal", 100, seed=2)
    assert np.array_equal(diag.y, (diag.X[:, 1] >= diag.X[:, 0]).astype(int))

    with pytest.raises(ValueError):
        synth_dataset("moons", 10)


def test_dataset_csv_round_trip(tmp_path):
    data = synth_dataset("blobs", 40, seed=6)
    path = tmp_path / "blobs.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)
    assert list(back.split) == list(data.split)


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace([(0, 0.5), (1, 0.25)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert lines[1].startswith("0,0.5")
