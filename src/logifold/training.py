"""Noisy gradient descent for sigmoid-softmax networks and frozen-base heads.

The loss is the squared distance between the softmax output and the one-hot
target, averaged over the batch.  Each update subtracts the learning rate
times the gradient plus the learning rate times an independent Gaussian
perturbation.  Specialization freezes a trained network and fits a fresh
affine-plus-softmax head on its output, with classes merged into blocks.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BlockMismatchError, DimensionMismatchError, DivergenceError
from .graph import AffineMap
from .networks import (
    SIGMOID,
    SOFTMAX,
    NetworkSpec,
    SpecializedNet,
    _sigmoid,
    _softmax,
    forward_smooth_batch,
    require,
)


_WEIGHT_CAP = 1e12


@dataclass
class Hyperparams:
    learning_rate: float = 0.5
    epochs: int = 30
    batch_size: int = 32
    noise_std: float = 0.0
    seed: int = 0


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    split: np.ndarray  # "train" / "val" / "test" per row

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        self.split = np.asarray(self.split, dtype=object)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.y)

    def subset(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        mask = self.split == name
        return self.X[mask], self.y[mask]


@dataclass
class TrainResult:
    model: Union[NetworkSpec, SpecializedNet]
    losses: List[float]  # per-epoch mean training loss
    trace: List[Tuple[int, float]] = field(default_factory=list)


def _one_hot(y: np.ndarray, classes: int) -> np.ndarray:
    return np.eye(classes)[y]


def _forward_states(params, X):
    acts = [np.asarray(X, dtype=float)]
    for w, b in params[:-1]:
        acts.append(_sigmoid(acts[-1] @ w.T + b))
    w, b = params[-1]
    return acts, _softmax(acts[-1] @ w.T + b, axis=1)


def _batch_gradient(params, X, target):
    """Mean-over-batch gradients of the squared loss, plus the loss itself."""
    acts, p = _forward_states(params, X)
    g = 2.0 * (p - target)
    # softmax jacobian applied to g: p * g - p * (p . g)
    delta = p * g - p * np.sum(p * g, axis=1, keepdims=True)
    grads = [None] * len(params)
    m = len(X)
    for k in reversed(range(len(params))):
        grads[k] = (delta.T @ acts[k] / m, delta.mean(axis=0))
        if k > 0:
            delta = (delta @ params[k][0]) * acts[k] * (1.0 - acts[k])
    loss = float(np.mean(np.sum((p - target) ** 2, axis=1)))
    return grads, loss


def analytic_gradient(net: NetworkSpec, X, y):
    """Per-layer (dW, db) of the mean squared loss at the current weights."""
    params = [(l.matrix, l.offset) for l in net.layers]
    target = _one_hot(np.asarray(y, dtype=int), net.output_dim)
    grads, _ = _batch_gradient(params, X, target)
    return grads


def numeric_gradient(loss_fn, params, coords, eps: float = 1e-5):
    """Central differences of loss_fn at the listed (layer, field, index)
    coordinates; field 0 is the matrix, 1 the offset."""
    out = []
    for layer, which, idx in coords:
        arr = params[layer][which]
        saved = arr[idx]
        arr[idx] = saved + eps
        hi = loss_fn()
        arr[idx] = saved - eps
        lo = loss_fn()
        arr[idx] = saved
        out.append((hi - lo) / (2 * eps))
    return out


def _loss_only(params, X, target) -> float:
    _, p = _forward_states(params, X)
    return float(np.mean(np.sum((p - target) ** 2, axis=1)))


def _run_sgd(params, X, y, classes, hp: Hyperparams):
    bad = np.unique(y[(y < 0) | (y >= classes)])
    if len(bad):  # one-hot rows would be wrapped around or out of range
        raise DimensionMismatchError(
            f"training labels {bad.tolist()} are outside the model's {classes} outputs")
    rng = np.random.default_rng(hp.seed)
    target_all = _one_hot(y, classes)
    losses = []
    trace = []
    for epoch in range(hp.epochs):
        order = rng.permutation(len(X))
        epoch_losses = []
        for start in range(0, len(X), hp.batch_size):
            take = order[start:start + hp.batch_size]
            grads, loss = _batch_gradient(params, X[take], target_all[take])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"loss became {loss} at epoch {epoch}; lower the learning rate")
            epoch_losses.append(loss)
            for (w, b), (dw, db) in zip(params, grads):
                w -= hp.learning_rate * dw
                b -= hp.learning_rate * db
                if hp.noise_std > 0:
                    w -= hp.learning_rate * rng.normal(0.0, hp.noise_std, size=w.shape)
                    b -= hp.learning_rate * rng.normal(0.0, hp.noise_std, size=b.shape)
                # the loss saturates, so runaway steps show up in the weights
                if not np.all(np.isfinite(w)) or float(np.abs(w).max()) > _WEIGHT_CAP:
                    raise DivergenceError(
                        f"weights exploded at epoch {epoch}; lower the learning rate")
        mean_loss = float(np.mean(epoch_losses))
        losses.append(mean_loss)
        trace.append((epoch, mean_loss))
    return losses, trace


def train_sgd(model: Union[NetworkSpec, SpecializedNet], data: Dataset,
              hp: Hyperparams) -> TrainResult:
    """Fit on the train split.  A specialized model only updates its head."""
    require(model, "training")
    X, y = data.subset("train")
    if isinstance(model, SpecializedNet):
        feats = forward_smooth_batch(model.base, X)
        params = [(model.head.matrix.copy(), model.head.offset.copy())]
        losses, trace = _run_sgd(params, feats, y, model.head.rows, hp)
        head = AffineMap(params[0][0], params[0][1])
        return TrainResult(SpecializedNet(model.base, head), losses, trace)
    params = [(l.matrix.copy(), l.offset.copy()) for l in model.layers]
    losses, trace = _run_sgd(params, X, y, model.output_dim, hp)
    layers = [AffineMap(w, b) for w, b in params]
    return TrainResult(NetworkSpec(layers, SIGMOID, SOFTMAX), losses, trace)


# -- specialization ---------------------------------------------------------


def specialize(net: NetworkSpec, blocks: Sequence[Sequence[int]]) -> SpecializedNet:
    """Frozen-base model whose head pools classes into the given blocks.

    The head starts as the block indicator matrix, so with singleton blocks
    the argmax is unchanged.
    """
    require(net, "specialize")
    flat = [c for b in blocks for c in b]
    if len(set(flat)) != len(flat):
        raise BlockMismatchError(f"blocks overlap: {sorted(map(list, blocks))}")
    bad = [c for c in flat if c < 0 or c >= net.output_dim]
    if bad:
        raise BlockMismatchError(
            f"classes {bad} outside the network's {net.output_dim} outputs")
    w = np.zeros((len(blocks), net.output_dim))
    for i, block in enumerate(blocks):
        for c in block:
            w[i, c] = 1.0
    return SpecializedNet(net, AffineMap(w, np.zeros(len(blocks))))


def relabel_for_blocks(data: Dataset, blocks: Sequence[Sequence[int]]) -> Dataset:
    """Map class labels to block indices, dropping rows outside every block."""
    lookup = {}
    for i, block in enumerate(blocks):
        for c in block:
            if c in lookup:
                raise BlockMismatchError(f"class {c} appears in two blocks")
            lookup[c] = i
    keep = np.array([c in lookup for c in data.y])
    return Dataset(data.X[keep],
                   np.array([lookup[c] for c in data.y[keep]], dtype=int),
                   data.split[keep])


# -- synthetic data ---------------------------------------------------------


def _assign_splits(n: int, rng) -> np.ndarray:
    split = np.array(["train"] * n, dtype=object)
    order = rng.permutation(n)
    n_train = int(round(0.6 * n))
    n_val = int(round(0.2 * n))
    split[order[n_train:n_train + n_val]] = "val"
    split[order[n_train + n_val:]] = "test"
    return split


def synth_dataset(kind: str, n: int, seed: int = 0, spread: float = 0.6) -> Dataset:
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        centers = np.array([[0.0, 2.0], [-2.0, -1.0], [2.0, -1.0]])
        y = rng.integers(0, 3, size=n)
        X = centers[y] + rng.normal(0.0, spread, size=(n, 2))
    elif kind == "grid_diagonal":
        X = rng.uniform(0.0, 1.0, size=(n, 2))
        y = (X[:, 1] >= X[:, 0]).astype(int)
    elif kind == "rings":
        y = rng.integers(0, 2, size=n)
        radius = np.where(y == 0, rng.uniform(0.0, 1.0, size=n),
                          rng.uniform(1.5, 2.5, size=n))
        angle = rng.uniform(0.0, 2 * np.pi, size=n)
        X = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return Dataset(X, y, _assign_splits(n, rng))


def classification_accuracy(model, X, y) -> float:
    pred = np.argmax(forward_smooth_batch(model, X), axis=1)
    return float(np.mean(pred == np.asarray(y)))


# -- serialization ----------------------------------------------------------


def save_dataset(data: Dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(data.dim)] + ["label", "split"])
        for row, label, split in zip(data.X, data.y, data.split):
            writer.writerow([repr(float(v)) for v in row] + [int(label), split])


def load_dataset(path) -> Dataset:
    name = os.path.basename(os.fspath(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{name} is empty; expected a header line")
        dim = len(header) - 2
        if dim < 1:
            raise ValueError(f"{name}, line 1: expected x1, ..., label, split; got {header}")
        X, y, split = [], [], []
        for row in reader:
            try:
                if len(row) != dim + 2:
                    raise ValueError(f"expected {dim + 2} fields, got {len(row)}")
                X.append([float(v) for v in row[:dim]])
                y.append(int(row[dim]))
                if y[-1] < 0:
                    raise ValueError(f"label {y[-1]} is negative; classes count from 0")
                split.append(row[dim + 1])
            except ValueError as e:
                raise ValueError(f"{name}, line {reader.line_num}: {e}") from None
    if not X:
        raise ValueError(f"{name} has a header but no data rows")
    return Dataset(np.array(X), np.array(y), np.array(split, dtype=object))


def save_trace(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in trace:
            writer.writerow([epoch, repr(float(loss))])
