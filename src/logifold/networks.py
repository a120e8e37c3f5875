"""Layered affine networks and their compilation to decision graphs.

Both compilers share one region walker.  It subdivides input space layer by
layer: every vertex carries the affine map that computes its layer's
pre-activation restricted to the region reached so far, children are the
realizable sign chambers, and the last layer is guarded by pairwise
coordinate differences with each chamber routed to the argmax target.  After
a step layer the composed map is constant (the next layer applied to the
chamber's Boolean outcome), so a step network branches only at its first
layer, and each first-layer chamber has one vertex with a plain arrow to its
argmax target.

The walker is also behind ``fuzzy.from_relu_softmax_net``, which puts a
softmax leaf where the compiler puts the argmax guard.  A layer whose region
holds a single sign chamber adds no vertex, so the graphs branch only where
a layer's hyperplanes actually cut the region.

Both compilers keep only regions whose constraint systems are exactly
feasible, and the argmax convention everywhere is lowest index wins ties.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import feasibility
from .errors import (
    DegenerateHyperplaneWarning,
    DimensionMismatchError,
    RegionExplosionError,
    UnsupportedActivationError,
)
from .graph import AffineMap, GraphBuilder, LogicalGraph

STEP = "step"
RELU = "relu"
SIGMOID = "sigmoid"
INDEXMAX = "indexmax"
SOFTMAX = "softmax"

CHAMBER_CAP = 2**16
REGION_CAP = 10**5


@dataclass
class NetworkSpec:
    """Affine layers plus activation tags; dimensions must chain."""

    layers: List[AffineMap]
    hidden_activation: str
    final_activation: str

    def __post_init__(self):
        if not self.layers:
            raise DimensionMismatchError("network needs at least one layer")
        if self.hidden_activation not in (STEP, RELU, SIGMOID):
            raise UnsupportedActivationError(
                f"unknown hidden activation {self.hidden_activation!r}")
        if self.final_activation not in (INDEXMAX, SOFTMAX):
            raise UnsupportedActivationError(
                f"unknown final activation {self.final_activation!r}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.rows != b.dim:
                raise DimensionMismatchError(
                    f"layer output {a.rows} feeds layer expecting {b.dim}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass
class SpecializedNet:
    """A trained base network with a retrained affine head after its softmax."""

    base: NetworkSpec
    head: AffineMap

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    @property
    def output_dim(self) -> int:
        return self.head.rows


def _step(z):
    return (z >= 0).astype(float)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z, axis=-1):
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def forward_classical(net: NetworkSpec, x) -> int:
    """Classical forward pass; returns the argmax label index (ties go low)."""
    z = forward_logits(net, x)
    return int(np.argmax(z))


def _classical_activation(net: NetworkSpec):
    """Hidden activation of the classical forward pass; other nets raise."""
    if net.final_activation != INDEXMAX or net.hidden_activation not in (STEP, RELU):
        raise UnsupportedActivationError(
            "classical forward expects step/relu hidden layers and an indexmax head")
    return _step if net.hidden_activation == STEP else (lambda z: np.maximum(z, 0.0))


def forward_logits(net: NetworkSpec, x) -> np.ndarray:
    act = _classical_activation(net)
    a = np.asarray(x, dtype=float)
    if a.shape != (net.input_dim,):
        raise DimensionMismatchError(
            f"point has shape {a.shape}, network expects ({net.input_dim},)")
    for layer in net.layers[:-1]:
        a = act(layer(a))
    return net.layers[-1](a)


def forward_classical_batch(net: NetworkSpec, X) -> np.ndarray:
    act = _classical_activation(net)
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"points have shape {A.shape}, network expects (m, {net.input_dim})")
    A = A.T  # (n, m)
    for layer in net.layers[:-1]:
        A = act(layer.matrix @ A + layer.offset[:, None])
    Z = net.layers[-1].matrix @ A + net.layers[-1].offset[:, None]
    return np.argmax(Z, axis=0)


def forward_smooth(net: Union[NetworkSpec, SpecializedNet], x) -> np.ndarray:
    """Sigmoid-hidden, softmax-final forward pass; returns the output vector."""
    x = np.asarray(x, dtype=float)
    return forward_smooth_batch(net, x[None, :])[0]


def forward_smooth_batch(net: Union[NetworkSpec, SpecializedNet], X) -> np.ndarray:
    if isinstance(net, SpecializedNet):
        base = forward_smooth_batch(net.base, X)
        Z = base @ net.head.matrix.T + net.head.offset
        return _softmax(Z, axis=1)
    if net.hidden_activation not in (SIGMOID, RELU) or net.final_activation != SOFTMAX:
        raise UnsupportedActivationError(
            "smooth forward expects sigmoid or relu hidden layers and a softmax head")
    act = _sigmoid if net.hidden_activation == SIGMOID else (lambda z: np.maximum(z, 0.0))
    A = np.asarray(X, dtype=float)
    for layer in net.layers[:-1]:
        A = act(A @ layer.matrix.T + layer.offset)
    Z = A @ net.layers[-1].matrix.T + net.layers[-1].offset
    return _softmax(Z, axis=1)


# -- compilation helpers ---------------------------------------------------

def _outcome(signs: str) -> np.ndarray:
    """0/1 vector of a sign pattern: the step outcome, or the ReLU mask."""
    return np.array([1.0 if c == "+" else 0.0 for c in signs])


def _difference_rows(final: AffineMap):
    """Rows l_i - l_j for i < j, plus the pair index for each row."""
    d = final.rows
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows = [(
        (final.matrix[i] - final.matrix[j]).tolist(),
        float(final.offset[i] - final.offset[j]),
    ) for i, j in pairs]
    return pairs, rows


def _argmax_from_signs(pairs, signs: str, d: int) -> Optional[int]:
    """Lowest-index argmax determined by the i<j difference sign pattern.

    Index i wins iff it strictly beats every lower index and weakly beats
    every higher one.  Exactly one index qualifies unless float rounding makes
    the difference rows only nearly dependent, leaving sliver chambers whose
    sign pattern is intransitive; those return None and the caller falls back
    to the chamber witness.
    """
    lookup = {p: s for p, s in zip(pairs, signs)}
    for i in range(d):
        if all(lookup[(j, i)] == "-" for j in range(i)) and \
           all(lookup[(i, j)] == "+" for j in range(i + 1, d)):
            return i
    return None


def _finalize_vertex(b: GraphBuilder, vid, final_map: AffineMap, region, witness,
                     chamber_cap) -> None:
    """Attach the argmax-of-final-layer structure below vertex `vid`."""
    pairs, rows = _difference_rows(final_map)
    chambers = feasibility.enumerate_chambers(rows, b.input_dim, base=region,
                                              cap=chamber_cap, base_witness=witness)
    routes = {}
    for signs, (w, _) in chambers.items():
        label = _argmax_from_signs(pairs, signs, final_map.rows)
        if label is None:
            # intransitive sliver: decide by the logits at the exact witness
            point = np.array([float(v) for v in w])
            label = int(np.argmax(final_map(point)))
        routes[signs] = b.target_for(label)
    b.branch(vid, AffineMap.from_rows(rows, b.input_dim), routes)


def _next_map(net: NetworkSpec, depth: int, signs: str, composed: AffineMap) -> AffineMap:
    """Layer `depth`'s map over the chamber `signs` of the layer before it.

    A ReLU layer sees the composed map masked by the chamber.  A step layer
    outputs the chamber's 0/1 outcome at every point, so its next map is the
    constant ``layer(_outcome(signs))``.
    """
    layer, outcome = net.layers[depth], _outcome(signs)
    if net.hidden_activation != STEP:
        return AffineMap(layer.matrix @ (outcome[:, None] * composed.matrix),
                         layer.matrix @ (outcome * composed.offset) + layer.offset)
    z = layer(outcome)
    if depth < net.depth - 1 and np.any(z == 0.0):
        warnings.warn(f"layer {depth + 1} image of outcome {signs!r} lies on a decision "
                      "hyperplane; boundary follows the + side",
                      DegenerateHyperplaneWarning, stacklevel=2)
    if depth == net.depth - 1 and np.count_nonzero(z == np.max(z)) > 1:
        warnings.warn(f"final layer ties on outcome {signs!r}; lowest index wins",
                      DegenerateHyperplaneWarning, stacklevel=2)
    return AffineMap(np.zeros((len(z), net.input_dim)), z)


def _walk_relu_regions(b: GraphBuilder, net: NetworkSpec, leaf, chamber_cap: int,
                       region_cap: int) -> None:
    """Subdivide input space into the linear regions of a ReLU or step network.

    The one region walker behind ``compile_relu_net``, ``compile_step_net``
    and ``fuzzy.from_relu_softmax_net``.  Starting at the source "s", each
    hidden layer's pre-activation map, composed over the region reached so
    far, guards a vertex whose children are its realizable sign chambers.  A
    layer whose region holds a single chamber adds no vertex: the walk keeps
    the same vertex, region and witness.  After a step layer the composed
    map is constant, so every deeper layer holds a single chamber.  At the
    last layer it calls ``leaf(vid, composed, region, witness)`` once per
    linear region, with the final layer's map restricted to that region.
    Regions are counted only at layers that branch, starting from 1 for the
    whole input space.
    """
    regions = 1

    def descend(vid, depth, composed: AffineMap, region, witness):
        nonlocal regions
        if depth == net.depth - 1:
            leaf(vid, composed, region, witness)
            return
        chambers = feasibility.enumerate_chambers(
            [composed.row(i) for i in range(composed.rows)], net.input_dim, base=region,
            cap=chamber_cap, base_witness=witness)
        if len(chambers) == 1:
            (signs,) = chambers
            descend(vid, depth + 1, _next_map(net, depth + 1, signs, composed), region, witness)
            return
        regions += len(chambers)
        if regions > region_cap:
            raise RegionExplosionError(f"more than {region_cap} linear regions")
        routes = {signs: b.add(f"{vid}|{signs}") for signs in chambers}
        b.branch(vid, composed, routes)
        for signs, (w, sub) in chambers.items():
            descend(routes[signs], depth + 1, _next_map(net, depth + 1, signs, composed), sub, w)

    descend("s", 0, net.layers[0], [], None)


def _argmax_graph(net: NetworkSpec, chamber_cap: int, region_cap: int) -> LogicalGraph:
    b = GraphBuilder(net.input_dim)

    def leaf(vid, composed, region, witness):
        _finalize_vertex(b, vid, composed, region, witness, chamber_cap)

    _walk_relu_regions(b, net, leaf, chamber_cap, region_cap)
    return b.graph()


def compile_step_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP) -> LogicalGraph:
    """Decision graph of a step network: route on the first layer's chambers,
    then follow the finite Boolean computation to the argmax target."""
    if net.hidden_activation != STEP or net.final_activation != INDEXMAX:
        raise UnsupportedActivationError("step compiler expects step/indexmax activations")
    return _argmax_graph(net, chamber_cap, REGION_CAP)


def compile_relu_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP,
                     region_cap: int = REGION_CAP) -> LogicalGraph:
    """Decision graph of a ReLU network via layerwise region subdivision."""
    if net.hidden_activation != RELU or net.final_activation != INDEXMAX:
        raise UnsupportedActivationError("relu compiler expects relu/indexmax activations")
    return _argmax_graph(net, chamber_cap, region_cap)


# -- serialization ---------------------------------------------------------

def model_to_dict(net: Union[NetworkSpec, SpecializedNet]) -> dict:
    if isinstance(net, SpecializedNet):
        data = model_to_dict(net.base)
        data["head"] = {"matrix": net.head.matrix.tolist(),
                        "offset": net.head.offset.tolist()}
        return data
    return {
        "input_dim": net.input_dim,
        "layers": [{"matrix": l.matrix.tolist(), "offset": l.offset.tolist()}
                   for l in net.layers],
        "hidden_activation": net.hidden_activation,
        "final_activation": net.final_activation,
    }


def model_from_dict(data: dict) -> Union[NetworkSpec, SpecializedNet]:
    layers = [AffineMap(np.asarray(l["matrix"], dtype=float),
                        np.asarray(l["offset"], dtype=float))
              for l in data["layers"]]
    net = NetworkSpec(layers, data["hidden_activation"], data["final_activation"])
    if net.input_dim != data["input_dim"]:
        raise DimensionMismatchError(
            f"declared input_dim {data['input_dim']} != first layer's {net.input_dim}")
    if "head" in data:
        head = AffineMap(np.asarray(data["head"]["matrix"], dtype=float),
                         np.asarray(data["head"]["offset"], dtype=float))
        return SpecializedNet(net, head)
    return net


def save_model(net, path: str):
    with open(path, "w") as fh:
        json.dump(model_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def random_network(rng: np.random.Generator, dims: Sequence[int],
                   hidden: str, final: str = INDEXMAX, scale: float = 1.0) -> NetworkSpec:
    """Gaussian-weight network with the given layer dimensions."""
    layers = [AffineMap(rng.normal(scale=scale, size=(dims[i + 1], dims[i])),
                        rng.normal(scale=scale, size=dims[i + 1]))
              for i in range(len(dims) - 1)]
    return NetworkSpec(layers, hidden, final)
