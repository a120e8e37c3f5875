"""Layered affine networks and their compilation to decision graphs.

Two compilers are provided.  Step networks route on the sign pattern of the
first layer: once the first layer's Boolean outcome is fixed, every deeper
layer is a finite computation, so each first-layer chamber continues through a
chain of single-arrow vertices to its argmax target.  ReLU networks subdivide
input space layer by layer: every vertex carries the affine map that computes
its layer's pre-activation restricted to the region reached so far, children
are the realizable sign chambers, and the last layer is guarded by pairwise
coordinate differences with each chamber routed to the argmax target.

The ReLU region walker is shared with ``fuzzy.from_relu_softmax_net``, which
puts a softmax leaf where the compiler puts the argmax guard.  A layer whose
region holds a single sign chamber adds no vertex, so both graphs branch only
where a layer's hyperplanes actually cut the region.

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
    GuardExplosionError,
    RegionExplosionError,
    UnsupportedActivationError,
)
from .graph import AffineMap, Arrow, LogicalGraph

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

def _affine_rows(m: AffineMap):
    return [(m.matrix[i].tolist(), float(m.offset[i])) for i in range(m.rows)]


def _outcome(signs: str) -> np.ndarray:
    """0/1 vector of a sign pattern: the step outcome, or the ReLU mask."""
    return np.array([1.0 if c == "+" else 0.0 for c in signs])


def _compose_after_mask(next_layer: AffineMap, mask: np.ndarray, current: AffineMap) -> AffineMap:
    """next_layer applied to mask * current, all affine in the input point."""
    masked_matrix = mask[:, None] * current.matrix
    masked_offset = mask * current.offset
    return AffineMap(next_layer.matrix @ masked_matrix,
                     next_layer.matrix @ masked_offset + next_layer.offset)


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


class _Builder:
    """Accumulates a decision graph whose source vertex is "s"."""

    def __init__(self, input_dim):
        self.input_dim = input_dim
        self.vertices = {"s": "source"}
        self.arrows = []
        self.guards = {}
        self.routing = {}
        self.target_labels = {}
        self._target_vertex = {}

    def target_for(self, label) -> str:
        v = self._target_vertex.get(label)
        if v is None:
            v = f"t{label}"
            self._target_vertex[label] = v
            self.vertices[v] = "target"
            self.target_labels[v] = label
        return v

    def add(self, vid, kind="internal"):
        self.vertices[vid] = kind
        return vid

    def arrow(self, src, dst, aid=None) -> str:
        aid = aid or f"e{len(self.arrows)}"
        self.arrows.append(Arrow(aid, src, dst))
        return aid

    def branch(self, vid, guard: AffineMap, routes):
        """Guard a vertex with per-sign child vertices; collapses to one plain
        arrow when every realizable chamber routes to the same child."""
        dsts = set(routes.values())
        if len(dsts) == 1:
            self.arrow(vid, dsts.pop())
            return
        self.guards[vid] = guard
        table = {}
        arrow_of_dst = {}
        for sign, dst in routes.items():
            aid = arrow_of_dst.get(dst)
            if aid is None:
                aid = arrow_of_dst[dst] = self.arrow(vid, dst)
            table[sign] = aid
        self.routing[vid] = table

    def graph(self) -> LogicalGraph:
        return LogicalGraph(self.input_dim, self.vertices, self.arrows,
                            self.guards, self.routing, self.target_labels)


def _finalize_vertex(b: _Builder, vid, final_map: AffineMap, region, witness,
                     chamber_cap) -> None:
    """Attach the argmax-of-final-layer structure below vertex `vid`."""
    d = final_map.rows
    if d == 1:
        b.arrow(vid, b.target_for(0))
        return
    pairs, rows = _difference_rows(final_map)
    chambers = feasibility.enumerate_chambers(rows, b.input_dim, base=region,
                                              cap=chamber_cap, base_witness=witness)
    routes = {}
    for signs, (w, _) in chambers.items():
        label = _argmax_from_signs(pairs, signs, d)
        if label is None:
            # intransitive sliver: decide by the logits at the exact witness
            point = np.array([float(v) for v in w])
            label = int(np.argmax(final_map(point)))
        routes[signs] = b.target_for(label)
    guard = AffineMap(np.array([r for r, _ in rows]), np.array([o for _, o in rows]))
    b.branch(vid, guard, routes)


def compile_step_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP) -> LogicalGraph:
    """Decision graph of a step network: route on the first layer's chambers,
    then follow the finite Boolean computation to the argmax target."""
    if net.hidden_activation != STEP or net.final_activation != INDEXMAX:
        raise UnsupportedActivationError("step compiler expects step/indexmax activations")
    b = _Builder(net.input_dim)
    if net.depth == 1:
        _finalize_vertex(b, "s", net.layers[0], [], None, chamber_cap)
        return b.graph()

    first = net.layers[0]
    chambers = feasibility.enumerate_chambers(_affine_rows(first), net.input_dim,
                                              cap=chamber_cap)
    routes = {}
    for signs in chambers:
        vid = b.add(f"h1|{signs}")
        routes[signs] = vid
        a = _outcome(signs)
        # deeper layers see only the Boolean outcome, so walk them out now
        prev = vid
        for depth, layer in enumerate(net.layers[1:-1], start=2):
            z = layer(a)
            if np.any(z == 0.0):
                warnings.warn(
                    f"layer {depth} image of outcome {signs!r} lies on a decision "
                    "hyperplane; boundary follows the + side",
                    DegenerateHyperplaneWarning, stacklevel=2)
            a = _step(z)
            nxt = b.add(f"h{depth}|{signs}")
            b.arrow(prev, nxt)
            prev = nxt
        z = net.layers[-1](a)
        top = np.max(z)
        if np.count_nonzero(z == top) > 1:
            warnings.warn(
                f"final layer ties on outcome {signs!r}; lowest index wins",
                DegenerateHyperplaneWarning, stacklevel=2)
        b.arrow(prev, b.target_for(int(np.argmax(z))))
    b.branch("s", first, routes)
    return b.graph()


def _walk_relu_regions(b: _Builder, net: NetworkSpec, leaf, chamber_cap: int,
                       region_cap: int) -> None:
    """Subdivide input space into the linear regions of a ReLU network.

    The one region walker behind both ``compile_relu_net`` and
    ``fuzzy.from_relu_softmax_net``.  Starting at the source "s", each hidden
    layer's pre-activation map, composed over the region reached so far,
    guards a vertex whose children are its realizable sign chambers.  A layer
    whose region holds a single chamber adds no vertex: the walk keeps the
    same vertex, region and witness.  At the last layer it calls
    ``leaf(vid, composed, region, witness)`` once per linear region, with the
    final layer's map restricted to that region.  Regions are counted only at
    layers that branch, starting from 1 for the whole input space.
    """
    regions = 1

    def descend(vid, depth, composed: AffineMap, region, witness):
        nonlocal regions
        if depth == net.depth - 1:
            leaf(vid, composed, region, witness)
            return
        chambers = feasibility.enumerate_chambers(
            _affine_rows(composed), net.input_dim, base=region,
            cap=chamber_cap, base_witness=witness)
        layer = net.layers[depth + 1]
        if len(chambers) == 1:
            (signs,) = chambers
            descend(vid, depth + 1, _compose_after_mask(layer, _outcome(signs), composed),
                    region, witness)
            return
        regions += len(chambers)
        if regions > region_cap:
            raise RegionExplosionError(f"more than {region_cap} linear regions")
        routes = {signs: b.add(f"{vid}|{signs}") for signs in chambers}
        b.branch(vid, composed, routes)
        for signs, (w, sub) in chambers.items():
            descend(routes[signs], depth + 1,
                    _compose_after_mask(layer, _outcome(signs), composed), sub, w)

    descend("s", 0, net.layers[0], [], None)


def compile_relu_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP,
                     region_cap: int = REGION_CAP) -> LogicalGraph:
    """Decision graph of a ReLU network via layerwise region subdivision."""
    if net.hidden_activation != RELU or net.final_activation != INDEXMAX:
        raise UnsupportedActivationError("relu compiler expects relu/indexmax activations")
    b = _Builder(net.input_dim)

    def leaf(vid, composed, region, witness):
        _finalize_vertex(b, vid, composed, region, witness, chamber_cap)

    _walk_relu_regions(b, net, leaf, chamber_cap, region_cap)
    return b.graph()


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
