"""Layered affine networks and their compilation to decision graphs.

Both compilers share one region walker.  It subdivides input space layer by
layer: every vertex carries the affine map that computes its layer's
pre-activation restricted to the region reached so far, and children are the
realizable sign chambers.  Each linear region then runs an argmax
tournament of one-row duels on its final-layer map, ties going low.  The
walk and the tournament are each an `expand` for the one region driver,
`graph.GraphBuilder.regions`, so neither recurses.  After a step
layer the composed map is constant (the next layer applied to the chamber's
Boolean outcome), so a step network branches only at its first layer.

The walker is also behind ``fuzzy.from_relu_softmax_net``, which puts a
softmax leaf, an arrow carrying the region's map, where the compiler puts
the argmax tournament.  Each relu map the walk composes is kept on the map
it came from, with that map's chambers, so the import of a network whose
layers the compiler has walked (or the compile after an import) reads the
same maps and chambers instead of composing and splitting again.

Both compilers keep only regions whose constraint systems are exactly
feasible, and the argmax convention everywhere is lowest index wins ties.
The walker composes in exact arithmetic: each layer's floats are read
exactly once, and every composed map, relu or step, and every duel row is
an integer row over a power-of-two denominator.  So its regions are the
network's own regions over the rationals, with no float slivers, and
`forward_exact` labels every point of each region's interior as the graph
routes it.  A guard keeps those rows as its `constraints` and rounds them to
floats only when it is evaluated at a float point or written to a file.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from operator import mul, sub
from typing import List, Optional, Sequence, Union

import numpy as np

from . import feasibility
from .errors import (
    DegenerateHyperplaneWarning,
    DimensionMismatchError,
    NonFinitePointError,
    UnsupportedActivationError,
)
from .graph import AffineMap, GraphBuilder, LogicalGraph, _require_finite, read_json, write_json

STEP = "step"
RELU = "relu"
SIGMOID = "sigmoid"
INDEXMAX = "indexmax"
SOFTMAX = "softmax"

CHAMBER_CAP = 2**16
REGION_CAP = 10**5

# The one table of network kinds: each operation and the kinds it takes.  A
# network's `kind` is "hidden/head"; a SpecializedNet's is "specialized "
# before its base's, so only the rows that list one take it.
KINDS = {
    "classical forward pass": {"step/indexmax", "relu/indexmax"},
    "step compiler": {"step/indexmax"},
    "relu compiler": {"relu/indexmax"},
    "smooth forward pass": {"sigmoid/softmax", "relu/softmax",
                            "specialized sigmoid/softmax", "specialized relu/softmax"},
    "sigmoid importer": {"sigmoid/softmax"},
    "relu importer": {"relu/softmax"},
    "specialize": {"sigmoid/softmax", "relu/softmax"},
    "training": {"sigmoid/softmax", "specialized sigmoid/softmax", "specialized relu/softmax"},
}


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

    @cached_property
    def kind(self) -> str:
        """Row key in KINDS, such as "relu/indexmax"."""
        return f"{self.hidden_activation}/{self.final_activation}"


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

    @cached_property
    def kind(self) -> str:
        return "specialized " + self.base.kind


def pick(net, choices: dict):
    """The value of the first operation in `choices` ({operation: value}) whose
    row of KINDS holds `net`'s kind; UnsupportedActivationError if none does."""
    for op, value in choices.items():
        if net.kind in KINDS[op]:
            return value
    takes = sorted(set().union(*(KINDS[op] for op in choices)))
    raise UnsupportedActivationError(
        f"{' or '.join(choices)} takes {', '.join(takes)} networks, not a {net.kind} network")


def require(net, op: str) -> None:
    """Raise UnsupportedActivationError unless operation `op` takes `net`'s kind."""
    if net.kind not in KINDS[op]:
        pick(net, {op: None})


def _step(z):
    return (z >= 0).astype(float)


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, else exp(z): never overflows
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _softmax(z, axis=-1):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


_HIDDEN = {STEP: _step, RELU: lambda z: np.maximum(z, 0.0), SIGMOID: _sigmoid}


def forward_classical(net: NetworkSpec, x) -> int:
    """Classical forward pass; returns the argmax label index (ties go low)."""
    return int(np.argmax(forward_logits(net, x)))


def forward_logits(net: NetworkSpec, x) -> np.ndarray:
    """Final-layer values of a step or relu network at one point: its row of
    `forward_logits_batch`, the same floats bit for bit."""
    require(net, "classical forward pass")
    a = np.asarray(x, dtype=float)
    if a.shape != (net.input_dim,):
        raise DimensionMismatchError(
            f"point has shape {a.shape}, network expects ({net.input_dim},)")
    return _final_rows(net, a[None, :])[0]


def _rows_through(A: np.ndarray, f: AffineMap) -> np.ndarray:
    """f at every row of A, each row's bits the same alone or in any batch: einsum
    makes no BLAS call, whose kernel, and so rounding, follows the batch shape."""
    return np.einsum("ij,kj->ik", np.ascontiguousarray(A), f.matrix) + f.offset


def _final_rows(net: NetworkSpec, X) -> np.ndarray:
    """Final-layer values at every row of X, each row through `_rows_through`:
    the one float forward loop.  A NaN or infinite coordinate raises
    NonFinitePointError."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"points have shape {A.shape}, network expects (m, {net.input_dim})")
    _require_finite(A)
    act = _HIDDEN[net.hidden_activation]
    for layer in net.layers[:-1]:
        A = act(_rows_through(A, layer))
    return _rows_through(A, net.layers[-1])


def forward_logits_batch(net: NetworkSpec, X) -> np.ndarray:
    """forward_logits at every row of X; row r does not depend on the batch."""
    require(net, "classical forward pass")
    return _final_rows(net, X)


def forward_classical_batch(net: NetworkSpec, X) -> np.ndarray:
    return np.argmax(forward_logits_batch(net, X), axis=1)


def forward_smooth(net: Union[NetworkSpec, SpecializedNet], x) -> np.ndarray:
    """Sigmoid- or relu-hidden, softmax-final forward pass; returns the output vector."""
    x = np.asarray(x, dtype=float)
    return forward_smooth_batch(net, x[None, :])[0]


def forward_smooth_batch(net: Union[NetworkSpec, SpecializedNet], X,
                         bodies: Optional[dict] = None) -> np.ndarray:
    """forward_smooth at every row of X; row r does not depend on the batch.

    The body is the network, or a specialized network's base, through its
    softmax.  `bodies`, a dict the caller keeps, holds each body run at an
    array object X, keyed by both objects, and a later call with the same
    body and X reads its rows there: the same floats."""
    require(net, "smooth forward pass")
    base = net.base if isinstance(net, SpecializedNet) else net
    if bodies is None:
        bodies = {}
    key = (id(base), id(X))
    if key not in bodies:  # the entry keeps base and X, so no other object takes their ids
        bodies[key] = (base, X, _softmax(_final_rows(base, X), axis=1))
    body = bodies[key][2]
    if base is net:
        return body
    return _softmax(_rows_through(body, net.head), axis=1)


def forward_exact(net: NetworkSpec, x) -> int:
    """`forward_classical` in exact rational arithmetic: the float weights
    and the coordinates of x (ints, floats or rationals) are read exactly by
    `feasibility.read_exact`, and nothing is rounded.  Ties go to the lowest
    index."""
    require(net, "classical forward pass")
    if len(x) != net.input_dim:
        raise DimensionMismatchError(
            f"point has {len(x)} coordinates, network expects {net.input_dim}")
    (a,), d = feasibility.read_exact([x])  # the point is a / d
    for depth, layer in enumerate(net.layers):
        rows, den = layer.exact
        z = [sum(map(mul, r, a)) + r[-1] * d for r in rows]  # den * d times the values
        if depth == net.depth - 1:
            return z.index(max(z))
        if net.hidden_activation == STEP:
            a, d = [1 if v >= 0 else 0 for v in z], 1
        else:
            a, d = [max(v, 0) for v in z], den * d


# -- compilation helpers ---------------------------------------------------

def _tournament(b: GraphBuilder, at, final: AffineMap, region, witness) -> None:
    """Route the builder's slot `at` to the argmax of the region's final map.

    The best index so far meets each later index hi in a one-row duel
    l_best - l_hi, the difference of two of the map's exact rows, whose
    ``+`` side (>= 0) keeps best, so the lowest index wins ties.  The duels
    are an `expand` over the state (best, hi) for `GraphBuilder.regions`.
    """
    rows, den = final.exact

    def expand(at, state, region, witness):
        best, hi = state
        if hi == final.rows:
            return b.leaf(at, best)
        guard = AffineMap.from_exact((tuple(map(sub, rows[best], rows[hi])),), den, final.dim)
        return guard, lambda sign: (best if sign == "+" else hi, hi + 1)

    b.regions(expand, (0, 1), at, region, witness)


def _next_map(net: NetworkSpec, depth: int, signs: str, composed: AffineMap) -> AffineMap:
    """Layer `depth`'s map over the chamber `signs` of the layer before it,
    composed on exact rows: the layer's floats read exactly, over a power of
    two, as is every composed map.

    A ReLU layer sees the composed map masked by the chamber, W diag(mask)
    R + b, over the product of the two denominators.  It is kept on
    `composed`, keyed by the layer object itself (not its id, which a freed
    layer could pass on) and `signs`, and a later call returns the kept map.
    A step layer outputs the chamber's 0/1 outcome at every point, so its
    next map is the constant ``layer(outcome)``, whose ties and zeros are
    exact; it is built afresh each time, so every compile warns again.
    """
    nxt, n = net.layers[depth], net.input_dim
    (layer, lden) = nxt.exact
    if net.hidden_activation != STEP:
        if composed._successors is None:
            composed._successors = {}
        f = composed._successors.get((nxt, signs))
        if f is not None:
            return f
        rows, den = composed.exact
        off = (0,) * (n + 1)
        # the masked map's columns; a layer row's last entry, its offset, meets none
        cols = list(zip(*[r if c == "+" else off for r, c in zip(rows, signs)]))
        out = []
        for w in layer:
            r = [sum(map(mul, w, c)) for c in cols]
            r[-1] += w[-1] * den
            out.append(tuple(r))
        f = composed._successors[nxt, signs] = AffineMap.from_exact(tuple(out), lden * den, n)
        return f
    # lden times layer(outcome)
    z = [sum(v for v, c in zip(w, signs) if c == "+") + w[-1] for w in layer]
    if depth < net.depth - 1 and 0 in z:
        warnings.warn(f"layer {depth + 1} image of outcome {signs!r} lies on a decision "
                      "hyperplane; boundary follows the + side",
                      DegenerateHyperplaneWarning, stacklevel=2)
    if depth == net.depth - 1 and z.count(max(z)) > 1:
        warnings.warn(f"final layer ties on outcome {signs!r}; lowest index wins",
                      DegenerateHyperplaneWarning, stacklevel=2)
    return AffineMap.from_exact(tuple((0,) * n + (v,) for v in z), lden, n)


def _walk_relu_regions(b: GraphBuilder, net: NetworkSpec, leaf, chamber_cap: int,
                       region_cap: int) -> None:
    """Subdivide input space into the linear regions of a ReLU or step network.

    The one region walker behind ``compile_relu_net``, ``compile_step_net``
    and ``fuzzy.from_relu_softmax_net``: an `expand` for
    `GraphBuilder.regions` over the state (depth, composed) from the
    builder's source slot.  Each hidden layer's pre-activation map, composed
    over the region reached so far, splits the region, and the walk goes on
    in each chamber.  At the last layer it calls
    ``leaf(at, composed, region, witness)`` once per linear region, with its
    slot and the final layer's map.  Regions are counted only at layers
    that branch, starting from 1 for the whole input space.
    """
    def expand(at, state, region, witness):
        depth, composed = state
        if depth == net.depth - 1:
            return leaf(at, composed, region, witness)
        return composed, lambda signs: (depth + 1, _next_map(net, depth + 1, signs, composed))

    b.regions(expand, (0, net.layers[0]), chamber_cap=chamber_cap, region_cap=region_cap)


def _argmax_graph(net: NetworkSpec, chamber_cap: int, region_cap: int) -> LogicalGraph:
    b = GraphBuilder(net.input_dim)
    _walk_relu_regions(b, net, partial(_tournament, b), chamber_cap, region_cap)
    return b.graph()


def compile_step_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP) -> LogicalGraph:
    """Decision graph of a step network: route on the first layer's chambers,
    then follow the finite Boolean computation to the argmax target."""
    require(net, "step compiler")
    return _argmax_graph(net, chamber_cap, REGION_CAP)


def compile_relu_net(net: NetworkSpec, chamber_cap: int = CHAMBER_CAP,
                     region_cap: int = REGION_CAP) -> LogicalGraph:
    """Decision graph of a ReLU network via layerwise region subdivision; each
    region reaches its argmax by a tournament of one-row duels, ties going low."""
    require(net, "relu compiler")
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


def _finite_map(entry: dict, name: str) -> AffineMap:
    f = AffineMap(np.asarray(entry["matrix"], dtype=float),
                  np.asarray(entry["offset"], dtype=float))
    if not (np.isfinite(f.matrix).all() and np.isfinite(f.offset).all()):
        raise NonFinitePointError(f"{name} has a NaN or infinite weight")
    return f


def model_from_dict(data: dict) -> Union[NetworkSpec, SpecializedNet]:
    """The model `model_to_dict` wrote; a NaN or infinite weight raises
    NonFinitePointError."""
    layers = [_finite_map(l, f"layer {i}") for i, l in enumerate(data["layers"])]
    net = NetworkSpec(layers, data["hidden_activation"], data["final_activation"])
    if net.input_dim != data["input_dim"]:
        raise DimensionMismatchError(
            f"declared input_dim {data['input_dim']} != first layer's {net.input_dim}")
    if "head" in data:
        return SpecializedNet(net, _finite_map(data["head"], "head"))
    return net


def share_base(net, bases: dict):
    """`net` with its base (itself, or a specialized network's base) replaced
    by the equal network already in `bases`, keyed by kind and weight bits,
    or entered there: models read from several files share one body."""
    base = net.base if isinstance(net, SpecializedNet) else net
    key = (base.kind, tuple((l.matrix.shape, l.matrix.tobytes(), l.offset.tobytes())
                            for l in base.layers))
    shared = bases.setdefault(key, base)
    if shared is base:
        return net
    return SpecializedNet(shared, net.head) if isinstance(net, SpecializedNet) else shared


def save_model(net, path: str):
    write_json(model_to_dict(net), path)


def load_model(path: str):
    return model_from_dict(read_json(path))


def random_network(rng: np.random.Generator, dims: Sequence[int],
                   hidden: str, final: str = INDEXMAX, scale: float = 1.0) -> NetworkSpec:
    """Gaussian-weight network with the given layer dimensions."""
    layers = [AffineMap(rng.normal(scale=scale, size=(dims[i + 1], dims[i])),
                        rng.normal(scale=scale, size=dims[i + 1]))
              for i in range(len(dims) - 1)]
    return NetworkSpec(layers, hidden, final)
