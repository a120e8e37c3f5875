"""Every graph of the acceptance compile sweeps passes its own validator.

The sweeps are rebuilt here with the same seeds and the same draw sequence as
`_compile_sweep` in test_acceptance.py, including the sample points that sweep
draws and this test discards, so the nets are the very ones the acceptance
gates compile.  A freshly compiled graph is validated and converted from the
chambers its guards recorded when they were split; a copy saved and loaded
again carries no record and walks, and both must give the same answers.
Every region of a compiled relu graph, of the relu sweep and of four deeper
nets, has an interior, where the network evaluated in exact arithmetic gives
the region's label.  Every compiled graph, and its round trip through
semilinear pieces, is reduced: no vertex below the source reaches only one
target.  The deeper nets compile to the same chambers and graphs
when no chamber is refuted by multipliers, so elimination alone decides.
"""

import pytest
from numpy.random import default_rng

from logifold import feasibility
from logifold.feasibility import Constraint, find_witness
from logifold.graph import (
    graph_to_dict,
    load_graph,
    require_valid,
    save_graph,
    validate_graph,
    walk_regions,
)
from logifold.networks import (
    INDEXMAX,
    RELU,
    STEP,
    compile_relu_net,
    compile_step_net,
    forward_exact,
    random_network,
)
from logifold.semilinear import from_llgraph, semilinear_to_dict, to_llgraph

from conftest import narrow_vertices

SWEEP_NETS = 50
SWEEP_POINTS = 10_000


def _sweep_nets(kind: str, seed: int):
    rng = default_rng(seed)
    for _ in range(SWEEP_NETS):
        n = int(rng.integers(1, 4))
        hidden = [int(w) for w in rng.integers(2, 5, size=int(rng.integers(1, 4)))]
        dims = [n] + hidden + [int(rng.integers(2, 5))]
        yield random_network(rng, dims, kind, INDEXMAX)
        rng.normal(scale=2.0, size=(SWEEP_POINTS, n))


@pytest.mark.parametrize("kind, seed", [(STEP, 20240901), (RELU, 20240902)])
def test_every_sweep_graph_is_valid_and_realizability_checked(kind, seed):
    compile_net = compile_step_net if kind == STEP else compile_relu_net
    unchecked = []
    for i, net in enumerate(_sweep_nets(kind, seed)):
        if not require_valid(compile_net(net)).realizability_checked:
            unchecked.append(i)
    assert not unchecked, f"{kind} sweep nets {unchecked} skipped the realizability walk"


@pytest.mark.parametrize("kind, seed", [(STEP, 20240901), (RELU, 20240902)])
def test_every_sweep_graph_and_its_round_trip_is_reduced(kind, seed):
    # each vertex between the source and the targets reaches two or more targets
    compile_net = compile_step_net if kind == STEP else compile_relu_net
    for i, net in enumerate(_sweep_nets(kind, seed)):
        g = compile_net(net)
        assert not narrow_vertices(g), f"{kind} sweep net {i}"
        assert not narrow_vertices(to_llgraph(from_llgraph(g))), f"{kind} sweep net {i}"


def test_the_constant_deep_net_compiles_to_one_arrow():
    # every region of seed 4's [2, 6, 6, 6, 3] net has label 0
    g = compile_relu_net(random_network(default_rng(4), [2, 6, 6, 6, 3], RELU))
    assert not g.guards and g.vertices == {"s": "source", "t0": "target"}
    assert g.target_labels == {"t0": 0} and len(g.arrows) == 1


def _answers(g):
    """The validation report, errors as text, and the pieces' document."""
    rep = validate_graph(g)
    return ([f"{type(e).__name__}: {e}" for e in rep.errors], rep.topo_order,
            rep.realizability_checked, rep.skipped_because,
            semilinear_to_dict(from_llgraph(g)))


@pytest.mark.parametrize("kind, seed", [(STEP, 20240901), (RELU, 20240902)])
def test_a_sweep_graph_answers_as_its_saved_copy_does(kind, seed, tmp_path):
    compile_net = compile_step_net if kind == STEP else compile_relu_net
    path = tmp_path / "g.json"
    for i, net in enumerate(_sweep_nets(kind, seed)):
        g = compile_net(net)
        save_graph(g, path)
        assert _answers(g) == _answers(load_graph(path)), f"{kind} sweep net {i}"


def _interior(g, steps):
    """The rows of a region's walk, each made strict: its interior."""
    system = []
    for v, signs in steps:
        for c, s in zip(g.guards[v].constraints, signs):
            system.append(Constraint(c.coeffs, c.offset, True) if s == "+" else
                          Constraint(tuple(-a for a in c.coeffs), -c.offset, True))
    return system


def _audit(net):
    """(regions, regions without an interior, mislabelled regions) of the
    net's compiled graph, each region judged at a witness of its interior."""
    g = compile_relu_net(net)
    regions = flat = wrong = 0
    for target, steps in walk_regions(g):
        regions += 1
        w = find_witness(_interior(g, steps), net.input_dim)
        if w is None:
            flat += 1
        elif forward_exact(net, w) != g.target_labels[target]:
            wrong += 1
    return regions, flat, wrong


def test_every_relu_sweep_region_has_an_interior_the_exact_network_labels_alike():
    regions, flat, wrong = 0, [], []
    for i, net in enumerate(_sweep_nets(RELU, 20240902)):
        r, f, w = _audit(net)
        regions += r
        flat += [i] * f
        wrong += [i] * w
    assert not flat and not wrong, (
        f"of {regions} regions, {len(flat)} have no interior (nets {sorted(set(flat))}) and "
        f"{len(wrong)} are mislabelled (nets {sorted(set(wrong))})")


DEEP_NETS = [(1, [3, 4, 4, 4, 4], 161), (2, [3, 4, 4, 4, 4], 209),
             (3, [3, 5, 5, 5, 3], 546), (4, [2, 6, 6, 6, 3], 1)]


@pytest.mark.parametrize("seed, dims, regions", DEEP_NETS)
def test_every_deep_net_region_has_an_interior_the_exact_network_labels_alike(seed, dims,
                                                                              regions):
    net = random_network(default_rng(seed), dims, RELU)
    assert _audit(net) == (regions, 0, 0)
    assert not narrow_vertices(compile_relu_net(net))


def _compile_with_splits(seed, dims, monkeypatch):
    """graph_to_dict of the deep net's compile, and the signs of every
    chamber split it made, in order."""
    splits, real = [], feasibility.enumerate_chambers

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        splits.append(list(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(feasibility, "enumerate_chambers", recording)
        g = compile_relu_net(random_network(default_rng(seed), dims, RELU))
    return graph_to_dict(g), splits


@pytest.mark.parametrize("seed, dims, regions", DEEP_NETS)
def test_a_deep_net_compiles_alike_when_multipliers_refute_nothing(seed, dims, regions,
                                                                   monkeypatch):
    want = _compile_with_splits(seed, dims, monkeypatch)
    monkeypatch.setattr(feasibility, "_refutes", lambda rows, y: False)
    assert _compile_with_splits(seed, dims, monkeypatch) == want
