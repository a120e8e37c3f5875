"""Every graph of the acceptance compile sweeps passes its own validator.

The sweeps are rebuilt here with the same seeds and the same draw sequence as
`_compile_sweep` in test_acceptance.py, including the sample points that sweep
draws and this test discards, so the nets are the very ones the acceptance
gates compile.
"""

import pytest
from numpy.random import default_rng

from logifold.graph import require_valid
from logifold.networks import (
    INDEXMAX,
    RELU,
    STEP,
    compile_relu_net,
    compile_step_net,
    random_network,
)

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
