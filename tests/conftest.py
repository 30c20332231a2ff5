import numpy as np
import pytest
from hypothesis import settings

from zzsched import circuit
from zzsched import topology as topo

# property tests draw the same examples on every run, so a test run repeats exactly
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def six_qubit_planar():
    """Pentagon boundary 0-1-4-2-3 with an interior chord path 1-5-2.

    Non-bipartite (odd faces), small enough to reason about by hand.
    Edge ids: 0:(1,5) 1:(2,5) 2:(2,4) 3:(1,4) 4:(2,3) 5:(0,3) 6:(0,1).
    """
    positions = [(-1, 1), (1, 2), (1, -2), (-1, -1), (2, 0), (0.8, 0)]
    edges = [(1, 5), (2, 5), (2, 4), (1, 4), (2, 3), (0, 3), (0, 1)]
    return topo.from_positions(positions, edges)


@pytest.fixture(scope="session")
def chamfered_grid():
    """3x3 grid with the bottom-right vertex dropped and two diagonal braces.

    Eight qubits, twelve couplings, three triangular faces, so the dual has
    four odd-degree vertices (the three triangles and the outer face).
    Edge ids: 0:(0,1) 1:(1,2) 2:(3,4) 3:(4,5) 4:(6,7) 5:(0,3) 6:(1,4)
    7:(2,5) 8:(3,6) 9:(4,7) 10:(5,7) 11:(0,4).
    """
    positions = [(0, 2), (1, 2), (2, 2), (0, 1), (1, 1), (2, 1), (0, 0), (1, 0)]
    edges = [
        (0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (0, 3),
        (1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (0, 4),
    ]
    return topo.from_positions(positions, edges)


def _brickwork(rows, cols, depth, seed):
    """Random h/t/s/x on every qubit, then CZ on one of four edge classes
    (even/odd horizontal, even/odd vertical), rotating each layer.

    Same circuits as perfbench's brickwork tasks, so the tests pin the
    traffic the schedule benchmark times without importing perfbench.
    """
    g = topo.grid_topology(rows, cols)
    classes = [[], [], [], []]
    for u, v in g.edges:
        (ru, cu), (rv, _) = divmod(u, cols), divmod(v, cols)
        classes[cu % 2 if ru == rv else 2 + ru % 2].append((u, v))
    rng = np.random.default_rng(seed)
    singles = ("h", "t", "s", "x")
    gates = []
    for layer in range(depth):
        picks = rng.integers(0, len(singles), size=g.num_qubits)
        gates += [circuit.Gate(singles[p], (q,)) for q, p in enumerate(picks)]
        gates += [circuit.Gate("cz", e) for e in classes[layer % 4]]
    return g, circuit.Circuit(g.num_qubits, tuple(gates))


@pytest.fixture(scope="session")
def brickwork():
    """brickwork(rows, cols, depth, seed) -> (grid topology, circuit)."""
    return _brickwork
