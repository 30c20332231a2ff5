"""Coupling graphs, duals, cuts, remaining-sets, pairings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsched import topology as topo


def all_cuts(n):
    for bits in range(2 ** n):
        s = frozenset(v for v in range(n) if bits >> v & 1)
        yield topo.Cut(s, frozenset(range(n)) - s)


def checkerboard_cut(rows, cols):
    s = frozenset(r * cols + c for r in range(rows) for c in range(cols) if (r + c) % 2 == 0)
    t = frozenset(range(rows * cols)) - s
    return topo.Cut(s, t)


# ----------------------------------------------------------- construction


def test_path_counts():
    g = topo.grid_topology(1, 2)
    assert g.num_qubits == 2
    assert len(g.edges) == 1
    assert len(g.faces) == 1


def test_3x4_counts():
    g = topo.grid_topology(3, 4)
    assert g.num_qubits == 12
    assert len(g.edges) == 17
    assert len(g.faces) == 7
    assert g.num_qubits - len(g.edges) + len(g.faces) == 2


def test_square_counts():
    g = topo.grid_topology(2, 2)
    assert (g.num_qubits, len(g.edges), len(g.faces)) == (4, 4, 2)


def test_euler_on_generated_topologies(six_qubit_planar, chamfered_grid):
    for g in [
        topo.grid_topology(2, 3),
        topo.grid_topology(4, 4),
        topo.line_topology(5),
        topo.ibmq_vigo(),
        six_qubit_planar,
        chamfered_grid,
    ]:
        assert g.num_qubits - len(g.edges) + len(g.faces) == 2


def test_grid_rejects_single_vertex():
    with pytest.raises(ValueError):
        topo.grid_topology(1, 1)


def test_validation_rejects_bad_graphs():
    with pytest.raises(ValueError):
        topo.TopologyGraph(2, ((0, 0),), ((0, 0),))
    with pytest.raises(ValueError):
        topo.TopologyGraph(3, ((0, 1),), ((0, 0),))  # vertex 2 unreachable
    with pytest.raises(ValueError):
        topo.TopologyGraph(2, ((0, 1),), ((0,),))  # edge covered once
    with pytest.raises(ValueError):
        topo.TopologyGraph(2, ((0, 1),), ((0,), (0,), (0, 0)))  # Euler fails


def test_edge_index(six_qubit_planar):
    g = six_qubit_planar
    assert g.edge_index(5, 1) == 0
    assert g.edge_index(2, 4) == 2
    with pytest.raises(KeyError):
        g.edge_index(0, 5)


def test_from_positions_matches_generator():
    g1 = topo.grid_topology(2, 2)
    pos = [(0, 0), (1, 0), (0, -1), (1, -1)]
    g2 = topo.from_positions(pos, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert set(g1.edges) == set(g2.edges)
    assert len(g2.faces) == 2


def test_snake_order():
    assert topo.grid_snake_order(3, 4) == [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11]
    g = topo.grid_topology(4, 4)
    order = topo.grid_snake_order(4, 4)
    edge_set = set(g.edges)
    for a, b in zip(order, order[1:]):
        assert (min(a, b), max(a, b)) in edge_set


# ------------------------------------------------------------------ duals


def test_square_dual_parallel_edges():
    d = topo.dual_graph(topo.grid_topology(2, 2))
    assert d.num_vertices == 2
    assert len(d.edges) == 4
    assert all(a != b for a, b in d.edges)
    assert d.degree(0) == 4 and d.degree(1) == 4


def test_bridge_dual_self_loop():
    d = topo.dual_graph(topo.grid_topology(1, 2))
    assert d.num_vertices == 1
    assert d.edges == ((0, 0),)
    assert d.degree(0) == 2
    assert d.odd_vertices() == frozenset()


def test_tree_dual_all_self_loops():
    d = topo.dual_graph(topo.ibmq_vigo())
    assert d.num_vertices == 1
    assert all(a == b for a, b in d.edges)
    assert d.degree(0) == 8


def test_dual_edge_bijection(chamfered_grid):
    for g in [topo.grid_topology(3, 3), chamfered_grid]:
        d = topo.dual_graph(g)
        assert len(d.edges) == len(g.edges)


def test_six_qubit_planar_faces(six_qubit_planar):
    g = six_qubit_planar
    face_sets = sorted(sorted(f) for f in g.faces)
    pentagon_inner = sorted([0, 1, 4, 5, 6])
    quad = sorted([0, 1, 2, 3])
    pentagon_outer = sorted([2, 3, 4, 5, 6])
    assert face_sets == sorted([pentagon_inner, quad, pentagon_outer])
    d = topo.dual_graph(g)
    assert sorted(d.degree(v) for v in range(3)) == [4, 5, 5]
    assert len(d.odd_vertices()) == 2


def test_six_qubit_dual_pairing_example(six_qubit_planar):
    g = six_qubit_planar
    d = topo.dual_graph(g)
    # duals of couplings (1,5) and (2,4): two edges sharing exactly the quad face
    e1, e2 = g.edge_index(1, 5), g.edge_index(2, 4)
    ends = set(d.edges[e1]) | set(d.edges[e2])
    shared = set(d.edges[e1]) & set(d.edges[e2])
    assert len(ends) == 3
    assert len(shared) == 1
    assert shared.isdisjoint(d.odd_vertices())  # shared face is the even one
    assert set(d.edges[e1]) != set(d.edges[e2])
    assert topo.is_odd_vertex_pairing(d, {e1, e2})
    assert not topo.is_odd_vertex_pairing(d, set())


# ------------------------------------------------- cuts and remaining-sets


def test_six_qubit_remaining_set(six_qubit_planar):
    g = six_qubit_planar
    cut = topo.Cut(frozenset({1, 3, 5}), frozenset({0, 2, 4}))
    expected = frozenset({g.edge_index(1, 5), g.edge_index(2, 4)})
    assert topo.remaining_set(g, cut) == expected


def test_remaining_set_extremes():
    g = topo.grid_topology(3, 4)
    everything = topo.Cut(frozenset(range(12)), frozenset())
    assert topo.remaining_set(g, everything) == frozenset(range(len(g.edges)))
    assert topo.remaining_set(g, checkerboard_cut(3, 4)) == frozenset()


def test_remaining_set_rejects_bad_cuts():
    g = topo.grid_topology(2, 2)
    with pytest.raises(ValueError):
        topo.remaining_set(g, topo.Cut(frozenset({0, 9}), frozenset({1, 2, 3})))
    with pytest.raises(ValueError):
        topo.remaining_set(g, topo.Cut(frozenset({0, 1}), frozenset({1, 2, 3})))
    with pytest.raises(ValueError):
        topo.remaining_set(g, topo.Cut(frozenset({0}), frozenset({1, 2})))


def test_pairing_duplicates_collapse(six_qubit_planar):
    d = topo.dual_graph(six_qubit_planar)
    e1 = six_qubit_planar.edge_index(1, 5)
    e2 = six_qubit_planar.edge_index(2, 4)
    assert topo.is_odd_vertex_pairing(d, [e1, e2, e1, e1]) == topo.is_odd_vertex_pairing(d, [e1, e2])


def test_cut_from_pairing_on_six_qubit(six_qubit_planar):
    g = six_qubit_planar
    p = frozenset({g.edge_index(1, 5), g.edge_index(2, 4)})
    cut = topo.cut_from_pairing(g, p)
    assert 0 in cut.partition_s
    assert cut.partition_s == frozenset({0, 2, 4})
    assert topo.remaining_set(g, cut) == p


def test_cut_from_pairing_all_edges():
    g = topo.grid_topology(2, 2)
    p = frozenset(range(len(g.edges)))
    cut = topo.cut_from_pairing(g, p)
    assert cut.partition_s == frozenset(range(4))
    assert cut.partition_t == frozenset()


def test_cut_from_pairing_invalid_raises(six_qubit_planar):
    with pytest.raises(ValueError):
        topo.cut_from_pairing(six_qubit_planar, frozenset())


def test_duality_roundtrip_exhaustive_2x3():
    g = topo.grid_topology(2, 3)
    d = topo.dual_graph(g)
    for cut in all_cuts(6):
        rem = topo.remaining_set(g, cut)
        assert topo.is_odd_vertex_pairing(d, rem)
    for bits in range(2 ** len(g.edges)):
        ids = frozenset(e for e in range(len(g.edges)) if bits >> e & 1)
        if topo.is_odd_vertex_pairing(d, ids):
            cut = topo.cut_from_pairing(g, ids)
            assert topo.remaining_set(g, cut) <= ids


def test_contraction_cut_is_exact_on_3x3():
    g = topo.grid_topology(3, 3)
    for cut in all_cuts(9):
        rem = topo.remaining_set(g, cut)
        again = topo.cut_from_contraction(g, rem)
        assert topo.remaining_set(g, again) == rem


def test_contraction_cut_raises_on_odd_triangle(six_qubit_planar):
    with pytest.raises(ValueError):
        topo.cut_from_contraction(six_qubit_planar, frozenset())


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 3),
    cols=st.integers(2, 4),
    bits=st.integers(0, 2 ** 12 - 1),
)
def test_duality_roundtrip_property(rows, cols, bits):
    g = topo.grid_topology(rows, cols)
    d = topo.dual_graph(g)
    n = g.num_qubits
    s = frozenset(v for v in range(n) if bits >> v & 1)
    cut = topo.Cut(s, frozenset(range(n)) - s)
    rem = topo.remaining_set(g, cut)
    assert topo.is_odd_vertex_pairing(d, rem)
    back = topo.cut_from_pairing(g, rem)
    assert topo.remaining_set(g, back) <= rem
    exact = topo.cut_from_contraction(g, rem)
    assert topo.remaining_set(g, exact) == rem


# -------------------------------------------------------------------- I/O


def _load_with_lambda_hz(g, lam_obj):
    """g read back from a file that also holds an older "lambda_hz" key; the
    key is ignored, since ZZ strengths come from the sampled device."""
    return topo.topology_from_json({**topo.topology_to_json(g), "lambda_hz": lam_obj})


def test_json_roundtrip_scalar(tmp_path, chamfered_grid, six_qubit_planar):
    path = tmp_path / "t.json"
    for g in (topo.line_topology(2), topo.ibmq_vigo(), topo.grid_topology(4, 5),
              chamfered_grid, six_qubit_planar, topo.grid_topology(3, 3)):
        topo.save_topology(path, g)
        assert topo.load_topology(path) == g
    assert sorted(topo.topology_to_json(g)) == ["edges", "faces", "vertices"]
    assert _load_with_lambda_hz(g, 150e3) == g


@pytest.mark.parametrize("field,value", [
    ("vertices", 3.7), ("vertices", "3"), ("vertices", 3.0),
    ("edges", [[0, 1.0], [1, 2]]), ("edges", [[0, 1], ["1", 2]]),
    ("faces", [[0, 1.0, 0, 1]]),
])
def test_json_rejects_non_integral_ids(field, value):
    obj = topo.topology_to_json(topo.line_topology(3))
    assert topo.topology_from_json(obj) == topo.line_topology(3)
    with pytest.raises(TypeError):
        topo.topology_from_json({**obj, field: value})


def test_json_roundtrip_per_edge():
    g = topo.grid_topology(2, 2)
    lam_obj = {f"{v}-{u}": 90e3 + e for e, (u, v) in enumerate(g.edges)}
    assert _load_with_lambda_hz(g, lam_obj) == g


def test_json_missing_lambda_key():
    # a per-edge dict without every coupling raised KeyError before
    g = topo.line_topology(2)
    assert _load_with_lambda_hz(g, {"5-6": 1.0}) == g
