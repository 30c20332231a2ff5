"""Cut metrics, the exhaustive oracle, and the greedy pairing solver."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsched import suppression as supp
from zzsched import topology as topo


def cut_of(g, s):
    s = frozenset(s)
    return topo.Cut(s, frozenset(range(g.num_qubits)) - s)


# ---------------------------------------------------------------- metrics


def test_metrics_row_block_layout():
    # middle row pulsed on a 3x5 grid: two stranded 4-chains and one 4-chain in S
    g = topo.grid_topology(3, 5)
    n_q, n_c = supp.metrics(g, cut_of(g, {0, 6, 7, 8, 9, 10}))
    assert (n_q, n_c) == (4, 9)


def test_metrics_row_block_with_taps():
    # same middle row plus taps into the outer rows: fewer leftover couplings,
    # one bigger region
    g = topo.grid_topology(3, 5)
    n_q, n_c = supp.metrics(g, cut_of(g, {0, 2, 6, 7, 8, 9, 10, 12}))
    assert (n_q, n_c) == (6, 7)


def test_metrics_checkerboard_is_clean():
    g = topo.grid_topology(3, 4)
    s = {r * 4 + c for r in range(3) for c in range(4) if (r + c) % 2 == 0}
    assert supp.metrics(g, cut_of(g, s)) == (1, 0)


def test_metrics_everything_one_side():
    g = topo.grid_topology(2, 3)
    assert supp.metrics(g, cut_of(g, range(6))) == (6, 7)


# ----------------------------------------------------------- brute force


def test_brute_path_graph():
    g = topo.grid_topology(1, 2)
    res = supp.brute_force_optimal(g, frozenset(), 1.0)
    assert res.objective == pytest.approx(1.0)
    assert (res.n_q, res.n_c) == (1, 0)


def test_brute_square_maxcut():
    g = topo.grid_topology(2, 2)
    res = supp.brute_force_optimal(g, frozenset(), 0.0)
    assert res.n_c == 0


def test_brute_3x4_constrained_fixture():
    g = topo.grid_topology(3, 4)
    res = supp.brute_force_optimal(g, {0, 1}, 0.5)
    assert res.objective == pytest.approx(3.5)
    assert (res.n_q, res.n_c) == (3, 2)
    assert {0, 1} <= res.cut.partition_s


def test_brute_guard():
    with pytest.raises(ValueError):
        supp.brute_force_optimal(topo.grid_topology(5, 5), frozenset(), 0.5)


# ----------------------------------------------------------- alpha_optimal


@pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0])
@pytest.mark.parametrize(
    "g",
    [
        topo.grid_topology(2, 2),
        topo.grid_topology(2, 3),
        topo.grid_topology(3, 3),
        topo.grid_topology(3, 4),
        topo.grid_topology(4, 4),
        topo.ibmq_vigo(),
    ],
    ids=["2x2", "2x3", "3x3", "3x4", "4x4", "vigo"],
)
def test_bipartite_complete_suppression(g, alpha):
    res = supp.alpha_optimal(g, frozenset(), alpha, k=3)
    assert (res.n_q, res.n_c) == (1, 0)
    assert res.objective == pytest.approx(alpha)
    assert not res.repaired


def test_alpha_optimal_matches_brute_on_3x4_constrained():
    g = topo.grid_topology(3, 4)
    res = supp.alpha_optimal(g, {0, 1}, 0.5, k=3)
    ref = supp.brute_force_optimal(g, {0, 1}, 0.5)
    assert res.objective == pytest.approx(ref.objective)
    assert {0, 1} <= res.cut.partition_s
    assert topo.remaining_set(g, res.cut) == frozenset(
        {g.edge_index(0, 1), g.edge_index(0, 4)}
    )


def test_alpha_optimal_on_odd_faced_graph(six_qubit_planar):
    g = six_qubit_planar
    res = supp.alpha_optimal(g, frozenset(), 0.5, k=3)
    ref = supp.brute_force_optimal(g, frozenset(), 0.5)
    assert res.objective == pytest.approx(ref.objective) == pytest.approx(2.0)


def test_alpha_optimal_chamfered_unconstrained(chamfered_grid):
    g = chamfered_grid
    res = supp.alpha_optimal(g, frozenset(), 0.5, k=3)
    ref = supp.brute_force_optimal(g, frozenset(), 0.5)
    assert res.objective == pytest.approx(ref.objective) == pytest.approx(3.0)
    assert (res.n_q, res.n_c) == (2, 2)


def test_alpha_optimal_chamfered_constrained(chamfered_grid):
    # gate qubits 0, 2, 4: the shortest-path pairing already passes the check
    g = chamfered_grid
    res = supp.alpha_optimal(g, {0, 2, 4}, 0.5, k=3)
    assert not res.repaired
    assert res.cut.partition_s == frozenset({0, 2, 4, 6})
    assert res.objective == pytest.approx(3.0)
    # a relaxed alternative splits the gate set: couplings (1,2), (4,5)
    # plus the forced (0,4) induce a cut with qubit 2 across from 0 and 4
    alt = topo.cut_from_contraction(
        g, {g.edge_index(1, 2), g.edge_index(4, 5), g.edge_index(0, 4)}
    )
    gate = {0, 2, 4}
    assert not (gate <= alt.partition_s or gate <= alt.partition_t)


def test_pairing_certificate_valid(chamfered_grid):
    g = chamfered_grid
    d = topo.dual_graph(g)
    for q in [frozenset(), frozenset({0, 2, 4}), frozenset({3, 4})]:
        res = supp.alpha_optimal(g, q, 0.5, k=3)
        eq = supp._gate_internal_edges(g, q)
        assert topo.is_odd_vertex_pairing(d, res.pairing.dual_edges | eq)
        assert q <= res.cut.partition_s


def test_objective_recomputes(chamfered_grid):
    res = supp.alpha_optimal(chamfered_grid, frozenset(), 0.5, k=3)
    n_q, n_c = supp.metrics(chamfered_grid, res.cut)
    assert (n_q, n_c) == (res.n_q, res.n_c)
    assert res.objective == pytest.approx(0.5 * n_q + n_c)


def test_greedy_trace_monotone(six_qubit_planar, chamfered_grid):
    for g, q in [
        (six_qubit_planar, frozenset()),
        (chamfered_grid, frozenset()),
        (chamfered_grid, frozenset({0, 2, 4})),
        (topo.grid_topology(3, 4), frozenset({0, 1})),
    ]:
        trace = []
        supp.alpha_optimal(g, q, 0.5, k=3, _trace=trace)
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_deterministic(chamfered_grid):
    a = supp.alpha_optimal(chamfered_grid, {0, 2, 4}, 0.5, k=3)
    b = supp.alpha_optimal(chamfered_grid, {0, 2, 4}, 0.5, k=3)
    assert a == b


def test_repair_when_gate_set_unseparable():
    # qubits 0 and 5 sit at odd distance on a bipartite grid, so no pairing
    # candidate keeps them together; the repaired cut still matches brute force
    g = topo.grid_topology(3, 3)
    res = supp.alpha_optimal(g, {0, 5}, 0.5, k=3)
    assert res.repaired
    assert res.warning
    assert {0, 5} <= res.cut.partition_s
    ref = supp.brute_force_optimal(g, {0, 5}, 0.5)
    assert res.objective == pytest.approx(ref.objective) == pytest.approx(3.5)
    with pytest.raises(ValueError):
        supp.alpha_optimal(g, {0, 5}, 0.5, k=3, fallback=False)


@pytest.mark.xfail(strict=True, reason="no pairing candidate keeps the gate "
                   "set on one side, and the repaired cut is 1.625x the optimum")
def test_repaired_cut_near_brute_on_3x4_four_gates():
    g = topo.grid_topology(3, 4)
    gates = {0, 3, 5, 11}
    res = supp.alpha_optimal(g, gates, 0.5)
    ref = supp.brute_force_optimal(g, gates, 0.5)
    assert res.objective <= 1.25 * ref.objective


def test_bad_inputs(chamfered_grid):
    with pytest.raises(ValueError):
        supp.alpha_optimal(chamfered_grid, {99}, 0.5)
    with pytest.raises(ValueError):
        supp.alpha_optimal(chamfered_grid, frozenset(), -1.0)
    with pytest.raises(ValueError):
        supp.alpha_optimal(chamfered_grid, frozenset(), 0.5, k=0)


def test_runtime_smoke_5x5():
    g = topo.grid_topology(5, 5)
    t0 = time.perf_counter()
    res = supp.alpha_optimal(g, frozenset(), 0.5, k=3)
    dt = time.perf_counter() - t0
    assert (res.n_q, res.n_c) == (1, 0)
    assert dt < 0.1


# ------------------------------------------------------- path machinery


def test_k_shortest_paths_on_chamfered_dual(chamfered_grid):
    g = chamfered_grid
    d = topo.dual_graph(g)
    faces = {frozenset(f): i for i, f in enumerate(g.faces)}
    tri = faces[frozenset({g.edge_index(4, 5), g.edge_index(5, 7), g.edge_index(4, 7)})]
    outer = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    paths = supp._k_shortest_paths(d, tri, outer, 3, frozenset())
    assert paths[0] == (g.edge_index(5, 7),)
    assert [len(p) for p in paths] == [1, 2, 2]
    assert paths == sorted(paths, key=lambda p: (len(p), p))


def test_k_shortest_paths_parallel_edges():
    # square dual: two faces joined by four parallel edges, so four paths
    d = topo.dual_graph(topo.grid_topology(2, 2))
    paths = supp._k_shortest_paths(d, 0, 1, 6, frozenset())
    assert paths == [(0,), (1,), (2,), (3,)]


def test_matching_prefers_close_pairs():
    # 0-1 adjacent and 2-3 adjacent, far across: matching keeps neighbors together
    w = [
        [0, 10, 1, 1],
        [10, 0, 1, 1],
        [1, 1, 0, 10],
        [1, 1, 10, 0],
    ]
    assert supp._max_weight_matching(w) == [(0, 1), (2, 3)]


def test_matching_tie_lexicographic():
    w = [[0, 5, 5, 5], [5, 0, 5, 5], [5, 5, 0, 5], [5, 5, 5, 0]]
    assert supp._max_weight_matching(w) == [(0, 1), (2, 3)]


# ------------------------------------------------------------ properties


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
    q=st.frozensets(st.integers(0, 7), max_size=3),
    alpha=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_solver_never_beats_oracle_and_stays_feasible(dims, q, alpha):
    g = topo.grid_topology(*dims)
    q = frozenset(v for v in q if v < g.num_qubits)
    res = supp.alpha_optimal(g, q, alpha, k=3)
    ref = supp.brute_force_optimal(g, q, alpha)
    assert res.objective >= ref.objective - 1e-9
    assert q <= res.cut.partition_s
    n_q, n_c = supp.metrics(g, res.cut)
    assert res.objective == pytest.approx(alpha * n_q + n_c)
    d = topo.dual_graph(g)
    eq = supp._gate_internal_edges(g, q)
    assert topo.is_odd_vertex_pairing(d, res.pairing.dual_edges | eq)


# -------------------------------------------------------------------- I/O


def test_result_json_roundtrip(tmp_path, chamfered_grid):
    res = supp.alpha_optimal(chamfered_grid, {0, 2, 4}, 0.5, k=3)
    path = tmp_path / "cut.json"
    supp.save_result(path, res)
    cut = supp.load_cut(path)
    assert cut == res.cut
    obj = supp.result_to_json(res)
    assert obj["n_q"] == res.n_q and obj["n_c"] == res.n_c
    assert sorted(obj["pairing_edges"]) == sorted(res.pairing.dual_edges)
