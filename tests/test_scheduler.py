import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsched import scheduler
from zzsched.circuit import (
    _KNOWN,
    NATIVE_NAMES,
    Circuit,
    Gate,
    GateTimes,
    _expand,
    benchmark,
    parse,
    to_native,
)
from zzsched.scheduler import (
    SuppressionRequirement,
    gate_distance,
    gate_duration,
    group_distance,
    par_sched,
    plan_from_json,
    plan_to_json,
    schedule,
    two_q_schedule,
)
from zzsched.suppression import _forced_metrics, _mask, _tables, alpha_optimal
from zzsched.topology import grid_snake_order, grid_topology, line_topology

EIGHT_QUBIT_PROGRAM = (
    "h 0\nh 2\nh 4\nh 6\nx 7\n"
    "cx 0 3\ncx 4 1\ncx 2 5\ncx 6 7\n"
    "h 3\nx 5\n"
)


@pytest.fixture(scope="module")
def g3():
    return grid_topology(3, 3)


def nonid(layer):
    return {(g.name, g.qubits) for g in layer.gates if g.name != "id"}


def id_qubits(layer):
    return {g.qubits[0] for g in layer.gates if g.name == "id"}


# ---------------------------------------------------------- requirement


def test_requirement_default(g3):
    r = SuppressionRequirement.default(g3)
    assert r.max_n_q == 4
    assert r.max_n_c == 6.0
    assert r.satisfied(3, 6)
    assert not r.satisfied(4, 6)  # exclusive qubit bound
    assert not r.satisfied(3, 6.5)


def test_requirement_positive():
    with pytest.raises(ValueError):
        SuppressionRequirement(0, 5)
    with pytest.raises(ValueError):
        SuppressionRequirement(3, 0)
    with pytest.raises(ValueError):
        SuppressionRequirement(3, float("nan"))


# ------------------------------------------------------------ distances


def test_gate_distance_examples(g3):
    a = Gate("cx", (0, 3))
    b = Gate("cx", (4, 1))
    c = Gate("cx", (2, 5))
    assert gate_distance(c, a, g3) == 10
    assert gate_distance(c, b, g3) == 6
    assert gate_distance(Gate("cx", (1, 4)), Gate("cx", (2, 5)), g3) == 6
    assert gate_distance(a, a, g3) == 2


def test_gate_distance_needs_two_qubit_gates(g3):
    with pytest.raises(ValueError):
        gate_distance(Gate("h", (0,)), Gate("cx", (0, 1)), g3)


def test_group_distance(g3):
    c = Gate("cx", (2, 5))
    a = Gate("cx", (0, 3))
    b = Gate("cx", (4, 1))
    assert group_distance(c, [b], g3) == 6
    assert group_distance(c, [a, b], g3) == 6
    assert group_distance(c, [a], g3) == 10
    with pytest.raises(ValueError):
        group_distance(c, [], g3)


# ------------------------------------------------------------ durations


def test_gate_duration_native_and_composite():
    t = GateTimes()
    assert gate_duration(Gate("rx90", (0,)), t) == pytest.approx(20e-9)
    assert gate_duration(Gate("h", (0,)), t) == pytest.approx(20e-9)
    assert gate_duration(Gate("x", (0,)), t) == pytest.approx(40e-9)
    assert gate_duration(Gate("cx", (0, 1)), t) == pytest.approx(160e-9)
    assert gate_duration(Gate("swap", (0, 1)), t) == pytest.approx(440e-9)
    assert gate_duration(Gate("rz", (0,), (1.0,)), t) == 0.0


def _stack_gate_duration(gate, times):
    """gate_duration as a stack walk over _expand."""
    if gate.name in NATIVE_NAMES:
        return times.duration(gate)
    finish = {q: 0.0 for q in gate.qubits}
    stack = list(reversed(_expand(gate)))
    while stack:
        g2 = stack.pop()
        if g2.name not in NATIVE_NAMES:
            stack.extend(reversed(_expand(g2)))
            continue
        start = max(finish[q] for q in g2.qubits)
        end = start + times.duration(g2)
        for q in g2.qubits:
            finish[q] = end
    return max(finish.values())


@pytest.mark.parametrize("times", [GateTimes(), GateTimes.for_backend("dcg")],
                         ids=["default", "dcg"])
def test_gate_duration_matches_stack_walk(times):
    for name, (n_par, n_q) in sorted(_KNOWN.items()):
        for qubits in ((0,), (1,)) if n_q == 1 else ((0, 1), (1, 0)):
            gate = Gate(name, qubits, (0.7,) * n_par)
            assert gate_duration(gate, times) == _stack_gate_duration(gate, times), gate


@pytest.mark.parametrize("name", ["dcg", "duration"])
def test_gate_named_like_a_gate_times_member_is_not_native(name):
    # a pulse backend's name and a GateTimes method are not gates
    with pytest.raises(ValueError, match=f"cannot lower gate '{name}'"):
        gate_duration(Gate(name, (0,)), GateTimes())
    with pytest.raises(ValueError, match=f"line 1: unknown gate '{name}'"):
        parse(f"{name} 0\n", num_qubits=2)
    with pytest.raises(ValueError, match="non-native"):
        GateTimes().duration(Gate(name, (0,)))


# ------------------------------------------------------- two-qubit sets


def test_two_q_schedule_example_grouping(g3):
    gates = [Gate("cx", (0, 3)), Gate("cx", (4, 1)), Gate("cx", (2, 5))]
    r = SuppressionRequirement.default(g3)
    out = two_q_schedule(g3, gates, r, alpha=0.5)
    assert out.seed_pair == (0, 1)
    assert out.selected == (0, 2)
    assert out.result.cut.partition_s == frozenset({0, 2, 3, 5, 7})
    assert not out.flagged
    assert r.satisfied(out.result.n_q, out.result.n_c)


def test_two_q_schedule_single_gate_permissive(g3):
    r = SuppressionRequirement.default(g3)
    out = two_q_schedule(g3, [Gate("cx", (0, 1))], r)
    assert out.selected == (0,)
    assert out.seed_pair is None
    assert not out.flagged


def test_two_q_schedule_whole_set_fits():
    g = grid_topology(3, 4)
    r = SuppressionRequirement.default(g)
    gates = [Gate("cx", (0, 4)), Gate("cx", (7, 11))]
    out = two_q_schedule(g, gates, r, alpha=0.5)
    assert out.selected == (0, 1)
    assert out.seed_pair is None
    assert r.satisfied(out.result.n_q, out.result.n_c)


def test_two_q_schedule_split_keeps_requirement(g3):
    r = SuppressionRequirement.default(g3)
    gates = [Gate("cx", (4, 1)), Gate("cx", (6, 7))]
    out = two_q_schedule(g3, gates, r, alpha=0.5)
    assert out.seed_pair == (0, 1)
    assert out.selected == (0,)
    assert {1, 4} <= out.result.cut.partition_s
    assert not out.flagged
    assert r.satisfied(out.result.n_q, out.result.n_c)


def test_two_q_schedule_lone_violating_gate_flagged():
    g = line_topology(2)
    r = SuppressionRequirement(2, 1)
    out = two_q_schedule(g, [Gate("cx", (0, 1))], r)
    assert out.flagged
    assert out.selected == (0,)


def test_two_q_schedule_rejects_uncoupled(g3):
    r = SuppressionRequirement.default(g3)
    with pytest.raises(ValueError):
        two_q_schedule(g3, [Gate("cx", (0, 8))], r)
    with pytest.raises(ValueError):
        two_q_schedule(g3, [], r)


def test_two_q_schedule_deterministic(g3):
    r = SuppressionRequirement.default(g3)
    gates = [Gate("cx", (0, 3)), Gate("cx", (4, 1)), Gate("cx", (2, 5))]
    a = two_q_schedule(g3, gates, r)
    b = two_q_schedule(g3, gates, r)
    assert a == b


# ----------------------------------------------------- schedule: traces


def test_schedule_eight_qubit_trace(g3):
    c = parse(EIGHT_QUBIT_PROGRAM)
    plan = schedule(g3, c, alpha=0.5)
    layers = plan.layers
    assert len(layers) == 4

    assert nonid(layers[0]) == {("h", (0,)), ("h", (2,)), ("h", (4,)), ("h", (6,))}
    assert id_qubits(layers[0]) == {8}
    assert layers[0].cut.partition_s == frozenset({0, 2, 4, 6, 8})
    assert layers[0].n_q == 1 and layers[0].n_c == 0

    assert nonid(layers[1]) == {("cx", (0, 3)), ("cx", (2, 5)), ("x", (7,))}
    assert layers[1].cut.partition_s == frozenset({0, 2, 3, 5, 7})
    assert id_qubits(layers[1]) == set()

    assert {e for e in nonid(layers[2]) if len(e[1]) == 2} == {("cx", (4, 1))}
    assert {1, 4} <= layers[2].cut.partition_s

    assert nonid(layers[3]) == {("cx", (6, 7)), ("h", (3,)), ("x", (5,))}
    assert {3, 5, 6, 7} <= layers[3].cut.partition_s

    r = SuppressionRequirement.default(g3)
    for layer in layers:
        assert not layer.flagged
        assert r.satisfied(layer.n_q, layer.n_c)

    assert plan.layers[0].duration == pytest.approx(20e-9)
    assert plan.layers[1].duration == pytest.approx(160e-9)
    assert plan.total_duration == pytest.approx(500e-9)


def test_schedule_respects_dag_and_covers_gates(g3):
    c = parse(EIGHT_QUBIT_PROGRAM)
    plan = schedule(g3, c)
    assert_plan_valid(g3, c, plan)


def assert_plan_valid(g, c, plan, require=None):
    from zzsched.circuit import dependencies

    assert sorted(plan.source_gate_map) == list(range(len(c.gates)))
    placed = {i: [] for i in range(len(plan.layers) + 1)}
    for i, li in plan.source_gate_map.items():
        placed[li].append(i)
    # every non-rz gate sits in its mapped layer exactly once
    for li, layer in enumerate(plan.layers):
        expect = [c.gates[i] for i in sorted(placed[li]) if c.gates[i].name != "rz"]
        got = [gate for gate in layer.gates if gate.name != "id"]
        assert sorted(map(repr, expect)) == sorted(map(repr, got))
        rz_expect = [c.gates[i] for i in sorted(placed[li]) if c.gates[i].name == "rz"]
        assert list(layer.rz_gates) == rz_expect
    assert list(plan.trailing_rz) == [
        c.gates[i] for i in sorted(placed[len(plan.layers)])
    ]
    preds = dependencies(c)
    for b, ps in enumerate(preds):
        for a in ps:
            if c.gates[a].name == "rz":
                assert plan.source_gate_map[a] <= plan.source_gate_map[b]
            else:
                assert plan.source_gate_map[a] < plan.source_gate_map[b]
    for layer in plan.layers:
        if layer.cut is None:
            continue
        used = [q for gate in layer.gates for q in gate.qubits]
        assert len(set(used)) == len(used)
        assert set(used) == layer.cut.partition_s  # supplements fill the side
        if require is not None and not layer.flagged:
            assert require.satisfied(layer.n_q, layer.n_c)
    assert plan.total_duration == pytest.approx(
        sum(layer.duration for layer in plan.layers)
    )


def test_schedule_empty_circuit(g3):
    plan = schedule(g3, Circuit(9, ()))
    assert plan.layers == ()
    assert plan.total_duration == 0.0


def test_schedule_case1_orientation_flip(g3):
    plan = schedule(g3, parse("h 7\n", num_qubits=9))
    assert plan.layers[0].cut.partition_s == frozenset({1, 3, 5, 7})
    assert nonid(plan.layers[0]) == {("h", (7,))}
    assert id_qubits(plan.layers[0]) == {1, 3, 5}


def test_schedule_case1_orientation_tie(g3):
    plan = schedule(g3, parse("h 0\nh 1\n", num_qubits=9))
    assert len(plan.layers) == 2
    assert plan.layers[0].cut.partition_s == frozenset({0, 2, 4, 6, 8})
    assert nonid(plan.layers[0]) == {("h", (0,))}
    assert nonid(plan.layers[1]) == {("h", (1,))}


def test_schedule_rz_absorbed_forward(g3):
    plan = schedule(g3, parse("rz 0.5 0\nrx90 0\n", num_qubits=9))
    assert len(plan.layers) == 1
    assert plan.layers[0].rz_gates == (Gate("rz", (0,), (0.5,)),)
    assert plan.trailing_rz == ()
    assert plan.source_gate_map == {0: 0, 1: 0}


def test_schedule_trailing_rz(g3):
    plan = schedule(g3, parse("rx90 0\nrz 0.5 0\n", num_qubits=9))
    assert len(plan.layers) == 1
    assert plan.layers[0].rz_gates == ()
    assert plan.trailing_rz == (Gate("rz", (0,), (0.5,)),)
    assert plan.source_gate_map == {0: 0, 1: 1}


def test_schedule_rz_order_preserved(g3):
    plan = schedule(g3, parse("rz 1 0\nrz 2 0\nrx90 0\n", num_qubits=9))
    assert plan.layers[0].rz_gates == (
        Gate("rz", (0,), (1.0,)),
        Gate("rz", (0,), (2.0,)),
    )


def test_schedule_rejects_uncoupled(g3):
    with pytest.raises(ValueError):
        schedule(g3, parse("cx 0 8\n", num_qubits=9))
    with pytest.raises(ValueError):
        schedule(g3, parse("h 0\n", num_qubits=16))


def test_schedule_flagged_single_gate_layer():
    g = line_topology(2)
    plan = schedule(g, parse("cx 0 1\n"), r=SuppressionRequirement(2, 1))
    assert len(plan.layers) == 1
    assert plan.layers[0].flagged
    assert plan.layers[0].warning


# ------------------------------------------------------------ par_sched


def test_par_sched_eight_qubit(g3):
    c = parse(EIGHT_QUBIT_PROGRAM)
    plan = par_sched(g3, c)
    assert len(plan.layers) == 3
    assert nonid(plan.layers[0]) == {
        ("h", (0,)), ("h", (2,)), ("h", (4,)), ("h", (6,)), ("x", (7,))
    }
    assert len(plan.layers[1].gates) == 4
    assert nonid(plan.layers[2]) == {("h", (3,)), ("x", (5,))}
    assert all(not any(g.name == "id" for g in l.gates) for l in plan.layers)
    assert plan.layers[0].cut is None


def test_par_sched_serial_chain():
    g = line_topology(2)
    plan = par_sched(g, parse("h 0\nx 0\nh 0\n", num_qubits=2))
    assert [len(l.gates) for l in plan.layers] == [1, 1, 1]


def test_par_sched_matches_dag_depth():
    from zzsched.circuit import benchmark, dependencies

    g = line_topology(4)
    c = benchmark("qft", 4)
    plan = par_sched(g, c)
    preds = dependencies(c)
    depth = [0] * len(c.gates)
    for i, ps in enumerate(preds):
        depth[i] = 1 + max((depth[j] for j in ps), default=0)
    assert len(plan.layers) == max(depth)
    assert_plan_valid(g, c, plan)


def test_duration_ratio_sane():
    from zzsched.circuit import benchmark

    g = line_topology(4)
    c = benchmark("qft", 4)
    zzx = schedule(g, c)
    par = par_sched(g, c)
    assert zzx.total_duration <= 3 * par.total_duration
    assert zzx.total_duration >= par.total_duration


# ----------------------------------------------- seed separation theorem


def random_matching(rng, g, size):
    edges = list(g.edges)
    rng.shuffle(edges)
    used = set()
    out = []
    for u, v in edges:
        if u in used or v in used:
            continue
        out.append(Gate("cx", (u, v)))
        used.update((u, v))
        if len(out) == size:
            break
    return out


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 4)])
def test_seed_pairs_separate_across_rounds(rows, cols):
    g = grid_topology(rows, cols)
    r = SuppressionRequirement.default(g)
    rng = np.random.default_rng(rows * 100 + cols)
    for trial in range(40):
        gates = random_matching(rng, g, int(rng.integers(2, 7)))
        remaining = list(gates)
        round_of = {}
        seeds = []
        rounds = 0
        while remaining:
            out = two_q_schedule(g, remaining, r, alpha=0.5)
            chosen = [remaining[i] for i in out.selected]
            if out.seed_pair is not None:
                seeds.append((remaining[out.seed_pair[0]], remaining[out.seed_pair[1]]))
            for gate in chosen:
                round_of[gate] = rounds
            remaining = [gate for i, gate in enumerate(remaining) if i not in out.selected]
            rounds += 1
            assert rounds <= len(gates)
        for a, b in seeds:
            assert round_of[a] != round_of[b]


# ------------------------------------------------------------- plan JSON


def test_plan_json_round_trip(g3):
    c = parse(EIGHT_QUBIT_PROGRAM)
    for plan in (schedule(g3, c), par_sched(g3, c)):
        again = plan_from_json(plan_to_json(plan))
        assert again == plan


def test_plan_json_round_trip_with_rz(g3):
    plan = schedule(g3, parse("rz 0.25 0\nrx90 0\nrz 0.5 0\n", num_qubits=9))
    again = plan_from_json(plan_to_json(plan))
    assert again == plan


@pytest.mark.parametrize("duration", [-20e-9, math.nan, math.inf])
def test_plan_json_rejects_impossible_layer_duration(g3, duration):
    obj = plan_to_json(schedule(g3, parse(EIGHT_QUBIT_PROGRAM)))
    obj["layers"][1]["duration"] = duration
    with pytest.raises(ValueError, match="layer duration"):
        plan_from_json(obj)


@pytest.mark.parametrize("scale,ok", [(1 + 1e-12, True), (1 + 1e-6, False), (-1, False)])
def test_plan_json_total_duration_matches_layers(g3, scale, ok):
    obj = plan_to_json(schedule(g3, parse(EIGHT_QUBIT_PROGRAM)))
    obj["total_duration"] *= scale
    if ok:
        assert plan_from_json(obj).total_duration == obj["total_duration"]
    else:
        with pytest.raises(ValueError, match="total_duration"):
            plan_from_json(obj)

# sha256 of json.dumps(plan_to_json(plan), sort_keys=True) for six-qubit
# lowered benchmarks on a grid snake; any change to layering, cut choice or
# the JSON layout moves them
PLAN_SHA256 = {
    ("qft", 2, 3, "zzx"): "2a49403b7bf2736e7a93146a8c63af437af068a35f530be8318265437eb7c820",
    ("qft", 2, 3, "par"): "ae4321dba5a01cfdcedfea79300a92f9405b72b099641eeedb24253186c2f3ba",
    ("qft", 3, 3, "zzx"): "2395ecdbbec9cb6837c5e813f80512c52801a2442b17526fd4c0c2cd44ba7b72",
    ("qft", 3, 3, "par"): "85df17e2fa2e644f8f59f01948ac9f4616d049124765d004a4607ee6554bb067",
    ("hs", 2, 3, "zzx"): "096d8ee367816b312c46a4177154ab08b7404d0e787b92c32a3f18541fff0938",
    ("hs", 2, 3, "par"): "bd47c014fb225187d13720fb907fe11c06c1ad2acb3f6c193c9706b0b34d60be",
    ("hs", 3, 3, "zzx"): "f3918da4b1f76b23887cadca5ffe8204d64ad3796949c7c2f8355218642fa656",
    ("hs", 3, 3, "par"): "fc243451bd6e52a10ba292df84a368e173a56ac77cb773e5b94bb331f414e324",
    ("qpe", 2, 3, "zzx"): "37163bfa91270ade11be2331dc56e87962c48e6a5946b40c027653d55faff646",
    ("qpe", 2, 3, "par"): "efb33967a1d491fd9602132d687356fd2ab2c24e522e986f39367ef0c7b96f2f",
    ("qpe", 3, 3, "zzx"): "96f6ae7f085992d142ed95e64d8bca46532ea184d5c031babb909af82b0d0062",
    ("qpe", 3, 3, "par"): "a40227263dc965b671595089be3920fe4a9abab71c7dcee7e7fbdab2230aa79a",
    ("qaoa", 2, 3, "zzx"): "0cb9e3687e77c192985baf4db3e5fd8c2d7ff50d74535332317b00ceb9b26624",
    ("qaoa", 2, 3, "par"): "827c6cd3db90d6b55efca6ae5cefa31abfcd01a173f2a2bfe78c464ad80a11c2",
    ("qaoa", 3, 3, "zzx"): "0922f69886d467c95e2afce017563ff4d27667801fa53d3ead3865cd1916413d",
    ("qaoa", 3, 3, "par"): "c6e76389aaf1ae95c884af78160dd0a669fe79083d73dc6cb7feb12f7b036e2f",
    ("ising", 2, 3, "zzx"): "b2f7bc2dc15908ae64118dabdddab54155038e66a8e4d151e9a2e5a835d38504",
    ("ising", 2, 3, "par"): "d48aa908e1469c713989017550ca52244e5c80a784161dc31cb7961a45f43623",
    ("ising", 3, 3, "zzx"): "342ca283ba841824076db9b26c56a4cc3f88907923277131c69feffae7291893",
    ("ising", 3, 3, "par"): "5b4e8204257f415dcccfc9aaae30f677c2950c1f8987c43cb7ce631327d869e6",
    ("grc", 2, 3, "zzx"): "6ad165f3450b08becafa7e82d3c119c9d7cf735a12a4ade8bca05646a6ec2a3d",
    ("grc", 2, 3, "par"): "b6cac7aa343f0bb3052c5ae98f961408afc41417764809d2c72ac0dcd8ff6476",
    ("grc", 3, 3, "zzx"): "125ea727b997e8c12aaad76807a1d2fe8b9fcd7bc6f1541c10dfef51d85fff89",
    ("grc", 3, 3, "par"): "bd7942d9a7c06ffce7ab306117e6beb14dde7ee7ea7bf542d3693ba16f837313",
}


@pytest.mark.parametrize("name,rows,cols,policy", sorted(PLAN_SHA256))
def test_plan_json_pinned(name, rows, cols, policy):
    g = grid_topology(rows, cols)
    c = to_native(benchmark(name, 6, qubit_order=grid_snake_order(rows, cols)[:6]))
    plan = (schedule if policy == "zzx" else par_sched)(g, c)
    assert_plan_valid(g, c, plan)
    blob = json.dumps(plan_to_json(plan), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PLAN_SHA256[name, rows, cols, policy]


# sha256 of json.dumps(plan_to_json(schedule(g, to_native(c))), sort_keys=True)
# for the depth-4 brickwork circuits on the 6x6 grid, circuit seeds 0 and 1;
# recorded before the cut search scored candidates as packed words, with
#   PYTHONPATH=src:tests python -c "import conftest, hashlib, json; from zzsched import circuit, scheduler; g, c = conftest._brickwork(6, 6, 4, 0); print(hashlib.sha256(json.dumps(scheduler.plan_to_json(scheduler.schedule(g, circuit.to_native(c))), sort_keys=True).encode()).hexdigest())"
# Their cut searches run the full index scan and the repair step thousands
# of candidates deep, which the small pinned solver corpus never does.
BRICKWORK_SHA256 = {
    0: "34ffdd8929404592d0a860676c2f67153a0cb2e5c8a7e29983bf234049c21f60",
    1: "cb1f10485e0117c93bb20449a81c67a1d24bf27c78ec12f41e1eac0f1f9db520",
}


@pytest.mark.parametrize("seed", sorted(BRICKWORK_SHA256))
def test_brickwork_6x6_plan_pinned(seed, brickwork, monkeypatch):
    warnings = []

    def recording(g, gate_qubits, alpha, k):
        res = alpha_optimal(g, gate_qubits, alpha, k)
        warnings.append(res.warning or "")
        return res

    monkeypatch.setattr(scheduler, "alpha_optimal", recording)
    g, c = brickwork(6, 6, 4, seed)
    native = to_native(c)
    plan = schedule(g, native)
    assert_plan_valid(g, native, plan)
    layer_warnings = [layer.warning or "" for layer in plan.layers]
    assert any("full index scan used" in w for w in layer_warnings)
    # repaired cuts lose the grouping trials here, so they show in the
    # solver's results rather than in the plan's layers
    assert any("forced into one side" in w for w in warnings)
    blob = json.dumps(plan_to_json(plan), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BRICKWORK_SHA256[seed]


def test_schedule_solves_gate_free_cut_once(g3, monkeypatch):
    calls = []

    def counting(g, gate_qubits, alpha, k):
        calls.append(frozenset(gate_qubits))
        return alpha_optimal(g, gate_qubits, alpha, k)

    monkeypatch.setattr(scheduler, "alpha_optimal", counting)
    c = to_native(parse("h 0\nx 0\nh 0\n", num_qubits=9))
    plan = schedule(g3, c)
    assert len(plan.layers) > 1
    assert calls.count(frozenset()) == 1

    # every gate set the layering asks for, across all two-qubit groupings
    # of one schedule call, reaches the solver once
    calls.clear()
    g = grid_topology(3, 4)
    c = to_native(benchmark("qft", 12, qubit_order=grid_snake_order(3, 4)))
    plan = schedule(g, c)
    assert len(set(calls)) > 10
    assert len(calls) == len(set(calls))


# ------------------------------------------------- forced-coupling bound


def _oracle_graph(name, request):
    if name == "line6":
        return line_topology(6)
    if name in ("six_qubit_planar", "chamfered_grid"):
        return request.getfixturevalue(name)
    return grid_topology(*map(int, name.split("x")))


def _random_gate_set(g, rng):
    """Two-qubit gates on disjoint couplings, as a ready set holds them."""
    used, gates = set(), []
    for e in rng.permutation(len(g.edges)):
        u, v = (int(x) for x in g.edges[e])
        if u not in used and v not in used:
            used |= {u, v}
            gates.append(Gate("cx", (u, v) if rng.random() < 0.5 else (v, u)))
    return gates[: rng.integers(1, len(gates) + 1)]


def _random_circuit(g, rng, size=24):
    gates = []
    for _ in range(size):
        if rng.random() < 0.5:
            u, v = (int(x) for x in g.edges[rng.integers(len(g.edges))])
            gates.append(Gate("cx", (u, v) if rng.random() < 0.5 else (v, u)))
        else:
            q = int(rng.integers(g.num_qubits))
            gates.append(Gate(("h", "t", "x")[rng.integers(3)], (q,)))
    return to_native(Circuit(g.num_qubits, tuple(gates)))


@pytest.mark.parametrize(
    "name", ["3x3", "3x4", "4x4", "line6", "six_qubit_planar", "chamfered_grid"])
def test_forced_bound_changes_no_decision(name, request, monkeypatch):
    # a bound of (1, 0) rejects nothing, so two_q_schedule solves every set
    # it checks, as it did before the bound
    g = _oracle_graph(name, request)
    solves = []

    def counting(g, gate_qubits, alpha, k):
        solves.append(frozenset(gate_qubits))
        return alpha_optimal(g, gate_qubits, alpha, k)

    monkeypatch.setattr(scheduler, "alpha_optimal", counting)
    requirements = [SuppressionRequirement.default(g),
                    SuppressionRequirement(2, 1.0), SuppressionRequirement(3, 3.5)]

    def run():
        rng = np.random.default_rng(len(g.edges))
        out = []
        for r in requirements:
            out += [two_q_schedule(g, _random_gate_set(g, rng), r) for _ in range(6)]
            out += [plan_to_json(schedule(g, _random_circuit(g, rng), r)) for _ in range(3)]
        return out

    bounded = run()
    n_bounded = len(solves)
    monkeypatch.setattr(scheduler, "_forced_metrics", lambda tab, qmask: (1, 0))
    assert run() == bounded
    assert len(solves) - n_bounded > n_bounded  # the bound skipped some solves


# solves per schedule call on the pinned brickwork circuits; before the
# bound, the whole-set and trial solves the requirement rejects made them
# 128 (seed 0) and 109 (seed 1)
BRICKWORK_SOLVES = {0: 97, 1: 83}


@pytest.mark.parametrize("seed", sorted(BRICKWORK_SOLVES))
def test_brickwork_6x6_solves_no_set_the_bound_rejects(seed, brickwork, monkeypatch):
    solved = []

    def counting(g, gate_qubits, alpha, k):
        solved.append(frozenset(gate_qubits))
        return alpha_optimal(g, gate_qubits, alpha, k)

    monkeypatch.setattr(scheduler, "alpha_optimal", counting)
    g, c = brickwork(6, 6, 4, seed)
    r = SuppressionRequirement.default(g)
    schedule(g, to_native(c), r)
    tab = _tables(g)
    assert all(r.satisfied(*_forced_metrics(tab, _mask(q))) for q in solved)
    assert len(solved) == BRICKWORK_SOLVES[seed]


# sha256 of the plan JSON, as for BRICKWORK_SHA256, for the depth-4
# brickwork circuits with circuit seed 0 on the 7x7 and 8x8 grids, recorded
# when the bound landed. Without it a whole-set or trial solve of each
# raised the 16-face matching guard.
LARGE_BRICKWORK_SHA256 = {
    7: "936850916f0388629872d67c3ad14e6cc85200a98d5242675120c239ef910953",
    8: "6231b7aae21757c4c5e7cb04a9588ddfc1347fa1e4d348e719914afd4efbd9c5",
}


@pytest.mark.parametrize("n", sorted(LARGE_BRICKWORK_SHA256))
def test_large_brickwork_schedules_past_the_matching_guard(n, brickwork):
    g, c = brickwork(n, n, 4, 0)
    native = to_native(c)
    r = SuppressionRequirement.default(g)
    plan = schedule(g, native, r)
    assert_plan_valid(g, native, plan, require=r)
    blob = json.dumps(plan_to_json(plan), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LARGE_BRICKWORK_SHA256[n]


# ------------------------------------------------------ property checks


_onequbit = st.tuples(st.sampled_from(["h", "x", "rx90", "s"]), st.integers(0, 8)).map(
    lambda t: Gate(t[0], (t[1],))
)
_rz = st.tuples(st.integers(0, 8), st.floats(-3, 3, allow_nan=False)).map(
    lambda t: Gate("rz", (t[0],), (t[1],))
)
_grid_edges = grid_topology(3, 3).edges
_twoqubit = st.tuples(st.sampled_from(list(_grid_edges)), st.booleans()).map(
    lambda t: Gate("cx", t[0] if t[1] else (t[0][1], t[0][0]))
)
_circuit_strategy = st.lists(
    st.one_of(_onequbit, _rz, _twoqubit), min_size=0, max_size=14
).map(lambda gs: Circuit(9, tuple(gs)))


@settings(max_examples=25, deadline=None)
@given(_circuit_strategy)
def test_schedule_invariants_random(c):
    g = grid_topology(3, 3)
    r = SuppressionRequirement.default(g)
    plan = schedule(g, c, r=r)
    assert_plan_valid(g, c, plan, require=r)


@settings(max_examples=25, deadline=None)
@given(_circuit_strategy)
def test_par_sched_invariants_random(c):
    g = grid_topology(3, 3)
    plan = par_sched(g, c)
    assert_plan_valid(g, c, plan)
