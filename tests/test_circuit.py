import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsched import circuit
from zzsched.circuit import (
    Circuit,
    Gate,
    GateTimes,
    apply_gate_to_state,
    benchmark,
    dependencies,
    gate_matrix,
    ideal_unitary,
    parse,
    print_circuit,
    to_native,
)
from zzsched.topology import grid_snake_order, grid_topology


def phase_free_distance(u, v):
    """0 when u == v up to a global phase."""
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) < 1e-12:
        return 2.0
    return np.linalg.norm(u - v * np.exp(-1j * np.angle(overlap)))


# ----------------------------------------------------------- parse/print


def test_parse_basic():
    c = parse("h 0\ncx 0 1\n")
    assert c.num_qubits == 2
    assert c.gates == (Gate("h", (0,)), Gate("cx", (0, 1)))


def test_parse_params_and_comments():
    c = parse("qubits 4\n# prep\nrz 0.5 3  # phase\nrx 1 2\n")
    assert c.num_qubits == 4
    assert c.gates[0] == Gate("rz", (3,), (0.5,))
    assert c.gates[1] == Gate("rx", (2,), (1.0,))


def test_parse_aliases():
    c = parse("cnot 0 1\nidentity 1\n")
    assert c.gates[0].name == "cx"
    assert c.gates[1].name == "id"


def test_parse_unknown_gate_rejected():
    with pytest.raises(ValueError, match="line 2: unknown gate 'foo'"):
        parse("h 0\nfoo 0.5 2 3\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse("h 0\ncx 1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("cx 1 1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse("qubits 2\nh 0\nh 5\n")
    with pytest.raises(ValueError, match="line 2"):
        parse("h 0\nqubits 3\n")
    with pytest.raises(ValueError):
        parse("h 1.5\n")


def test_parse_qubits_directive_counts():
    with pytest.raises(ValueError, match="line 2"):
        parse("# header\nqubits -2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("qubits 3 junk\nh 0\n")
    assert parse("qubits 0\n") == Circuit(0, ())
    assert parse("") == Circuit(0, ())


def test_parse_num_qubits_argument_wins():
    c = parse("h 0\n", num_qubits=5)
    assert c.num_qubits == 5
    with pytest.raises(ValueError):
        parse("h 4\n", num_qubits=3)


def test_print_parse_round_trip():
    c = benchmark("qaoa", 4, seed=3)
    again = parse(print_circuit(c))
    assert again == c


_gate_strategy = st.one_of(
    st.tuples(st.sampled_from(["h", "x", "s", "rx90"]), st.integers(0, 4)).map(
        lambda t: Gate(t[0], (t[1],))
    ),
    st.tuples(
        st.sampled_from(["rz", "rx", "ry"]),
        st.integers(0, 4),
        st.floats(-10, 10, allow_nan=False),
    ).map(lambda t: Gate(t[0], (t[1],), (t[2],))),
    st.tuples(
        st.sampled_from(["cx", "cz", "swap", "rzx90"]),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    .filter(lambda t: t[1] != t[2])
    .map(lambda t: Gate(t[0], (t[1], t[2]))),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_gate_strategy, max_size=12))
def test_round_trip_property(gates):
    c = Circuit(5, tuple(gates))
    assert parse(print_circuit(c)) == c


# --------------------------------------------------------- dependencies


def test_dependencies_chain():
    c = parse("h 0\ncx 0 1\nh 1\n")
    assert dependencies(c) == (frozenset(), frozenset({0}), frozenset({1}))


# ------------------------------------------------------------ durations


def test_gate_times_defaults():
    gt = GateTimes()
    assert gt.duration(Gate("rx90", (0,))) == pytest.approx(20e-9)
    assert gt.duration(Gate("rzx90", (0, 1))) == pytest.approx(80e-9)
    assert gt.duration(Gate("id", (0,))) == pytest.approx(20e-9)
    assert gt.duration(Gate("rz", (0,), (1.0,))) == 0.0


def test_gate_times_dcg_backend():
    gt = GateTimes.for_backend("dcg")
    assert gt.rx90 == pytest.approx(120e-9)
    assert gt.id == pytest.approx(40e-9)
    assert gt.rzx90 == pytest.approx(80e-9)
    with pytest.raises(ValueError):
        gt.duration(Gate("h", (0,)))


# ------------------------------------------------------- native lowering


@pytest.mark.parametrize(
    "gate",
    [
        Gate("h", (0,)),
        Gate("x", (0,)),
        Gate("y", (1,)),
        Gate("z", (0,)),
        Gate("s", (1,)),
        Gate("t", (0,)),
        Gate("rx", (1,), (0.7,)),
        Gate("ry", (0,), (-1.3,)),
        Gate("rz", (1,), (2.2,)),
        Gate("cx", (0, 1)),
        Gate("cx", (1, 0)),
        Gate("cz", (0, 1)),
        Gate("cp", (1, 0), (0.9,)),
        Gate("swap", (0, 1)),
        Gate("rzz", (0, 1), (1.1,)),
        Gate("id", (0,)),
    ],
)
def test_to_native_preserves_unitary(gate):
    c = Circuit(2, (gate,))
    lowered = to_native(c)
    assert all(g.name in {"rz", "rx90", "rzx90", "id"} for g in lowered.gates)
    assert phase_free_distance(ideal_unitary(c), ideal_unitary(lowered)) < 1e-10


def test_cx_uses_exactly_one_coupling_pulse():
    lowered = to_native(Circuit(2, (Gate("cx", (0, 1)),)))
    assert sum(g.name == "rzx90" for g in lowered.gates) == 1


def test_h_decomposition_literal():
    lowered = to_native(Circuit(1, (Gate("h", (0,)),)))
    assert [g.name for g in lowered.gates] == ["rz", "rx90", "rz"]
    assert lowered.gates[0].params == (math.pi / 2,)


def _stack_to_native(c):
    """to_native as a stack walk over _expand, with no memo."""
    out = []
    stack = list(reversed(c.gates))
    while stack:
        gate = stack.pop()
        expansion = circuit._expand(gate)
        if expansion is None:
            out.append(gate)
        else:
            stack.extend(reversed(expansion))
    return Circuit(c.num_qubits, tuple(out))


def _lines(c):
    return [circuit._gate_line(g) for g in c.gates]


def test_to_native_matches_stack_walk():
    for name in sorted(circuit._BENCHES):
        for n in range(2, 13):
            if name == "hs" and n % 2:
                continue
            for seed in (0, 1):
                c = benchmark(name, n, seed=seed)
                assert _lines(to_native(c)) == _lines(_stack_to_native(c)), (name, n, seed)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_to_native_keeps_the_sign_of_a_zero_angle(first):
    # 0.0 == -0.0 and both hash alike; the sign seen first must not stick
    for name, qubits in (("cp", (0, 1)), ("rz", (1,)), ("rzz", (1, 0))):
        for angle in (first, -first):
            c = Circuit(2, (Gate(name, qubits, (angle,)), Gate("h", (0,))))
            lines = _lines(to_native(c))
            assert lines == _lines(_stack_to_native(c))
            assert any(repr(angle) in line.split() for line in lines)


def test_gate_qubits_must_be_integers():
    assert Gate("h", (np.int64(1),)).qubits == (1,)
    assert type(Gate("cx", (np.int32(0), 1)).qubits[0]) is int
    with pytest.raises(TypeError):
        Gate("h", (1.7,))
    with pytest.raises(TypeError):
        Gate("cx", (0, np.float64(1.0)))


@pytest.mark.parametrize(
    "name,qubits,params",
    [("rz", (0,), ()), ("cx", (0, 1), (0.5,)), ("h", (0, 1), ()), ("cp", (0,), (0.5,))],
)
def test_known_gate_arity_checked(name, qubits, params):
    with pytest.raises(ValueError, match=f"{name} takes"):
        Gate(name, qubits, params)


def test_to_native_three_qubit_program():
    c = parse("h 0\ncx 0 1\ncp 0.8 1 2\nswap 0 1\nrzz 0.4 1 2\nry 0.3 2\n")
    lowered = to_native(c)
    assert phase_free_distance(ideal_unitary(c), ideal_unitary(lowered)) < 1e-9


# ------------------------------------------------------- dense semantics


def test_rx90_matrix():
    u = gate_matrix(Gate("rx90", (0,)))
    r = 1 / math.sqrt(2)
    assert np.allclose(u, np.array([[r, -1j * r], [-1j * r, r]]))


def test_rzx90_block_structure():
    u = gate_matrix(Gate("rzx90", (0, 1)))
    rp = gate_matrix(Gate("rx", (0,), (math.pi / 2,)))
    rm = gate_matrix(Gate("rx", (0,), (-math.pi / 2,)))
    assert np.allclose(u[:2, :2], rp)
    assert np.allclose(u[2:, 2:], rm)
    assert np.allclose(u[:2, 2:], 0)


def test_first_operand_is_high_bit():
    # cx with control 0: flips target bit only for indices with high bit set
    u = gate_matrix(Gate("cx", (0, 1)))
    state = np.zeros(4, dtype=complex)
    state[2] = 1.0  # |10>
    out = u @ state
    assert abs(out[3]) == pytest.approx(1.0)


def test_apply_matches_unitary():
    c = parse("h 0\ncx 0 1\nrz 0.3 0\ncz 1 2\nswap 0 2\n")
    u = ideal_unitary(c)
    rng = np.random.default_rng(5)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    direct = state.copy()
    for gate in c.gates:
        direct = apply_gate_to_state(direct, gate, 3)
    assert np.allclose(direct, u @ state)


def _tensordot_apply(psi, gate, first=0):
    """tensordot/moveaxis apply on a tensor whose qubit q is axis first + q;
    the bit-exact reference for the np.dot apply."""
    k = len(gate.qubits)
    axes = [first + q for q in gate.qubits]
    u = gate_matrix(gate).reshape((2,) * 2 * k)
    out = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_bit_identical_to_tensordot(n):
    # complex entries in the gates and states, so any rounding change shows
    gates = [Gate(name, (q,), params) for q in range(n)
             for name, params in (("h", ()), ("rx", (0.3,)), ("t", ()))]
    # every ordered pair, reversed ones such as (2, 0) included
    gates += [Gate(name, pair, params)
              for pair in itertools.permutations(range(n), 2)
              for name, params in (("cx", ()), ("rzx90", ()), ("cp", (0.4,)))]
    rng = np.random.default_rng(n)
    for gate in gates:
        batch = rng.standard_normal((3, 1 << n)) + 1j * rng.standard_normal((3, 1 << n))
        one = apply_gate_to_state(batch[0], gate, n)
        ref = _tensordot_apply(batch[0].reshape((2,) * n), gate)
        assert np.array_equal(one, ref.reshape(-1))
        out = apply_gate_to_state(batch, gate, n)
        ref = _tensordot_apply(batch.reshape((3,) + (2,) * n), gate, first=1)
        assert np.array_equal(out, ref.reshape(3, -1))
        if n >= 4:
            # the simulator's grouping rule: from 4 qubits up every row of
            # a batch keeps the bits of that state applied on its own
            for row, state in zip(out, batch):
                assert np.array_equal(row, apply_gate_to_state(state, gate, n))


@pytest.mark.parametrize("name", ["qft", "hs", "qpe", "qaoa", "ising", "grc"])
def test_ideal_unitary_bit_identical_to_tensordot(name):
    for n in range(2, 7):
        if name == "hs" and n % 2:
            continue
        c = to_native(benchmark(name, n, seed=1))
        dim = 1 << n
        # the reference evolves the identity's columns with a trailing batch axis
        cols = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
        for gate in c.gates:
            cols = _tensordot_apply(cols, gate)
        assert np.array_equal(ideal_unitary(c), cols.reshape(dim, dim))


def test_ideal_unitary_qubit_cap():
    with pytest.raises(ValueError):
        ideal_unitary(Circuit(9, (Gate("h", (0,)),)))


# ------------------------------------------------------------ gate pins

# sha256 of the gate set's matrices, lowerings and arity table, recorded
# before the per-gate if-chains became one table; any change to a matrix
# entry, a decomposition angle (a zero's sign included), the operand order
# of a lowering or the known/native names moves one of them.
GATE_MATRIX_SHA256 = "e550b2be84eb53949ae372719eac7c1f224c6fbeb954af7e1de8c53a3e0f1b77"
GATE_LOWERING_SHA256 = "d56bde47849c0373ba8b9c40ff5c5d38667f5ccf5349452f21432bc75277fd1b"
GATE_NAMES_SHA256 = "19dafe771cd6babb560d6dd064b3ee717056c40211880b0c4e54aaa832dd7fa6"

_PIN_ANGLES = (0.0, -0.0, 0.7, -1.3, math.pi / 3, 2.5 * math.pi)


def _pin_gates():
    """Every known gate on both operand orders, each angle for a parameter."""
    for name, (n_par, n_q) in sorted(circuit._KNOWN.items()):
        for qubits in ((0,), (1,)) if n_q == 1 else ((0, 1), (1, 0)):
            for params in [(a,) for a in _PIN_ANGLES] if n_par else [()]:
                yield Gate(name, qubits, params)


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_gate_matrices_pinned():
    lines = []
    for gate in _pin_gates():
        if gate.qubits[0] == 0:
            m = gate_matrix(gate)
            lines.append(f"{gate.name} {gate.params!r} {m.dtype} {m.shape} "
                         f"{m.tobytes().hex()}")
    assert _sha256_lines(lines) == GATE_MATRIX_SHA256


def test_gate_lowerings_pinned():
    lines = [" ; ".join(map(circuit._gate_line, to_native(Circuit(2, (gate,))).gates))
             for gate in _pin_gates()]
    assert _sha256_lines(lines) == GATE_LOWERING_SHA256


def test_gate_names_pinned():
    lines = [repr(sorted(circuit._KNOWN.items())), repr(sorted(circuit.NATIVE_NAMES))]
    assert _sha256_lines(lines) == GATE_NAMES_SHA256


# ------------------------------------------------------------ benchmarks


def dft_matrix(n):
    dim = 2 ** n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * math.pi * j * k / dim) / math.sqrt(dim)


def test_qft2_gate_counts():
    c = benchmark("qft", 2)
    names = [g.name for g in c.gates]
    assert names.count("h") == 2
    assert names.count("cp") == 1
    assert names.count("swap") == 1


@pytest.mark.parametrize("n", [2, 3])
def test_qft_equals_dft(n):
    u = ideal_unitary(benchmark("qft", n))
    assert phase_free_distance(u, dft_matrix(n)) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_hidden_shift_recovers_shift(seed):
    n = 4
    c = benchmark("hs", n, seed=seed)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=n)
    expected = 0
    for q in range(n):
        expected |= int(shift[q]) << (n - 1 - q)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for gate in c.gates:
        state = apply_gate_to_state(state, gate, n)
    assert abs(state[expected]) == pytest.approx(1.0, abs=1e-9)


def test_hidden_shift_odd_qubits_rejected():
    with pytest.raises(ValueError):
        benchmark("hs", 5)


@pytest.mark.parametrize("seed", [0, 2, 9])
def test_qpe_reads_out_phase(seed):
    n = 4
    m = n - 1
    c = benchmark("qpe", n, seed=seed)
    val = int(np.random.default_rng(seed).integers(1, 2 ** m))
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for gate in c.gates:
        state = apply_gate_to_state(state, gate, n)
    # target ends on qubit 0 in |1>, counting register follows with val
    expected = (1 << m) | val
    assert abs(state[expected]) == pytest.approx(1.0, abs=1e-9)


def test_benchmark_determinism():
    a = benchmark("ising", 4, seed=7)
    b = benchmark("ising", 4, seed=7)
    assert a == b
    assert benchmark("grc", 4, seed=1) != benchmark("grc", 4, seed=2)


def test_benchmark_guards():
    with pytest.raises(ValueError):
        benchmark("nope", 4)
    with pytest.raises(ValueError):
        benchmark("qft", 1)
    with pytest.raises(ValueError):
        benchmark("qft", 13)


@pytest.mark.parametrize("name", ["qft", "hs", "qpe", "qaoa", "ising", "grc"])
def test_benchmarks_are_chain_shaped(name):
    c = benchmark(name, 4, seed=1)
    for g in c.gates:
        if len(g.qubits) == 2:
            assert abs(g.qubits[0] - g.qubits[1]) == 1


def test_qubit_order_maps_onto_grid_snake():
    g = grid_topology(3, 4)
    order = grid_snake_order(3, 4)
    c = benchmark("qft", 12, seed=0, qubit_order=order)
    assert c.num_qubits == 12
    edge_set = set(g.edges)
    for gate in c.gates:
        if len(gate.qubits) == 2:
            assert tuple(sorted(gate.qubits)) in edge_set


def test_qubit_order_must_be_permutation():
    with pytest.raises(ValueError):
        benchmark("qft", 3, qubit_order=[0, 1])
    with pytest.raises(ValueError):
        benchmark("qft", 3, qubit_order=[0, 1, 1])
