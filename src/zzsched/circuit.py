"""Circuit IR, text format, native-gate lowering, benchmark generators.

Gates are named records over 1 or 2 qubit ids. The gate table `_GATES` is
the one place a gate is defined: its parameter and qubit counts, its dense
matrix and its one-step decomposition. Parsing, the arity check,
`gate_matrix` and `to_native` all read it. The native set is the entries
with no decomposition, {rz(theta), rx90, rzx90, id}; rz is virtual (zero
duration). Anything else is lowered by to_native through the table's fixed
decompositions, verified against dense matrices. The text format is one
gate per line, `name [params] qubit [qubit]`, with `#` comments and an
optional leading `qubits N` line.

Unitary conventions: qubit 0 is the most significant bit of a state index.
Rz(t) = diag(e^{-it/2}, e^{it/2}), Rx(t) = exp(-i t X / 2), and rzx90 is
exp(-i (pi/4) Z x X) with the first operand carrying the Z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

# ------------------------------------------------------------- gate table

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _rx_mat(t):
    return math.cos(t / 2) * _I2 - 1j * math.sin(t / 2) * _X


def _controlled(u0, u1):
    """Two-qubit matrix: u0 on the second operand if the first is 0, else u1."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = u0
    out[2:, 2:] = u1
    return out


class _GateDef(NamedTuple):
    """matrix(*params): the dense matrix, first operand the high bit.
    lower(*qubits, *params): one decomposition step, None for a native gate."""

    n_params: int
    n_qubits: int
    matrix: Callable
    lower: Callable | None = None


_GATES = {
    "id": _GateDef(0, 1, _I2.copy),
    "rz": _GateDef(1, 1, lambda th: np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])),
    "rx90": _GateDef(0, 1, lambda: _rx_mat(math.pi / 2)),
    "rzx90": _GateDef(0, 2, lambda: _controlled(_rx_mat(math.pi / 2),
                                                _rx_mat(-math.pi / 2))),
    "h": _GateDef(0, 1, _H.copy, lambda q: [
        Gate("rz", (q,), (math.pi / 2,)), Gate("rx90", (q,)),
        Gate("rz", (q,), (math.pi / 2,))]),
    "x": _GateDef(0, 1, _X.copy, lambda q: [Gate("rx90", (q,)), Gate("rx90", (q,))]),
    "y": _GateDef(0, 1, _Y.copy, lambda q: [
        Gate("rz", (q,), (math.pi,)), Gate("rx90", (q,)), Gate("rx90", (q,))]),
    "z": _GateDef(0, 1, _Z.copy, lambda q: [Gate("rz", (q,), (math.pi,))]),
    "s": _GateDef(0, 1, lambda: np.diag([1, 1j]).astype(complex), lambda q: [
        Gate("rz", (q,), (math.pi / 2,))]),
    "t": _GateDef(0, 1, lambda: np.diag([1, np.exp(0.25j * math.pi)]), lambda q: [
        Gate("rz", (q,), (math.pi / 4,))]),
    "rx": _GateDef(1, 1, _rx_mat, lambda q, th: [
        Gate("rz", (q,), (-math.pi / 2,)), Gate("rx90", (q,)),
        Gate("rz", (q,), (math.pi - th,)), Gate("rx90", (q,)),
        Gate("rz", (q,), (-math.pi / 2,))]),
    "ry": _GateDef(1, 1, lambda th: math.cos(th / 2) * _I2 - 1j * math.sin(th / 2) * _Y,
                   lambda q, th: [Gate("rz", (q,), (-math.pi / 2,)), Gate("rx", (q,), (th,)),
                                  Gate("rz", (q,), (math.pi / 2,))]),
    "cx": _GateDef(0, 2, lambda: _controlled(_I2, _X), lambda c, t: [
        Gate("x", (c,)), Gate("rzx90", (c, t)), Gate("x", (c,)), Gate("rx90", (t,)),
        Gate("rz", (c,), (math.pi / 2,))]),
    "cz": _GateDef(0, 2, lambda: np.diag([1, 1, 1, -1]).astype(complex), lambda c, t: [
        Gate("h", (t,)), Gate("cx", (c, t)), Gate("h", (t,))]),
    "cp": _GateDef(1, 2, lambda th: np.diag([1, 1, 1, np.exp(1j * th)]), lambda c, t, th: [
        Gate("rz", (c,), (th / 2,)), Gate("rz", (t,), (th / 2,)), Gate("cx", (c, t)),
        Gate("rz", (t,), (-th / 2,)), Gate("cx", (c, t))]),
    "swap": _GateDef(0, 2, lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]], lambda a, b: [
        Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]),
    "rzz": _GateDef(1, 2, lambda th: np.diag(np.exp(-0.5j * th * np.array([1, -1, -1, 1]))),
                    lambda a, b, th: [Gate("cx", (a, b)), Gate("rz", (b,), (th,)),
                                      Gate("cx", (a, b))]),
}
# name -> (param count, qubit count) for every gate the parser knows
_KNOWN = {name: (d.n_params, d.n_qubits) for name, d in _GATES.items()}
NATIVE_NAMES = frozenset(name for name, d in _GATES.items() if d.lower is None)
_ALIASES = {"identity": "id", "cnot": "cx"}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple
    params: tuple = ()

    def __post_init__(self):
        # operator.index: numpy ints pass, 1.7 raises instead of becoming 1
        object.__setattr__(self, "qubits", tuple(map(operator.index, self.qubits)))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        arity = _KNOWN.get(self.name)
        if arity is not None and arity != (len(self.params), len(self.qubits)):
            raise ValueError(
                f"{self.name} takes {arity[0]} parameter(s) and {arity[1]} qubit(s)"
            )
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"{self.name}: gates act on 1 or 2 qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name}: repeated operand qubit")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"{self.name}: negative qubit id")
        if any(not math.isfinite(p) for p in self.params):
            raise ValueError(f"{self.name}: non-finite parameter")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple

    def __post_init__(self):
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.num_qubits:
                    raise ValueError(f"gate {gate.name} uses qubit {q} out of range")


@dataclass(frozen=True)
class GateTimes:
    """Per-kind durations in seconds; rz is virtual and free."""

    rx90: float = 20e-9
    rzx90: float = 80e-9
    id: float = 20e-9
    rz: float = 0.0

    @classmethod
    def for_backend(cls, backend):
        """The slots a pulse backend's native pulses fill: dcg's composed
        sequences take longer 1q slots, every other backend the defaults."""
        if backend == "dcg":
            return cls(rx90=120e-9, id=40e-9, rzx90=80e-9)
        return cls()

    def duration(self, gate):
        if gate.name not in NATIVE_NAMES:
            raise ValueError(f"no duration for non-native gate {gate.name!r}")
        return getattr(self, gate.name)


def dependencies(c):
    """Per-gate predecessor index sets from per-qubit program order."""
    last = {}
    preds = []
    for i, gate in enumerate(c.gates):
        p = set()
        for q in gate.qubits:
            if q in last:
                p.add(last[q])
            last[q] = i
        preds.append(frozenset(p))
    return tuple(preds)


# ---------------------------------------------------------------- parsing


def parse(text, num_qubits=None):
    gates = []
    declared = None
    max_q = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head == "qubits":
            if gates or declared is not None:
                raise ValueError(f"line {ln}: qubits directive must come first")
            try:
                (declared,) = map(int, tokens[1:])
            except ValueError:
                raise ValueError(f"line {ln}: malformed qubits directive")
            if declared < 0:
                raise ValueError(f"line {ln}: negative qubit count {declared}")
            continue
        name = _ALIASES.get(head, head)
        if name not in _KNOWN:
            raise ValueError(f"line {ln}: unknown gate {name!r}")
        n_par, n_q = _KNOWN[name]
        rest = tokens[1:]
        if len(rest) != n_par + n_q:
            raise ValueError(
                f"line {ln}: {name} takes {n_par} parameter(s) and {n_q} qubit(s)"
            )
        par_tok, q_tok = rest[:n_par], rest[n_par:]
        try:
            params = tuple(float(t) for t in par_tok)
        except ValueError:
            raise ValueError(f"line {ln}: bad parameter in {par_tok}")
        if not all(_is_int(t) for t in q_tok):
            raise ValueError(f"line {ln}: qubit operands must be integers")
        qubits = tuple(int(t) for t in q_tok)
        try:
            gate = Gate(name, qubits, params)
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}")
        max_q = max(max_q, *qubits)
        gates.append((ln, gate))
    n = num_qubits if num_qubits is not None else declared
    if n is None:
        n = max_q + 1
    for ln, gate in gates:
        for q in gate.qubits:
            if q >= n:
                raise ValueError(f"line {ln}: qubit {q} out of range for {n} qubits")
    return Circuit(n, tuple(g for _, g in gates))


def _is_int(tok):
    try:
        int(tok)
        return True
    except ValueError:
        return False


def _gate_line(gate):
    """One gate in the text format: name, repr'd params, qubit ids."""
    return " ".join([gate.name, *map(repr, gate.params), *map(str, gate.qubits)])


def print_circuit(c):
    lines = [f"qubits {c.num_qubits}"]
    lines.extend(_gate_line(gate) for gate in c.gates)
    return "\n".join(lines) + "\n"


def save_circuit(path, c):
    with open(path, "w") as fh:
        fh.write(print_circuit(c))


def load_circuit(path):
    with open(path) as fh:
        return parse(fh.read())


# ----------------------------------------------------- native lowering


def _expand(gate):
    """One decomposition step; returns None when the gate is native."""
    entry = _GATES.get(gate.name)
    if entry is None:
        raise ValueError(f"cannot lower gate {gate.name!r} to the native set")
    return entry.lower and entry.lower(*gate.qubits, *gate.params)


def _lowered(gate):
    """The native gates of one gate, in program order.

    Only parameter-free composites are memoized: rz(0.0) and rz(-0.0) are
    equal and hash alike, so a memo keyed on a gate with parameters would
    hand back the first-seen sign of a zero angle.
    """
    if gate.name in NATIVE_NAMES:
        return (gate,)
    if gate.params:
        return _lower(gate)
    return _lower_fixed(gate)


def _lower(gate):
    return tuple(native for part in _expand(gate) for native in _lowered(part))


_lower_fixed = lru_cache(maxsize=4096)(_lower)


def to_native(c):
    """Lower every gate to {rz, rx90, rzx90, id}; unitary preserved up to phase."""
    return Circuit(c.num_qubits, tuple(n for gate in c.gates for n in _lowered(gate)))


# ------------------------------------------------------ dense semantics

def gate_matrix(gate):
    """Dense matrix for a named gate; first operand is the high bit."""
    entry = _GATES.get(gate.name)
    if entry is None:
        raise ValueError(f"no matrix for gate {gate.name!r}")
    return entry.matrix(*gate.params)


def apply_gate_to_state(state, gate, num_qubits):
    """Apply a gate to a (2^n,) state or a (b, 2^n) batch, batch axis leading.

    One ndarray.dot (np.dot's product without its Python dispatch) on an
    operand whose axes are the gate's qubits, the batch, then the other
    qubits, so each state's columns are the operand np.tensordot builds
    for it alone.
    """
    b = len(state) if state.ndim == 2 else 1
    targets = tuple(1 + q for q in gate.qubits)
    perm = targets + tuple(a for a in range(num_qubits + 1) if a not in targets)
    inv_perm = tuple(perm.index(a) for a in range(num_qubits + 1))
    bt = state.reshape((b,) + (2,) * num_qubits).transpose(perm).reshape(1 << len(targets), -1)
    psi = gate_matrix(gate).dot(bt).reshape([b if a == 0 else 2 for a in perm])
    return np.ascontiguousarray(psi.transpose(inv_perm)).reshape(state.shape)


def ideal_unitary(c):
    """Full circuit unitary, a testing oracle for small circuits: basis
    state j evolves as row j of one batch and ends as column j."""
    if c.num_qubits > 8:
        raise ValueError("dense unitary capped at 8 qubits")
    rows = np.eye(1 << c.num_qubits, dtype=complex)
    for gate in c.gates:
        rows = apply_gate_to_state(rows, gate, c.num_qubits)
    return rows.T


# ------------------------------------------------------------ benchmarks


def _ripple_qft_gates(size, offset=0, inverse=False):
    # interleaved-swap form: every interaction is nearest-neighbor and the
    # net unitary equals the DFT matrix exactly (swaps absorb bit reversal)
    gates = []
    for r in range(size):
        gates.append(Gate("h", (offset,)))
        for k in range(size - 1 - r):
            gates.append(Gate("cp", (offset + k, offset + k + 1), (math.pi / 2 ** (k + 1),)))
            gates.append(Gate("swap", (offset + k, offset + k + 1)))
    if not inverse:
        return gates
    out = []
    for g in reversed(gates):
        if g.name == "cp":
            out.append(Gate("cp", g.qubits, (-g.params[0],)))
        else:
            out.append(g)
    return out


def _bench_qft(n, rng):
    return _ripple_qft_gates(n)


def _bench_hs(n, rng):
    if n % 2:
        raise ValueError("hidden-shift circuits need an even qubit count")
    shift = rng.integers(0, 2, size=n)
    pairs = [(2 * k, 2 * k + 1) for k in range(n // 2)]
    gates = [Gate("h", (q,)) for q in range(n)]
    gates += [Gate("x", (q,)) for q in range(n) if shift[q]]
    gates += [Gate("cz", p) for p in pairs]
    gates += [Gate("x", (q,)) for q in range(n) if shift[q]]
    gates += [Gate("h", (q,)) for q in range(n)]
    gates += [Gate("cz", p) for p in pairs]
    gates += [Gate("h", (q,)) for q in range(n)]
    return gates


def _bench_qpe(n, rng):
    # n-1 counting qubits ahead of one target on the chain; the target state
    # ripples left through swaps so every controlled phase is nearest-neighbor
    m = n - 1
    val = int(rng.integers(1, 2 ** m))
    phi = val / 2 ** m
    gates = [Gate("x", (m,))]
    gates += [Gate("h", (k,)) for k in range(m)]
    for k in range(m - 1, -1, -1):
        angle = 2 * math.pi * phi * 2 ** (m - 1 - k)
        gates.append(Gate("cp", (k, k + 1), (angle,)))
        gates.append(Gate("swap", (k, k + 1)))
    gates += _ripple_qft_gates(m, offset=1, inverse=True)
    return gates


def _bench_qaoa(n, rng):
    layers = 2
    gammas = rng.uniform(0, math.pi, layers)
    betas = rng.uniform(0, math.pi, layers)
    gates = [Gate("h", (q,)) for q in range(n)]
    for g_ang, b_ang in zip(gammas, betas):
        gates += [Gate("rzz", (i, i + 1), (float(g_ang),)) for i in range(n - 1)]
        gates += [Gate("rx", (q,), (float(b_ang),)) for q in range(n)]
    return gates


def _bench_ising(n, rng):
    steps = 2
    dt = 0.2
    fields = rng.uniform(0.5, 1.5, size=n)
    gates = []
    for _ in range(steps):
        gates += [Gate("rzz", (i, i + 1), (2 * dt,)) for i in range(n - 1)]
        gates += [Gate("rx", (q,), (2 * dt * float(fields[q]),)) for q in range(n)]
    return gates


def _bench_grc(n, rng):
    layers = 4
    singles = ["h", "t", "s", "x"]
    gates = []
    for layer in range(layers):
        picks = rng.integers(0, len(singles), size=n)
        gates += [Gate(singles[picks[q]], (q,)) for q in range(n)]
        gates += [Gate("cz", (i, i + 1)) for i in range(layer % 2, n - 1, 2)]
    return gates


_BENCHES = {
    "qft": _bench_qft,
    "hs": _bench_hs,
    "qpe": _bench_qpe,
    "qaoa": _bench_qaoa,
    "ising": _bench_ising,
    "grc": _bench_grc,
}


def benchmark(name, n, seed=0, qubit_order=None):
    """Deterministic chain-shaped benchmark circuit.

    Two-qubit gates act only on consecutive chain positions, so the circuit
    fits any device along a path; qubit_order maps chain position i to a
    device qubit id (for example a grid snake).
    """
    if name not in _BENCHES:
        raise ValueError(f"unknown benchmark {name!r}")
    if not 2 <= n <= 12:
        raise ValueError("benchmarks support 2..12 qubits")
    rng = np.random.default_rng(seed)
    gates = _BENCHES[name](n, rng)
    if qubit_order is None:
        return Circuit(n, tuple(gates))
    order = list(qubit_order)
    if len(order) != n or len(set(order)) != n:
        raise ValueError("qubit_order must be a permutation of length n")
    remapped = [
        Gate(g.name, tuple(order[q] for q in g.qubits), g.params) for g in gates
    ]
    return Circuit(max(order) + 1, tuple(remapped))
