"""Device-level statevector simulation of scheduled circuits.

Every coupling carries an always-on sigma_z sigma_z term in every layer;
gate pulses contribute their drive terms only inside their own time
windows. Layers from the suppression-aware scheduler keep their active
side driven by filling slot tails with repeated identity pulses; baseline
layers leave tails to free evolution. rz gates are instantaneous frame
rotations. The ideal reference applies exact gate matrices, so pulse
calibration error counts against the pulse, not the reference. Pulses come
in as a map from native kind to pulse; pulse.native_library builds the one
a backend runs.

Two integrators share the same midpoint sampling grid and the same pulse
windows: a split-step statevector propagator (diagonal ZZ half-steps
around closed-form local drive exponentials) used by default, and the
dense propagator in pulse (_propagate as a one-problem stack, the one
that also evolves basic regions), kept as a small-system oracle.

Frame rotations and the ideal reference apply each gate matrix with one
ndarray.dot (circuit.apply_gate_to_state), on exactly the operand
np.tensordot would build for each state alone.

The split-step layer cuts its steps at every window start and end, so a
segment has one operator sequence; the state lives in a home buffer
between steps. The leading ZZ half-step reads it through a transposed view
into the segment's start layout, the step's one permutation, and writes
the second buffer. Operators then take turns between the two buffers with
no copy: the first product keeps the layout, each later one reads its
targets from the trailing axes through an F-ordered operand and writes
them first. The trailing half-step writes the result home. Elementwise
products keep their bits at any stride. Only operators that share a
target, as a coupled gate's own channels do, take a copy.

A drive operand holds the tensordot operand's columns in another order
and memory order. zgemm computes each column on its own when the operand
is below 4 or a multiple of 4 columns wide, and gives an F-ordered
operand the bits of its contiguous copy (tests check both of the BLAS
build), so every report keeps the bits of the tensordot formulation.
Each operator's step matrices are built once per _run_plan call, as one
C-contiguous 2-D array per step, and a step applies each with
ndarray.dot: the product np.dot computes, through the same zgemm call,
without np.dot's Python dispatch.

Device samples of one topology differ only in the diagonal ZZ phase, so
simulate_ensemble evolves a group of them in one (devices, 2^n) state
through the whole plan, frame rotations and drive layers alike. _run_plan
picks the groups and says why each row keeps the bits of a one-device
run; tests check this against the tensordot reference, device by device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Gate,
    apply_gate_to_state,
    gate_matrix,
)
from .pulse import (
    DEFAULT_SAMPLE_RATE,
    OptimizedPulse,
    RegionModel,
    _evolve_stack,
    _propagate,
    _window_amplitudes,
    _zz_diagonal,
    avg_gate_fidelity,
    gate_space_model,
    num_steps,
    with_cross_lambda,
)

TWO_PI = 2 * math.pi
SIM_MAX_QUBITS = 12  # the statevector register cap


def check_sim_size(n):
    """Raise the simulator's size cap for an n-qubit register; a run checks
    it before it schedules or designs anything."""
    if n > SIM_MAX_QUBITS:
        raise ValueError(f"simulation capped at {SIM_MAX_QUBITS} qubits")


# ------------------------------------------------------------- devices


@dataclass(frozen=True)
class DeviceInstance:
    """A topology with one concrete ZZ strength (rad/s) per edge."""

    topology: object
    lambda_sample: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda_sample", tuple(float(v) for v in self.lambda_sample))
        if len(self.lambda_sample) != len(self.topology.edges):
            raise ValueError("need one ZZ strength per coupling")
        if any(not math.isfinite(v) or v < 0 for v in self.lambda_sample):
            raise ValueError("ZZ strengths must be finite and nonnegative")

    def couplings(self):
        """(u, v, lambda) for every coupling, in topology edge order."""
        edges = self.topology.edges
        return [(u, v, lam) for (u, v), lam in zip(edges, self.lambda_sample)]


def sample_device(topology, mu_hz, sigma_hz, seed):
    """Draw per-edge ZZ strengths from N(mu, sigma^2), truncated at zero."""
    if sigma_hz < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    hz = rng.normal(mu_hz, sigma_hz, size=len(topology.edges))
    hz = np.maximum(hz, 0.0)
    return DeviceInstance(topology, tuple(TWO_PI * v for v in hz), seed)


def uniform_device(topology, lambda_hz):
    """Every coupling at the same strength; convenience for fixed scenarios."""
    lam = TWO_PI * lambda_hz
    return DeviceInstance(topology, (lam,) * len(topology.edges))


@dataclass(frozen=True)
class SimReport:
    fidelity: float
    seed: int


# ------------------------------------------------------ layer assembly


def _unwrap(pulse):
    return pulse.spec if isinstance(pulse, OptimizedPulse) else pulse


def _pulse_map(pulses):
    return {kind: _unwrap(p) for kind, p in pulses.items()}


def _sample_rate(pmap):
    """Integrator rate for a pulse set: the finest any of its pulses asks for."""
    return max((p.sample_rate for p in pmap.values()), default=DEFAULT_SAMPLE_RATE)


def _layer_windows(layer, pmap):
    """Timed pulse windows for one layer: (start, spec, device qubits).

    Suppression layers (the ones carrying a cut) keep every gate qubit
    driven to the end of the slot by repeating the identity pulse after
    the gate pulse finishes, so one whose gate is shorter than its slot
    needs an id pulse; baseline layers leave the tail undriven.
    """
    def pulse_for(kind):
        if kind not in pmap:
            raise ValueError(f"no pulse provided for gate kind {kind!r}")
        return pmap[kind]

    duration = layer.duration
    windows = []
    for gate in layer.gates:
        if gate.name == "rz":
            raise ValueError("rz gates belong in the layer's frame rotations")
        spec = pulse_for(gate.name)
        if spec.duration > duration + 1e-12:
            raise ValueError(
                f"{gate.name} pulse ({spec.duration * 1e9:.1f} ns) exceeds its "
                f"layer slot ({duration * 1e9:.1f} ns)"
            )
        windows.append((0.0, spec, gate.qubits))
        if layer.cut is not None and spec.duration < duration - 1e-12:
            fill = pulse_for("id")
            for q in gate.qubits:
                t = spec.duration
                while t + fill.duration <= duration + 1e-12:
                    windows.append((t, fill, (q,)))
                    t += fill.duration
    return windows


# ------------------------------------------------------ split evolution


def _batch_su2(ax, ay, dt):
    """exp(-i dt (ax X + ay Y)) for amplitude arrays, shape (m, 2, 2)."""
    a = np.hypot(ax, ay)
    r = dt * a
    c = np.cos(r)
    s = np.sin(r)
    safe = np.where(a > 0.0, a, 1.0)
    nx = np.where(a > 0.0, ax / safe, 0.0)
    ny = np.where(a > 0.0, ay / safe, 0.0)
    u = np.zeros((len(r), 2, 2), dtype=complex)
    u[:, 0, 0] = c
    u[:, 1, 1] = c
    u[:, 0, 1] = -1j * s * (nx - 1j * ny)
    u[:, 1, 0] = -1j * s * (nx + 1j * ny)
    return u


def _batch_zx(amps, dt):
    """exp(-i dt a Z x X): (ZX)^2 = I gives a two-term closed form."""
    r = dt * amps
    c = np.cos(r)
    s = np.sin(r)
    u = np.zeros((len(r), 4, 4), dtype=complex)
    for k in range(4):
        u[:, k, k] = c
    u[:, 0, 1] = -1j * s
    u[:, 1, 0] = -1j * s
    u[:, 2, 3] = 1j * s
    u[:, 3, 2] = 1j * s
    return u


def _window_ops(windows, duration, steps, cache):
    """[(i0, i1, step operators, qubits)] for a layer's windows, in window
    order, each window's singles then couplings by register qubit; step
    operators lists one 2-D matrix per step.

    cache maps (duration, steps, start, spec, gate size) to the window's
    operators on its gate's own qubit indices, so one _run_plan call builds
    the operators of a pulse at one start on one step grid once, whichever
    qubits it drives.
    """
    dt = duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    ops = []
    for start, spec, qmap in windows:
        key = (duration, steps, start, spec, len(qmap))
        if key not in cache:
            cache[key] = made = []
            local = (start, spec, tuple(range(len(qmap))))
            for i0, i1, singles, couplings in _window_amplitudes([local], mids):
                made += [(i0, i1, (q,), list(_batch_su2(ax, ay, dt)))
                         for q, (ax, ay) in singles.items()]
                made += [(i0, i1, pair, list(_batch_zx(amps, dt)))
                         for pair, amps in couplings.items()]
        placed = [(i0, i1, us, tuple(qmap[q] for q in qs)) for i0, i1, qs, us in cache[key]]
        ops += sorted(placed, key=lambda op: (len(op[3]), op[3]))
    return ops


def _in_layout(buf, b, lay, order=None):
    """A flat buffer holding layout lay, as a tensor with its axes in order."""
    ten = buf.reshape([b if ax == 0 else 2 for ax in lay])
    return ten if order is None else ten.transpose([lay.index(ax) for ax in order])


def _segment_calls(live, n, lay, bufs, b):
    """(start layout, [(step operators, operand, product)], end buffer, end
    layout) for one segment's steps, each starting in bufs[1]; layouts list
    the state axes in memory order, 0 the batch and 1 + q qubit q.

    The start layout is the first operator's targets, the axes no operator
    drives, then the later operators' targets last to first, so each finds
    its targets trailing; with no operator it is lay. The tail stops at the
    first operator that shares a target with an earlier one: targets
    neither leading nor trailing take a copy (step operators None) to the
    back first."""
    start = lay
    if live:
        placed, tail = set(live[0][1]), ()
        for _, t in live[1:]:
            if placed.intersection(t):
                break
            placed.update(t)
            tail = t + tail
        start = (*live[0][1], *(ax for ax in range(n + 1) if ax not in placed), *tail)
    calls, i, at = [], 1, start
    for us, t in live:
        d = 1 << len(t)
        if at[:len(t)] == t:
            calls.append((us, bufs[i].reshape(d, -1), bufs[1 - i].reshape(d, -1)))
        else:
            if at[-len(t):] != t:
                last = (*(ax for ax in at if ax not in t), *t)
                calls.append((None, _in_layout(bufs[i], b, at, last),
                              _in_layout(bufs[1 - i], b, last)))
                i, at = 1 - i, last
            calls.append((us, bufs[i].reshape(-1, d).T, bufs[1 - i].reshape(d, -1)))
            at = t + at[:-len(t)]
        i = 1 - i
    return start, calls, i, at


def _split_layer(psi, n, zz_diag, windows, duration, rate, cache=None):
    """One layer for a batch of devices: psi and zz_diag are (B, 2^n).

    cache shares step operators between the layers of one plan run.
    """
    steps = num_steps(duration, rate)
    dt = duration / steps
    b = len(psi)
    ops = _window_ops(windows, duration, steps, {} if cache is None else cache)
    half = np.exp(-0.5j * dt * zz_diag).reshape((b,) + (2,) * n)
    # bufs[0] holds the state between steps, in layout lay
    bufs = (psi.reshape(-1).copy(), np.empty(psi.size, dtype=complex))
    lay = tuple(range(n + 1))
    cuts = sorted({0, steps}.union(*((i0, i1) for i0, i1, _, _ in ops)))
    for s0, s1 in zip(cuts, cuts[1:]):
        live = [(us[s0 - i0:s1 - i0], tuple(1 + q for q in qubits))
                for i0, i1, us, qubits in ops if i0 <= s0 < i1]
        start, calls, end, at = _segment_calls(live, n, lay, bufs, b)
        start_half = np.ascontiguousarray(half.transpose(start))
        end_half = np.ascontiguousarray(half.transpose(at)).reshape(-1)
        # the first step reads the layout the segment before left
        first = _in_layout(bufs[0], b, lay, start)
        src, dst = _in_layout(bufs[0], b, at, start), _in_layout(bufs[1], b, start)
        for k in range(s1 - s0):
            # the leading half-step carries the step's one permutation
            np.multiply(src if k else first, start_half, dst)
            for us, x, o in calls:
                if us is None:
                    np.copyto(o, x)
                else:
                    us[k].dot(x, o)
            np.multiply(bufs[end], end_half, bufs[0])
        lay = at
    return np.ascontiguousarray(_in_layout(bufs[0], b, lay, range(n + 1))).reshape(b, -1)


# ------------------------------------------------------------ simulate


def _run_plan(devices, plan, pmap, method):
    g = devices[0].topology
    n = g.num_qubits
    if any(d.topology != g for d in devices[1:]):
        raise ValueError("devices must share one topology")
    if plan.num_qubits != n:
        raise ValueError("plan does not fit the device")
    check_sim_size(n)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    rate = _sample_rate(pmap)
    windows = [_layer_windows(layer, pmap) for layer in plan.layers]
    ideal = psi0
    gates = [gate for layer in plan.layers for gate in (*layer.rz_gates, *layer.gates)]
    for gate in (*gates, *plan.trailing_rz):
        ideal = apply_gate_to_state(ideal, gate, n)
    zz_diag = np.stack([_zz_diagonal(n, d.couplings()) for d in devices])
    # Two zgemm premises keep the split-step bits; tests check both of the
    # BLAS build. zgemm computes 4-column blocks with one kernel and a
    # narrower tail with another, so an operand's columns keep their bits
    # in any order and at any batch only when it is below 4 or a multiple
    # of 4 wide: each segment may pick its layout. And an F-ordered operand
    # (the transpose of a C-contiguous array) gives the bits of its
    # contiguous copy: an operator may read its targets from the trailing
    # axes of its operand buffer. A drive operand is B * 2^n / 2^targets wide: a power of 2 for
    # one device, a multiple of 4 for B devices from 4 qubits up. Smaller
    # registers, and the dense oracle, run one device at a time. Frame
    # rotations and drive layers share the group's batch.
    group = len(devices) if n >= 4 and method == "split" else 1
    rows = []
    step_ops = {}
    for i in range(0, len(devices), group):
        zz = zz_diag[i:i + group]
        psi = np.tile(psi0, (len(zz), 1))
        for layer, w in zip(plan.layers, windows):
            for gate in layer.rz_gates:
                psi = apply_gate_to_state(psi, gate, n)
            if method == "dense":
                psi = (_propagate(zz, [w], layer.duration, rate)[0, 0] @ psi[0])[None]
            else:
                psi = _split_layer(psi, n, zz, w, layer.duration, rate, step_ops)
        for gate in plan.trailing_rz:
            psi = apply_gate_to_state(psi, gate, n)
        rows.append(psi)
    return np.concatenate(rows), ideal


def simulate_ensemble(devices, plan, pulses, method="split"):
    """Evolve one plan on every device in one pass; one SimReport each.

    devices share one topology and differ in their ZZ strengths; every
    device starts from |0...0>, and the ideal reference is evolved once.
    pulses maps native gate kind to a PulseSpec (or OptimizedPulse); every
    kind appearing in the plan must be covered. method "split" runs the
    split-step engine, batching the devices from 4 qubits up; "dense" the
    small-system oracle, one by one.
    """
    devices = tuple(devices)
    if not devices:
        raise ValueError("need at least one device")
    if method not in ("split", "dense"):
        raise ValueError(f"unknown method {method!r}")
    psi, ideal = _run_plan(devices, plan, _pulse_map(pulses), method)
    reports = []
    for device, row in zip(devices, psi):
        fid = abs(np.vdot(ideal, row)) ** 2
        fid = min(max(float(fid), 0.0), 1.0)
        reports.append(SimReport(fid, device.seed))
    return reports


def simulate_plan(device, plan, pulses, method="split"):
    """Evolve a scheduled plan on one device and score it against the ideal;
    simulate_ensemble with a single device."""
    return simulate_ensemble((device,), plan, pulses, method)[0]


# ---------------------------------------------------- suppression sweep


def _pulse_kind(spec):
    if any(ch.axis == "coupling" for ch in spec.channels):
        return "two"
    return "single"


def suppression_sweep(scenario, pulse, lambdas, floor=1e-8, target_gate=None):
    """Infidelity-vs-strength curve for one pulse in a fixed scenario, as
    (strength, suppression infidelity) per strength; the regions at every
    strength evolve as one stack.

    single_gate_pair: the pulse's gate plus one idle coupled spectator,
    scored against the pulse's own coupling-free evolution, so the curve
    isolates crosstalk and calibration error belongs to the pulse.
    target_gate ("rx90" or "id", single_gate_pair only) scores against the
    exact gate matrix instead, folding calibration error back in; that
    comparison has a lower numerical floor and is the right one for
    scaling-exponent fits.
    two_gate_chain: a two-qubit gate in a four-qubit chain whose three
    couplings all carry the swept strength; scored against the dressed
    gate-space evolution tensored with idle identities.

    lambdas are in rad/s. floor clips reported infidelities from below
    (pass None to keep raw values, e.g. for slope fits).
    """
    if scenario not in ("single_gate_pair", "two_gate_chain"):
        raise ValueError(f"unknown scenario {scenario!r}")
    if len(lambdas) == 0:
        raise ValueError("need at least one strength")
    spec = _unwrap(pulse)
    kind = _pulse_kind(spec)
    if scenario == "single_gate_pair" and kind != "single":
        raise ValueError("single_gate_pair needs a single-qubit pulse")
    if scenario == "two_gate_chain" and kind != "two":
        raise ValueError("two_gate_chain needs a two-qubit pulse")
    if target_gate is not None:
        if kind != "single":
            raise ValueError("target_gate applies to single-qubit sweeps")
        if target_gate not in ("rx90", "id"):
            raise ValueError(f"unknown target gate {target_gate!r}")
    lams = [float(lam) for lam in lambdas]
    if kind == "single":
        models = [RegionModel("single", neighbor_lambdas_a=(lam,)) for lam in lams]
        if target_gate is not None:
            target = np.kron(gate_matrix(Gate(target_gate, (0,))), np.eye(2))
        else:
            # no crosstalk, so one evolution serves every strength
            target = _evolve_stack([with_cross_lambda(models[0], 0.0)], [spec])[0, 0]
        targets = [target] * len(lams)
    else:
        models = [RegionModel("two", neighbor_lambdas_a=(lam,), neighbor_lambdas_b=(lam,),
                              intra_lambda=lam) for lam in lams]
        # dressed: the gate-space evolution keeps the always-on intra
        # coupling, so only spectator error is scored
        dressed = _evolve_stack([gate_space_model(m) for m in models], [spec])[0]
        targets = [np.kron(d, np.eye(4)) for d in dressed]
    us = _evolve_stack(models, [spec])[0]
    curve = []
    for lam, u, target in zip(lams, us, targets):
        infid = 1.0 - avg_gate_fidelity(u, target)
        if floor is not None:
            infid = max(infid, floor)
        curve.append((lam, infid))
    return curve


# ------------------------------------------------------ Ramsey protocol


@dataclass(frozen=True)
class RamseyResult:
    effective_zz_hz: float
    freqs_hz: tuple  # fitted fringe frequency per spectator preparation
    r_squared: tuple
    taus: tuple
    populations: tuple  # P(|1> on probe) curves per spectator preparation


def _probe_population(psi, probe, n):
    amps = psi.reshape([2] * n)
    one = np.take(amps, 1, axis=probe)
    return float(np.sum(np.abs(one) ** 2))


def fit_cosine(taus, values):
    """Fit values ~ a cos(2 pi f tau) + b sin(2 pi f tau) + c.

    Coarse frequency from a zero-padded FFT peak, refined by nested grid
    search on the least-squares residual. Returns (f_hz, r_squared).

    Each of the four rounds builds the designs of its 41 candidate
    frequencies in one pass: one phase product, one cos, one sin and one
    stack give a (41, delays, 3) array holding the products and columns a
    design per frequency would. Every candidate keeps its own
    least-squares solve and residual, so each number has the bits of a
    one-at-a-time search.
    """
    taus = np.asarray(taus, dtype=float)
    y = np.asarray(values, dtype=float)
    if not (np.isfinite(taus).all() and np.isfinite(y).all()):
        raise ValueError("fit expects finite delays and values")
    if len(y) != len(taus):
        raise ValueError("need one value per delay")
    if len(taus) < 8:
        raise ValueError("need at least 8 samples to fit a fringe")
    dt = np.diff(taus)
    if not np.all(dt > 0):
        raise ValueError("fit expects strictly increasing delays")
    if np.any(np.abs(dt - dt[0]) > 1e-9 * dt[0]):
        raise ValueError("fit expects a uniform delay grid")
    step = dt[0]
    centered = y - y.mean()
    padded = np.fft.rfft(centered, n=16 * len(y))
    freqs = np.fft.rfftfreq(16 * len(y), d=step)
    peak = int(np.argmax(np.abs(padded[1:]))) + 1
    guess = freqs[peak]
    bin_width = 1.0 / (len(y) * step)

    def sse(cols):
        coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
        resid = y - cols @ coef
        return float(resid @ resid)

    ones = np.ones((41, len(taus)))
    best = guess
    span = bin_width
    for _ in range(4):
        grid = np.linspace(max(best - span, 0.0), best + span, 41)
        phases = (TWO_PI * grid)[:, None] * taus  # TWO_PI * f * taus per row
        designs = np.stack([np.cos(phases), np.sin(phases), ones], axis=-1)
        errs = [sse(cols) for cols in designs]
        k = int(np.argmin(errs))
        best = float(grid[k])
        span /= 10.0
    sst = float(centered @ centered)
    r2 = 1.0 - errs[k] / sst if sst > 0 else 0.0
    return best, r2


def ramsey_experiment(device, pulses, policy, probe=0, control=1):
    """Spectator-conditioned Ramsey fringe pair on a 2- or 3-qubit device.

    Each run is Rx(pi/2) on the probe, a wait block, a frame rotation at a
    2 MHz virtual detuning, and a second Rx(pi/2); P(|1>) versus delay is
    fitted to a cosine for the spectator prepared in |0> and in |1>, and
    the effective ZZ strength is the fitted frequency difference. The 64
    delays step from 0 by 8 identity slots (the id pulse's duration, 20 ns
    without one). The bare policy leaves the wait to free evolution;
    suppressed_B fills it with repeated identity pulses on the probe,
    suppressed_C on every qubit except the probe.
    """
    if policy not in ("bare", "suppressed_B", "suppressed_C"):
        raise ValueError(f"unknown policy {policy!r}")
    g = device.topology
    n = g.num_qubits
    if n not in (2, 3):
        raise ValueError("the protocol runs on 2- or 3-qubit devices")
    if not (0 <= probe < n and 0 <= control < n and probe != control):
        raise ValueError("probe and control must be distinct device qubits")
    pmap = _pulse_map(pulses)
    if "rx90" not in pmap:
        raise ValueError("pulses must cover rx90")
    if policy != "bare" and "id" not in pmap:
        raise ValueError("suppressed policies need an identity pulse")
    rate = _sample_rate(pmap)
    t_id = pmap["id"].duration if "id" in pmap else 20e-9
    taus = tuple(k * 8 * t_id for k in range(64))

    # full-device propagators of one pulse slot, ZZ always on
    zz = _zz_diagonal(n, device.couplings())
    rx = pmap["rx90"]
    u_rx = _propagate([zz], [[(0.0, rx, (probe,))]], rx.duration, rate)[0, 0]
    if policy != "bare":
        driven = (probe,) if policy == "suppressed_B" else tuple(
            q for q in range(n) if q != probe)
        windows = [(0.0, pmap["id"], (q,)) for q in driven]
        u_slot = _propagate([zz], [windows], t_id, rate)[0, 0]
    dim = 1 << n

    omega_v = TWO_PI * 2e6
    idx = np.arange(dim)
    probe_bit = (idx >> (n - 1 - probe)) & 1

    curves = []
    freqs = []
    r2s = []
    for prep in (0, 1):
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        if prep == 1:
            psi0 = apply_gate_to_state(psi0, Gate("x", (control,)), n)
        after_first = u_rx @ psi0
        pops = []
        wait = after_first.copy()
        prev_tau = 0.0
        for k, tau in enumerate(taus):
            if policy == "bare":
                wait = np.exp(-1j * zz * (tau - prev_tau)) * wait
            else:
                for _ in range(8 if k else 0):
                    wait = u_slot @ wait
            prev_tau = tau
            framed = np.exp(0.5j * omega_v * tau * (2 * probe_bit - 1)) * wait
            final = u_rx @ framed
            pops.append(_probe_population(final, probe, n))
        f, r2 = fit_cosine(taus, pops)
        if r2 < 0.9:
            raise ValueError(f"cosine fit failed (R^2 = {r2:.3f})")
        curves.append(tuple(pops))
        freqs.append(f)
        r2s.append(r2)
    return RamseyResult(abs(freqs[1] - freqs[0]), tuple(freqs), tuple(r2s), taus,
                        tuple(curves))
