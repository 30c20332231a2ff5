"""Device-level statevector simulation of scheduled circuits.

Every coupling carries an always-on sigma_z sigma_z term in every layer;
gate pulses contribute their drive terms only inside their own time
windows. Layers from the suppression-aware scheduler keep their active
side driven by filling slot tails with repeated identity pulses; baseline
layers leave tails to free evolution. rz gates are instantaneous frame
rotations. The ideal reference applies exact gate matrices, so pulse
calibration error counts against the pulse, not the reference.

Two integrators share the same midpoint sampling grid: a split-step
statevector propagator (diagonal ZZ half-steps around closed-form local
drive exponentials) used by default, and a dense eigendecomposition
propagator kept as a small-system oracle. The split-step layer lists the
operators of every step before stepping; each apply is one np.dot on
exactly the transposed, reshaped operand np.tensordot would build, which
keeps every amplitude, and so every report, bit-identical to tensordot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, GateTimes, apply_gate_to_state, gate_matrix
from .pulse import (
    _I2,
    _X,
    _Y,
    _Z,
    OptimizedPulse,
    RegionModel,
    avg_gate_fidelity,
    control_unitary,
    dcg_sequence,
    envelope_value,
    evolve,
    gaussian_pulse,
    num_steps,
)

TWO_PI = 2 * math.pi


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


def sample_device(topology, mu_hz, sigma_hz, seed):
    """Draw per-edge ZZ strengths from N(mu, sigma^2), truncated at zero."""
    if sigma_hz < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    hz = rng.normal(mu_hz, sigma_hz, size=len(topology.edges))
    hz = np.maximum(hz, 0.0)
    return DeviceInstance(topology, tuple(TWO_PI * v for v in hz), seed)


def uniform_device(topology, lambda_hz, seed=0):
    """Every coupling at the same strength; convenience for fixed scenarios."""
    lam = TWO_PI * lambda_hz
    return DeviceInstance(topology, (lam,) * len(topology.edges), seed)


@dataclass(frozen=True)
class SimReport:
    fidelity: float
    per_layer: tuple  # (n_q, n_c, duration) per executed layer
    total_duration: float
    policy: str
    pulse_backend: str
    seed: int


# ------------------------------------------------------ layer assembly


def _unwrap(pulse):
    return pulse.spec if isinstance(pulse, OptimizedPulse) else pulse


def _pulse_map(pulses):
    return {kind: _unwrap(p) for kind, p in pulses.items()}


def _zz_diagonal(g, lambdas, n):
    """Diagonal of sum_e lambda_e Z_u Z_v over the full device register."""
    dim = 1 << n
    idx = np.arange(dim)
    z = np.empty((n, dim))
    for q in range(n):
        z[q] = 1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1)
    diag = np.zeros(dim)
    for (u, v), lam in zip(g.edges, lambdas):
        if lam != 0.0:
            diag += lam * z[u] * z[v]
    return diag


def _layer_windows(layer, pmap):
    """Timed pulse windows for one layer: (start, spec, device qubits).

    Suppression layers (the ones carrying a cut) keep every gate qubit
    driven to the end of the slot by repeating the identity pulse after
    the gate pulse finishes; baseline layers leave the tail undriven.
    """
    duration = layer.duration
    windows = []
    fill = layer.cut is not None and "id" in pmap
    tid = pmap["id"].duration if "id" in pmap else None
    for gate in layer.gates:
        if gate.name == "rz":
            raise ValueError("rz gates belong in the layer's frame rotations")
        if gate.name not in pmap:
            raise KeyError(f"no pulse provided for gate kind {gate.name!r}")
        spec = pmap[gate.name]
        if spec.duration > duration + 1e-12:
            raise ValueError(
                f"{gate.name} pulse ({spec.duration * 1e9:.1f} ns) exceeds its "
                f"layer slot ({duration * 1e9:.1f} ns)"
            )
        windows.append((0.0, spec, gate.qubits))
        if fill:
            for q in gate.qubits:
                t = spec.duration
                while t + tid <= duration + 1e-12:
                    windows.append((t, pmap["id"], (q,)))
                    t += tid
    return windows


def _window_amplitudes(windows, mids):
    """Evaluate each window's channels on the in-window midpoints.

    Returns [(i0, i1, singles, couplings)] with singles {device qubit:
    (ax, ay)} and couplings {device pair: a} as arrays over steps i0..i1.
    """
    out = []
    for start, spec, qmap in windows:
        inside = (mids > start) & (mids < start + spec.duration)
        if not inside.any():
            continue
        i0 = int(np.argmax(inside))
        i1 = i0 + int(np.sum(inside))
        local_t = mids[i0:i1] - start
        singles = {}
        couplings = {}
        for ch in spec.channels:
            amps = envelope_value(ch.envelope, local_t)
            if ch.axis in ("x", "y"):
                q = qmap[ch.target]
                ax, ay = singles.setdefault(q, [np.zeros(i1 - i0), np.zeros(i1 - i0)])
                if ch.axis == "x":
                    ax += amps
                else:
                    ay += amps
            elif ch.axis == "coupling":
                pair = (qmap[ch.target[0]], qmap[ch.target[1]])
                couplings[pair] = couplings.get(pair, 0.0) + amps
            else:
                raise ValueError(f"unsupported channel axis {ch.axis!r}")
        out.append((i0, i1, singles, couplings))
    return out


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


def _split_layer(psi, n, zz_diag, windows, duration, rate):
    steps = num_steps(duration, rate)
    dt = duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    half = np.exp(-0.5j * dt * zz_diag).reshape([2] * n)
    ops = []
    for i0, i1, singles, couplings in _window_amplitudes(windows, mids):
        for q, (ax, ay) in sorted(singles.items()):
            ops.append((i0, i1, _batch_su2(ax, ay, dt), (q,)))
        for pair, amps in sorted(couplings.items()):
            ops.append((i0, i1, _batch_zx(amps, dt), pair))
    # active[k]: step k's operators in window order, each with the operand
    # transpose and shapes np.tensordot would build, so np.dot multiplies
    # the same arrays and every amplitude keeps its bits
    active = [[] for _ in range(steps)]
    for i0, i1, batch, qubits in ops:
        perm = qubits + tuple(q for q in range(n) if q not in qubits)
        inv_perm = tuple(perm.index(q) for q in range(n))
        in_shape = (len(batch[0]), (1 << n) // len(batch[0]))
        for k in range(i0, i1):
            active[k].append((batch[k - i0], perm, inv_perm, in_shape))
    out_shape = (2,) * n
    psi_t = psi.reshape(out_shape)
    for step_ops in active:
        psi_t = psi_t * half
        for u, perm, inv_perm, in_shape in step_ops:
            bt = psi_t.transpose(perm).reshape(in_shape)
            psi_t = np.dot(u, bt).reshape(out_shape).transpose(inv_perm)
        psi_t = psi_t * half
    return np.ascontiguousarray(psi_t).reshape(-1)


# ---------------------------------------------------- dense oracle path


def _embed_sites(site_ops, n):
    mats = [_I2] * n
    for q, m in site_ops:
        mats[q] = m
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _dense_layer(n, zz_diag, windows, duration, rate):
    """Per-step eigendecomposition propagator; oracle for small registers."""
    if n > 6:
        raise ValueError("dense propagator capped at 6 qubits")
    steps = num_steps(duration, rate)
    dt = duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    terms = []
    for i0, i1, singles, couplings in _window_amplitudes(windows, mids):
        for q, (ax, ay) in sorted(singles.items()):
            full_x = np.zeros(steps)
            full_x[i0:i1] = ax
            full_y = np.zeros(steps)
            full_y[i0:i1] = ay
            if np.any(full_x):
                terms.append((full_x, _embed_sites([(q, _X)], n)))
            if np.any(full_y):
                terms.append((full_y, _embed_sites([(q, _Y)], n)))
        for (a, b), amps in sorted(couplings.items()):
            full = np.zeros(steps)
            full[i0:i1] = amps
            terms.append((full, _embed_sites([(a, _Z), (b, _X)], n)))
    h_static = np.diag(zz_diag.astype(complex))
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for k in range(steps):
        h = h_static.copy()
        for amps, mat in terms:
            if amps[k] != 0.0:
                h = h + amps[k] * mat
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * dt * w)) @ v.conj().T @ u
    return u


# ------------------------------------------------------------ simulate


def _apply_rz_like(state, gates, n):
    for gate in gates:
        state = apply_gate_to_state(state, gate, n)
    return state


def _run_plan(device, plan, pmap, input_state, method, rate):
    g = device.topology
    n = g.num_qubits
    if plan.num_qubits != n:
        raise ValueError("plan does not fit the device")
    if n > 12:
        raise ValueError("simulation capped at 12 qubits")
    dim = 1 << n
    if input_state is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(input_state, dtype=complex)
        if psi.shape != (dim,):
            raise ValueError(f"input state must have dimension {dim}")
        psi = psi.copy()
    ideal = psi.copy()
    zz_diag = _zz_diagonal(g, device.lambda_sample, n)
    per_layer = []
    for layer in plan.layers:
        psi = _apply_rz_like(psi, layer.rz_gates, n)
        ideal = _apply_rz_like(ideal, layer.rz_gates, n)
        ideal = _apply_rz_like(ideal, layer.gates, n)
        windows = _layer_windows(layer, pmap)
        if method == "dense":
            u = _dense_layer(n, zz_diag, windows, layer.duration, rate)
            psi = u @ psi
        else:
            psi = _split_layer(psi, n, zz_diag, windows, layer.duration, rate)
        per_layer.append((layer.n_q, layer.n_c, layer.duration))
    psi = _apply_rz_like(psi, plan.trailing_rz, n)
    ideal = _apply_rz_like(ideal, plan.trailing_rz, n)
    return psi, ideal, tuple(per_layer)


def simulate_plan(device, plan, pulses, input_state=None, method="split",
                  policy=None, pulse_backend="custom", rate=None):
    """Evolve a scheduled plan on a device and score it against the ideal.

    pulses maps native gate kind to a PulseSpec (or OptimizedPulse); every
    kind appearing in the plan must be covered. method "split" runs the
    split-step statevector engine; "dense" the small-system oracle.
    """
    if method not in ("split", "dense"):
        raise ValueError(f"unknown method {method!r}")
    pmap = _pulse_map(pulses)
    if rate is None:
        rate = max((p.sample_rate for p in pmap.values()), default=200)
    psi, ideal, per_layer = _run_plan(device, plan, pmap, input_state, method, rate)
    fid = abs(np.vdot(ideal, psi)) ** 2
    fid = min(max(float(fid), 0.0), 1.0)
    if policy is None:
        policy = "zzx" if any(l.cut is not None for l in plan.layers) else "par"
    return SimReport(fid, per_layer, plan.total_duration, policy, pulse_backend,
                     device.seed)


# ------------------------------------------------------ pulse libraries


def gaussian_library():
    """Truncated-Gaussian pulses for the native set at the default slots."""
    return {
        "rx90": gaussian_pulse(math.pi / 2, 20e-9),
        "id": gaussian_pulse(TWO_PI, 20e-9),
        "rzx90": gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1)),
    }


def dcg_library():
    """Composed echo sequences for 1q gates; Gaussian fallback for rzx90."""
    return {
        "rx90": dcg_sequence("rx_half_pi"),
        "id": dcg_sequence("identity"),
        "rzx90": gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1)),
    }


def backend_gate_times(backend):
    if backend == "dcg":
        return GateTimes.dcg()
    return GateTimes()


# ---------------------------------------------------- suppression sweep


def _pulse_kind(spec):
    if any(ch.axis == "coupling" for ch in spec.channels):
        return "two"
    return "single"


def _sweep_infidelity(spec, kind, lam, detunings=(), amp_scale=1.0,
                      target_gate=None):
    """Suppression infidelity at one strength.

    The default reference is the pulse's own coupling-free evolution
    under the same drive settings, so the curve isolates crosstalk:
    calibration error belongs to the pulse, and a drive imperfection
    moves the reference along with the evolution. target_gate switches
    the reference to the exact gate matrix, folding calibration error
    back in; that comparison has a lower numerical floor and is the
    right one for scaling-exponent fits.
    """
    if kind == "single":
        model = RegionModel("single", neighbor_lambdas_a=(lam,))
        if target_gate is not None:
            target = np.kron(gate_matrix(Gate(target_gate, (0,))), np.eye(2))
        else:
            target = evolve(model, spec, include_crosstalk=False,
                            detunings=detunings, amp_scale=amp_scale)
    else:
        model = RegionModel("two", neighbor_lambdas_a=(lam,),
                            neighbor_lambdas_b=(lam,), intra_lambda=lam)
        # dressed: the gate-space evolution keeps the always-on intra
        # coupling, so only spectator error is scored
        dressed = control_unitary(model, spec, include_intra=True)
        target = np.kron(dressed, np.eye(4))
    u = evolve(model, spec, detunings=detunings, amp_scale=amp_scale)
    return 1.0 - avg_gate_fidelity(u, target)


def suppression_sweep(scenario, pulse, lambdas, floor=1e-8, target_gate=None):
    """Infidelity-vs-strength curve for one pulse in a fixed scenario.

    single_gate_pair: the pulse's gate plus one idle coupled spectator.
    two_gate_chain: a two-qubit gate in a four-qubit chain whose three
    couplings all carry the swept strength; scored against the dressed
    gate-space evolution tensored with idle identities.

    lambdas are in rad/s. floor clips reported infidelities from below
    (pass None to keep raw values, e.g. for slope fits). target_gate
    ("rx90" or "id", single_gate_pair only) scores against the exact
    gate matrix instead of the pulse's own coupling-free evolution.
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
    curve = []
    for lam in lambdas:
        infid = _sweep_infidelity(spec, kind, float(lam), target_gate=target_gate)
        if floor is not None:
            infid = max(infid, floor)
        curve.append((float(lam), infid))
    return curve


def drive_noise_eval(pulse, noise, lambdas, floor=1e-8):
    """suppression_sweep under drive imperfections.

    noise keys: detuning_hz (constant frequency offset on the driven
    qubit, entering as 2 pi df Z/2) and amplitude_frac (constant relative
    scaling of every drive envelope).
    """
    unknown = set(noise) - {"detuning_hz", "amplitude_frac"}
    if unknown:
        raise ValueError(f"unknown noise keys {sorted(unknown)}")
    det = float(noise.get("detuning_hz", 0.0))
    amp = float(noise.get("amplitude_frac", 0.0))
    spec = _unwrap(pulse)
    if _pulse_kind(spec) != "single":
        raise ValueError("drive-noise evaluation covers single-qubit pulses")
    detunings = ((0, TWO_PI * det),) if det else ()
    curve = []
    for lam in lambdas:
        infid = _sweep_infidelity(spec, "single", float(lam),
                                  detunings=detunings, amp_scale=1.0 + amp)
        if floor is not None:
            infid = max(infid, floor)
        curve.append((float(lam), infid))
    return curve


# ------------------------------------------------------ Ramsey protocol


@dataclass(frozen=True)
class RamseyResult:
    policy: str
    effective_zz_hz: float
    freqs_hz: tuple  # fitted fringe frequency per spectator preparation
    r_squared: tuple
    taus: tuple
    populations: tuple  # P(|1> on probe) curves per spectator preparation


def _probe_population(psi, probe, n):
    amps = psi.reshape([2] * n)
    one = np.take(amps, 1, axis=probe)
    return float(np.sum(np.abs(one) ** 2))


def _device_pulse_unitary(device, spec, qubits, rate):
    """Full-device propagator for one pulse window with ZZ always on."""
    n = device.topology.num_qubits
    zz = _zz_diagonal(device.topology, device.lambda_sample, n)
    windows = [(0.0, spec, tuple(qubits))]
    return _dense_layer(n, zz, windows, spec.duration, rate)


def _wait_slot_unitary(device, id_spec, driven, rate):
    n = device.topology.num_qubits
    zz = _zz_diagonal(device.topology, device.lambda_sample, n)
    windows = [(0.0, id_spec, (q,)) for q in driven]
    return _dense_layer(n, zz, windows, id_spec.duration, rate)


def fit_cosine(taus, values):
    """Fit values ~ a cos(2 pi f tau) + b sin(2 pi f tau) + c.

    Coarse frequency from a zero-padded FFT peak, refined by nested grid
    search on the least-squares residual. Returns (f_hz, r_squared).
    """
    taus = np.asarray(taus, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(taus) < 8:
        raise ValueError("need at least 8 samples to fit a fringe")
    dt = np.diff(taus)
    if np.any(np.abs(dt - dt[0]) > 1e-9 * max(abs(dt[0]), 1e-12)):
        raise ValueError("fit expects a uniform delay grid")
    step = dt[0]
    centered = y - y.mean()
    padded = np.fft.rfft(centered, n=16 * len(y))
    freqs = np.fft.rfftfreq(16 * len(y), d=step)
    peak = int(np.argmax(np.abs(padded[1:]))) + 1
    guess = freqs[peak]
    bin_width = 1.0 / (len(y) * step)

    def sse(f):
        cols = np.column_stack([
            np.cos(TWO_PI * f * taus),
            np.sin(TWO_PI * f * taus),
            np.ones_like(taus),
        ])
        coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
        resid = y - cols @ coef
        return float(resid @ resid)

    best = guess
    span = bin_width
    for _ in range(4):
        grid = np.linspace(max(best - span, 0.0), best + span, 41)
        errs = [sse(f) for f in grid]
        best = float(grid[int(np.argmin(errs))])
        span /= 10.0
    sst = float(centered @ centered)
    r2 = 1.0 - sse(best) / sst if sst > 0 else 0.0
    return best, r2


def ramsey_experiment(device, pulses, policy, delays=None, probe=0, control=1,
                      virtual_detuning_hz=2e6):
    """Spectator-conditioned Ramsey fringe pair on a 2- or 3-qubit device.

    Each run is Rx(pi/2) on the probe, a wait block, a frame rotation at
    the virtual detuning, and a second Rx(pi/2); P(|1>) versus delay is
    fitted to a cosine for the spectator prepared in |0> and in |1>, and
    the effective ZZ strength is the fitted frequency difference. The
    bare policy leaves the wait to free evolution; suppressed_B fills it
    with repeated identity pulses on the probe, suppressed_C on every
    qubit except the probe.
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
        raise KeyError("pulses must cover rx90")
    if policy != "bare" and "id" not in pmap:
        raise KeyError("suppressed policies need an identity pulse")
    rate = max(p.sample_rate for p in pmap.values())
    t_id = pmap["id"].duration if "id" in pmap else 20e-9
    if delays is None:
        delays = tuple(k * 8 * t_id for k in range(64))
    taus = tuple(float(t) for t in delays)
    if any(t < 0 for t in taus) or list(taus) != sorted(taus):
        raise ValueError("delays must be sorted and nonnegative")

    u_rx = _device_pulse_unitary(device, pmap["rx90"], (probe,), rate)
    if policy == "bare":
        u_slot = None
        slot = taus[1] - taus[0] if len(taus) > 1 else t_id
    else:
        driven = (probe,) if policy == "suppressed_B" else tuple(
            q for q in range(n) if q != probe)
        u_slot = _wait_slot_unitary(device, pmap["id"], driven, rate)
        slot = t_id
    zz = _zz_diagonal(g, device.lambda_sample, n)
    dim = 1 << n

    omega_v = TWO_PI * virtual_detuning_hz
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
        for tau in taus:
            if policy == "bare":
                wait = np.exp(-1j * zz * (tau - prev_tau)) * wait
            else:
                blocks = int(round((tau - prev_tau) / slot))
                if abs((tau - prev_tau) - blocks * slot) > 1e-12:
                    raise ValueError("delays must be multiples of the identity slot")
                for _ in range(blocks):
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
    return RamseyResult(policy, abs(freqs[1] - freqs[0]), tuple(freqs),
                        tuple(r2s), taus, tuple(curves))


def ramsey_effective_zz(device, pulses, policy, delays=None, probe=0, control=1,
                        virtual_detuning_hz=2e6):
    """Effective ZZ strength in Hz seen by the probe; see ramsey_experiment."""
    return ramsey_experiment(device, pulses, policy, delays, probe, control,
                             virtual_detuning_hz).effective_zz_hz
