"""Pulse envelopes, the dense propagator, and pulse optimization.

A basic region is one driven gate (one or two qubits) plus the idle
neighbor qubits it is coupled to. The always-on coupling is a z*z term of
strength lambda (rad/s) per edge; drives enter as Omega_x sigma_x +
Omega_y sigma_y on a gate qubit (no 1/2, so the rotation angle is
2*integral(Omega)) or as Omega * sigma_z x sigma_x on the gate pair.

One dense propagator (_propagate) steps stacks of timed pulse windows
over stacks of diagonal ZZ terms with one eigendecomposition per step.
A region (_evolve_stack, and evolve as its one-problem case) steps its
pulse as one window at t = 0 on the gate qubits over the couplings its
RegionModel holds; quantumsim steps device layers (its oracle on small
registers) and Ramsey slots as one-problem stacks. All share one
Hamiltonian builder, one channel-target check and one size cap.

Three pulse backends: optctrl (penalized fidelity averaged over coupling
strengths), pert (first-order interaction-picture cancellation, in closed
form, on regions without intra coupling), and dcg (fixed composed
Gaussian sequences). optimize is one driver for both design backends:
each gives it a problem, a loss and, for pert (_pert_system), a Newton
polish and a convergence check. native_pulse is the one place that says
which pulse a backend, gaussian included, runs for each native kind. All
internal units are rad/s and seconds; file formats carry Hz and ns with
explicit conversion.

The restarts descend in lockstep, and each loss call takes one round's
rows of every restart at once: the finite-difference stencils of all
live restarts, or each searching restart's next line-search probes. The
pert loss is one batched pass over the plane integrals; the optctrl
loss is one stack of independent problems for the one stepper, which
diagonalizes chunks of steps of every problem in stacked eigh calls
sized by a byte budget. Pulses keep the bits of a per-point, per-step,
per-restart loop.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .circuit import _I2, _X, _Y, _Z, Gate, GateTimes, gate_matrix

TWO_PI = 2 * math.pi
DEFAULT_SAMPLE_RATE = 200  # integrator steps per 20 ns of pulse
DEFAULT_LAMBDA_SAMPLES = tuple(TWO_PI * f for f in (50e3, 100e3, 200e3, 400e3))


# ------------------------------------------------------------- envelopes


@dataclass(frozen=True)
class FourierEnvelope:
    """Omega(t) = sum_j (a_j/2) (1 + cos(2 pi j t / T - pi)); zero at 0 and T."""

    a: tuple  # exactly five coefficients, rad/s
    T: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if len(self.a) != 5:
            raise ValueError("five Fourier coefficients expected")
        if not all(math.isfinite(v) for v in self.a) or not math.isfinite(self.T):
            raise ValueError("non-finite envelope parameter")
        if self.T <= 0:
            raise ValueError("duration must be positive")


def _fourier_rows(t, T):
    """The five rows 1 + cos(2 pi j t / T - pi), j = 1..5, at the times t."""
    return [1 + np.cos(TWO_PI * j * t / T - math.pi) for j in range(1, 6)]


@dataclass(frozen=True)
class GaussianSegment:
    """Baseline-subtracted Gaussian over [start, start+length], sigma = L/6.

    The analytic area equals angle/2, matching Rx(angle) = exp(-i angle/2 X)
    under the convention H = Omega * sigma_x.
    """

    angle: float
    start: float
    length: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.angle, self.start, self.length))):
            raise ValueError("non-finite segment parameter")

    @property
    def sigma(self):
        return self.length / 6

    @property
    def amplitude(self):
        # integral of exp(-u^2/2s^2) - exp(-4.5) over [-L/2, L/2]
        s = self.sigma
        area = s * math.sqrt(TWO_PI) * math.erf(3 / math.sqrt(2))
        area -= self.length * math.exp(-4.5)
        if area == 0:
            return 0.0
        return (self.angle / 2) / area


@dataclass(frozen=True)
class SegmentEnvelope:
    segments: tuple
    T: float

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("duration must be finite and positive")
        edge = 0.0
        for seg in self.segments:
            if seg.length <= 0:
                raise ValueError("segment length must be positive")
            if abs(seg.start - edge) > 1e-15:
                raise ValueError("segments must tile [0, T] without gaps")
            edge = seg.start + seg.length
        if abs(edge - self.T) > 1e-15:
            raise ValueError("segments must end at T")


def envelope_value(env, t):
    """Omega at the times t in [0, T] (rad/s); a float for a scalar t."""
    if not isinstance(env, (FourierEnvelope, SegmentEnvelope)):
        raise TypeError(f"unknown envelope {type(env).__name__}")
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > env.T * (1 + 1e-12) + 1e-15):
        raise ValueError("time outside [0, T]")
    out = np.zeros_like(t)
    if isinstance(env, FourierEnvelope):
        for aj, row in zip(env.a, _fourier_rows(t, env.T)):
            out = out + (aj / 2) * row
    else:
        for seg in env.segments:
            center = seg.start + seg.length / 2
            inside = (t >= seg.start) & (t <= seg.start + seg.length)
            u = t - center
            shape = np.exp(-(u ** 2) / (2 * seg.sigma ** 2)) - math.exp(-4.5)
            out = np.where(inside, out + seg.amplitude * shape, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Channel:
    target: object  # gate-qubit index, or (0, 1) for the coupling drive
    axis: str  # "x", "y", or "coupling"
    envelope: object


@dataclass(frozen=True)
class PulseSpec:
    channels: tuple
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        # operator.index: numpy ints pass, 2.5 raises instead of becoming 2
        object.__setattr__(self, "sample_rate", operator.index(self.sample_rate))
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be at least 1, got {self.sample_rate}")
        if not self.channels:
            raise ValueError("pulse needs at least one channel")
        durations = {ch.envelope.T for ch in self.channels}
        if len(durations) != 1:
            raise ValueError("all channels must share one duration")

    @property
    def duration(self):
        return self.channels[0].envelope.T


def num_steps(T, sample_rate):
    return max(1, int(round(sample_rate * T / 20e-9)))


# ---------------------------------------------------------- region model


@dataclass(frozen=True)
class RegionModel:
    """One driven gate plus its idle cross-region neighbors.

    Qubit layout: gate qubits first (a, then b for two-qubit regions),
    then the neighbors of a, then the neighbors of b.
    """

    kind: str  # "single" or "two"
    neighbor_lambdas_a: tuple = ()
    neighbor_lambdas_b: tuple = ()
    intra_lambda: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "neighbor_lambdas_a", tuple(float(v) for v in self.neighbor_lambdas_a)
        )
        object.__setattr__(
            self, "neighbor_lambdas_b", tuple(float(v) for v in self.neighbor_lambdas_b)
        )
        if self.kind not in ("single", "two"):
            raise ValueError("region kind must be 'single' or 'two'")
        if self.kind == "single" and (self.neighbor_lambdas_b or self.intra_lambda):
            raise ValueError("single-qubit regions have no second gate qubit")
        lams = self.neighbor_lambdas_a + self.neighbor_lambdas_b + (self.intra_lambda,)
        if not all(map(math.isfinite, lams)):
            raise ValueError("ZZ strengths must be finite")

    @property
    def num_gate_qubits(self):
        return 1 if self.kind == "single" else 2

    @property
    def num_qubits(self):
        return (
            self.num_gate_qubits
            + len(self.neighbor_lambdas_a)
            + len(self.neighbor_lambdas_b)
        )

    @property
    def dim(self):
        """Hilbert-space dimension, read by every dense routine; pert's
        closed form never builds the region, so only dense work is capped."""
        return 1 << _dense_qubits(self.num_qubits)

    def cross_pairs(self):
        """(gate qubit, neighbor qubit, lambda) for every cross-region coupling."""
        base = self.num_gate_qubits
        out = [
            (0, base + i, lam) for i, lam in enumerate(self.neighbor_lambdas_a)
        ]
        shift = base + len(self.neighbor_lambdas_a)
        out += [
            (1, shift + i, lam) for i, lam in enumerate(self.neighbor_lambdas_b)
        ]
        return out


def gate_space_model(model):
    """The same region with all neighbors dropped (intra term kept)."""
    return replace(model, neighbor_lambdas_a=(), neighbor_lambdas_b=())


def with_cross_lambda(model, lam):
    """Every cross-region coupling set to the same strength."""
    return replace(
        model,
        neighbor_lambdas_a=(lam,) * len(model.neighbor_lambdas_a),
        neighbor_lambdas_b=(lam,) * len(model.neighbor_lambdas_b),
    )


def _embed(ops, positions, n):
    mats = [_I2] * n
    for op, pos in zip(ops, positions):
        mats[pos] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# ------------------------------------------------------------- evolution


_DENSE_MAX_QUBITS = 6  # the one cap on dense work: regions, device layers, Ramsey
# bytes per array of one stacked eigh chunk. A whole-pulse stack costs
# memory and time, and the arrays, made and freed once per chunk, were
# handed back to the system and faulted in again when larger (about 1,600
# page faults per budgeted optctrl design at 128 KiB, against 12 at 32 KiB)
_STEP_BYTES = 1 << 15


def _dense_qubits(n):
    """n, checked against the cap every dense routine shares."""
    if n > _DENSE_MAX_QUBITS:
        raise ValueError(f"{n} qubits (dimension {1 << n}) exceed the dense "
                         f"propagator's cap of {_DENSE_MAX_QUBITS} qubits")
    return n


def _step_nodes(h_static, terms, dt, steps):
    """Yield the propagator at every step boundary, identity first.

    terms holds (amplitude per step, constant matrix) pairs. Leading axes
    B of h_static (*B, d, d) and of the amplitudes (*B, steps), broadcast
    together, stack P independent problems; the nodes are (*B, d, d). Each
    chunk takes as many steps as fit their P complex d x d matrices into
    _STEP_BYTES, and at least one: it builds its Hamiltonians as one
    stack, diagonalizes them in one eigh call and forms the step unitaries
    with one stacked matmul; they are then applied in order, u = su @ u.
    LAPACK and BLAS treat each matrix of a stack on its own, so every
    problem gets the bits of a per-step loop over it alone, whatever the
    chunk size.
    """
    shape = np.broadcast_shapes(h_static.shape, *(a.shape[:-1] + (1, 1) for a, _ in terms))
    chunk = max(1, _STEP_BYTES // (16 * math.prod(shape[:-2]) * shape[-1] * shape[-1]))
    u = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
    yield u
    for k0 in range(0, steps, chunk):
        k1 = min(k0 + chunk, steps)
        h = np.empty((*shape[:-2], k1 - k0, *shape[-2:]), dtype=complex)
        h[...] = h_static[..., None, :, :]
        for amps, mat in terms:
            h += amps[..., k0:k1, None, None] * mat
        w, v = np.linalg.eigh(h)
        sus = (v * np.exp(-1j * w * dt)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        for j in range(k1 - k0):
            u = sus[..., j, :, :] @ u
            yield u


def _zz_diagonal(n, terms):
    """Diagonal of sum lam Z_q... on n qubits, one (q..., lam) tuple per term.

    A coupling is (u, v, lam) and a z field on q is (q, lam).
    Terms add in the order given; zero strengths are skipped.
    """
    idx = np.arange(1 << n)
    z = 1.0 - 2.0 * ((idx >> (n - 1 - np.arange(n))[:, None]) & 1)
    diag = np.zeros(1 << n)
    for *qubits, lam in terms:
        if lam != 0.0:
            diag += math.prod((z[q] for q in qubits), start=lam)
    return diag


def _channel_qubits(ch, qmap):
    """Register qubits a channel drives; its target indexes its gate's qubits."""
    if ch.axis in ("x", "y"):
        if isinstance(ch.target, int) and 0 <= ch.target < len(qmap):
            return (qmap[ch.target],)
        raise ValueError(f"axis {ch.axis} drive must target a qubit of its "
                         f"{len(qmap)}-qubit gate, not {ch.target!r}")
    if ch.axis == "coupling":
        if len(qmap) == 2 and ch.target == (0, 1):
            return tuple(qmap)
        raise ValueError(f"axis coupling drive must target (0, 1) of a two-qubit "
                         f"gate, not {ch.target!r} of a {len(qmap)}-qubit gate")
    raise ValueError(f"unknown channel axis {ch.axis!r}")


def _window_amplitudes(windows, mids):
    """Evaluate each window's channels on the in-window midpoints.

    windows holds (start, spec, the gate's register qubits); every channel
    target is checked against its gate. Returns [(i0, i1, singles,
    couplings)] with singles {qubit: (ax, ay)} and couplings {qubit pair:
    a} as arrays over steps i0..i1.
    """
    out = []
    for start, spec, qmap in windows:
        targets = [_channel_qubits(ch, qmap) for ch in spec.channels]
        inside = (mids > start) & (mids < start + spec.duration)
        if not inside.any():
            continue
        i0 = int(np.argmax(inside))
        i1 = i0 + int(np.sum(inside))
        local_t = mids[i0:i1] - start
        singles = {}
        couplings = {}
        for ch, qubits in zip(spec.channels, targets):
            amps = envelope_value(ch.envelope, local_t)
            if ch.axis == "coupling":
                couplings[qubits] = couplings.get(qubits, 0.0) + amps
                continue
            ax, ay = singles.setdefault(qubits[0], [np.zeros(i1 - i0), np.zeros(i1 - i0)])
            if ch.axis == "x":
                ax += amps
            else:
                ay += amps
        out.append((i0, i1, singles, couplings))
    return out


def _window_terms(n, stack, duration, rate):
    """(terms, dt, steps) for a stack of window lists on an n-qubit register.

    terms pairs each drive's amplitudes, one row per window list on every
    midpoint step, with its constant matrix, as _step_nodes takes them. A
    list that lacks a drive gets zeros, which leave a Hamiltonian's bits
    alone; an x or y drive that stays zero is left out.
    """
    _dense_qubits(n)
    steps = num_steps(duration, rate)
    dt = duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    rows = {}  # (window, drive) -> amplitudes, ops, qubits; keys sort in stepping order
    for p, windows in enumerate(stack):
        for w, (i0, i1, singles, couplings) in enumerate(_window_amplitudes(windows, mids)):
            drives = [((0, q, i), amps, [op], [q]) for q, pair in sorted(singles.items())
                      for i, (amps, op) in enumerate(zip(pair, (_X, _Y))) if np.any(amps)]
            drives += [((1, pair), amps, [_Z, _X], pair)
                       for pair, amps in sorted(couplings.items())]
            for key, amps, ops, qubits in drives:
                row = rows.setdefault((w, key), (np.zeros((len(stack), steps)), ops, qubits))
                row[0][p, i0:i1] = amps
    terms = [(a, _embed(ops, qubits, n))
             for _, (a, ops, qubits) in sorted(rows.items())]
    return terms, dt, steps


def _pulse_windows(model, specs):
    """Each pulse as one window list: one window at t = 0 on the gate qubits."""
    gate = tuple(range(model.num_gate_qubits))
    return [[(0.0, spec, gate)] for spec in specs]


def _propagate(zz_diags, stack, duration, rate):
    """Propagator of every window list in stack over every ZZ diagonal in
    zz_diags, as a (len(stack), len(zz_diags), d, d) array. The register
    size, read off the diagonals, is checked before any d x d array is
    built. With no drive term the nodes have no stack axis, and the last
    is broadcast over the window lists."""
    n = len(zz_diags[0]).bit_length() - 1
    terms, dt, steps = _window_terms(n, stack, duration, rate)
    h = np.stack([np.diag(z.astype(complex)) for z in zz_diags])
    for u in _step_nodes(h, [(a[:, None], mat) for a, mat in terms], dt, steps):
        pass
    return np.broadcast_to(u, (len(stack), *h.shape)).copy()


def evolve(model, pulses):
    """Midpoint piecewise-constant propagator over the pulse duration, the
    pulse acting as one window at t = 0 on the gate qubits of a model that
    holds every coupling to step (see gate_space_model, with_cross_lambda)."""
    return _evolve_stack([model], [pulses])[0, 0]


def _evolve_stack(models, specs):
    """evolve of every pulse on every model, as one (len(specs),
    len(models), d, d) stack with the same bits. The models share one
    layout and the pulses one duration and sample rate."""
    n = _dense_qubits(models[0].num_qubits)
    zz = [_zz_diagonal(n, m.cross_pairs() + ([(0, 1, m.intra_lambda)] if m.kind == "two"
                                             else [])) for m in models]
    return _propagate(zz, _pulse_windows(models[0], specs), specs[0].duration,
                      specs[0].sample_rate)


def control_unitary(model, pulses):
    """Propagator of the drives alone, on the gate qubits only."""
    return _evolve_stack([RegionModel(model.kind)], [pulses])[0, 0]


def avg_gate_fidelity(u, v):
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    d = u.shape[0]
    overlap = abs(np.trace(u.conj().T @ v)) ** 2
    return (overlap + d) / (d * (d + 1))


# ------------------------------------------------- first-order crosstalk


def pert_first_order(model, pulses):
    """Interaction-picture first-order crosstalk term at time T.

    U1 = -i * integral of U0(t)^dag H_xtalk U0(t) dt with U0 the propagator
    of the drives plus the intra-region coupling, H_xtalk normalized by the
    largest cross-region strength. All couplings zero -> zero matrix. The
    dense oracle pert's closed form is tested against.
    """
    pairs = model.cross_pairs()
    top = max((abs(lam) for _, _, lam in pairs), default=0.0)
    if top == 0:
        return np.zeros((model.dim, model.dim), dtype=complex)
    n = _dense_qubits(model.num_qubits)
    scale = 1.0 / top
    cross = [(g, q, lam * scale) for g, q, lam in pairs]
    intra = [(0, 1, model.intra_lambda)] if model.kind == "two" else []
    hx, h_intra = (np.diag(_zz_diagonal(n, zz).astype(complex)) for zz in (cross, intra))
    terms, dt, steps = _window_terms(n, _pulse_windows(model, [pulses]),
                                     pulses.duration, pulses.sample_rate)
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    # trapezoid over the step nodes, summed as they are produced; a drive
    # term gives the nodes a stack axis of one problem
    for k, u in enumerate(_step_nodes(h_intra, terms, dt, steps)):
        u = u.reshape(acc.shape)
        weight = 0.5 if k in (0, steps) else 1.0
        acc += weight * (u.conj().T @ hx @ u)
    return -1j * acc * dt


def _optctrl_losses(model, specs, target):
    """Per pulse, the mean over DEFAULT_LAMBDA_SAMPLES of the dressed-target
    infidelity penalty, minus the gate fidelity of the drives alone.

    One stack of control unitaries and one of the pulses on every sampled
    strength; the pulses share one duration and sample rate. One pulse
    alone and the same pulse in a stack give the same bits."""
    ucs = _evolve_stack([RegionModel(model.kind)], specs)[:, 0]
    if model.kind == "two" and model.intra_lambda:
        dressed_gates = _evolve_stack([gate_space_model(model)], specs)[:, 0]
    else:
        dressed_gates = [target] * len(specs)
    spectators = np.eye(2 ** (model.num_qubits - model.num_gate_qubits), dtype=complex)
    samples = [with_cross_lambda(model, lam) for lam in DEFAULT_LAMBDA_SAMPLES]
    out = []
    for us, uc, gate in zip(_evolve_stack(samples, specs), ucs, dressed_gates):
        dressed = np.kron(gate, spectators)
        total = 0.0
        for u in us:
            total += -avg_gate_fidelity(u, dressed)
        out.append(total / len(DEFAULT_LAMBDA_SAMPLES) - avg_gate_fidelity(uc, target))
    return out


# --------------------------------------------------------- fixed shapes


def gaussian_pulse(angle, T, axis="x", target=0, sample_rate=DEFAULT_SAMPLE_RATE):
    """Single baseline-subtracted Gaussian implementing Rx(angle) (or Rzx)."""
    env = SegmentEnvelope((GaussianSegment(angle, 0.0, T),), T)
    return PulseSpec((Channel(target, axis, env),), sample_rate)


def dcg_sequence(kind):
    """Composed Gaussian sequences for rx90 and id; the echo structure
    refocuses z*z coupling."""
    ns = 1e-9
    if kind == "rx90":
        spec = [(math.pi, 0, 20), (math.pi / 2, 20, 20), (-math.pi / 2, 40, 20),
                (math.pi, 60, 20), (math.pi / 2, 80, 40)]
    elif kind == "id":
        spec = [(math.pi, 0, 20), (math.pi, 20, 20)]
    else:
        raise ValueError(f"no composed sequence for target {kind!r}")
    segs = tuple(GaussianSegment(a, s * ns, l * ns) for a, s, l in spec)
    T = segs[-1].start + segs[-1].length
    return PulseSpec((Channel(0, "x", SegmentEnvelope(segs, T)),))


# ----------------------------------------------------------- optimization


@dataclass(frozen=True)
class OptimizeConfig:
    T: float = 20e-9
    max_iter: int = 300
    restarts: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"duration T must be finite and positive, got {self.T}")
        # operator.index: 2.5 raises here, not in the descent after a first loss
        object.__setattr__(self, "max_iter", operator.index(self.max_iter))
        object.__setattr__(self, "restarts", operator.index(self.restarts))
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")
        if self.restarts < 1:  # the calibrated start always descends
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


_GRAD_TOL = 1e-9  # descent stops below this gradient norm
# envelope steps per plane-integral call, which bounds its work arrays: one
# stencil of 10 rows at 800 steps, the three stencils of 30 at 200
_PLANE_ENTRIES = 8192
_PERT_PROBES = 3  # line-search probes per loss call in a pert descent ...
_PERT_PROBE_STEPS = 400  # ... on a grid of at most this many steps


@dataclass(frozen=True)
class OptimizedPulse:
    spec: PulseSpec
    target_gate: str
    backend: str
    loss: float
    iterations: int
    converged: bool
    warning: str | None = None


_TARGETS = {  # (region kind, rotation angle)
    "rx90": ("single", math.pi / 2),
    "id": ("single", TWO_PI),
    "rzx90": ("two", math.pi / 2),
}
GATE_KINDS = tuple(_TARGETS)  # the native kinds that take a pulse; rz is a frame change
# every pulse backend; the design backends optimize on a region, gaussian
# and dcg are fixed shapes
BACKENDS = ("gaussian", "pert", "optctrl", "dcg")
DESIGN_BACKENDS = ("pert", "optctrl")


def _make_spec(model, coeffs, T):
    env = FourierEnvelope(tuple(coeffs), T)
    if model.kind == "single":
        return PulseSpec((Channel(0, "x", env),))
    return PulseSpec((Channel((0, 1), "coupling", env),))


def _fourier_basis(T, steps):
    """_fourier_rows on the step midpoints, as one (5, steps) array."""
    return np.array(_fourier_rows((np.arange(steps) + 0.5) * (T / steps), T))


def _plane_integrals_batch(basis, coeffs, T, steps, work=None):
    """Exact first-order integrals of the piecewise-constant propagator.

    Over one constant step the toggled z operator rotates linearly, so
    integral cos(phi) dt = [sin(phi_next) - sin(phi)] / (2 Omega) in closed
    form; summing steps gives the discrete dynamics' first-order term with
    no quadrature error. coeffs holds one five-coefficient envelope (rad/s)
    per row; returns the arrays (cos integral, sin integral, phi(T)).

    work, a list that starts empty, keeps the work arrays from one call to
    the next, grown to the most rows a call has taken: fresh arrays this
    size, freed after every call, can be handed back to the system and
    faulted in again. The returned arrays are the call's own.

    One broadcast multiply fills a (5, rows, steps) stack of the envelope's
    terms, and one add-reduce over its outer axis sums them in
    envelope_value's order, row by row from 0. The stack shares one work
    block with the trig, difference and magnitude arrays, which are not
    needed until the phase's cumulative sum is done; the block is as large
    as those three together, so the stack takes no memory of its own.

    sin(phi) and -cos(phi) share one buffer, so one subtraction, one
    division and one sum give both integrals, since negating a
    difference's operands negates it exactly. Only a batch with a step
    where 2 |Omega| dt < 1e-12 takes the np.where form; elsewhere the
    quotients are the same ufuncs on the same operands, so both forms give
    the same bits.
    """
    dt = T / steps
    n = len(coeffs)
    if work is None:
        work = []
    if not work or len(work[0]) < n:
        work[:] = (np.empty((n, steps)), np.zeros((n, steps + 1)),
                   np.empty(n * (5 * steps + 2)))
    om, phi, block = work[0][:n], work[1][:n], work[2]
    terms = block[:5 * n * steps].reshape(5, n, steps)
    np.multiply((coeffs / 2).T[:, :, None], basis[:, None, :], out=terms)
    np.add.reduce(terms, axis=0, out=om)  # 0 + term 0 + ... + term 4
    np.cumsum(om, axis=1, out=phi[:, 1:])  # phi(0) = 0 stays from the allocation
    np.multiply(phi, 2 * dt, out=phi)  # (sum * 2) * dt: the doubling is exact
    # the terms are spent: trig, diffs and tmp take their bytes
    end = 2 * n * (steps + 1)
    trig = block[:end].reshape(2, n, steps + 1)
    diffs = block[end:end + 2 * n * steps].reshape(2, n, steps)
    tmp = block[end + 2 * n * steps:end + 3 * n * steps].reshape(n, steps)
    np.sin(phi, out=trig[0])
    np.negative(np.cos(phi, out=trig[1]), out=trig[1])
    np.subtract(trig[..., 1:], trig[..., :-1], out=diffs)  # sin and cos differences
    two_om = np.multiply(om, 2, out=om)
    mags = np.abs(two_om, out=tmp)
    # rounding is monotone, so the least |2 Omega| dt is the least |2 Omega| times dt
    if np.fmin.reduce(mags, axis=None, initial=np.inf) * dt < 1e-12:
        small = np.multiply(mags, dt, out=mags) < 1e-12
        np.divide(diffs, np.where(small, 1.0, two_om), out=diffs)
        lo = np.multiply(trig[::-1, :, :-1], dt)  # dt cos(phi), dt sin(phi) per step
        np.negative(lo[0], out=lo[0])
        diffs = np.where(small, lo, diffs)
    else:
        np.divide(diffs, two_om, out=diffs)
    cos_int, sin_int = diffs.sum(axis=2)
    return cos_int, sin_int, phi[:, -1].copy()


def _pert_system(model, T, angle):
    """pert's design problem on a region: (score, losses, polish, check).

    Every function takes normalized coefficients (A_j T) on _make_spec's
    default-rate grid. The drive is one x channel (single region) or one
    coupling channel with zero intra strength, so the toggled z operator
    rotates in a plane and the first-order term reduces to two scalar
    integrals, weighted per side by the squared cross strengths over the
    largest |lambda|.

    - score(xs): (first-order norm, gate fidelity) per row;
    - losses(xs): norm / T - fidelity per row;
    - polish(x): Newton steps from x on the residual system (the cos and
      sin integrals, phi(T) - angle);
    - check(x): (residual, baseline) over the part a drive can null. A
      coupling drive commutes with z on the driven-side qubit, so the
      z-side spectator term is fixed at its free value for every pulse
      and the check covers the rotating side only (the x-driven qubit, or
      b under a coupling drive). With nothing a drive can null, the whole
      norm is the z-side term, and it is its own baseline.

    An uncoupled region has no polish and no check.
    """
    g = model.num_gate_qubits
    spectators = 2 ** (model.num_qubits - g)
    lams = model.neighbor_lambdas_a + model.neighbor_lambdas_b
    top = max(map(abs, lams), default=0.0) or 1.0  # uncoupled: every weight is 0
    wa, wb = (sum((v / top) ** 2 for v in side)
              for side in (model.neighbor_lambdas_a, model.neighbor_lambdas_b))
    steps = num_steps(T, DEFAULT_SAMPLE_RATE)
    basis = _fourier_basis(T, steps)
    d = 2 * g
    rows = max(1, _PLANE_ENTRIES // steps)  # envelopes per kernel call
    work = []

    def integrals(xs):
        parts = [_plane_integrals_batch(basis, xs[i:i + rows] / T, T, steps, work)
                 for i in range(0, len(xs), rows)]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def score(xs):
        out = []
        for c, s, phi_t in zip(*(a.tolist() for a in integrals(xs))):
            if g == 1:
                norm_sq = 2 * (c ** 2 + s ** 2) * wa * spectators
            else:
                norm_sq = (4 * T * T * wa + 4 * (c ** 2 + s ** 2) * wb) * spectators
            tr = d * math.cos((phi_t - angle) / 2)
            out.append((math.sqrt(max(norm_sq, 0.0)), (tr * tr + d) / (d * (d + 1))))
        return out

    def losses(xs):
        return [norm / T - fid for norm, fid in score(xs)]

    if not any(lams):
        return score, losses, None, None
    scale = math.sqrt(2 ** (g - 1) * 2 * (wa, wb)[g - 1] * spectators)
    base = T * scale

    def residuals(xs):
        c, s, phi_t = integrals(xs)
        return np.stack([c / T, s / T, phi_t - angle], axis=1)

    def polish(x):
        for _ in range(25):
            r = residuals(x[None])[0]
            r_norm = np.linalg.norm(r)
            if r_norm < 1e-13:
                break
            pts, h = _fd_stencil(x)
            res = residuals(pts)
            jac = ((res[0::2] - res[1::2]) / (2 * h)[:, None]).T
            delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            step = 1.0  # halved until the residual shrinks, down to 1e-6
            while not np.linalg.norm(residuals((x + step * delta)[None])[0]) < r_norm:
                step /= 2
                if step <= 1e-6:
                    return x
            x = x + step * delta
        return x

    def check(x):
        if base == 0.0:
            norm = score(x[None])[0][0]
            return norm, norm
        c, s, _ = (float(r[0]) for r in integrals(x[None]))
        return math.hypot(c, s) * scale, base

    return score, losses, polish, check


def _fd_stencil(xs):
    """Central-difference points x + h_0 e_0, x - h_0 e_0, x + h_1 e_1, ... and h.

    A 2-D xs stacks the stencils of its rows, row after row, and h holds
    one row per row of xs."""
    h = 1e-6 * np.maximum(np.abs(xs), 1.0)
    n = xs.shape[-1]
    pts = np.repeat(xs[..., None, :], 2 * n, axis=-2)
    i = np.arange(n)
    pts[..., 2 * i, i] += h
    pts[..., 2 * i + 1, i] -= h
    return pts.reshape(-1, n), h


def _descend(losses, grads, starts, max_iter, probes=1):
    """Backtracking gradient descent from every start, in lockstep.

    Returns (x, f(x), iterations) per start, each what a descent from that
    start alone gives: losses scores its rows independently. Each round
    takes the gradients of every live start in one grads call, a row per
    start. Each line-search round then scores the next `probes` halvings
    of every searching start in one losses call and keeps the first probe
    that passes, the one a search probing one step at a time accepts.
    """
    xs = np.array(starts, dtype=float)
    fxs = list(losses(xs))
    iters = [0] * len(xs)
    steps = [1.0] * len(xs)
    live = list(range(len(xs)))
    for _ in range(max_iter):
        if not live:
            break
        search = {}  # start -> (gradient, its norm, first step length to probe)
        for i, g in zip(live, grads(xs[live])):
            gn = math.sqrt(g.dot(g))  # np.linalg.norm's own formula, without its dispatch
            if gn >= _GRAD_TOL:
                search[i] = (g, gn, steps[i])
        live = []
        while search:
            rows = []  # (start, step length), in each start's probing order
            for i, (_, _, alpha) in search.items():
                for _ in range(probes):
                    rows.append((i, alpha))
                    alpha /= 2
                    if not alpha > 1e-14:
                        break
            pts = np.array([xs[i] - alpha * search[i][0] for i, alpha in rows])
            for (i, alpha), xn, fn in zip(rows, pts, losses(pts)):
                if i not in search:
                    continue  # an earlier probe of this start passed
                g, gn, _ = search.pop(i)
                if fn <= fxs[i] - 1e-4 * alpha * gn * gn:
                    xs[i], fxs[i] = xn, fn
                    steps[i] = min(alpha * 2, 1e6)
                    iters[i] += 1
                    live.append(i)
                elif alpha / 2 > 1e-14:
                    search[i] = (g, gn, alpha / 2)
    return list(zip(xs, fxs, iters))


def optimize(model, target, backend, config=None):
    """Gradient-descent pulse search on Fourier coefficients, one driver
    for both design backends.

    The backend gives the problem: a loss over rows of normalized
    coefficients, and optionally a polish and a convergence check. pert's
    (_pert_system) is closed-form in the plane integrals and builds no
    dense region; it takes regions without intra coupling, and optctrl,
    a loss alone, designs the others. Deterministic: the first start is a
    calibrated initialization and each further restart adds seeded noise
    to it; the first start with the least final loss wins. A polish runs
    from the calibrated start, which keeps the landing point independent
    of where descent stalls, and replaces the descent's result if it
    scores lower. Non-convergence returns the best pulses with a warning
    flag rather than failing.
    """
    if config is None:
        config = OptimizeConfig()
    if target not in _TARGETS:
        raise ValueError(f"unknown pulse target {target!r}")
    kind, angle = _TARGETS[target]
    if model.kind != kind:
        raise ValueError(f"target {target} needs a {kind} region")
    if backend not in DESIGN_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "pert" and model.intra_lambda:
        raise ValueError("pert designs regions without intra coupling; "
                         "use optctrl for an intra-coupled region")
    gate = gate_matrix(Gate(target, (0,) if kind == "single" else (0, 1)))
    T = config.T

    def build(x):
        return _make_spec(model, np.asarray(x) / T, T)

    if backend == "pert":
        _, losses, polish, check = _pert_system(model, T, angle)
    else:
        polish = check = None

        def losses(xs):
            return _optctrl_losses(model, [build(x) for x in xs], gate)

    def grads(xs):
        pts, h = _fd_stencil(xs)
        vals = np.array(losses(pts)).reshape(len(xs), -1)
        return (vals[:, 0::2] - vals[:, 1::2]) / (2 * h)

    x_init = np.zeros(5)
    x_init[0] = angle  # normalized A1*T; integral Omega = angle/2
    starts = [x_init]
    for i in range(1, config.restarts):
        rng = np.random.default_rng(i)
        starts.append(x_init + 0.15 * angle * rng.standard_normal(5))

    # a pert row on the default 20 ns grid costs little next to a loss call,
    # so its line search scores several halvings per call; a longer pert
    # grid (rzx90's 80 ns) or an optctrl row, a stack of dense steps, costs
    # more in unused probes than the calls they save
    probes = 1
    if backend == "pert" and num_steps(T, DEFAULT_SAMPLE_RATE) <= _PERT_PROBE_STEPS:
        probes = _PERT_PROBES
    x, fx, iters = min(_descend(losses, grads, starts, config.max_iter, probes),
                       key=lambda r: r[1])
    if polish is not None and config.max_iter > 0:
        cand = polish(x_init)
        fc = losses(cand[None])[0]
        if fc < fx - 1e-12:
            x, fx = cand, fc

    spec = build(x)
    fid = avg_gate_fidelity(control_unitary(model, spec), gate)
    converged = bool(fid >= 1 - 1e-4)
    warning = None if converged else f"gate fidelity {fid:.6f} below 1 - 1e-4"
    if check is not None:
        resid, base = check(x)
        converged = converged and resid <= 1e-3 * base
        if not converged:
            warning = (f"first-order residual {resid:.3e} vs baseline {base:.3e}, "
                       f"gate fidelity {fid:.6f}")
    return OptimizedPulse(spec, target, backend, float(fx), iters, converged, warning)


# --------------------------------------------------------- native pulses


def _native_region(kind, neighbors, lambda_hz):
    """The region a native kind is designed on: neighbors spectators at
    lambda_hz on each gate qubit, and at least one on a single-qubit gate."""
    if kind not in _TARGETS:
        raise ValueError(f"unknown pulse target {kind!r}")
    if neighbors < 0:
        raise ValueError("neighbor count must be nonnegative")
    lam = TWO_PI * lambda_hz
    if _TARGETS[kind][0] == "two":
        return RegionModel("two", neighbor_lambdas_a=(lam,) * neighbors,
                           neighbor_lambdas_b=(lam,) * neighbors)
    return RegionModel("single", neighbor_lambdas_a=(lam,) * max(neighbors, 1))


def native_pulse(kind, backend, neighbors=1, lambda_hz=200e3):
    """The pulse a backend runs for a native kind, in the slot
    GateTimes.for_backend(backend) gives, tagged with that backend.

    gaussian is one truncated Gaussian; dcg a composed sequence, and for
    rzx90, which has no coupler sequence, that same Gaussian; pert and
    optctrl optimize on _native_region(kind, neighbors, lambda_hz). Every
    backend checks the region's arguments, shapes included.
    """
    model = _native_region(kind, neighbors, lambda_hz)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    T = getattr(GateTimes.for_backend(backend), kind)
    if backend in DESIGN_BACKENDS:
        return optimize(model, kind, backend, OptimizeConfig(T=T))
    region, angle = _TARGETS[kind]
    if backend == "dcg" and region == "single":
        spec = dcg_sequence(kind)
    elif region == "single":
        spec = gaussian_pulse(angle, T)
    else:
        spec = gaussian_pulse(angle, T, axis="coupling", target=(0, 1))
    return OptimizedPulse(spec, kind, backend, 0.0, 0, True)


def check_native_size(kind, backend, neighbors=1, lambda_hz=200e3):
    """Raise the size cap's ValueError now if native_pulse with these
    arguments would build dense operators past it, and design nothing.
    Only optctrl does: pert designs its native regions in closed form."""
    if backend == "optctrl":
        _native_region(kind, neighbors, lambda_hz).dim


def native_library(backend):
    """native_pulse of every native kind at its defaults, keyed by kind."""
    return {kind: native_pulse(kind, backend) for kind in GATE_KINDS}


# ------------------------------------------------------------------ JSON


def pulse_to_json(op):
    channels = []
    for ch in op.spec.channels:
        entry = {
            "target": list(ch.target) if isinstance(ch.target, tuple) else ch.target,
            "axis": ch.axis,
        }
        env = ch.envelope
        if isinstance(env, FourierEnvelope):
            entry["fourier_a_hz"] = [a / TWO_PI for a in env.a]
        else:
            entry["segments"] = [
                {"angle": s.angle, "start_ns": s.start * 1e9, "length_ns": s.length * 1e9}
                for s in env.segments
            ]
        channels.append(entry)
    return {
        "target_gate": op.target_gate,
        "backend": op.backend,
        "T_ns": op.spec.duration * 1e9,
        "sample_rate": op.spec.sample_rate,
        "channels": channels,
        "meta": {
            "loss": op.loss,
            "iterations": op.iterations,
            "converged": op.converged,
            "warning": op.warning,
        },
    }


def pulse_from_json(obj):
    T = obj["T_ns"] * 1e-9
    channels = []
    for entry in obj["channels"]:
        target = entry["target"]
        if isinstance(target, list):
            target = tuple(target)
        if "fourier_a_hz" in entry:
            env = FourierEnvelope(tuple(a * TWO_PI for a in entry["fourier_a_hz"]), T)
        else:
            segs = tuple(
                GaussianSegment(s["angle"], s["start_ns"] * 1e-9, s["length_ns"] * 1e-9)
                for s in entry["segments"]
            )
            env = SegmentEnvelope(segs, T)
        channels.append(Channel(target, entry["axis"], env))
    spec = PulseSpec(tuple(channels), obj.get("sample_rate", DEFAULT_SAMPLE_RATE))
    meta = obj.get("meta", {})
    return OptimizedPulse(
        spec,
        obj["target_gate"],
        obj["backend"],
        meta.get("loss", 0.0),
        meta.get("iterations", 0),
        meta.get("converged", True),
        meta.get("warning"),
    )


def save_pulse(path, op):
    with open(path, "w") as fh:
        json.dump(pulse_to_json(op), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_pulse(path):
    with open(path) as fh:
        return pulse_from_json(json.load(fh))
