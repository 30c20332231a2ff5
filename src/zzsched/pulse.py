"""Pulse envelopes, basic-region Hamiltonians, and pulse optimization.

A basic region is one driven gate (one or two qubits) plus the idle
neighbor qubits it is coupled to. The always-on coupling is a z*z term of
strength lambda (rad/s) per edge; drives enter as Omega_x sigma_x +
Omega_y sigma_y on a gate qubit (no 1/2, so the rotation angle is
2*integral(Omega)) or as Omega * sigma_z x sigma_x on the gate pair.

Three pulse backends: optctrl (penalized fidelity averaged over coupling
strengths), pert (first-order interaction-picture cancellation), and dcg
(fixed composed Gaussian sequences). All internal units are rad/s and
seconds; file formats carry Hz and ns with explicit conversion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2 * math.pi
DEFAULT_SAMPLE_RATE = 200  # integrator steps per 20 ns of pulse
DEFAULT_LAMBDA_SAMPLES = tuple(TWO_PI * f for f in (50e3, 100e3, 200e3, 400e3))

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


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


def fourier_eval(env, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > env.T * (1 + 1e-12) + 1e-15):
        raise ValueError("time outside [0, T]")
    out = np.zeros_like(t)
    for j, aj in enumerate(env.a, start=1):
        out = out + (aj / 2) * (1 + np.cos(TWO_PI * j * t / env.T - math.pi))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GaussianSegment:
    """Baseline-subtracted Gaussian over [start, start+length], sigma = L/6.

    The analytic area equals angle/2, matching Rx(angle) = exp(-i angle/2 X)
    under the convention H = Omega * sigma_x.
    """

    angle: float
    start: float
    length: float

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
        edge = 0.0
        for seg in self.segments:
            if seg.length <= 0:
                raise ValueError("segment length must be positive")
            if abs(seg.start - edge) > 1e-15:
                raise ValueError("segments must tile [0, T] without gaps")
            edge = seg.start + seg.length
        if abs(edge - self.T) > 1e-15:
            raise ValueError("segments must end at T")


def segment_eval(env, t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > env.T * (1 + 1e-12) + 1e-15):
        raise ValueError("time outside [0, T]")
    out = np.zeros_like(t)
    for seg in env.segments:
        center = seg.start + seg.length / 2
        inside = (t >= seg.start) & (t <= seg.start + seg.length)
        u = t - center
        shape = np.exp(-(u ** 2) / (2 * seg.sigma ** 2)) - math.exp(-4.5)
        out = np.where(inside, out + seg.amplitude * shape, out)
    return out if out.ndim else float(out)


def envelope_value(env, t):
    if isinstance(env, FourierEnvelope):
        return fourier_eval(env, t)
    if isinstance(env, SegmentEnvelope):
        return segment_eval(env, t)
    raise TypeError(f"unknown envelope {type(env).__name__}")


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
    coupling_form: str = "zx"

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
        if self.coupling_form not in ("zx", "xxyy"):
            raise ValueError("coupling form must be 'zx' or 'xxyy'")
        if 2 ** self.num_qubits > 64:
            raise ValueError("region dimension capped at 64")

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
        return 2 ** self.num_qubits

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


def _coupling_matrix(model):
    n = model.num_qubits
    if model.coupling_form == "zx":
        return _embed([_Z, _X], [0, 1], n)
    return _embed([_X, _X], [0, 1], n) + _embed([_Y, _Y], [0, 1], n)


def control_terms(model, pulses):
    """(envelope, constant matrix) per drive channel; validates the match."""
    n = model.num_qubits
    terms = []
    for ch in pulses.channels:
        if ch.axis in ("x", "y"):
            q = ch.target
            if not isinstance(q, int) or not 0 <= q < model.num_gate_qubits:
                raise ValueError(f"axis {ch.axis} drive must target a gate qubit")
            op = _X if ch.axis == "x" else _Y
            terms.append((ch.envelope, _embed([op], [q], n)))
        elif ch.axis == "coupling":
            if model.kind != "two" or tuple(ch.target) != (0, 1):
                raise ValueError("coupling drive needs a two-qubit region on (0, 1)")
            terms.append((ch.envelope, _coupling_matrix(model)))
        else:
            raise ValueError(f"unknown channel axis {ch.axis!r}")
    return terms


def crosstalk_hamiltonian(model, normalized=False):
    """Sum of cross-region z*z terms; normalized divides by the largest |lambda|."""
    n = model.num_qubits
    h = np.zeros((model.dim, model.dim), dtype=complex)
    pairs = model.cross_pairs()
    scale = 1.0
    if normalized:
        top = max((abs(lam) for _, _, lam in pairs), default=0.0)
        if top == 0:
            return h
        scale = 1.0 / top
    for gq, nq, lam in pairs:
        h += (lam * scale) * _embed([_Z, _Z], [gq, nq], n)
    return h


def intra_hamiltonian(model):
    h = np.zeros((model.dim, model.dim), dtype=complex)
    if model.kind == "two" and model.intra_lambda:
        h += model.intra_lambda * _embed([_Z, _Z], [0, 1], model.num_qubits)
    return h


def build_hamiltonian(model, pulses, t):
    h = crosstalk_hamiltonian(model) + intra_hamiltonian(model)
    for env, mat in control_terms(model, pulses):
        h = h + envelope_value(env, t) * mat
    return h


# ------------------------------------------------------------- evolution


def _step_product(h_static, terms, amps, dt, dim, steps, collect=None):
    u = np.eye(dim, dtype=complex)
    if collect is not None:
        collect.append(u.copy())
    for k in range(steps):
        h = h_static.copy()
        for (env, mat), row in zip(terms, amps):
            h += row[k] * mat
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * dt)) @ v.conj().T @ u
        if collect is not None:
            collect.append(u.copy())
    return u


def evolve(model, pulses, steps=None, include_crosstalk=True, include_intra=True,
           amp_scale=1.0, detunings=()):
    """Midpoint piecewise-constant propagator over the pulse duration.

    detunings: iterable of (qubit, omega_rad) adding omega/2 * sigma_z terms;
    amp_scale multiplies every drive envelope (drive-noise evaluation hooks).
    """
    T = pulses.duration
    if steps is None:
        steps = num_steps(T, pulses.sample_rate)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    terms = control_terms(model, pulses)
    dt = T / steps
    mids = (np.arange(steps) + 0.5) * dt
    amps = np.array([
        np.asarray(envelope_value(env, mids), dtype=float) * amp_scale
        for env, _ in terms
    ])
    h_static = np.zeros((model.dim, model.dim), dtype=complex)
    if include_crosstalk:
        h_static += crosstalk_hamiltonian(model)
    if include_intra:
        h_static += intra_hamiltonian(model)
    for q, omega in detunings:
        h_static += (omega / 2) * _embed([_Z], [q], model.num_qubits)
    return _step_product(h_static, terms, amps, dt, model.dim, steps)


def control_unitary(model, pulses, steps=None, include_intra=False):
    """Propagator of the drives alone, on the gate qubits only."""
    reduced = gate_space_model(model)
    return evolve(reduced, pulses, steps=steps,
                  include_crosstalk=False, include_intra=include_intra)


def avg_gate_fidelity(u, v):
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    d = u.shape[0]
    overlap = abs(np.trace(u.conj().T @ v)) ** 2
    return (overlap + d) / (d * (d + 1))


# ------------------------------------------------- first-order crosstalk


def pert_first_order(model, pulses, steps=None):
    """Interaction-picture first-order crosstalk term at time T.

    U1 = -i * integral of U0(t)^dag H_xtalk U0(t) dt with U0 the propagator
    of the drives plus the intra-region coupling, H_xtalk normalized by the
    largest cross-region strength. All couplings zero -> zero matrix.
    """
    pairs = model.cross_pairs()
    if not any(lam for _, _, lam in pairs):
        return np.zeros((model.dim, model.dim), dtype=complex)
    T = pulses.duration
    if steps is None:
        steps = num_steps(T, pulses.sample_rate)
    terms = control_terms(model, pulses)
    dt = T / steps
    mids = (np.arange(steps) + 0.5) * dt
    amps = np.array([
        np.asarray(envelope_value(env, mids), dtype=float) for env, _ in terms
    ])
    h0 = intra_hamiltonian(model)
    nodes = []
    _step_product(h0, terms, amps, dt, model.dim, steps, collect=nodes)
    hx = crosstalk_hamiltonian(model, normalized=True)
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for k, u in enumerate(nodes):
        integrand = u.conj().T @ hx @ u
        weight = 0.5 if k in (0, len(nodes) - 1) else 1.0
        acc += weight * integrand
    return -1j * acc * dt


def pert_loss(model, pulses, target, w=1.0, steps=None):
    first = pert_first_order(model, pulses, steps=steps)
    uc = control_unitary(model, pulses, steps=steps)
    return float(np.linalg.norm(first)) - w * avg_gate_fidelity(uc, target)


def optctrl_loss(model, pulses, target, w=1.0,
                 lambda_samples=DEFAULT_LAMBDA_SAMPLES, steps=None):
    """Mean over coupling strengths of the dressed-target infidelity penalty."""
    if not lambda_samples:
        raise ValueError("need at least one coupling-strength sample")
    uc = control_unitary(model, pulses, steps=steps)
    fid_gate = avg_gate_fidelity(uc, target)
    if model.kind == "two" and model.intra_lambda:
        dressed_gate = control_unitary(model, pulses, steps=steps, include_intra=True)
    else:
        dressed_gate = target
    m = model.num_qubits - model.num_gate_qubits
    dressed = np.kron(dressed_gate, np.eye(2 ** m, dtype=complex))
    total = 0.0
    for lam in lambda_samples:
        u = evolve(with_cross_lambda(model, lam), pulses, steps=steps)
        total += -avg_gate_fidelity(u, dressed)
    return total / len(lambda_samples) - w * fid_gate


# --------------------------------------------------------- fixed shapes


def gaussian_pulse(angle, T, axis="x", target=0, sample_rate=DEFAULT_SAMPLE_RATE):
    """Single baseline-subtracted Gaussian implementing Rx(angle) (or Rzx)."""
    if T <= 0:
        raise ValueError("duration must be positive")
    env = SegmentEnvelope((GaussianSegment(angle, 0.0, T),), T)
    return PulseSpec((Channel(target, axis, env),), sample_rate)


def dcg_sequence(target):
    """Composed Gaussian sequences; the echo structure refocuses z*z coupling."""
    ns = 1e-9
    if target == "rx_half_pi":
        spec = [(math.pi, 0, 20), (math.pi / 2, 20, 20), (-math.pi / 2, 40, 20),
                (math.pi, 60, 20), (math.pi / 2, 80, 40)]
    elif target == "identity":
        spec = [(math.pi, 0, 20), (math.pi, 20, 20)]
    else:
        raise ValueError(f"no composed sequence for target {target!r}")
    segs = tuple(GaussianSegment(a, s * ns, l * ns) for a, s, l in spec)
    T = segs[-1].start + segs[-1].length
    return PulseSpec((Channel(0, "x", SegmentEnvelope(segs, T)),))


# ----------------------------------------------------------- optimization


@dataclass
class OptimizeConfig:
    T: float = 20e-9
    w: float = 1.0
    lambda_samples: tuple = DEFAULT_LAMBDA_SAMPLES
    sample_rate: int = DEFAULT_SAMPLE_RATE
    max_iter: int = 300
    restarts: int = 3
    seed: int = 0
    grad_tol: float = 1e-9


@dataclass(frozen=True)
class OptimizedPulse:
    spec: PulseSpec
    target_gate: str
    backend: str
    loss: float
    iterations: int
    converged: bool
    warning: str | None = None


def _rx(theta):
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * _X


def _rzx(theta):
    zx = np.kron(_Z, _X)
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * zx


_TARGETS = {
    "rx90": ("single", lambda: _rx(math.pi / 2), math.pi / 2),
    "id": ("single", lambda: _I2.copy(), TWO_PI),
    "rzx90": ("two", lambda: _rzx(math.pi / 2), math.pi / 2),
}


def _make_spec(model, coeffs, T, sample_rate):
    env = FourierEnvelope(tuple(coeffs), T)
    if model.kind == "single":
        return PulseSpec((Channel(0, "x", env),), sample_rate)
    return PulseSpec((Channel((0, 1), "coupling", env),), sample_rate)


def _plane_integrals(spec, steps):
    """Exact first-order integrals of the piecewise-constant propagator.

    Over one constant step the toggled z operator rotates linearly, so
    integral cos(phi) dt = [sin(phi_next) - sin(phi)] / (2 Omega) in closed
    form; summing steps gives the discrete dynamics' first-order term with
    no quadrature error.
    """
    env = spec.channels[0].envelope
    T = env.T
    dt = T / steps
    mids = (np.arange(steps) + 0.5) * dt
    om = np.asarray(envelope_value(env, mids), dtype=float)
    phi = np.concatenate([[0.0], 2 * np.cumsum(om) * dt])
    lo, hi = phi[:-1], phi[1:]
    two_om = 2 * om
    small = np.abs(two_om) * dt < 1e-12
    denom = np.where(small, 1.0, two_om)
    cos_steps = np.where(small, dt * np.cos(lo), (np.sin(hi) - np.sin(lo)) / denom)
    sin_steps = np.where(small, dt * np.sin(lo), (np.cos(lo) - np.cos(hi)) / denom)
    return float(cos_steps.sum()), float(sin_steps.sum()), float(phi[-1])


def _fast_pert_parts(model, spec, steps, angle):
    """(residuals, norm, gate fidelity) for commuting single-channel drives.

    Valid when the drive is one x channel (single region) or one coupling
    channel with zero intra strength: the toggled z operator rotates in a
    plane, so the first-order term reduces to two scalar integrals.
    """
    cos_i, sin_i, phi_t = _plane_integrals(spec, steps)
    T = spec.duration
    m = model.num_qubits - model.num_gate_qubits
    if model.kind == "single":
        wsum = _normalized_weight_sq(model.neighbor_lambdas_a)
        norm_sq = 2 * (cos_i ** 2 + sin_i ** 2) * wsum * 2 ** m
        d = 2
        tr = 2 * math.cos((phi_t - angle) / 2)
    else:
        wa, wb = _normalized_weight_sq_two(model)
        norm_sq = (4 * T * T * wa + 4 * (cos_i ** 2 + sin_i ** 2) * wb) * 2 ** m
        d = 4
        tr = 4 * math.cos((phi_t - angle) / 2)
    fid = (tr * tr + d) / (d * (d + 1))
    return (cos_i, sin_i, phi_t), math.sqrt(max(norm_sq, 0.0)), fid


def _normalized_weight_sq(lams):
    top = max((abs(v) for v in lams), default=0.0)
    if top == 0:
        return 0.0
    return sum((v / top) ** 2 for v in lams)


def _normalized_weight_sq_two(model):
    lams = model.neighbor_lambdas_a + model.neighbor_lambdas_b
    top = max((abs(v) for v in lams), default=0.0)
    if top == 0:
        return 0.0, 0.0
    wa = sum((v / top) ** 2 for v in model.neighbor_lambdas_a)
    wb = sum((v / top) ** 2 for v in model.neighbor_lambdas_b)
    return wa, wb


def _fd_grad(f, x):
    g = np.zeros_like(x)
    for i in range(len(x)):
        h = 1e-6 * max(abs(x[i]), 1.0)
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def _descend(f, x0, max_iter, grad_tol):
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    iters = 0
    step = 1.0
    for _ in range(max_iter):
        g = _fd_grad(f, x)
        gn = float(np.linalg.norm(g))
        if gn < grad_tol:
            break
        alpha = step
        accepted = False
        while alpha > 1e-14:
            xn = x - alpha * g
            fn = f(xn)
            if fn <= fx - 1e-4 * alpha * gn * gn:
                accepted = True
                break
            alpha /= 2
        if not accepted:
            break
        x, fx = xn, fn
        step = min(alpha * 2, 1e6)
        iters += 1
    return x, fx, iters


def optimize(model, target, backend, config=None):
    """Gradient-descent pulse search on Fourier coefficients.

    Deterministic given config.seed; three restarts from a calibrated
    initialization keep the best final loss. Non-convergence returns the
    best pulses with a warning flag rather than failing.
    """
    if config is None:
        config = OptimizeConfig()
    if target not in _TARGETS:
        raise ValueError(f"unknown pulse target {target!r}")
    kind, gate_fn, angle = _TARGETS[target]
    if model.kind != kind:
        raise ValueError(f"target {target} needs a {kind} region")
    if backend not in ("pert", "optctrl"):
        raise ValueError(f"unknown backend {backend!r}")
    gate = gate_fn()
    T = config.T
    steps = num_steps(T, config.sample_rate)
    fast = model.kind == "single" or model.intra_lambda == 0.0

    def build(x):
        return _make_spec(model, np.asarray(x) / T, T, config.sample_rate)

    def loss_fn(x):
        spec = build(x)
        if backend == "pert":
            if fast:
                _, norm, fid = _fast_pert_parts(model, spec, steps, angle)
                return norm / T - config.w * fid
            first = pert_first_order(model, spec, steps=steps)
            uc = control_unitary(model, spec, steps=steps)
            return float(np.linalg.norm(first)) / T - config.w * avg_gate_fidelity(uc, gate)
        return optctrl_loss(model, spec, gate, w=config.w,
                            lambda_samples=config.lambda_samples, steps=steps)

    x_init = np.zeros(5)
    x_init[0] = angle  # normalized A1*T; integral Omega = angle/2
    starts = [x_init]
    for i in range(1, config.restarts):
        rng = np.random.default_rng(config.seed + i)
        starts.append(x_init + 0.15 * angle * rng.standard_normal(5))

    best = (None, math.inf, 0)
    for x0 in starts:
        x, fx, iters = _descend(loss_fn, x0, config.max_iter, config.grad_tol)
        if fx < best[1]:
            best = (x, fx, iters)
    x, fx, iters = best
    if x is None:
        x, fx, iters = x_init, loss_fn(x_init), 0

    baseline = float(np.linalg.norm(pert_first_order(model, build(x_init), steps=steps)))
    if backend == "pert" and fast and baseline > 0 and config.max_iter > 0:
        # Newton polish of the cancellation system; the calibrated-init
        # candidate keeps the landing point reproducible when descent
        # stalls in a basin the polish cannot finish from.
        for cand in (_pert_polish(model, build, angle, steps, x_init.copy()),
                     _pert_polish(model, build, angle, steps, x)):
            fc = loss_fn(cand)
            if fc < fx - 1e-12:
                x, fx = cand, fc

    spec = build(x)
    uc = control_unitary(model, spec, steps=steps)
    fid = avg_gate_fidelity(uc, gate)
    fid_ok = fid >= 1 - 1e-4
    converged = fid_ok
    warning = None
    if backend == "pert" and baseline > 0:
        resid, base = _cancelable_residual(model, spec, steps, fast)
        if base == 0.0:
            base = baseline
            resid = float(np.linalg.norm(pert_first_order(model, spec, steps=steps)))
        converged = fid_ok and resid <= 1e-3 * base
        if not converged:
            warning = (f"first-order residual {resid:.3e} vs baseline {base:.3e}, "
                       f"gate fidelity {fid:.6f}")
    elif not fid_ok:
        warning = f"gate fidelity {fid:.6f} below 1 - 1e-4"
    return OptimizedPulse(spec, target, backend, float(fx), iters, converged, warning)


def _cancelable_residual(model, spec, steps, fast):
    """(residual, unoptimized residual) over the part a drive can null.

    A coupling drive commutes with z on the driven-side qubit, so the
    z-side spectator term is fixed at its free value for every pulse; the
    convergence measure covers the rotating-plane component only. The
    gate decomposition refocuses the fixed part with an x-gate echo.
    """
    if not fast:
        return 0.0, 0.0
    c, s, _ = _plane_integrals(spec, steps)
    T = spec.duration
    m = model.num_qubits - model.num_gate_qubits
    if model.kind == "single":
        wsum = _normalized_weight_sq(model.neighbor_lambdas_a)
    else:
        wsum = _normalized_weight_sq_two(model)[1]
    scale = math.sqrt(2 ** (model.num_gate_qubits - 1) * 2 * wsum * 2 ** m)
    return math.hypot(c, s) * scale, T * scale


def _pert_polish(model, build, angle, steps, x):
    """Newton steps on the residual system (cos and sin integrals, angle)."""
    T = build(x).duration

    def residual(xv):
        c, s, phi_t = _plane_integrals(build(xv), steps)
        # two-qubit regions keep an uncancelable z-side term; the solvable
        # part is identical in both kinds
        return np.array([c / T, s / T, phi_t - angle])

    for _ in range(25):
        r = residual(x)
        if np.linalg.norm(r) < 1e-13:
            break
        jac = np.zeros((3, len(x)))
        for i in range(len(x)):
            h = 1e-6 * max(abs(x[i]), 1.0)
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            jac[:, i] = (residual(xp) - residual(xm)) / (2 * h)
        delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        scale = 1.0
        base = np.linalg.norm(r)
        improved = False
        while scale > 1e-6:
            xn = x + scale * delta
            if np.linalg.norm(residual(xn)) < base:
                x = xn
                improved = True
                break
            scale /= 2
        if not improved:
            break
    return x


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
