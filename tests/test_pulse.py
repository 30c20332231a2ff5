"""Tests for pulse envelopes, region evolution, and pulse optimization."""

import functools
import hashlib
import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zzsched import pulse
from zzsched.pulse import (
    Channel,
    FourierEnvelope,
    GaussianSegment,
    OptimizeConfig,
    OptimizedPulse,
    PulseSpec,
    RegionModel,
    SegmentEnvelope,
    _descend,
    _fd_stencil,
    _fourier_basis,
    _native_region,
    _optctrl_losses,
    _pert_system,
    _plane_integrals_batch,
    _propagate,
    _step_nodes,
    _window_terms,
    _zz_diagonal,
    avg_gate_fidelity,
    check_native_size,
    control_unitary,
    dcg_sequence,
    envelope_value,
    evolve,
    gate_space_model,
    gaussian_pulse,
    load_pulse,
    native_pulse,
    num_steps,
    optimize,
    pert_first_order,
    pulse_from_json,
    pulse_to_json,
    save_pulse,
    with_cross_lambda,
)

TWO_PI = 2 * math.pi
LAM = TWO_PI * 200e3

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def kron_at(n, ops):
    """Explicit n-qubit operator: ops maps qubit -> 2x2 matrix, identity elsewhere."""
    return functools.reduce(np.kron, [ops.get(q, I2) for q in range(n)])


def rx(theta):
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * X


def rzx(theta):
    zx = np.kron(Z, X)
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * zx


RX90 = rx(math.pi / 2)


def x_pulse(coeffs, T, sample_rate=200):
    return PulseSpec((Channel(0, "x", FourierEnvelope(coeffs, T)),), sample_rate)


def single_region(m=1, lam=LAM):
    return RegionModel("single", neighbor_lambdas_a=(lam,) * m)


def pert_parts(model, spec, target):
    """First-order crosstalk norm and drive-only gate fidelity: the two
    terms of the dense pert loss."""
    first = np.linalg.norm(pert_first_order(model, spec))
    return first, avg_gate_fidelity(control_unitary(model, spec), target)


def infidelity(model, spec, target):
    m = model.num_qubits - model.num_gate_qubits
    u = evolve(model, spec)
    return 1 - avg_gate_fidelity(u, np.kron(target, np.eye(2 ** m)))


# ----------------------------------------------------------- envelopes


class TestFourierEnvelope:
    def test_zero_at_endpoints(self):
        env = FourierEnvelope((1e8, -3e7, 2e7, 5e6, -1e6), 20e-9)
        assert abs(envelope_value(env, 0.0)) < 1e-6
        assert abs(envelope_value(env, env.T)) < 1e-6

    def test_single_coefficient_peak(self):
        a = 2 * math.pi * 12.5e6
        env = FourierEnvelope((a, 0, 0, 0, 0), 20e-9)
        assert envelope_value(env, env.T / 2) == pytest.approx(a)

    def test_single_coefficient_area(self):
        a = 1e8
        env = FourierEnvelope((a, 0, 0, 0, 0), 20e-9)
        ts = np.linspace(0, env.T, 20001)
        area = np.trapezoid(envelope_value(env, ts), ts)
        assert area == pytest.approx(a * env.T / 2, rel=1e-9)

    def test_out_of_range_raises(self):
        env = FourierEnvelope((1e8, 0, 0, 0, 0), 20e-9)
        with pytest.raises(ValueError):
            envelope_value(env, -1e-9)
        with pytest.raises(ValueError):
            envelope_value(env, 21e-9)

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            FourierEnvelope((1.0, 2.0), 20e-9)

    def test_nonpositive_duration(self):
        with pytest.raises(ValueError):
            FourierEnvelope((0,) * 5, 0.0)


class TestGaussianSegment:
    def test_area_is_half_angle(self):
        seg = GaussianSegment(math.pi / 2, 0.0, 20e-9)
        ts = np.linspace(0, 20e-9, 40001)
        env = SegmentEnvelope((seg,), 20e-9)
        area = np.trapezoid(envelope_value(env, ts), ts)
        assert area == pytest.approx(math.pi / 4, rel=1e-6)

    def test_baseline_subtracted_edges(self):
        env = SegmentEnvelope((GaussianSegment(math.pi, 0.0, 20e-9),), 20e-9)
        assert abs(envelope_value(env, 0.0)) < 1e-3
        assert abs(envelope_value(env, 20e-9)) < 1e-3

    def test_zero_angle_zero_amplitude(self):
        seg = GaussianSegment(0.0, 0.0, 20e-9)
        assert seg.amplitude == 0.0

    def test_gaussian_pulse_rejects_zero_duration(self):
        # the envelope's own check, not one of gaussian_pulse's
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            gaussian_pulse(math.pi / 2, 0.0)

    def test_segments_must_tile(self):
        good = (GaussianSegment(1.0, 0.0, 10e-9), GaussianSegment(1.0, 10e-9, 10e-9))
        SegmentEnvelope(good, 20e-9)
        with pytest.raises(ValueError):
            SegmentEnvelope((GaussianSegment(1.0, 5e-9, 10e-9),), 15e-9)
        with pytest.raises(ValueError):
            SegmentEnvelope(good, 25e-9)


class TestPulseSpec:
    def test_needs_channel(self):
        with pytest.raises(ValueError):
            PulseSpec(())

    def test_mixed_durations_rejected(self):
        a = Channel(0, "x", FourierEnvelope((1e8, 0, 0, 0, 0), 20e-9))
        b = Channel(0, "y", FourierEnvelope((1e8, 0, 0, 0, 0), 40e-9))
        with pytest.raises(ValueError):
            PulseSpec((a, b))

    def test_duration(self):
        assert x_pulse((1e8, 0, 0, 0, 0), 20e-9).duration == 20e-9


# --------------------------------------------------------- region model


class TestRegionModel:
    def test_single_layout(self):
        m = RegionModel("single", neighbor_lambdas_a=(1.0, 2.0))
        assert m.num_qubits == 3
        assert m.cross_pairs() == [(0, 1, 1.0), (0, 2, 2.0)]

    def test_two_layout(self):
        m = RegionModel("two", neighbor_lambdas_a=(1.0,), neighbor_lambdas_b=(2.0, 3.0),
                        intra_lambda=4.0)
        assert m.num_qubits == 5
        assert m.cross_pairs() == [(0, 2, 1.0), (1, 3, 2.0), (1, 4, 3.0)]

    def test_single_rejects_second_qubit_fields(self):
        with pytest.raises(ValueError):
            RegionModel("single", neighbor_lambdas_b=(1.0,))
        with pytest.raises(ValueError):
            RegionModel("single", intra_lambda=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_strength_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RegionModel("single", neighbor_lambdas_a=(bad,))
        with pytest.raises(ValueError, match="finite"):
            RegionModel("two", neighbor_lambdas_b=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            RegionModel("two", intra_lambda=bad)

    def test_dimension_cap(self):
        # the cap binds dense work only; the pert fast path takes any region
        spec = gaussian_pulse(math.pi / 2, 20e-9, axis="coupling", target=(0, 1))
        ok = RegionModel("two", neighbor_lambdas_a=(1.0,) * 2, neighbor_lambdas_b=(1.0,) * 2)
        assert evolve(ok, spec).shape == (64, 64)
        big = RegionModel("two", neighbor_lambdas_a=(1.0,) * 3, neighbor_lambdas_b=(1.0,) * 2)
        assert big.num_qubits == 7
        with pytest.raises(ValueError, match="7 qubits"):
            evolve(big, spec)
        # a device layer is checked before its 4096 x 4096 Hamiltonian is built
        with pytest.raises(ValueError, match="12 qubits"):
            _propagate([np.zeros(1 << 12)], [[(0.0, spec, (0, 1))]], 20e-9, 200)

    def test_bad_kind_and_form(self):
        with pytest.raises(ValueError):
            RegionModel("triple")


def dense_hamiltonian(n, zz, windows, duration, rate, k):
    """H at midpoint step k from the shared dense builders: the diagonal ZZ
    term of the (q..., lambda) tuples zz plus every drive of the windows."""
    terms, _, _ = _window_terms(n, [windows], duration, rate)
    h = np.diag(_zz_diagonal(n, zz)).astype(complex)
    for amps, mat in terms:
        h = h + amps[0, k] * mat
    return h


class TestBuildHamiltonian:
    def test_single_with_neighbor(self):
        a = 1e8
        model = single_region(1, LAM)
        spec = x_pulse((a, 0, 0, 0, 0), 20e-9, sample_rate=1)  # one step, at T/2
        h = dense_hamiltonian(2, model.cross_pairs(), [(0.0, spec, (0,))], 20e-9, 1, 0)
        expected = a * np.kron(X, I2) + LAM * np.kron(Z, Z)
        assert np.allclose(h, expected)

    def test_two_region_coupling(self):
        a = 5e7
        env = FourierEnvelope((a, 0, 0, 0, 0), 80e-9)
        spec = PulseSpec((Channel((0, 1), "coupling", env),), sample_rate=1)
        h = dense_hamiltonian(2, [(0, 1, LAM)], [(0.0, spec, (0, 1))], 80e-9, 1, 1)
        expected = envelope_value(env, 30e-9) * np.kron(Z, X) + LAM * np.kron(Z, Z)
        assert np.allclose(h, expected)

    def test_device_windows_and_detuning(self):
        # a device register: windows map gate indices onto register qubits,
        # and a detuning is a one-qubit z term
        def channel(target, axis, a):
            return Channel(target, axis, FourierEnvelope((a, 0, 0, 0, 0), 20e-9))

        xy = PulseSpec((channel(0, "x", 1e8), channel(0, "y", 3e7)), sample_rate=1)
        zx = PulseSpec((channel((0, 1), "coupling", 5e7),), sample_rate=1)
        zz = [(0, 1, LAM), (1, 2, 2 * LAM), (2, 0.5 * LAM)]
        h = dense_hamiltonian(3, zz, [(0.0, xy, (2,)), (0.0, zx, (1, 0))], 20e-9, 1, 0)
        expected = (1e8 * kron_at(3, {2: X}) + 3e7 * kron_at(3, {2: Y})
                    + 5e7 * kron_at(3, {1: Z, 0: X})
                    + LAM * kron_at(3, {0: Z, 1: Z}) + 2 * LAM * kron_at(3, {1: Z, 2: Z})
                    + 0.5 * LAM * kron_at(3, {2: Z}))
        assert np.allclose(h, expected)

    def test_coupling_needs_two_region(self):
        env = FourierEnvelope((1e8, 0, 0, 0, 0), 20e-9)
        spec = PulseSpec((Channel((0, 1), "coupling", env),))
        with pytest.raises(ValueError, match="axis coupling"):
            evolve(single_region(), spec)

    def test_drive_must_hit_gate_qubit(self):
        env = FourierEnvelope((1e8, 0, 0, 0, 0), 20e-9)
        spec = PulseSpec((Channel(1, "x", env),))
        with pytest.raises(ValueError, match="axis x"):
            evolve(single_region(), spec)


# ------------------------------------------------------------- evolution


class TestEvolve:
    def test_zero_drive_no_coupling_is_identity(self):
        u = evolve(RegionModel("single"), x_pulse((0, 0, 0, 0, 0), 20e-9))
        assert np.allclose(u, I2, atol=1e-12)

    def test_calibrated_area_gives_rx90(self):
        T = 20e-9
        spec = x_pulse((math.pi / 2 / T, 0, 0, 0, 0), T)
        u = evolve(RegionModel("single"), spec)
        assert 1 - avg_gate_fidelity(u, RX90) < 1e-10

    def test_coupling_only_evolution(self):
        model = RegionModel("two", intra_lambda=LAM)
        env = FourierEnvelope((0, 0, 0, 0, 0), 80e-9)
        spec = PulseSpec((Channel((0, 1), "coupling", env),))
        u = evolve(model, spec)
        phases = np.exp(-1j * LAM * 80e-9 * np.array([1, -1, -1, 1]))
        assert np.allclose(u, np.diag(phases), atol=1e-10)

    @given(st.lists(st.floats(-2e8, 2e8), min_size=5, max_size=5), st.integers(0, 2))
    @settings(max_examples=15, deadline=None)
    def test_unitarity(self, coeffs, m):
        model = single_region(m) if m else RegionModel("single")
        u = evolve(model, x_pulse(tuple(coeffs), 20e-9))
        d = u.shape[0]
        assert np.linalg.norm(u @ u.conj().T - np.eye(d)) < 1e-8

    def test_step_refinement_converged(self):
        model = single_region(1)
        spec = x_pulse((math.pi / 2 / 20e-9, 3e7, -2e7, 0, 0), 20e-9)
        target = np.kron(RX90, I2)
        f1 = avg_gate_fidelity(evolve(model, replace(spec, sample_rate=200)), target)
        f2 = avg_gate_fidelity(evolve(model, replace(spec, sample_rate=400)), target)
        assert abs(f1 - f2) < 1e-6

    def test_gaussian_rx90_exact_at_zero_coupling(self):
        u = evolve(RegionModel("single"), gaussian_pulse(math.pi / 2, 20e-9))
        assert 1 - avg_gate_fidelity(u, RX90) <= 1e-6

    def test_gaussian_zero_angle_is_identity(self):
        u = evolve(RegionModel("single"), gaussian_pulse(0.0, 20e-9))
        assert np.allclose(u, I2, atol=1e-12)

    def test_gaussian_full_turn_is_minus_identity(self):
        u = evolve(RegionModel("single"), gaussian_pulse(TWO_PI, 20e-9))
        assert np.allclose(u, -I2, atol=1e-5)
        assert avg_gate_fidelity(u, I2) == pytest.approx(1.0, abs=1e-10)


class TestAvgGateFidelity:
    def test_equal_unitaries(self):
        assert avg_gate_fidelity(RX90, RX90) == pytest.approx(1.0)

    def test_identity_vs_x(self):
        assert avg_gate_fidelity(I2, X) == pytest.approx(1 / 3)

    def test_global_phase_invariant(self):
        assert avg_gate_fidelity(RX90, np.exp(0.7j) * RX90) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            avg_gate_fidelity(I2, np.eye(4))


# ------------------------------------------------- first-order crosstalk


class TestPertFirstOrder:
    def test_zero_drive_matches_static_integral(self):
        model = single_region(1)
        first = pert_first_order(model, x_pulse((0, 0, 0, 0, 0), 20e-9))
        hx = np.kron(Z, Z)  # the one coupling, normalized by itself
        assert np.allclose(first, -1j * 20e-9 * hx, atol=1e-20)

    def test_no_coupling_gives_zero(self):
        first = pert_first_order(RegionModel("single"), x_pulse((1e8, 0, 0, 0, 0), 20e-9))
        assert np.linalg.norm(first) == 0.0

    def test_short_duration_vanishes(self):
        model = single_region(1)
        first = pert_first_order(model, x_pulse((0, 0, 0, 0, 0), 1e-15))
        assert np.linalg.norm(first) < 1e-12

    def test_norm_scales_with_duration(self):
        model = single_region(1)
        n1 = np.linalg.norm(pert_first_order(model, x_pulse((0,) * 5, 20e-9)))
        n2 = np.linalg.norm(pert_first_order(model, x_pulse((0,) * 5, 40e-9)))
        assert n2 == pytest.approx(2 * n1)

    def test_weights_normalized_by_largest(self):
        spec = x_pulse((0, 0, 0, 0, 0), 20e-9)
        strong = pert_first_order(single_region(1, LAM), spec)
        weak = pert_first_order(single_region(1, LAM / 4), spec)
        assert np.allclose(strong, weak)


class TestLosses:
    def test_pert_loss_refocused_identity(self):
        norm, fid = pert_parts(single_region(1), dcg_sequence("id"), I2)
        assert norm == pytest.approx(0.0, abs=1e-6)
        assert fid == pytest.approx(1.0, abs=1e-6)

    def test_pert_loss_idle_pulse(self):
        model = single_region(1)
        hx = np.kron(Z, Z)
        norm, fid = pert_parts(model, x_pulse((0,) * 5, 20e-9), I2)
        assert norm == pytest.approx(20e-9 * np.linalg.norm(hx), abs=1e-9)
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_pert_loss_nonnegative_without_penalty(self):
        norm, _ = pert_parts(single_region(1), gaussian_pulse(math.pi / 2, 20e-9), RX90)
        assert norm >= 0.0

    def test_optctrl_loss_exact_pulse_at_zero_coupling(self):
        spec = gaussian_pulse(math.pi / 2, 20e-9)
        loss = _optctrl_losses(RegionModel("single"), [spec], RX90)[0]
        assert loss == pytest.approx(-2.0, abs=1e-6)

    def test_optctrl_loss_bounded_below(self):
        model = single_region(1)
        spec = x_pulse((1.3e8, -4e7, 2e7, 0, 0), 20e-9)
        loss = _optctrl_losses(model, [spec], RX90)[0]
        assert loss >= -2.0


# --------------------------------------------------------- fixed shapes


class TestDcgSequence:
    def test_rx_half_pi_structure(self):
        spec = dcg_sequence("rx90")
        env = spec.channels[0].envelope
        assert env.T == pytest.approx(120e-9)
        angles = [s.angle for s in env.segments]
        assert angles == [math.pi, math.pi / 2, -math.pi / 2, math.pi, math.pi / 2]
        bounds = [s.start for s in env.segments] + [env.T]
        assert np.allclose(bounds, [0, 20e-9, 40e-9, 60e-9, 80e-9, 120e-9])

    def test_identity_structure(self):
        spec = dcg_sequence("id")
        env = spec.channels[0].envelope
        assert env.T == pytest.approx(40e-9)
        assert [s.angle for s in env.segments] == [math.pi, math.pi]

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            dcg_sequence("hadamard")

    def test_rx_half_pi_composition_at_zero_coupling(self):
        u = evolve(RegionModel("single"), dcg_sequence("rx90"))
        assert 1 - avg_gate_fidelity(u, RX90) <= 1e-6

    def test_identity_composition_at_zero_coupling(self):
        u = evolve(RegionModel("single"), dcg_sequence("id"))
        assert avg_gate_fidelity(u, I2) == pytest.approx(1.0, abs=1e-10)

    def test_echo_refocuses_first_order(self):
        model = single_region(1)
        for name, T in (("id", 40e-9), ("rx90", 120e-9)):
            resid = np.linalg.norm(pert_first_order(model, dcg_sequence(name)))
            free = np.linalg.norm(pert_first_order(model, x_pulse((0,) * 5, T)))
            assert resid <= 1e-5 * free

    def test_beats_plain_gaussian_at_strong_coupling(self):
        model = single_region(1)
        dcg = infidelity(model, dcg_sequence("rx90"), RX90)
        gauss = infidelity(model, gaussian_pulse(math.pi / 2, 20e-9), RX90)
        assert dcg < gauss / 10


# ----------------------------------------------------------- optimization


@pytest.fixture(scope="module")
def pert_rx90():
    model = single_region(1)
    return model, optimize(model, "rx90", "pert")


@pytest.fixture(scope="module")
def pert_id():
    model = single_region(1)
    return model, optimize(model, "id", "pert")


class TestOptimizePert:
    def test_rx90_converges(self, pert_rx90):
        model, opt = pert_rx90
        assert opt.converged and opt.warning is None
        uc = control_unitary(model, opt.spec)
        assert avg_gate_fidelity(uc, RX90) >= 1 - 1e-4

    def test_rx90_cancels_first_order(self, pert_rx90):
        model, opt = pert_rx90
        resid = np.linalg.norm(pert_first_order(model, opt.spec))
        base = np.linalg.norm(pert_first_order(model, gaussian_pulse(math.pi / 2, 20e-9)))
        assert resid <= 1e-3 * base

    def test_rx90_slope_shows_higher_order_error(self, pert_rx90):
        _, opt = pert_rx90
        freqs = np.logspace(4, math.log10(2e5), 7)
        vals = [infidelity(single_region(1, TWO_PI * f), opt.spec, RX90) for f in freqs]
        slope = np.polyfit(np.log(freqs), np.log(vals), 1)[0]
        assert slope >= 3.5

    def test_gaussian_slope_is_first_order(self):
        freqs = np.logspace(4, math.log10(2e5), 7)
        spec = gaussian_pulse(math.pi / 2, 20e-9)
        vals = [infidelity(single_region(1, TWO_PI * f), spec, RX90) for f in freqs]
        slope = np.polyfit(np.log(freqs), np.log(vals), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_identity_beats_gaussian_at_50khz(self, pert_id):
        _, opt = pert_id
        model = single_region(1, TWO_PI * 50e3)
        opt_inf = infidelity(model, opt.spec, I2)
        gauss_inf = infidelity(model, gaussian_pulse(TWO_PI, 20e-9), I2)
        assert opt_inf * 10 <= gauss_inf

    def test_pulse_transfers_to_more_neighbors(self, pert_rx90):
        _, opt = pert_rx90
        m2 = single_region(2)
        resid = np.linalg.norm(pert_first_order(m2, opt.spec))
        base = np.linalg.norm(pert_first_order(m2, gaussian_pulse(math.pi / 2, 20e-9)))
        assert resid <= 1e-3 * base

    def test_deterministic(self, pert_rx90):
        model, opt = pert_rx90
        again = optimize(model, "rx90", "pert")
        assert opt.spec.channels[0].envelope.a == again.spec.channels[0].envelope.a

    def test_zero_iteration_returns_initial(self):
        model = single_region(1)
        cfg = OptimizeConfig(max_iter=0, restarts=1)
        opt = optimize(model, "rx90", "pert", cfg)
        a = opt.spec.channels[0].envelope.a
        assert a[0] == pytest.approx(math.pi / 2 / cfg.T)
        assert a[1:] == (0.0, 0.0, 0.0, 0.0)
        assert opt.iterations == 0

    def test_no_neighbors_is_pure_calibration(self):
        model = RegionModel("single")
        opt = optimize(model, "rx90", "pert")
        assert opt.converged
        uc = control_unitary(model, opt.spec)
        assert avg_gate_fidelity(uc, RX90) >= 1 - 1e-6


class TestOptimizeRzx:
    def test_rzx90_pert(self):
        model = RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(LAM,))
        opt = optimize(model, "rzx90", "pert", OptimizeConfig(T=80e-9))
        assert opt.converged
        uc = control_unitary(model, opt.spec)
        assert avg_gate_fidelity(uc, rzx(math.pi / 2)) >= 1 - 1e-4
        # the z-side spectator term commutes with the drive and stays at its
        # free value 2T per unit weight; the x-side term is canceled
        resid = np.linalg.norm(pert_first_order(model, opt.spec))
        fixed = 2 * 80e-9 * math.sqrt(1 * 4)
        assert resid == pytest.approx(fixed, rel=1e-3)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            optimize(single_region(1), "rzx90", "pert")
        with pytest.raises(ValueError):
            optimize(RegionModel("two"), "rx90", "pert")

    def test_pert_rejects_intra_coupling_before_any_loss(self, monkeypatch):
        model = RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(LAM,),
                            intra_lambda=0.3 * LAM)
        # optctrl designs such a region; pert's closed form does not hold on it
        opt = optimize(model, "rzx90", "optctrl", OptimizeConfig(T=80e-9, max_iter=0, restarts=1))
        assert opt.iterations == 0

        def no_descent(*args, **kwargs):
            raise AssertionError("the descent ran before the region was checked")

        monkeypatch.setattr(pulse, "_descend", no_descent)
        with pytest.raises(ValueError, match="optctrl"):
            optimize(model, "rzx90", "pert", OptimizeConfig(T=80e-9))

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            optimize(single_region(1), "ry90", "pert")
        with pytest.raises(ValueError):
            optimize(single_region(1), "rx90", "annealing")

    @pytest.mark.parametrize("bad", [dict(T=0.0), dict(T=math.nan), dict(T=math.inf),
                                     dict(T=-80e-9), dict(max_iter=-3),
                                     dict(restarts=-1), dict(restarts=0)])
    def test_config_rejected_up_front(self, bad):
        with pytest.raises(ValueError):
            OptimizeConfig(**bad)

    @pytest.mark.parametrize("field", ["max_iter", "restarts"])
    def test_config_counts_are_integers(self, field):
        # 2.5 once passed here and failed in the descent after the first loss
        with pytest.raises(TypeError):
            OptimizeConfig(**{field: 2.5})
        cfg = OptimizeConfig(**{field: np.int64(2)})
        assert type(getattr(cfg, field)) is int

    def test_config_is_frozen(self):
        # a field set after the checks would skip them
        cfg = OptimizeConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.T = 0.0


class TestOptimizeOptctrl:
    def test_improves_or_keeps_loss(self):
        model = single_region(1)
        cfg = OptimizeConfig(max_iter=8)
        opt = optimize(model, "rx90", "optctrl", cfg)
        init = x_pulse((math.pi / 2 / cfg.T, 0, 0, 0, 0), cfg.T)
        init_loss = _optctrl_losses(model, [init], RX90)[0]
        assert opt.loss <= init_loss + 1e-12
        uc = control_unitary(model, opt.spec)
        assert avg_gate_fidelity(uc, RX90) >= 1 - 1e-3


class TestGradientSanity:
    def test_central_difference_matches_richardson(self):
        model = single_region(1)
        T = 20e-9

        def f(c):
            coeffs = (math.pi / 2 / T + c, 2e7, -1e7, 0, 0)
            norm, fid = pert_parts(model, x_pulse(coeffs, T), RX90)
            return norm - fid

        h = 1e-6 * max(abs(math.pi / 2 / T), 1.0)
        central = (f(h) - f(-h)) / (2 * h)
        richardson = (8 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12 * h)
        assert central == pytest.approx(richardson, rel=0.01)


# ------------------------------------------------------------------ JSON


class TestPulseJson:
    def test_fourier_round_trip(self, pert_rx90, tmp_path):
        _, opt = pert_rx90
        path = tmp_path / "rx90.json"
        save_pulse(path, opt)
        back = load_pulse(path)
        assert back.target_gate == opt.target_gate
        assert back.backend == opt.backend
        assert back.converged == opt.converged
        a0 = np.array(opt.spec.channels[0].envelope.a)
        a1 = np.array(back.spec.channels[0].envelope.a)
        assert np.allclose(a0, a1, rtol=1e-12)

    def test_optctrl_round_trip(self, tmp_path):
        opt = optimize(single_region(1), "rx90", "optctrl",
                       OptimizeConfig(max_iter=1, restarts=1))
        assert type(opt.converged) is bool
        path = tmp_path / "rx90_optctrl.json"
        save_pulse(path, opt)
        back = load_pulse(path)
        assert back.backend == "optctrl"
        assert back.converged == opt.converged

    def test_segment_round_trip(self):
        op = OptimizedPulse(dcg_sequence("rx90"), "rx90", "dcg", 0.0, 0, True)
        back = pulse_from_json(pulse_to_json(op))
        env0 = op.spec.channels[0].envelope
        env1 = back.spec.channels[0].envelope
        assert len(env0.segments) == len(env1.segments)
        for s0, s1 in zip(env0.segments, env1.segments):
            assert s0.angle == pytest.approx(s1.angle)
            assert s0.start == pytest.approx(s1.start)
            assert s0.length == pytest.approx(s1.length)

    def test_duration_carried_in_ns(self, pert_rx90):
        _, opt = pert_rx90
        obj = pulse_to_json(opt)
        assert obj["T_ns"] == pytest.approx(20.0)
        assert obj["channels"][0]["axis"] == "x"

    @pytest.mark.parametrize("field,value,error", [
        ("angle", math.nan, ValueError), ("start_ns", math.nan, ValueError),
        ("length_ns", math.inf, ValueError), ("T_ns", math.nan, ValueError),
        ("T_ns", -20.0, ValueError), ("sample_rate", 0, ValueError),
        ("sample_rate", -5, ValueError), ("sample_rate", math.nan, TypeError),
        ("sample_rate", 2.5, TypeError),
    ])
    def test_impossible_values_rejected(self, field, value, error):
        obj = pulse_to_json(OptimizedPulse(gaussian_pulse(math.pi / 2, 20e-9), "rx90", "dcg",
                                           0.0, 0, True))
        pulse_from_json(obj)
        if field in obj:
            obj[field] = value
        else:
            obj["channels"][0]["segments"][0][field] = value
        with pytest.raises(error):
            pulse_from_json(obj)


# ------------------------------------------------- consistency invariants


class TestFastPathConsistency:
    @given(st.lists(st.floats(-1.5e8, 1.5e8), min_size=5, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_plane_reduction_matches_full_space(self, coeffs):
        model = single_region(1)
        T = 20e-9
        spec = x_pulse(tuple(coeffs), T)
        score = _pert_system(model, T, math.pi / 2)[0]
        [(fast_norm, fast_fid)] = score(np.array([coeffs]) * T)
        full = np.linalg.norm(pert_first_order(model, spec))
        uc = control_unitary(model, spec)
        fid = avg_gate_fidelity(uc, RX90)
        assert fast_fid == pytest.approx(fid, abs=1e-9)
        assert fast_norm == pytest.approx(full, rel=2e-3, abs=1e-12)

    def test_num_steps_scales_with_duration(self):
        assert num_steps(20e-9, 200) == 200
        assert num_steps(80e-9, 200) == 800
        assert num_steps(120e-9, 200) == 1200


# ------------------------------------------------ pinned optimizer output

# sha256 of the sorted pulse JSON, recorded before the plane integrals and
# the propagator stepper were batched; the descent must land on the same bits
PULSE_SHA256 = {
    ("pert", "rx90", 1): "a3a265a248cdbcf08d993121031a6cd32d147c3285aa5f43d59272f07d6d5c0b",
    ("pert", "rx90", 2): "f49a489a6f55aeb1349809427290e179dc0ce0d538a8372f56a39a5746bc2507",
    ("pert", "rx90", 3): "b6dd4145b607c47cb35f489b7b60f9356af994d62511e8d6241ff59c5427881d",
    ("pert", "rx90", 4): "ccba5ac66b209755edfaa2dab76f4a554fe86fc8b49ff5ec7a2930c109fcc651",
    ("pert", "id", 1): "0cad64d9626a221098e904a505ad8365b4d2af0397c00fb81b49448e1303db0f",
    ("pert", "id", 2): "da5630487ab6c39f46277d100b9af0e1f12a6cdab5e55ea6a55446380aadfeb1",
    ("pert", "id", 3): "3a75d0400db94c27833a86a55edd99d626c69aca34457daabf5ff53acc0b5e27",
    ("pert", "id", 4): "94e6b74b6d165d0f7bbb5cd5b3211f02b0d964c3631a88e11dda50525b5e8a2c",
    ("pert", "rzx90", 1): "870ae62004f613f019bc177aadb15bb09d343274954e56a685697c6e19c9f2ce",
    ("pert", "rzx90", 2): "ef27ffaf9f593646766a638d21146205819cb04156a8c835b69234a79bf49b9f",
    # a 256-dimension region, past the dense cap: only the fast path designs it
    ("pert", "rzx90", 3): "954c5e83398b437f21ef44e3233c50351523f22d6193a1df086cbb9298de9211",
    ("optctrl", "rx90", 1): "ab9a41d6394d8a209f09a78ea8953b1bc1e3552d76c95e51a522d6e382114936",
    # edge branches of optimize, recorded before the fast path lost its
    # dense baseline; the label names a (model, config) in _PINNED_VARIANTS,
    # or for "uncoupled" the native pulse at zero strength
    ("pert", "rzx90", "a-only"): "b13dffd5228dcfd70fe5225618c936f9dd978d51d78728e69852425b929df88c",
    ("pert", "rzx90", "b-zero"): "e00c7e0b4151cd702930175ff2cff910cfa9a316bab14a9d207e2b27cb843569",
    ("pert", "rx90", "uncoupled"): "d14230748979369b00dc913d062c5af2738cec758108eca5c443fc3add61cd22",
    # recorded before pert's design moved into one function
    ("pert", "rzx90", "uncoupled"): "525baa5acc218be6421c156feca170780dafee0183cbdd995a9e9eee41334c3e",
    ("pert", "rx90", "no-iter"): "64efc432e4f5c5db645df915dcf4df2d55c90b8b1eab82793bf789e4c634078b",
}

_PINNED_VARIANTS = {
    # no b side: the whole term is fixed, so residual equals baseline
    "a-only": (RegionModel("two", neighbor_lambdas_a=(LAM,)), OptimizeConfig(T=80e-9)),
    # a b side of zero weight: the cancelable base is 0
    "b-zero": (RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(0.0,)),
               OptimizeConfig(T=80e-9)),
    "no-iter": (single_region(1), OptimizeConfig(max_iter=0, restarts=1)),
}


def _sha(op):
    return hashlib.sha256(json.dumps(pulse_to_json(op), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("backend,target,m", list(PULSE_SHA256))
def test_pulse_json_pinned(backend, target, m):
    if backend == "optctrl":
        op = optimize(single_region(m), target, backend, OptimizeConfig(max_iter=5, restarts=1))
    elif m == "uncoupled":
        op = native_pulse(target, backend, lambda_hz=0.0)
    elif isinstance(m, str):
        model, config = _PINNED_VARIANTS[m]
        op = optimize(model, target, backend, config)
    else:
        # native regions are the hand-built ones the pins were recorded on
        op = native_pulse(target, backend, m)
    assert _sha(op) == PULSE_SHA256[backend, target, m]


@pytest.mark.parametrize("target,m", [*((t, m) for t in ("rx90", "id") for m in (1, 2, 3, 4)),
                                      *(("rzx90", m) for m in (1, 2, 3)),
                                      ("rx90", "spread"), ("rzx90", "a-only"),
                                      ("rzx90", "b-zero")])
def test_polish_alone_lands_on_optimize(target, m):
    """The Newton polish from the calibrated start gives optimize's pert
    coefficients bit for bit: the descent before it changes nothing but
    meta.iterations. Not on a two-qubit region whose b side is absent or
    of zero weight: there no drive moves the first-order norm, the loss
    depends on phi(T) alone, which the calibrated start already sets, so
    the polish's point cannot score lower and optimize keeps that start."""
    if m == "spread":
        model = RegionModel("single", neighbor_lambdas_a=tuple(TWO_PI * f for f in
                                                              (200e3, 50e3, 400e3)))
        config = OptimizeConfig()
    elif isinstance(m, str):
        model, config = _PINNED_VARIANTS[m]
    else:  # the native regions in their pert slots
        model = _native_region(target, m, 200e3)
        config = OptimizeConfig(T=80e-9 if target == "rzx90" else 20e-9)
    angle = pulse._TARGETS[target][1]
    polish = _pert_system(model, config.T, angle)[2]
    x_init = np.array([angle, 0.0, 0.0, 0.0, 0.0])
    got = (polish(x_init) / config.T).tolist()
    want = list(optimize(model, target, "pert", config).spec.channels[0].envelope.a)
    flat = model.kind == "two" and not any(model.neighbor_lambdas_b)
    assert (got != want) if flat else (got == want)


def test_native_region_shapes():
    def region(kind, m):
        return _native_region(kind, m, 200e3)

    assert region("rx90", 0) == single_region(1)  # a 1q gate keeps one spectator
    assert region("id", 3) == single_region(3)
    assert region("rzx90", 0) == RegionModel("two")
    assert region("rzx90", 2) == RegionModel(
        "two", neighbor_lambdas_a=(LAM,) * 2, neighbor_lambdas_b=(LAM,) * 2)
    with pytest.raises(ValueError, match="nonnegative"):
        region("rx90", -1)


def test_check_native_size_follows_optimize():
    # 3+3 spectators make an 8-qubit rzx90 region: optctrl's dense design
    # is past the cap, pert's closed form and the fixed shapes are not
    with pytest.raises(ValueError, match="dimension 256"):
        check_native_size("rzx90", "optctrl", 3)
    for backend in ("pert", "gaussian", "dcg"):
        check_native_size("rzx90", backend, 3)


@pytest.mark.parametrize("kind,backend", [("ry90", "pert"), ("rz", "gaussian"),
                                          ("rx90", "annealing"), ("rzx90", "magic")])
def test_native_pulse_rejects_unknown_names(kind, backend):
    with pytest.raises(ValueError, match="unknown"):
        native_pulse(kind, backend)


def test_fast_pert_path_builds_no_dense_region(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("fast pert path built the dense first-order term")

    monkeypatch.setattr(pulse, "pert_first_order", dense)
    for model, target, config in [
        (single_region(1), "rx90", None),
        (RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(LAM,)),
         "rzx90", OptimizeConfig(T=80e-9)),
        (RegionModel("two", neighbor_lambdas_a=(LAM,)), "rzx90", OptimizeConfig(T=80e-9)),
    ]:
        optimize(model, target, "pert", config)


# ------------------------------------------- batched kernels, same bits


def _plane_integrals_reference(spec, steps):
    """The per-envelope plane integrals the batched helper replaced."""
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


def _plane_integrals_former(basis, coeffs, T, steps):
    """The batched plane-integral pass before sin and -cos shared one buffer."""
    dt = T / steps
    half = coeffs / 2
    om = np.zeros((len(coeffs), steps))
    tmp = np.empty_like(om)
    for j in range(5):
        om += np.multiply(half[:, j, None], basis[j], out=tmp)
    phi = np.zeros((len(coeffs), steps + 1))
    acc = np.cumsum(om, axis=1, out=phi[:, 1:])
    acc *= 2
    acc *= dt
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    two_om = np.multiply(om, 2, out=om)
    small = np.multiply(np.abs(two_om, out=tmp), dt, out=tmp) < 1e-12
    if small.any():
        denom = np.where(small, 1.0, two_om)
        cos_steps = np.where(small, dt * cos_phi[:, :-1],
                             (sin_phi[:, 1:] - sin_phi[:, :-1]) / denom)
        sin_steps = np.where(small, dt * sin_phi[:, :-1],
                             (cos_phi[:, :-1] - cos_phi[:, 1:]) / denom)
        return cos_steps.sum(axis=1), sin_steps.sum(axis=1), phi[:, -1]
    np.subtract(sin_phi[:, 1:], sin_phi[:, :-1], out=tmp)
    cos_int = np.divide(tmp, two_om, out=tmp).sum(axis=1)
    np.subtract(cos_phi[:, :-1], cos_phi[:, 1:], out=tmp)
    return cos_int, np.divide(tmp, two_om, out=tmp).sum(axis=1), phi[:, -1]


def _step_product_reference(h_static, terms, amps, dt, dim, steps, collect=None):
    """The per-step eigh loop the chunked stepper replaced."""
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


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


@pytest.mark.parametrize("steps", [200, 800, 37])
def test_plane_integrals_batch_bit_identical(steps):
    T = 20e-9
    basis = _fourier_basis(T, steps)
    rng = np.random.default_rng(steps)
    exact = rng.standard_normal((10, 5)) * 1.5e8
    # no step with 2 |Omega| dt < 1e-12: the batch skips the np.where branch
    assert (np.abs(exact / 2 @ basis) * 2 * (T / steps)).min() > 1e-12
    coeffs = exact.copy()
    coeffs[[2, 7]] = 0.0
    coeffs[4] = -0.0
    for batch in (coeffs, exact):
        got = _plane_integrals_batch(basis, batch, T, steps)
        kept = [col.copy() for col in got]
        for i, row in enumerate(batch):
            ref = _plane_integrals_reference(x_pulse(tuple(row), T), steps)
            assert tuple(float(col[i]) for col in got) == ref
            # loss_fn and the polish pass one row, the FD stencil ten
            alone = _plane_integrals_batch(basis, batch[i:i + 1], T, steps)
            assert tuple(col[0] for col in alone) == tuple(col[i] for col in got)
        # later calls leave an earlier call's results (phi(T) is a view) alone
        assert all(np.array_equal(a, b) for a, b in zip(got, kept))


@pytest.mark.parametrize("rows", [1, 3, 10, 30])
@pytest.mark.parametrize("steps", [200, 800])
def test_plane_integrals_batch_matches_former_pass(steps, rows):
    # the stencils of three restarts are 30 rows; a zero envelope row sends
    # the whole batch through the np.where form. One work list serves every
    # call, as in _pert_system, down to smaller batches and an empty one
    T = 20e-9
    basis = _fourier_basis(T, steps)
    coeffs = np.random.default_rng(rows * steps).standard_normal((rows, 5)) * 1.5e8
    zeroed = coeffs.copy()
    zeroed[0] = 0.0
    work = []
    first = _plane_integrals_batch(basis, coeffs, T, steps, work)
    kept = [a.copy() for a in first]
    for batch in (zeroed, coeffs, coeffs[:(rows + 1) // 2], coeffs[:0]):
        ref = _plane_integrals_former(basis, batch, T, steps)
        for got in (_plane_integrals_batch(basis, batch, T, steps),
                    _plane_integrals_batch(basis, batch, T, steps, work)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        # the results are the call's own, not views of the shared work arrays
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, kept))


def _chunk_steps(problems, dim):
    """Steps per stacked eigh chunk: the byte budget over one step's matrices."""
    return max(1, pulse._STEP_BYTES // (16 * problems * dim * dim))


# each step count spans more than one stacked chunk (see _chunk_steps),
# most ending in a partial one, except 4-70-stack1, which fits one chunk;
# 4-600-stack1 takes that shape across chunks
@pytest.mark.parametrize("dim,steps,stack", [
    (4, 600, None), (16, 70, None), (64, 45, None),
    (4, 70, 1), (4, 45, 3), (16, 25, 3), (4, 45, 40), (4, 600, 1),
], ids=["4-600", "16-70", "64-45", "4-70-stack1", "4-45-stack3", "16-25-stack3",
        "4-45-stack40", "4-600-stack1"])
def test_step_nodes_bit_identical(dim, steps, stack):
    rng = np.random.default_rng(dim)
    members = 1 if stack is None else stack
    hs = [_random_hermitian(rng, dim) for _ in range(members)]
    mats = [_random_hermitian(rng, dim) for _ in range(2)]
    amps = rng.standard_normal((members, 2, steps))
    dt = 0.01
    if stack is None:
        got = [u[None] for u in _step_nodes(hs[0], list(zip(amps[0], mats)), dt, steps)]
    else:
        terms = [(amps[:, j], m) for j, m in enumerate(mats)]
        got = list(_step_nodes(np.stack(hs), terms, dt, steps))
    assert len(got) == steps + 1
    for p in range(members):
        ref = []
        _step_product_reference(hs[p], [(None, m) for m in mats], amps[p], dt, dim,
                                steps, collect=ref)
        for a, b in zip(got, ref):
            assert a.shape == (members, dim, dim)
            assert np.array_equal(a[p], b)


def _optctrl_loss_reference(model, spec, target):
    """The per-pulse optctrl loss the stacked one replaced: a control
    unitary and one evolve per sampled strength, each on its own."""
    uc = control_unitary(model, spec)
    fid_gate = avg_gate_fidelity(uc, target)
    if model.kind == "two" and model.intra_lambda:
        dressed_gate = evolve(gate_space_model(model), spec)
    else:
        dressed_gate = target
    m = model.num_qubits - model.num_gate_qubits
    dressed = np.kron(dressed_gate, np.eye(2 ** m, dtype=complex))
    total = 0.0
    for lam in pulse.DEFAULT_LAMBDA_SAMPLES:
        u = evolve(pulse.with_cross_lambda(model, lam), spec)
        total += -avg_gate_fidelity(u, dressed)
    return total / len(pulse.DEFAULT_LAMBDA_SAMPLES) - fid_gate


@pytest.mark.parametrize("kind", ["single", "two"])
def test_stacked_dense_losses_bit_identical(kind):
    # ten pulses as one stencil: one drives nothing on its main channel
    # (alone, that drive is left out; in the stack its rows are zeros) and
    # one carries an extra drive the others lack
    T = 20e-9
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((10, 5)) * 5e7
    coeffs[0] += (math.pi / 2 / T, 0, 0, 0, 0)
    coeffs[3] = 0.0
    if kind == "single":
        model, target = single_region(2), RX90
        main = [(0, "x")] * 10
    else:
        model = RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(LAM,),
                            intra_lambda=0.3 * LAM)
        target = rzx(math.pi / 2)
        main = [((0, 1), "coupling")] * 10
    specs = [PulseSpec((Channel(tgt, axis, FourierEnvelope(c, T)),))
             for (tgt, axis), c in zip(main, coeffs)]
    extra = Channel(0, "y", FourierEnvelope(tuple(rng.standard_normal(5) * 3e7), T))
    specs[6] = PulseSpec(specs[6].channels + (extra,))
    got = _optctrl_losses(model, specs, target)
    assert got == [_optctrl_loss_reference(model, s, target) for s in specs]
    assert got == [_optctrl_losses(model, [s], target)[0] for s in specs]


@pytest.mark.parametrize("pulses,strengths", [(2, 70), (3, 30), (3, 200)])
def test_evolve_large_stack_bit_identical(pulses, strengths):
    # more problems than one eigh chunk holds the 45 steps of, so the
    # stepper takes several chunks; at 3 x 200 (600 problems at d = 4) one
    # step of the stack alone exceeds the byte budget. Every stack member
    # keeps the bits of evolve
    assert _chunk_steps(pulses * strengths, 4) < 45
    if strengths == 200:
        assert 16 * pulses * strengths * 4 * 4 > pulse._STEP_BYTES
    models = [single_region(1, lam) for lam in LAM * np.linspace(0.1, 2.0, strengths)]
    specs = [gaussian_pulse(math.pi / 2 * (k + 1), 20e-9, sample_rate=45) for k in range(pulses)]
    got = pulse._evolve_stack(models, specs)
    assert got.shape == (pulses, strengths, 4, 4)
    for s, spec in enumerate(specs):
        for m, model in enumerate(models):
            assert np.array_equal(got[s, m], evolve(model, spec))


def _dense_layer_reference(n, zz_diag, windows, duration, rate):
    """The device-layer propagator _propagate replaced."""
    terms, dt, steps = _window_terms(n, [windows], duration, rate)
    terms = [(a[0], mat) for a, mat in terms]  # a stack of one window list: B = ()
    for u in _step_nodes(np.diag(zz_diag.astype(complex)), terms, dt, steps):
        pass
    return u


def _device_layer(n, seed):
    """(ZZ diagonal, windows) of a layer on an n-qubit line: a coupling
    drive on (0, 1) and two id-fill windows on every other qubit."""
    rng = np.random.default_rng(seed)
    lams = LAM * rng.uniform(0.5, 2, n - 1)
    zz = _zz_diagonal(n, [(q, q + 1, lam) for q, lam in enumerate(lams)])
    windows = [(0.0, gaussian_pulse(math.pi / 2, 40e-9, axis="coupling", target=(0, 1),
                                    sample_rate=50), (0, 1))]
    fill = gaussian_pulse(TWO_PI, 20e-9, sample_rate=50)
    windows += [(start, fill, (q,)) for q in range(2, n) for start in (0.0, 20e-9)]
    return zz, windows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_propagate_one_problem_bit_identical(n):
    # d = 64 at n = 6: a one-problem stack replaces the B = () path
    zz, windows = _device_layer(n, n)
    got = _propagate([zz], [windows], 40e-9, 50)
    assert got.shape == (1, 1, 1 << n, 1 << n)
    assert np.array_equal(got[0, 0], _dense_layer_reference(n, zz, windows, 40e-9, 50))


def test_propagate_large_stack_bit_identical():
    # 3 window lists on 30 diagonals: more problems than one eigh chunk
    # holds the 100 steps of. One list lacks the coupling drive and one
    # drives y as well
    zz = [_device_layer(3, seed)[0] for seed in range(30)]
    windows = _device_layer(3, 0)[1]
    extra = (0.0, gaussian_pulse(math.pi / 2, 40e-9, axis="y", target=0, sample_rate=50), (2,))
    stack = [windows, windows[1:], windows + [extra]]
    assert _chunk_steps(len(stack) * len(zz), 8) < num_steps(40e-9, 50)
    got = _propagate(zz, stack, 40e-9, 50)
    assert got.shape == (3, 30, 8, 8)
    for s, w in enumerate(stack):
        for m, diag in enumerate(zz):
            assert np.array_equal(got[s, m], _propagate([diag], [w], 40e-9, 50)[0, 0])


def _descend_reference(f, grad, x0, max_iter, searches=None):
    """The one-start descent the lockstep one replaced. searches, if given,
    collects the probes each line search took."""
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    iters = 0
    step = 1.0
    for _ in range(max_iter):
        g = grad(x)
        gn = float(np.linalg.norm(g))
        if gn < pulse._GRAD_TOL:
            break
        alpha = step
        accepted = False
        probes = 0
        while alpha > 1e-14:
            xn = x - alpha * g
            fn = f(xn)
            probes += 1
            if fn <= fx - 1e-4 * alpha * gn * gn:
                accepted = True
                break
            alpha /= 2
        if searches is not None:
            searches.append(probes)
        if not accepted:
            break
        x, fx = xn, fn
        step = min(alpha * 2, 1e6)
        iters += 1
    return x, fx, iters


def _rx90_losses(model, backend, T=20e-9):
    """optimize's loss over rows of normalized coefficients, for rx90."""
    if backend == "optctrl":
        def losses(xs):
            return _optctrl_losses(model, [pulse._make_spec(model, x / T, T) for x in xs], RX90)
        return losses
    return _pert_system(model, T, math.pi / 2)[1]


@pytest.mark.parametrize("backend,lam,max_iter,restarts,probes", [
    # uncoupled, the calibrated start has a zero gradient and stops at
    # once while the noisy restarts descend
    ("pert", 0.0, 40, 3, 1),
    ("pert", LAM, 40, 3, 1),
    ("pert", LAM, 0, 3, 1),
    ("pert", LAM, 40, 1, 1),
    ("optctrl", LAM, 2, 3, 1),
    ("optctrl", LAM, 0, 2, 1),
    # optimize's pert setting; the long run holds searches of more than
    # one round's probes
    ("pert", LAM, 40, 3, pulse._PERT_PROBES),
    ("pert", LAM, 300, 3, pulse._PERT_PROBES),
    ("pert", LAM, 0, 3, pulse._PERT_PROBES),
], ids=["pert-uncoupled", "pert", "pert-no-iter", "pert-one-start", "optctrl",
        "optctrl-no-iter", "pert-probes", "pert-probes-long-search", "pert-probes-no-iter"])
def test_lockstep_descent_matches_sequential(backend, lam, max_iter, restarts, probes):
    losses = _rx90_losses(single_region(1, lam), backend)
    calls = []

    def grads(xs):
        calls.append(len(xs))
        pts, h = _fd_stencil(xs)
        vals = np.array(losses(pts)).reshape(len(xs), -1)
        return (vals[:, 0::2] - vals[:, 1::2]) / (2 * h)

    def grad(x):
        return grads(x[None])[0]

    x_init = np.array([math.pi / 2, 0, 0, 0, 0])
    starts = [x_init] + [x_init + 0.15 * math.pi / 2 * np.random.default_rng(i).standard_normal(5)
                         for i in range(1, restarts)]
    got = _descend(losses, grads, starts, max_iter, probes)
    # one gradient call per round, holding every start still descending
    assert calls[:1] == ([len(starts)] if max_iter else [])
    assert len(calls) <= max_iter and calls == sorted(calls, reverse=True)
    searches = []
    ref = [_descend_reference(lambda x: losses(x[None])[0], grad, x0, max_iter, searches)
           for x0 in starts]
    assert len(got) == len(ref)
    for (x, fx, iters), (rx, rfx, riters) in zip(got, ref):
        assert np.array_equal(x, rx) and fx == rfx and iters == riters
    if lam == 0.0:
        assert [r[2] for r in ref] == [0, max_iter, max_iter]
    if max_iter == 300:
        assert max(searches) > probes


RZX90_M2 = RegionModel("two", neighbor_lambdas_a=(LAM, 0.5 * LAM),
                       neighbor_lambdas_b=(LAM, 2 * LAM), intra_lambda=0.3 * LAM)


def _coupling_drive_reference(model, spec):
    """The coupling channel's (envelope, Z_a X_b) term and its amplitudes on
    the pulse's midpoint grid, built from explicit krons."""
    steps = num_steps(spec.duration, spec.sample_rate)
    dt = spec.duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    env = spec.channels[0].envelope
    terms = [(env, kron_at(model.num_qubits, {0: Z, 1: X}))]
    amps = np.array([np.asarray(envelope_value(env, mids), dtype=float)])
    return terms, amps, dt, steps


def test_pert_first_order_bit_identical_rzx90_m2():
    model = RZX90_M2
    n = model.num_qubits
    spec = gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1))
    terms, amps, dt, steps = _coupling_drive_reference(model, spec)
    # the former collect-every-node integration, kept as the reference
    h_intra = np.zeros((model.dim, model.dim), dtype=complex)
    h_intra += model.intra_lambda * kron_at(n, {0: Z, 1: Z})
    nodes = []
    _step_product_reference(h_intra, terms, amps, dt, model.dim, steps, collect=nodes)
    scale = 1.0 / (2 * LAM)  # the largest cross strength
    hx = np.zeros((model.dim, model.dim), dtype=complex)
    for g, q, lam in model.cross_pairs():
        hx += (lam * scale) * kron_at(n, {g: Z, q: Z})
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for k, u in enumerate(nodes):
        integrand = u.conj().T @ hx @ u
        weight = 0.5 if k in (0, len(nodes) - 1) else 1.0
        acc += weight * integrand
    assert np.array_equal(pert_first_order(model, spec), -1j * acc * dt)


# the couplings left out are expressed as model transforms
RZX90_M2_CASES = {
    "all": RZX90_M2,
    "no-crosstalk": with_cross_lambda(RZX90_M2, 0.0),
    "no-intra": replace(RZX90_M2, intra_lambda=0.0),
    "drive-only": replace(with_cross_lambda(RZX90_M2, 0.0), intra_lambda=0.0),
}


@pytest.mark.parametrize("case", list(RZX90_M2_CASES))
def test_evolve_bit_identical_rzx90_m2(case):
    # the former evolve: explicit kron terms summed in the same order, and
    # the per-step eigh loop the chunked stepper replaced
    model = RZX90_M2_CASES[case]
    n = model.num_qubits
    spec = gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1))
    terms, amps, dt, steps = _coupling_drive_reference(model, spec)
    h_static = np.zeros((model.dim, model.dim), dtype=complex)
    for g, q, lam in model.cross_pairs():
        if lam:
            h_static += lam * kron_at(n, {g: Z, q: Z})
    if model.intra_lambda:
        h_static += model.intra_lambda * kron_at(n, {0: Z, 1: Z})
    ref = _step_product_reference(h_static, terms, amps, dt, model.dim, steps)
    assert np.array_equal(evolve(model, spec), ref)
