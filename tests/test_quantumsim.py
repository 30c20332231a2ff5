"""Tests for device sampling, plan simulation, sweeps, and Ramsey probes."""

import math

import numpy as np
import pytest

from zzsched.circuit import Circuit, Gate, benchmark, gate_matrix, to_native
from zzsched.pulse import (
    OptimizeConfig,
    PulseSpec,
    RegionModel,
    evolve,
    gaussian_pulse,
    num_steps,
    optimize,
)
from zzsched.quantumsim import (
    DeviceInstance,
    _batch_su2,
    _batch_zx,
    _layer_windows,
    _pulse_map,
    _run_plan,
    _split_layer,
    _window_amplitudes,
    _zz_diagonal,
    backend_gate_times,
    dcg_library,
    drive_noise_eval,
    fit_cosine,
    gaussian_library,
    ramsey_effective_zz,
    ramsey_experiment,
    sample_device,
    simulate_plan,
    suppression_sweep,
    uniform_device,
)
from zzsched.scheduler import Layer, par_sched, schedule
from zzsched.topology import Cut, grid_snake_order, grid_topology, line_topology

TWO_PI = 2 * math.pi
LAM = TWO_PI * 200e3

LINE2 = line_topology(2)
LINE3 = line_topology(3)


@pytest.fixture(scope="module")
def gauss_lib():
    return gaussian_library()


@pytest.fixture(scope="module")
def pert_lib():
    single = RegionModel("single", neighbor_lambdas_a=(LAM,))
    two = RegionModel("two", neighbor_lambdas_a=(LAM,), neighbor_lambdas_b=(LAM,))
    return {
        "rx90": optimize(single, "rx90", "pert"),
        "id": optimize(single, "id", "pert"),
        "rzx90": optimize(two, "rzx90", "pert", OptimizeConfig(T=80e-9)),
    }


def _reference_split_layer(psi, n, zz_diag, windows, duration, rate):
    """Split-step loop with a per-step range check and tensordot applies."""
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
    psi_t = psi.reshape([2] * n)
    for k in range(steps):
        psi_t = psi_t * half
        for i0, i1, batch, qubits in ops:
            if i0 <= k < i1:
                u = batch[k - i0]
                if len(qubits) == 1:
                    out = np.tensordot(u, psi_t, axes=([1], [qubits[0]]))
                    psi_t = np.moveaxis(out, 0, qubits[0])
                else:
                    out = np.tensordot(u.reshape(2, 2, 2, 2), psi_t,
                                       axes=([2, 3], list(qubits)))
                    psi_t = np.moveaxis(out, [0, 1], list(qubits))
        psi_t = psi_t * half
    return np.ascontiguousarray(psi_t).reshape(-1)


class TestDeviceSampling:
    def test_deterministic_per_seed(self):
        a = sample_device(LINE3, 200e3, 50e3, seed=7)
        b = sample_device(LINE3, 200e3, 50e3, seed=7)
        assert a.lambda_sample == b.lambda_sample
        c = sample_device(LINE3, 200e3, 50e3, seed=8)
        assert a.lambda_sample != c.lambda_sample

    def test_zero_sigma_is_exact(self):
        d = sample_device(LINE3, 150e3, 0.0, seed=3)
        assert d.lambda_sample == (TWO_PI * 150e3,) * 2

    def test_truncated_at_zero(self):
        # mu well inside the negative tail so clipping must fire
        vals = []
        for seed in range(200):
            d = sample_device(LINE2, 10e3, 200e3, seed=seed)
            vals.extend(d.lambda_sample)
        assert min(vals) == 0.0
        assert all(v >= 0.0 for v in vals)

    def test_sample_mean(self):
        mu, sigma, n = 200e3, 20e3, 10_000
        vals = [sample_device(LINE2, mu, sigma, seed=s).lambda_sample[0] / TWO_PI
                for s in range(n)]
        assert abs(np.mean(vals) - mu) <= 3 * sigma / math.sqrt(n)

    def test_uniform_device(self):
        d = uniform_device(LINE3, 100e3)
        assert d.lambda_sample == (TWO_PI * 100e3,) * 2

    def test_strength_count_must_match_edges(self):
        with pytest.raises(ValueError):
            DeviceInstance(LINE3, (1.0,))

    def test_strengths_finite_nonnegative(self):
        with pytest.raises(ValueError):
            DeviceInstance(LINE2, (-1.0,))
        with pytest.raises(ValueError):
            DeviceInstance(LINE2, (float("nan"),))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_device(LINE2, 200e3, -1.0, seed=0)


class TestLayerWindows:
    def test_cut_layer_fills_idle_tail(self, gauss_lib):
        pmap = _pulse_map(gauss_lib)
        cut = Cut(frozenset({0}), frozenset({1}))
        layer = Layer((Gate("rx90", (0,)),), cut, 1, 0, 80e-9)
        windows = _layer_windows(layer, pmap)
        # 20 ns gate plus three 20 ns identity repeats close the 80 ns slot
        assert len(windows) == 4
        starts = sorted(w[0] for w in windows)
        assert starts == pytest.approx([0.0, 20e-9, 40e-9, 60e-9])
        assert all(w[2] == (0,) for w in windows)

    def test_baseline_layer_leaves_tail_free(self, gauss_lib):
        pmap = _pulse_map(gauss_lib)
        layer = Layer((Gate("rx90", (0,)),), None, None, None, 80e-9)
        assert len(_layer_windows(layer, pmap)) == 1

    def test_no_fill_without_identity_pulse(self, gauss_lib):
        pmap = {"rx90": _pulse_map(gauss_lib)["rx90"]}
        cut = Cut(frozenset({0}), frozenset({1}))
        layer = Layer((Gate("rx90", (0,)),), cut, 1, 0, 80e-9)
        assert len(_layer_windows(layer, pmap)) == 1

    def test_rz_rejected_in_gate_list(self, gauss_lib):
        layer = Layer((Gate("rz", (0,), (0.5,)),), None, None, None, 20e-9)
        with pytest.raises(ValueError):
            _layer_windows(layer, _pulse_map(gauss_lib))

    def test_missing_pulse_kind(self, gauss_lib):
        pmap = {"id": _pulse_map(gauss_lib)["id"]}
        layer = Layer((Gate("rx90", (0,)),), None, None, None, 20e-9)
        with pytest.raises(KeyError):
            _layer_windows(layer, pmap)

    def test_pulse_longer_than_slot(self, gauss_lib):
        layer = Layer((Gate("rzx90", (0, 1)),), None, None, None, 20e-9)
        with pytest.raises(ValueError):
            _layer_windows(layer, _pulse_map(gauss_lib))


class TestSimulatePlan:
    def test_zero_coupling_recovers_ideal(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        dev = uniform_device(LINE3, 0.0)
        for plan in (schedule(LINE3, c), par_sched(LINE3, c)):
            r = simulate_plan(dev, plan, gauss_lib)
            assert r.fidelity >= 1 - 1e-4

    def test_single_gate_matches_region_evolution(self, gauss_lib):
        c = Circuit(2, (Gate("rx90", (0,)),))
        plan = par_sched(LINE2, c)
        dev = uniform_device(LINE2, 200e3)
        model = RegionModel("single", neighbor_lambdas_a=(LAM,))
        psi = evolve(model, gauss_lib["rx90"]) @ np.eye(4)[:, 0]
        ideal = np.kron(gate_matrix(Gate("rx90", (0,))), np.eye(2)) @ np.eye(4)[:, 0]
        ref = abs(np.vdot(ideal, psi)) ** 2
        split = simulate_plan(dev, plan, gauss_lib).fidelity
        dense = simulate_plan(dev, plan, gauss_lib, method="dense").fidelity
        # split integrator sits 4.3e-9 from the region-model value here
        assert abs(split - ref) <= 1e-6
        assert abs(split - ref) <= 1e-8
        assert abs(dense - ref) <= 1e-12

    def test_split_and_dense_agree(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        dev = uniform_device(LINE3, 200e3)
        split = simulate_plan(dev, plan, gauss_lib).fidelity
        dense = simulate_plan(dev, plan, gauss_lib, method="dense").fidelity
        # 1.1e-6 across 92 layers; per-layer splitting error is ~1e-8
        assert abs(split - dense) <= 1e-5

    @pytest.mark.parametrize("name,n,rows,cols,policy", [
        ("qft", 4, 2, 3, "par"),
        ("ising", 6, 3, 3, "zzx"),
    ])
    def test_split_layer_bit_identical_to_tensordot(self, gauss_lib, name, n,
                                                    rows, cols, policy):
        g = grid_topology(rows, cols)
        c = to_native(benchmark(name, n, qubit_order=grid_snake_order(rows, cols)[:n]))
        plan = schedule(g, c) if policy == "zzx" else par_sched(g, c)
        # x and y drives together give every 2x2 step operator complex
        # entries throughout, so a change in rounding shows in the bits
        pmap = dict(_pulse_map(gauss_lib))
        for kind in ("rx90", "id"):
            x = pmap[kind]
            y = gaussian_pulse(0.5, x.duration, axis="y")
            pmap[kind] = PulseSpec(x.channels + y.channels, x.sample_rate)
        windows = [_layer_windows(layer, pmap) for layer in plan.layers]
        if policy == "zzx":
            # identity-filled tails and rzx90 coupling windows both occur
            assert any(start > 0.0 for w in windows for start, _, _ in w)
            assert any(len(qs) == 2 for w in windows for _, _, qs in w)
        nq = g.num_qubits
        for seed in (0, 1):
            dev = sample_device(g, 200e3, 50e3, seed=seed)
            zz = _zz_diagonal(g, dev.lambda_sample, nq)
            rng = np.random.default_rng(seed)
            psi = rng.standard_normal(1 << nq) + 1j * rng.standard_normal(1 << nq)
            psi /= np.linalg.norm(psi)
            for layer, w in zip(plan.layers, windows):
                ref = _reference_split_layer(psi, nq, zz, w, layer.duration, 200)
                psi = _split_layer(psi, nq, zz, w, layer.duration, 200)
                assert np.array_equal(psi, ref)

    def test_norm_preserved(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        dev = uniform_device(LINE3, 200e3)
        psi, ideal, _ = _run_plan(dev, plan, _pulse_map(gauss_lib), None, "split", 200)
        assert abs(np.linalg.norm(psi) - 1) <= 1e-8
        assert abs(np.linalg.norm(ideal) - 1) <= 1e-10

    def test_empty_plan_is_perfect(self, gauss_lib):
        plan = par_sched(LINE2, Circuit(2, ()))
        r = simulate_plan(uniform_device(LINE2, 200e3), plan, gauss_lib)
        assert r.fidelity == 1.0
        assert r.per_layer == ()
        assert r.total_duration == 0.0

    def test_report_metadata(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        dev = sample_device(LINE3, 200e3, 50e3, seed=11)
        r = simulate_plan(dev, plan, gauss_lib, pulse_backend="gaussian")
        assert len(r.per_layer) == len(plan.layers)
        assert r.per_layer[0] == (plan.layers[0].n_q, plan.layers[0].n_c,
                                  plan.layers[0].duration)
        assert r.total_duration == plan.total_duration
        assert r.policy == "zzx"
        assert r.pulse_backend == "gaussian"
        assert r.seed == 11
        rp = simulate_plan(dev, par_sched(LINE3, c), gauss_lib)
        assert rp.policy == "par"

    def test_deterministic(self, gauss_lib):
        c = to_native(benchmark("ising", 3))
        plan = schedule(LINE3, c)
        dev = sample_device(LINE3, 200e3, 50e3, seed=4)
        a = simulate_plan(dev, plan, gauss_lib).fidelity
        b = simulate_plan(dev, plan, gauss_lib).fidelity
        assert a == b

    def test_fidelity_in_unit_interval(self, gauss_lib):
        c = to_native(benchmark("grc", 3, seed=2))
        plan = schedule(LINE3, c)
        for seed in range(5):
            dev = sample_device(LINE3, 300e3, 100e3, seed=seed)
            r = simulate_plan(dev, plan, gauss_lib)
            assert 0.0 <= r.fidelity <= 1.0

    def test_custom_input_state(self, gauss_lib):
        c = Circuit(2, (Gate("rx90", (0,)),))
        plan = par_sched(LINE2, c)
        dev = uniform_device(LINE2, 0.0)
        rng = np.random.default_rng(0)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        r = simulate_plan(dev, plan, gauss_lib, input_state=psi0)
        assert r.fidelity >= 1 - 1e-6

    def test_unknown_method(self, gauss_lib):
        plan = par_sched(LINE2, Circuit(2, ()))
        with pytest.raises(ValueError):
            simulate_plan(uniform_device(LINE2, 0.0), plan, gauss_lib, method="magnus")

    def test_size_cap(self, gauss_lib):
        g = grid_topology(4, 4)
        plan = par_sched(g, Circuit(16, ()))
        with pytest.raises(ValueError):
            simulate_plan(uniform_device(g, 0.0), plan, gauss_lib)

    def test_plan_device_mismatch(self, gauss_lib):
        plan = par_sched(LINE3, Circuit(3, ()))
        with pytest.raises(ValueError):
            simulate_plan(uniform_device(LINE2, 0.0), plan, gauss_lib)

    def test_bad_input_dimension(self, gauss_lib):
        plan = par_sched(LINE2, Circuit(2, ()))
        with pytest.raises(ValueError):
            simulate_plan(uniform_device(LINE2, 0.0), plan, gauss_lib,
                          input_state=np.ones(8) / math.sqrt(8))

    def test_missing_gate_pulse(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        only_1q = {k: v for k, v in gauss_lib.items() if k != "rzx90"}
        with pytest.raises(KeyError):
            simulate_plan(uniform_device(LINE3, 0.0), plan, only_1q)

    def test_suppressed_schedule_beats_baseline(self, gauss_lib, pert_lib):
        # co-optimized pulses and layering against the plain baseline
        g = grid_topology(2, 3)
        order = grid_snake_order(2, 3)[:4]
        c = to_native(benchmark("qft", 4, qubit_order=order))
        dev = uniform_device(g, 200e3)
        fz = simulate_plan(dev, schedule(g, c), pert_lib).fidelity
        fp = simulate_plan(dev, par_sched(g, c), gauss_lib).fidelity
        assert fz >= 2 * fp


class TestPulseLibraries:
    def test_gaussian_library_kinds(self, gauss_lib):
        assert set(gauss_lib) == {"rx90", "id", "rzx90"}
        assert gauss_lib["rx90"].duration == pytest.approx(20e-9)
        assert gauss_lib["rzx90"].duration == pytest.approx(80e-9)

    def test_dcg_library_durations(self):
        lib = dcg_library()
        assert lib["rx90"].duration == pytest.approx(120e-9)
        assert lib["id"].duration == pytest.approx(40e-9)

    def test_backend_gate_times(self):
        assert backend_gate_times("dcg").rx90 == pytest.approx(120e-9)
        assert backend_gate_times("gaussian").rx90 == pytest.approx(20e-9)


class TestSuppressionSweep:
    def test_zero_strength_under_floor(self, gauss_lib, pert_lib):
        for pulse in (pert_lib["rx90"], gauss_lib["rx90"]):
            curve = suppression_sweep("single_gate_pair", pulse, [0.0])
            assert curve[0][1] <= 1e-8
        chain = suppression_sweep("two_gate_chain", pert_lib["rzx90"], [0.0])
        assert chain[0][1] <= 1e-8

    def test_zero_strength_raw_residual(self, pert_lib):
        raw = suppression_sweep("single_gate_pair", pert_lib["rx90"], [0.0],
                                floor=None)[0][1]
        assert raw <= 5e-12
        raw2 = suppression_sweep("two_gate_chain", pert_lib["rzx90"], [0.0],
                                 floor=None)[0][1]
        assert raw2 <= 5e-12

    def test_floor_clips_reported_values(self, pert_lib):
        lam = TWO_PI * 10e3
        floored = suppression_sweep("single_gate_pair", pert_lib["rx90"], [lam])
        raw = suppression_sweep("single_gate_pair", pert_lib["rx90"], [lam],
                                floor=None)
        assert floored[0][1] == 1e-8
        assert raw[0][1] < 1e-8

    def test_gaussian_slope_is_quadratic(self, gauss_lib):
        lams = TWO_PI * np.logspace(4, math.log10(2e5), 7)
        curve = suppression_sweep("single_gate_pair", gauss_lib["rx90"], lams,
                                  floor=None)
        slope = np.polyfit(np.log10([c[0] for c in curve]),
                           np.log10([c[1] for c in curve]), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_optimized_slope_is_higher_order(self, pert_lib):
        lams = TWO_PI * np.logspace(4, math.log10(2e5), 7)
        curve = suppression_sweep("single_gate_pair", pert_lib["rx90"], lams,
                                  floor=None, target_gate="rx90")
        slope = np.polyfit(np.log10([c[0] for c in curve]),
                           np.log10([c[1] for c in curve]), 1)[0]
        assert slope >= 3.5

    def test_chain_optimized_below_gaussian(self, gauss_lib, pert_lib):
        lam = [LAM]
        a = suppression_sweep("two_gate_chain", pert_lib["rzx90"], lam)[0][1]
        b = suppression_sweep("two_gate_chain", gauss_lib["rzx90"], lam)[0][1]
        assert a < b

    def test_accepts_bare_spec(self, pert_lib):
        spec = pert_lib["rx90"].spec
        lam = [TWO_PI * 50e3]
        a = suppression_sweep("single_gate_pair", pert_lib["rx90"], lam)
        b = suppression_sweep("single_gate_pair", spec, lam)
        assert a == b

    def test_scenario_validation(self, gauss_lib, pert_lib):
        with pytest.raises(ValueError):
            suppression_sweep("three_gate_ring", gauss_lib["rx90"], [LAM])
        with pytest.raises(ValueError):
            suppression_sweep("single_gate_pair", gauss_lib["rzx90"], [LAM])
        with pytest.raises(ValueError):
            suppression_sweep("two_gate_chain", gauss_lib["rx90"], [LAM])
        with pytest.raises(ValueError):
            suppression_sweep("single_gate_pair", gauss_lib["rx90"], [])

    def test_target_gate_validation(self, gauss_lib, pert_lib):
        with pytest.raises(ValueError):
            suppression_sweep("two_gate_chain", pert_lib["rzx90"], [LAM],
                              target_gate="rzx90")
        with pytest.raises(ValueError):
            suppression_sweep("single_gate_pair", gauss_lib["rx90"], [LAM],
                              target_gate="ry90")


class TestDriveNoise:
    def test_zero_noise_matches_clean_sweep(self, pert_lib):
        lams = [TWO_PI * 50e3, TWO_PI * 100e3]
        clean = suppression_sweep("single_gate_pair", pert_lib["rx90"], lams)
        noisy = drive_noise_eval(pert_lib["rx90"], {}, lams)
        assert clean == noisy

    def test_detuning_stays_suppressed(self, pert_lib):
        # 2.0x of clean at these settings
        lam = [TWO_PI * 100e3]
        clean = drive_noise_eval(pert_lib["rx90"], {}, lam, floor=None)[0][1]
        noisy = drive_noise_eval(pert_lib["rx90"], {"detuning_hz": 0.1e6}, lam,
                                 floor=None)[0][1]
        assert noisy <= 10 * clean

    def test_amplitude_stays_suppressed(self, pert_lib):
        # 2.3x of clean at these settings
        lam = [TWO_PI * 100e3]
        clean = drive_noise_eval(pert_lib["rx90"], {}, lam, floor=None)[0][1]
        noisy = drive_noise_eval(pert_lib["rx90"], {"amplitude_frac": 0.001}, lam,
                                 floor=None)[0][1]
        assert noisy <= 10 * clean

    def test_unknown_noise_key(self, pert_lib):
        with pytest.raises(ValueError):
            drive_noise_eval(pert_lib["rx90"], {"dephasing": 1.0}, [LAM])

    def test_coupling_pulse_rejected(self, gauss_lib):
        with pytest.raises(ValueError):
            drive_noise_eval(gauss_lib["rzx90"], {}, [LAM])


class TestFitCosine:
    def test_recovers_synthetic_frequency(self):
        taus = np.arange(64) * 160e-9
        f_true = 1.3e6
        y = 0.5 + 0.4 * np.cos(TWO_PI * f_true * taus + 0.7)
        f, r2 = fit_cosine(taus, y)
        assert abs(f - f_true) <= 0.01 * f_true
        assert r2 >= 0.99

    def test_offset_invariance(self):
        taus = np.arange(64) * 160e-9
        y = np.cos(TWO_PI * 2.0e6 * taus)
        fa, _ = fit_cosine(taus, y)
        fb, _ = fit_cosine(taus, y + 3.0)
        assert fa == pytest.approx(fb, rel=1e-6)

    def test_needs_enough_samples(self):
        taus = np.arange(5) * 160e-9
        with pytest.raises(ValueError):
            fit_cosine(taus, np.cos(taus * 1e6))

    def test_needs_uniform_grid(self):
        taus = np.array([0, 1, 2, 3, 4, 5, 6, 8.5]) * 160e-9
        with pytest.raises(ValueError):
            fit_cosine(taus, np.cos(taus * 1e6))


class TestRamsey:
    def test_bare_frequency_shift_matches_closed_form(self, gauss_lib):
        # P(1) fringes sit at (w_v +- 2 lambda) / 2pi, so the conditional
        # splitting is 4 lambda / 2pi = 800 kHz at 200 kHz coupling
        dev = uniform_device(LINE2, 200e3)
        zz = ramsey_effective_zz(dev, gauss_lib, "bare")
        assert zz == pytest.approx(4 * 200e3, rel=0.05)

    def test_zero_coupling_reads_zero(self, gauss_lib):
        dev = uniform_device(LINE2, 0.0)
        zz = ramsey_effective_zz(dev, gauss_lib, "bare")
        assert abs(zz) <= 50.0

    def test_identity_drive_suppresses_probe(self, gauss_lib, pert_lib):
        dev = uniform_device(LINE2, 200e3)
        bare = ramsey_effective_zz(dev, gauss_lib, "bare")
        for policy in ("suppressed_B", "suppressed_C"):
            held = ramsey_effective_zz(dev, pert_lib, policy)
            assert held * 10 <= bare

    def test_gaussian_identity_is_not_enough(self, gauss_lib):
        # the fill pulse matters: a plain Gaussian 2pi rotation leaves
        # most of the shift in place
        dev = uniform_device(LINE2, 200e3)
        bare = ramsey_effective_zz(dev, gauss_lib, "bare")
        held = ramsey_effective_zz(dev, gauss_lib, "suppressed_B")
        assert held * 10 > bare

    def test_three_qubit_center_probe(self, gauss_lib, pert_lib):
        dev = uniform_device(LINE3, 200e3)
        bare = ramsey_effective_zz(dev, gauss_lib, "bare", probe=1, control=0)
        assert bare == pytest.approx(4 * 200e3, rel=0.05)
        held = ramsey_effective_zz(dev, pert_lib, "suppressed_B", probe=1, control=0)
        assert held * 10 <= bare

    def test_result_fields(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        res = ramsey_experiment(dev, gauss_lib, "bare")
        assert res.policy == "bare"
        assert len(res.freqs_hz) == 2
        assert res.effective_zz_hz == pytest.approx(abs(res.freqs_hz[1] - res.freqs_hz[0]))
        assert all(r2 >= 0.9 for r2 in res.r_squared)
        assert len(res.taus) == 64
        assert len(res.populations) == 2
        assert all(0.0 <= p <= 1.0 for curve in res.populations for p in curve)

    def test_policy_and_device_validation(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        with pytest.raises(ValueError):
            ramsey_effective_zz(dev, gauss_lib, "echo")
        big = uniform_device(grid_topology(2, 2), 200e3)
        with pytest.raises(ValueError):
            ramsey_effective_zz(big, gauss_lib, "bare")
        with pytest.raises(ValueError):
            ramsey_effective_zz(dev, gauss_lib, "bare", probe=0, control=0)

    def test_pulse_requirements(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        with pytest.raises(KeyError):
            ramsey_effective_zz(dev, {"id": gauss_lib["id"]}, "bare")
        with pytest.raises(KeyError):
            ramsey_effective_zz(dev, {"rx90": gauss_lib["rx90"]}, "suppressed_B")

    def test_delay_validation(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        with pytest.raises(ValueError):
            ramsey_effective_zz(dev, gauss_lib, "bare",
                                delays=tuple(-(k * 160e-9) for k in range(10)))
        off_grid = tuple(k * 30e-9 for k in range(16))
        with pytest.raises(ValueError):
            ramsey_effective_zz(dev, gauss_lib, "suppressed_B", delays=off_grid)

    def test_flat_signal_fails_the_fit(self, gauss_lib):
        dev = uniform_device(LINE2, 0.0)
        with pytest.raises(ValueError):
            ramsey_effective_zz(dev, gauss_lib, "bare", virtual_detuning_hz=0.0)
