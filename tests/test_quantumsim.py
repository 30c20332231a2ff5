"""Tests for device sampling, plan simulation, sweeps, and Ramsey probes."""

import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from zzsched.circuit import Circuit, Gate, GateTimes, benchmark, gate_matrix, to_native
from zzsched.pulse import (
    PulseSpec,
    RegionModel,
    avg_gate_fidelity,
    dcg_sequence,
    evolve,
    gate_space_model,
    gaussian_pulse,
    native_library,
    num_steps,
    with_cross_lambda,
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
    fit_cosine,
    ramsey_experiment,
    sample_device,
    simulate_ensemble,
    simulate_plan,
    suppression_sweep,
    uniform_device,
)
from zzsched.scheduler import Layer, par_sched, schedule
from zzsched.topology import (
    Cut,
    from_positions,
    grid_snake_order,
    grid_topology,
    line_topology,
)

TWO_PI = 2 * math.pi
LAM = TWO_PI * 200e3

LINE2 = line_topology(2)
LINE3 = line_topology(3)


@pytest.fixture(scope="module")
def gauss_lib():
    return {kind: op.spec for kind, op in native_library("gaussian").items()}


@pytest.fixture(scope="module")
def pert_lib():
    return native_library("pert")


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

    def test_cut_layer_tail_needs_identity_pulse(self, gauss_lib):
        # the fill was once skipped without a word when the map had no id
        pmap = {"rx90": _pulse_map(gauss_lib)["rx90"]}
        cut = Cut(frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError, match="'id'"):
            _layer_windows(Layer((Gate("rx90", (0,)),), cut, 1, 0, 80e-9), pmap)
        # a gate that fills its slot leaves no tail to fill
        assert len(_layer_windows(Layer((Gate("rx90", (0,)),), cut, 1, 0, 20e-9), pmap)) == 1

    def test_rz_rejected_in_gate_list(self, gauss_lib):
        layer = Layer((Gate("rz", (0,), (0.5,)),), None, None, None, 20e-9)
        with pytest.raises(ValueError):
            _layer_windows(layer, _pulse_map(gauss_lib))

    def test_missing_pulse_kind(self, gauss_lib):
        pmap = {"id": _pulse_map(gauss_lib)["id"]}
        layer = Layer((Gate("rx90", (0,)),), None, None, None, 20e-9)
        with pytest.raises(ValueError):
            _layer_windows(layer, pmap)

    def test_pulse_longer_than_slot(self, gauss_lib):
        layer = Layer((Gate("rzx90", (0, 1)),), None, None, None, 20e-9)
        with pytest.raises(ValueError):
            _layer_windows(layer, _pulse_map(gauss_lib))


def _xy_pulse(T, angle=math.pi / 2):
    """x and y drives together: every 2x2 step operator is complex throughout."""
    x = gaussian_pulse(angle, T)
    return PulseSpec(x.channels + gaussian_pulse(0.5, T, axis="y").channels)


def _coupled_pulse(T, singles=()):
    """A coupling drive on (0, 1) plus x drives on the given gate qubits."""
    zx = gaussian_pulse(math.pi / 2, T, axis="coupling", target=(0, 1))
    extra = tuple(ch for q in singles for ch in gaussian_pulse(0.3, T, target=q).channels)
    return PulseSpec(zx.channels + extra)


def _assert_split_matches_reference(n, layers, rate, batches=(1, 2, 3)):
    """_split_layer on each batch, layer after layer, against each device's
    own tensordot run, bit for bit; layers holds (windows, duration)."""
    rng = np.random.default_rng(n)
    lams = TWO_PI * 200e3 * (1 + 0.25 * rng.standard_normal((max(batches), n - 1)))
    zz = np.stack([_zz_diagonal(n, [(q, q + 1, lam) for q, lam in enumerate(row)])
                   for row in lams])
    psi0 = rng.standard_normal((len(zz), 1 << n)) + 1j * rng.standard_normal((len(zz), 1 << n))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    refs = []
    psi = psi0
    for windows, duration in layers:
        psi = np.stack([_reference_split_layer(row, n, z, windows, duration, rate)
                        for row, z in zip(psi, zz)])
        refs.append(psi)
    for batch in batches:
        psi = psi0[:batch]
        for (windows, duration), ref in zip(layers, refs):
            psi = _split_layer(psi, n, zz[:batch], windows, duration, rate)
            for row, r in zip(psi, ref):
                assert np.array_equal(row, r)


@pytest.mark.parametrize("d", [2, 4])
def test_dot_column_permutation_bit_identical(d):
    """The split-step layout argument: at operand widths below 4 and at
    multiples of 4, np.dot on a column-permuted operand gives the
    column-permuted product bit for bit, so each segment may order its
    columns as it likes."""
    rng = np.random.default_rng(d)
    for width in (1, 2, 3, *(4 << k for k in range(11))):
        for _ in range(4):
            u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = rng.standard_normal((d, width)) + 1j * rng.standard_normal((d, width))
            cols = rng.permutation(width)
            if not np.array_equal(np.dot(u, x[:, cols]), np.dot(u, x)[:, cols]):
                config = io.StringIO()
                with contextlib.redirect_stdout(config):
                    np.show_config()
                pytest.fail(f"{d}x{d} operator, width {width}: permuting the operand's "
                            f"columns changed the product's bits under this BLAS build:\n"
                            f"{config.getvalue()}")


@pytest.mark.parametrize("d", [2, 4])
def test_dot_transposed_operand_bit_identical(d):
    """The split-step rotation argument: np.dot on the transpose of a
    C-contiguous (width, d) array, an operand whose rows are its trailing
    memory axis, writes into a C-ordered product the bits np.dot gives on
    the contiguous copy, so an operator may read its targets from the
    buffer's trailing axes."""
    rng = np.random.default_rng(d)
    for width in (1, 2, 3, *(4 << k for k in range(11))):
        for _ in range(4):
            u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x_c = rng.standard_normal((width, d)) + 1j * rng.standard_normal((width, d))
            o = np.empty((d, width), dtype=complex)
            np.dot(u, x_c.T, out=o)
            if not np.array_equal(o, np.dot(u, np.ascontiguousarray(x_c.T))):
                config = io.StringIO()
                with contextlib.redirect_stdout(config):
                    np.show_config()
                pytest.fail(f"{d}x{d} operator, width {width}: a transposed operand "
                            f"changed the product's bits under this BLAS build:\n"
                            f"{config.getvalue()}")


# rate 20 samples a layer once per ns, so window edges at whole ns cut
# the step grid exactly where the windows say
_PLAN_CASES = {
    # a window that starts mid-layer without fill: idle steps on both sides
    "idle-steps": ([(13e-9, _xy_pulse(20e-9), (1,))], 40e-9),
    # windows ending and starting mid-layer on different qubits, with
    # one-step segments at 0, 20, 21, 41 and 44
    "staggered": ([(0.0, _xy_pulse(20e-9), (0,)), (1e-9, _xy_pulse(20e-9), (3,)),
                   (21e-9, _xy_pulse(20e-9), (1,)), (20e-9, _xy_pulse(24e-9), (0,)),
                   (22e-9, _xy_pulse(20e-9), (2,))], 45e-9),
    # a coupling and single-qubit drives in the same steps, from separate
    # windows and from one gate's own channels
    "coupling-and-singles": ([(0.0, _coupled_pulse(30e-9), (1, 2)),
                              (5e-9, _xy_pulse(20e-9), (0,)),
                              (3e-9, _xy_pulse(20e-9), (3,))], 30e-9),
    "coupled-gate-drives": ([(0.0, _coupled_pulse(25e-9, (0, 1)), (2, 1)),
                             (4e-9, _xy_pulse(20e-9), (0,))], 28e-9),
    # two operators for 10 steps (they end in the buffer they start from,
    # so the trailing half-step writes the state home), three for 6 (they
    # end at home, so it multiplies in place), one for 6, then a coupled
    # gate's overlapping drives beside a single: each segment starts from
    # the layout the one before it ended in
    "buffer-parities": ([(0.0, _xy_pulse(10e-9), (0,)), (0.0, _xy_pulse(16e-9), (1,)),
                         (10e-9, _xy_pulse(6e-9), (3,)), (10e-9, _xy_pulse(6e-9), (2,)),
                         (16e-9, _xy_pulse(6e-9), (3,)),
                         (22e-9, _coupled_pulse(10e-9, (0, 1)), (2, 1)),
                         (22e-9, _xy_pulse(10e-9), (0,))], 34e-9),
    # a two-operator segment, 4 undriven steps, then a two-operator
    # segment on other qubits: the undriven steps keep the rotated layout
    # the first segment ended in, and the second starts from it
    "undriven-gap": ([(0.0, _xy_pulse(8e-9), (0,)), (0.0, _xy_pulse(8e-9), (1,)),
                      (12e-9, _xy_pulse(8e-9), (2,)), (12e-9, _xy_pulse(8e-9), (3,))],
                     20e-9),
}


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
        zz = np.stack([_zz_diagonal(nq, sample_device(g, 200e3, 50e3, s).couplings())
                       for s in range(3)])
        rng = np.random.default_rng(0)
        psi0 = rng.standard_normal((3, 1 << nq)) + 1j * rng.standard_normal((3, 1 << nq))
        psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
        refs = []
        psi = psi0
        for layer, w in zip(plan.layers, windows):
            psi = np.stack([_reference_split_layer(row, nq, z, w, layer.duration, 200)
                            for row, z in zip(psi, zz)])
            refs.append(psi)
        # the batch changes zgemm's column count; each device's row must
        # still match its own single-device tensordot run bit for bit
        for batch in (1, 2, 3):
            psi = psi0[:batch]
            for layer, w, ref in zip(plan.layers, windows, refs):
                psi = _split_layer(psi, nq, zz[:batch], w, layer.duration, 200)
                for row, r in zip(psi, ref):
                    assert np.array_equal(row, r)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("case", sorted(_PLAN_CASES))
    def test_split_layer_segments_match_reference(self, case, n):
        windows, duration = _PLAN_CASES[case]
        # a second layer starts from the first one's last operator layout
        _assert_split_matches_reference(n, [(windows, duration)] * 2, 20)

    @pytest.mark.parametrize("policy", ["zzx", "par"])
    def test_split_layer_grc12_bit_identical(self, gauss_lib, policy):
        g = grid_topology(3, 4)
        c = to_native(benchmark("grc", 12, qubit_order=grid_snake_order(3, 4)))
        plan = schedule(g, c) if policy == "zzx" else par_sched(g, c)
        pmap = dict(_pulse_map(gauss_lib))
        for kind in ("rx90", "id"):
            pmap[kind] = _xy_pulse(pmap[kind].duration)
        layers = [(_layer_windows(layer, pmap), layer.duration) for layer in plan.layers[:4]]
        assert any(len(qs) == 2 for w, _ in layers for _, _, qs in w)
        if policy == "par":
            # every qubit driven at once: the longest operator chain, and
            # only the batch axis left behind the targets
            assert any(len({q for _, _, qs in w for q in qs}) == 12 for w, _ in layers)
        _assert_split_matches_reference(12, layers, 200, batches=(1, 2))

    def test_libraries_back_to_back(self, gauss_lib, pert_lib):
        # equal durations per gate kind, so only the specs tell the two
        # libraries' step operators apart: none may outlive its call
        g = grid_topology(2, 3)
        c = to_native(benchmark("qft", 4, qubit_order=grid_snake_order(2, 3)[:4]))
        plan = schedule(g, c)
        dev = sample_device(g, 200e3, 50e3, seed=3)
        libs = {"gauss": gauss_lib, "pert": pert_lib}
        first = {name: simulate_plan(dev, plan, lib) for name, lib in libs.items()}
        assert first["gauss"] != first["pert"]
        for name in ("pert", "gauss", "pert"):
            assert simulate_plan(dev, plan, libs[name]) == first[name]

    @pytest.mark.parametrize("method", ["split", "dense"])
    def test_suppression_layer_needs_identity_pulse(self, gauss_lib, method):
        # one 80 ns cut layer: the 20 ns rx90 on qubit 3 leaves a 60 ns
        # identity fill, which a library without id once dropped silently
        g = line_topology(4)
        plan = schedule(g, Circuit(4, (Gate("rzx90", (0, 1)), Gate("rx90", (3,)))))
        assert [layer.cut is not None for layer in plan.layers] == [True]
        lib = {kind: spec for kind, spec in gauss_lib.items() if kind != "id"}
        with pytest.raises(ValueError, match="'id'"):
            simulate_plan(uniform_device(g, 200e3), plan, lib, method=method)

    def test_norm_preserved(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        dev = uniform_device(LINE3, 200e3)
        psi, ideal = _run_plan((dev,), plan, _pulse_map(gauss_lib), "split")
        assert abs(np.linalg.norm(psi[0]) - 1) <= 1e-8
        assert abs(np.linalg.norm(ideal) - 1) <= 1e-10

    def test_empty_plan_is_perfect(self, gauss_lib):
        plan = par_sched(LINE2, Circuit(2, ()))
        r = simulate_plan(uniform_device(LINE2, 200e3), plan, gauss_lib)
        assert r.fidelity == 1.0

    def test_report_metadata(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        dev = sample_device(LINE3, 200e3, 50e3, seed=11)
        r = simulate_plan(dev, plan, gauss_lib)
        assert r.seed == 11

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

    def test_channel_target_outside_gate_rejected(self, gauss_lib):
        # an x drive on index 1 of a one-qubit gate, on both integrators
        plan = par_sched(LINE2, Circuit(2, (Gate("rx90", (0,)),)))
        lib = {**gauss_lib, "rx90": gaussian_pulse(math.pi / 2, 20e-9, target=1)}
        for method in ("split", "dense"):
            with pytest.raises(ValueError, match="axis x"):
                simulate_plan(uniform_device(LINE2, 0.0), plan, lib, method=method)

    def test_missing_gate_pulse(self, gauss_lib):
        c = to_native(benchmark("qft", 3))
        plan = schedule(LINE3, c)
        only_1q = {k: v for k, v in gauss_lib.items() if k != "rzx90"}
        with pytest.raises(ValueError):
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


# fidelity bits of qft-4 on the 2x3 grid, Gaussian library, devices seeded
# 0-2 at 200 +- 50 kHz
ENSEMBLE_FIDELITY_HEX = {
    "zzx": ["0x1.6fd1b99e48202p-7", "0x1.37d6937d66c18p-9", "0x1.6d697beb4164ep-5"],
    "par": ["0x1.30c995e031f2ep-7", "0x1.1da25a086ab7ep-4", "0x1.29a7f8d0a61dcp-3"],
}


class TestSimulateEnsemble:
    @pytest.mark.parametrize("method,grid", [
        pytest.param("split", None, id="split"),
        pytest.param("dense", None, id="dense"),
        # n = 6: split devices share one batch, frame rotations included
        pytest.param("split", (2, 3), id="split-qft4-2x3"),
    ])
    def test_matches_single_device_runs(self, gauss_lib, method, grid):
        if grid is None:
            g, c = LINE3, benchmark("qft", 3)
        else:
            g = grid_topology(*grid)
            c = benchmark("qft", 4, qubit_order=grid_snake_order(*grid)[:4])
        plan = schedule(g, to_native(c))
        assert any(layer.rz_gates for layer in plan.layers)
        devices = [sample_device(g, 200e3, 50e3, seed=s) for s in range(3)]
        batch = simulate_ensemble(devices, plan, gauss_lib, method=method)
        for dev, r in zip(devices, batch):
            assert r == simulate_plan(dev, plan, gauss_lib, method=method)

    @pytest.mark.parametrize("policy", ["zzx", "par"])
    def test_runs_without_numpy_dot(self, gauss_lib, monkeypatch, policy):
        """Drive steps, frame rotations and the ideal reference call
        ndarray.dot, never numpy.dot and its dispatch; with numpy.dot
        raising, one batch of three devices keeps its fidelity bits."""
        g = grid_topology(2, 3)
        c = to_native(benchmark("qft", 4, qubit_order=grid_snake_order(2, 3)[:4]))
        plan = schedule(g, c) if policy == "zzx" else par_sched(g, c)
        devices = [sample_device(g, 200e3, 50e3, seed=s) for s in range(3)]

        def no_dot(*args, **kwargs):
            raise AssertionError("numpy.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        fids = [r.fidelity.hex() for r in simulate_ensemble(devices, plan, gauss_lib)]
        assert fids == ENSEMBLE_FIDELITY_HEX[policy]

    def test_empty_device_list(self, gauss_lib):
        plan = par_sched(LINE2, Circuit(2, ()))
        with pytest.raises(ValueError, match="at least one device"):
            simulate_ensemble([], plan, gauss_lib)

    def test_devices_on_different_topologies(self, gauss_lib):
        plan = par_sched(LINE3, Circuit(3, ()))
        triangle = from_positions([(0, 0), (1, 0), (0.5, 1)], [(0, 1), (1, 2), (0, 2)])
        devices = [uniform_device(LINE3, 0.0), uniform_device(triangle, 0.0)]
        with pytest.raises(ValueError, match="one topology"):
            simulate_ensemble(devices, plan, gauss_lib)

    def test_plan_size_mismatch(self, gauss_lib):
        plan = par_sched(LINE3, Circuit(3, ()))
        devices = [uniform_device(LINE2, 0.0) for _ in range(2)]
        with pytest.raises(ValueError, match="does not fit"):
            simulate_ensemble(devices, plan, gauss_lib)


def _gaussian_library_reference():
    """The fixed-shape library the simulator once built, before native_pulse."""
    return {
        "rx90": gaussian_pulse(math.pi / 2, 20e-9),
        "id": gaussian_pulse(TWO_PI, 20e-9),
        "rzx90": gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1)),
    }


def _dcg_library_reference():
    """The composed-sequence library the simulator once built: Gaussian rzx90."""
    return {
        "rx90": dcg_sequence("rx90"),
        "id": dcg_sequence("id"),
        "rzx90": gaussian_pulse(math.pi / 2, 80e-9, axis="coupling", target=(0, 1)),
    }


class TestPulseLibraries:
    def test_gaussian_library_kinds(self, gauss_lib):
        assert gauss_lib == _gaussian_library_reference()
        assert gauss_lib["rx90"].duration == pytest.approx(20e-9)
        assert gauss_lib["rzx90"].duration == pytest.approx(80e-9)

    def test_dcg_library_durations(self):
        lib = native_library("dcg")
        assert {kind: op.spec for kind, op in lib.items()} == _dcg_library_reference()
        assert {op.backend for op in lib.values()} == {"dcg"}
        times = GateTimes.for_backend("dcg")
        for kind, op in lib.items():
            assert op.spec.duration == pytest.approx(getattr(times, kind))

    def test_backend_gate_times(self):
        assert GateTimes.for_backend("dcg").rx90 == pytest.approx(120e-9)
        assert GateTimes.for_backend("gaussian").rx90 == pytest.approx(20e-9)
        assert GateTimes.for_backend("pert") == GateTimes()


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

    @pytest.mark.parametrize("case", ["pair", "pair-rx90", "chain"])
    def test_bit_identical_to_per_strength_loop(self, gauss_lib, case):
        # one evolve and one fidelity per strength, as the stacked sweep must
        # reproduce them bit for bit
        lams = [0.0, TWO_PI * 50e3, LAM]
        if case == "chain":
            spec = gauss_lib["rzx90"]
            got = suppression_sweep("two_gate_chain", spec, lams, floor=None)
            ref = []
            for lam in lams:
                model = RegionModel("two", neighbor_lambdas_a=(lam,),
                                    neighbor_lambdas_b=(lam,), intra_lambda=lam)
                target = np.kron(evolve(gate_space_model(model), spec), np.eye(4))
                ref.append((lam, 1.0 - avg_gate_fidelity(evolve(model, spec), target)))
        else:
            spec = gauss_lib["rx90"]
            target_gate = "rx90" if case == "pair-rx90" else None
            got = suppression_sweep("single_gate_pair", spec, lams, floor=None,
                                    target_gate=target_gate)
            ref = []
            for lam in lams:
                model = RegionModel("single", neighbor_lambdas_a=(lam,))
                if target_gate is None:
                    target = evolve(with_cross_lambda(model, 0.0), spec)
                else:
                    target = np.kron(gate_matrix(Gate("rx90", (0,))), np.eye(2))
                ref.append((lam, 1.0 - avg_gate_fidelity(evolve(model, spec), target)))
        assert got == ref

    def test_target_gate_validation(self, gauss_lib, pert_lib):
        with pytest.raises(ValueError):
            suppression_sweep("two_gate_chain", pert_lib["rzx90"], [LAM],
                              target_gate="rzx90")
        with pytest.raises(ValueError):
            suppression_sweep("single_gate_pair", gauss_lib["rx90"], [LAM],
                              target_gate="ry90")


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

    def test_needs_one_value_per_delay(self):
        # numpy's lstsq once raised LinAlgError: Incompatible dimensions
        taus = np.arange(64) * 160e-9
        with pytest.raises(ValueError, match="one value per delay"):
            fit_cosine(taus, np.cos(TWO_PI * 1.3e6 * taus)[:-1])

    def test_rejects_repeated_delays(self):
        taus = np.zeros(10)
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_cosine(taus, np.cos(np.arange(10.0)))

    def test_rejects_descending_delays(self):
        # a negative step once fitted a negative frequency with R^2 near 1
        taus = np.arange(64)[::-1] * 160e-9
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_cosine(taus, np.cos(TWO_PI * 1.3e6 * taus))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["taus", "values"])
    def test_rejects_non_finite_input(self, where, bad):
        # a bad value once gave (0.0, 0.0) after RuntimeWarnings, and a NaN
        # delay `fit expects strictly increasing delays`
        taus = np.arange(64) * 160e-9
        y = np.cos(TWO_PI * 1.3e6 * taus)
        (taus if where == "taus" else y)[10] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^fit expects finite delays and values$"):
                fit_cosine(taus, y)

    def test_matches_one_fit_per_frequency(self):
        # every (f, R^2) keeps the bits of the search that built and solved
        # one design per grid frequency
        rng = np.random.default_rng(2033)
        step = 160e-9
        cases = []
        for n in (8, 16, 64, 100):
            taus = np.arange(n) * step
            nyquist = 0.5 / step
            for noise in (0.0, 0.01, 0.1, 0.5, 1.0):
                for offset in (0.0, 3.0, -0.7):
                    for f in rng.uniform(0.02, 0.98, 3) * nyquist:
                        y = offset + rng.uniform(0.1, 1.0) * np.cos(
                            TWO_PI * f * taus + rng.uniform(0, TWO_PI))
                        cases.append((taus, y + noise * rng.standard_normal(n)))
            # near DC: the coarse peak sits within one bin of 0, so the first
            # grid starts at f = 0, where the cos and constant columns coincide
            near_dc = 0.5 + 0.3 * np.cos(TWO_PI * 0.05 / (n * step) * taus + 0.4)
            centered = near_dc - near_dc.mean()
            peak = int(np.argmax(np.abs(np.fft.rfft(centered, 16 * n)[1:]))) + 1
            assert np.fft.rfftfreq(16 * n, d=step)[peak] < 1.0 / (n * step)
            cases.append((taus, near_dc))
            cases.append((taus, np.cos(TWO_PI * 0.99 * nyquist * taus + 0.3)))
            cases.append((taus, np.full(n, 0.25)))  # flat: R^2 = 0
        for taus, y in cases:
            assert fit_cosine(taus, y) == _fit_cosine_reference(taus, y)


def _fit_cosine_reference(taus, values):
    """fit_cosine as it built and solved one design per grid frequency."""
    taus = np.asarray(taus, dtype=float)
    y = np.asarray(values, dtype=float)
    step = np.diff(taus)[0]
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


# sha256 of json.dumps([effective_zz_hz, freqs_hz, r_squared, taus,
# populations]) for ramsey_experiment on a uniform 200 kHz line, recorded
# while the delays and the virtual detuning were still arguments at their
# defaults (64 steps of 8 identity slots, 2 MHz).
RAMSEY_SHA256 = {
    ("gauss", 2, "bare"): "a943c74adc635ddc3359da0d9c5899c623d590136772a9278f5e5ab625231d89",
    ("gauss", 2, "suppressed_B"): "5030d1a8bc89aab744e38fd6d6a4f551db32faa350e8a768f02d4ea65452f077",
    ("gauss", 2, "suppressed_C"): "34eeed5b101201a95c91839bd9065c1bbb6ac65f2e58e2bc9188a7a1b476e486",
    ("gauss", 3, "bare"): "61418b0c0a87959ef7229dbc957c3257c14ffc8268f1beb60fd03847207cbe88",
    ("gauss", 3, "suppressed_B"): "3e07bc88cc4cbe0b74c2f6d0b2798267e4340f855df8d52ac84a614cb31c6648",
    ("gauss", 3, "suppressed_C"): "45b23377e505114af1ea71c9d20c18f45e90b26608bcbda8b2a4f06ed3b77517",
    ("pert", 2, "bare"): "4ca0e347a8d0cdf05bf6def5d27fd0a2fff21eb7db9a12b5935f63068c58b165",
    ("pert", 2, "suppressed_B"): "6ed2b49a121bf4c61e5d61ae648d478e3734750efe8529d5e96c231ceb687b8d",
    ("pert", 2, "suppressed_C"): "4ac656e9feb6b287cdc7db884ffb404a8246df7175569bcd0c19eac80349f606",
    ("pert", 3, "bare"): "c3756bbe7bcef15ae87676ad4b04bffa128a8151b19333e1daede6cf6cdbd185",
    ("pert", 3, "suppressed_B"): "fdbf07633ab34151c3b45102a2f30e2224ea5a9962dbcc9905e528800df0ea84",
    ("pert", 3, "suppressed_C"): "679693bded205c16c4012ae2ee737b81c109349f513311c6d2d5f5bf0d37c6cf",
}


class TestRamsey:
    @pytest.mark.parametrize("lib,n,policy", sorted(RAMSEY_SHA256))
    def test_outputs_pinned(self, gauss_lib, pert_lib, lib, n, policy):
        pulses = {"gauss": gauss_lib, "pert": pert_lib}[lib]
        res = ramsey_experiment(uniform_device(line_topology(n), 200e3), pulses, policy)
        blob = json.dumps([res.effective_zz_hz, res.freqs_hz, res.r_squared, res.taus,
                           res.populations]).encode()
        assert hashlib.sha256(blob).hexdigest() == RAMSEY_SHA256[lib, n, policy]

    def test_bare_frequency_shift_matches_closed_form(self, gauss_lib):
        # P(1) fringes sit at (w_v +- 2 lambda) / 2pi, so the conditional
        # splitting is 4 lambda / 2pi = 800 kHz at 200 kHz coupling
        dev = uniform_device(LINE2, 200e3)
        zz = ramsey_experiment(dev, gauss_lib, "bare").effective_zz_hz
        assert zz == pytest.approx(4 * 200e3, rel=0.05)

    def test_zero_coupling_reads_zero(self, gauss_lib):
        dev = uniform_device(LINE2, 0.0)
        zz = ramsey_experiment(dev, gauss_lib, "bare").effective_zz_hz
        assert abs(zz) <= 50.0

    def test_identity_drive_suppresses_probe(self, gauss_lib, pert_lib):
        dev = uniform_device(LINE2, 200e3)
        bare = ramsey_experiment(dev, gauss_lib, "bare").effective_zz_hz
        for policy in ("suppressed_B", "suppressed_C"):
            held = ramsey_experiment(dev, pert_lib, policy).effective_zz_hz
            assert held * 10 <= bare

    def test_gaussian_identity_is_not_enough(self, gauss_lib):
        # the fill pulse matters: a plain Gaussian 2pi rotation leaves
        # most of the shift in place
        dev = uniform_device(LINE2, 200e3)
        bare = ramsey_experiment(dev, gauss_lib, "bare").effective_zz_hz
        held = ramsey_experiment(dev, gauss_lib, "suppressed_B").effective_zz_hz
        assert held * 10 > bare

    def test_three_qubit_center_probe(self, gauss_lib, pert_lib):
        dev = uniform_device(LINE3, 200e3)
        bare = ramsey_experiment(dev, gauss_lib, "bare", probe=1, control=0).effective_zz_hz
        assert bare == pytest.approx(4 * 200e3, rel=0.05)
        held = ramsey_experiment(dev, pert_lib, "suppressed_B", probe=1,
                                 control=0).effective_zz_hz
        assert held * 10 <= bare

    def test_result_fields(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        res = ramsey_experiment(dev, gauss_lib, "bare")
        assert len(res.freqs_hz) == 2
        assert res.effective_zz_hz == pytest.approx(abs(res.freqs_hz[1] - res.freqs_hz[0]))
        assert all(r2 >= 0.9 for r2 in res.r_squared)
        assert len(res.taus) == 64
        assert len(res.populations) == 2
        assert all(0.0 <= p <= 1.0 for curve in res.populations for p in curve)

    def test_policy_and_device_validation(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        with pytest.raises(ValueError):
            ramsey_experiment(dev, gauss_lib, "echo")
        big = uniform_device(grid_topology(2, 2), 200e3)
        with pytest.raises(ValueError):
            ramsey_experiment(big, gauss_lib, "bare")
        with pytest.raises(ValueError):
            ramsey_experiment(dev, gauss_lib, "bare", probe=0, control=0)

    def test_pulse_requirements(self, gauss_lib):
        dev = uniform_device(LINE2, 200e3)
        with pytest.raises(ValueError):
            ramsey_experiment(dev, {"id": gauss_lib["id"]}, "bare")
        with pytest.raises(ValueError):
            ramsey_experiment(dev, {"rx90": gauss_lib["rx90"]}, "suppressed_B")

    def test_flat_signal_fails_the_fit(self, gauss_lib):
        # an rx90 pulse of angle 0 leaves the probe in |0> at every delay
        dev = uniform_device(LINE2, 0.0)
        flat = {**gauss_lib, "rx90": gaussian_pulse(0.0, 20e-9)}
        with pytest.raises(ValueError, match=r"cosine fit failed \(R\^2 = 0.000\)"):
            ramsey_experiment(dev, flat, "bare")
