"""Acceptance suite: 12 end-to-end checks with one PASS/FAIL line each.

Run with -v to see per-criterion results (or -s for the printed lines).
"""

import math
import time

import numpy as np
import pytest

from zzsched.circuit import Gate, benchmark, gate_matrix, to_native
from zzsched.pulse import (
    RegionModel,
    avg_gate_fidelity,
    dcg_sequence,
    evolve,
    gaussian_pulse,
    native_library,
    optimize,
    pert_first_order,
)
from zzsched.quantumsim import (
    DeviceInstance,
    _propagate,
    _layer_windows,
    _pulse_map,
    _zz_diagonal,
    ramsey_experiment,
    sample_device,
    simulate_ensemble,
    suppression_sweep,
)
from zzsched.scheduler import (
    SuppressionRequirement,
    par_sched,
    schedule,
    two_q_schedule,
)
from zzsched.suppression import alpha_optimal, brute_force_optimal
from zzsched.topology import (
    Cut,
    cut_from_pairing,
    dual_graph,
    grid_snake_order,
    grid_topology,
    ibmq_vigo,
    is_odd_vertex_pairing,
    line_topology,
    remaining_set,
)

TWO_PI = 2 * math.pi
LAM = TWO_PI * 200e3
BENCH_NAMES = ("qft", "hs", "qpe", "qaoa", "ising", "grc")


def _verdict(name, ok, detail=""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def pert_pulses():
    """Cancellation-optimized pulse library at the 200 kHz design point."""
    return native_library("pert")


def test_criterion_01_cut_pairing_duality():
    """Every cut's leftover couplings dualize to an odd-vertex pairing,
    and inducing a cut back from that pairing only shrinks the leftovers."""
    t0 = time.time()
    checked = 0
    for rows, cols in ((2, 3), (3, 3)):
        g = grid_topology(rows, cols)
        d = dual_graph(g)
        n = g.num_qubits
        for mask in range(0, 1 << (n - 1)):
            s = frozenset({0} | {q for q in range(1, n) if mask >> (q - 1) & 1})
            t = frozenset(range(n)) - s
            if not t:
                continue
            cut = Cut(s, t)
            rem = remaining_set(g, cut)
            if not is_odd_vertex_pairing(d, rem):
                _verdict("criterion 01", False, f"cut {sorted(s)} on "
                         f"{rows}x{cols}: leftover set is not a pairing")
            induced = cut_from_pairing(g, rem)
            if not remaining_set(g, induced) <= rem:
                _verdict("criterion 01", False, f"cut {sorted(s)} on "
                         f"{rows}x{cols}: induced cut grew the leftover set")
            checked += 1
    elapsed = time.time() - t0
    _verdict("criterion 01", elapsed < 5.0,
             f"{checked} cuts round-tripped in {elapsed:.2f}s")


def test_criterion_02_complete_suppression_bipartite():
    """Unconstrained optimization on bipartite devices reaches a single
    checkerboard layer with no leftover couplings."""
    topologies = [grid_topology(r, c)
                  for r, c in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))]
    topologies.append(ibmq_vigo())
    failures = []
    for g in topologies:
        for alpha in (0.1, 0.5, 2.0):
            res = alpha_optimal(g, frozenset(), alpha, k=3)
            if res.n_c != 0 or res.n_q != 1:
                failures.append((g.num_qubits, alpha, res.n_q, res.n_c))
    _verdict("criterion 02", not failures,
             f"{len(topologies)} topologies x 3 alphas -> n_q=1, n_c=0"
             if not failures else f"violations: {failures}")


def test_criterion_03_oracle_parity():
    """Greedy path-relaxing search stays within 1.25x of brute force,
    exactly matching it when unconstrained."""
    t0 = time.time()
    worst = 1.0
    for rows, cols in ((3, 3), (3, 4)):
        g = grid_topology(rows, cols)
        n = g.num_qubits
        res = alpha_optimal(g, frozenset(), 0.5, k=3)
        ref = brute_force_optimal(g, frozenset(), 0.5)
        if res.objective != ref.objective:
            _verdict("criterion 03", False,
                     f"{rows}x{cols} unconstrained: {res.objective} != "
                     f"{ref.objective}")
        rng = np.random.default_rng(90 * rows + cols)
        for _ in range(20):
            size = int(rng.integers(1, 5))
            q = frozenset(int(v) for v in rng.choice(n, size, replace=False))
            res = alpha_optimal(g, q, 0.5, k=3)
            ref = brute_force_optimal(g, q, 0.5)
            ratio = res.objective / ref.objective
            worst = max(worst, ratio)
            if ratio > 1.25:
                _verdict("criterion 03", False,
                         f"{rows}x{cols} q={sorted(q)}: ratio {ratio:.3f}")
    elapsed = time.time() - t0
    _verdict("criterion 03", elapsed < 10.0,
             f"42 instances, worst ratio {worst:.3f}, {elapsed:.2f}s")


def test_criterion_04_constrained_cut(chamfered_grid):
    """A three-qubit gate set on the braced grid yields an accepted cut
    with the whole set on one side."""
    q = frozenset({1, 3, 5})
    res = alpha_optimal(chamfered_grid, q, 0.5, k=3)
    one_side = q <= res.cut.partition_s or q <= res.cut.partition_t
    _verdict("criterion 04", (not res.repaired) and one_side,
             f"repaired={res.repaired}, q on one side={one_side}, "
             f"n_q={res.n_q}, n_c={res.n_c}")


def _random_matching(rng, g, size):
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


def test_criterion_05_seed_separation():
    """Across repeated grouping rounds, each round's two closest gates
    always land in different layers."""
    t0 = time.time()
    trials = 0
    violations = 0
    for rows, cols in ((3, 4), (4, 4)):
        g = grid_topology(rows, cols)
        r = SuppressionRequirement.default(g)
        rng = np.random.default_rng(1000 * rows + cols)
        for _ in range(200):
            gates = _random_matching(rng, g, int(rng.integers(2, 7)))
            remaining = list(gates)
            layer_of = {}
            seeds = []
            layer = 0
            while remaining:
                out = two_q_schedule(g, remaining, r, alpha=0.5, k=3)
                if out.seed_pair is not None:
                    seeds.append((remaining[out.seed_pair[0]],
                                  remaining[out.seed_pair[1]]))
                for i in out.selected:
                    layer_of[remaining[i]] = layer
                remaining = [gate for i, gate in enumerate(remaining)
                             if i not in out.selected]
                layer += 1
            violations += sum(layer_of[a] == layer_of[b] for a, b in seeds)
            trials += 1
    _verdict("criterion 05", violations == 0,
             f"{trials} gate sets, {violations} violations, "
             f"{time.time() - t0:.1f}s")


def test_criterion_06_first_order_cancellation():
    """Optimized single-qubit pulses null the cancelable first-order term
    and steepen the infidelity scaling beyond the Gaussian's quadratic."""
    checks = []
    for m in (1, 2):
        model = RegionModel("single", neighbor_lambdas_a=(LAM,) * m)
        for kind, angle in (("rx90", math.pi / 2), ("id", TWO_PI)):
            opt = optimize(model, kind, "pert")
            resid = np.linalg.norm(pert_first_order(model, opt.spec))
            base = np.linalg.norm(
                pert_first_order(model, gaussian_pulse(angle, 20e-9)))
            checks.append((f"{kind}/m={m}", resid <= 1e-3 * base,
                           resid / base))
    lams = TWO_PI * np.logspace(4, math.log10(2e5), 7)

    def log_slope(curve):
        return np.polyfit(np.log10([c[0] for c in curve]),
                          np.log10([c[1] for c in curve]), 1)[0]

    single = RegionModel("single", neighbor_lambdas_a=(LAM,))
    slopes = {}
    for kind in ("rx90", "id"):
        opt = optimize(single, kind, "pert")
        slopes[kind] = log_slope(suppression_sweep(
            "single_gate_pair", opt, lams, floor=None, target_gate=kind))
    angle = {"rx90": math.pi / 2, "id": TWO_PI}
    gauss_slopes = {
        kind: log_slope(suppression_sweep(
            "single_gate_pair", gaussian_pulse(angle[kind], 20e-9), lams,
            floor=None))
        for kind in ("rx90", "id")
    }
    ok = (all(c[1] for c in checks)
          and all(s >= 3.5 for s in slopes.values())
          and all(abs(s - 2.0) < 0.3 for s in gauss_slopes.values()))
    _verdict("criterion 06", ok,
             f"residual ratios {[f'{c[2]:.1e}' for c in checks]}, slopes "
             f"rx90={slopes['rx90']:.2f} id={slopes['id']:.2f} vs gaussian "
             f"{gauss_slopes['rx90']:.2f}/{gauss_slopes['id']:.2f}")


def test_criterion_07_composed_sequence():
    """The 120 ns composed rotation is exact without coupling and beats
    the plain Gaussian under it."""
    seq = dcg_sequence("rx90")
    rx90 = gate_matrix(Gate("rx90", (0,)))
    clean_model = RegionModel("single", neighbor_lambdas_a=(0.0,))
    target = np.kron(rx90, np.eye(2))
    infid_clean = 1 - avg_gate_fidelity(evolve(clean_model, seq), target)
    model = RegionModel("single", neighbor_lambdas_a=(LAM,))
    infid_seq = 1 - avg_gate_fidelity(evolve(model, seq), target)
    infid_gauss = 1 - avg_gate_fidelity(
        evolve(model, gaussian_pulse(math.pi / 2, 20e-9)), target)
    ok = infid_clean <= 1e-6 and infid_seq < infid_gauss
    _verdict("criterion 07", ok,
             f"clean {infid_clean:.2e}, 200kHz {infid_seq:.2e} vs gaussian "
             f"{infid_gauss:.2e}")


def test_criterion_08_region_assembly(pert_pulses):
    """Basic-region pulses assembled into a five-qubit region with a
    single-qubit and a coupler gate still cancel every cross-region
    first-order term."""
    g = line_topology(5)
    lams = (LAM, 0.0, 0.0, LAM)  # outer spectator couplings only
    device = DeviceInstance(g, lams)
    cut = Cut(frozenset({1, 2, 3}), frozenset({0, 4}))
    from zzsched.scheduler import Layer
    layer = Layer((Gate("rx90", (1,)), Gate("rzx90", (2, 3))), cut, 1, 0, 80e-9)
    rx90 = gate_matrix(Gate("rx90", (0,)))
    rzx90 = gate_matrix(Gate("rzx90", (0, 1)))
    target = np.kron(np.kron(np.eye(2), rx90), np.kron(rzx90, np.eye(2)))
    zz = _zz_diagonal(5, device.couplings())
    infids = {}
    for name, lib in (("pert", pert_pulses), ("gauss", native_library("gaussian"))):
        windows = _layer_windows(layer, _pulse_map(lib))
        u = _propagate([zz], [windows], 80e-9, 200)[0, 0]
        infids[name] = 1 - avg_gate_fidelity(u, target)
    ok = infids["pert"] * 10 <= infids["gauss"]
    _verdict("criterion 08", ok,
             f"assembled infidelity {infids['pert']:.2e} vs gaussian "
             f"{infids['gauss']:.2e} ({infids['gauss'] / infids['pert']:.0f}x)")


def test_criterion_09_end_to_end_ordering(pert_pulses):
    """Pulse and schedule co-optimization beats the baseline by >= 2x in
    mean fidelity and beats both single-leg variants."""
    t0 = time.time()
    gauss = native_library("gaussian")
    details = []
    ok = True
    for name, n, (rows, cols) in (("qft", 4, (2, 3)), ("ising", 6, (3, 3))):
        g = grid_topology(rows, cols)
        order = grid_snake_order(rows, cols)[:n]
        circ = to_native(benchmark(name, n, qubit_order=order))
        plans = {"zzx": schedule(g, circ), "par": par_sched(g, circ)}
        means = {}
        for pol in ("zzx", "par"):
            for lib_name, lib in (("pert", pert_pulses), ("gauss", gauss)):
                devices = [sample_device(g, 200e3, 50e3, seed) for seed in range(10)]
                fids = [r.fidelity for r in simulate_ensemble(devices, plans[pol], lib)]
                means[(lib_name, pol)] = float(np.mean(fids))
        co = means[("pert", "zzx")]
        base = means[("gauss", "par")]
        ratio = co / base
        ordered = co > means[("pert", "par")] and co > means[("gauss", "zzx")]
        ok = ok and ratio >= 2.0 and ordered
        details.append(f"{name}-{n}: {ratio:.1f}x, ordering={ordered}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _verdict("criterion 09", ok, f"{'; '.join(details)}, {elapsed:.0f}s")


def test_criterion_10_ramsey_suppression(pert_pulses):
    """The probed conditional frequency shift matches the closed form and
    collapses by >= 10x under identity-pulse filling."""
    from zzsched.quantumsim import uniform_device
    dev = uniform_device(line_topology(2), 200e3)
    bare = ramsey_experiment(dev, pert_pulses, "bare").effective_zz_hz
    analytic = 4 * 200e3  # fringe pair at (w_v +- 2 lambda) / 2pi
    held = min(ramsey_experiment(dev, pert_pulses, policy).effective_zz_hz
               for policy in ("suppressed_B", "suppressed_C"))
    ok = abs(bare - analytic) <= 0.05 * analytic and held * 10 <= bare
    _verdict("criterion 10", ok,
             f"bare {bare / 1e3:.1f} kHz vs analytic {analytic / 1e3:.0f} kHz, "
             f"suppressed {held / 1e3:.3f} kHz ({bare / max(held, 1e-12):.0f}x)")


def test_criterion_11_parallelism_cost():
    """Crosstalk-aware layering never stretches any benchmark past 3x the
    unconstrained schedule."""
    worst = (0.0, "")
    for n, (rows, cols) in ((4, (2, 3)), (6, (3, 3))):
        g = grid_topology(rows, cols)
        order = grid_snake_order(rows, cols)[:n]
        for name in BENCH_NAMES:
            circ = to_native(benchmark(name, n, qubit_order=order))
            dz = schedule(g, circ).total_duration
            dp = par_sched(g, circ).total_duration
            if dp == 0:
                continue
            ratio = dz / dp
            if ratio > worst[0]:
                worst = (ratio, f"{name}-{n}")
            if ratio > 3.0:
                _verdict("criterion 11", False, f"{name}-{n}: ratio {ratio:.2f}")
    _verdict("criterion 11", True,
             f"12 benchmarks, worst duration ratio {worst[0]:.2f} ({worst[1]})")


def test_criterion_12_compile_speed():
    """Scheduling any six-qubit benchmark stays under a second."""
    g = grid_topology(3, 3)
    order = grid_snake_order(3, 3)[:6]
    slowest = (0.0, "")
    for name in BENCH_NAMES:
        circ = to_native(benchmark(name, 6, qubit_order=order))
        t0 = time.time()
        schedule(g, circ)
        dt = time.time() - t0
        if dt > slowest[0]:
            slowest = (dt, name)
        if dt >= 1.0:
            _verdict("criterion 12", False, f"{name}-6 took {dt:.2f}s")
    _verdict("criterion 12", True,
             f"6 benchmarks, slowest {slowest[1]} at {slowest[0] * 1e3:.0f} ms")
