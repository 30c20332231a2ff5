"""Compare co-optimized scheduling and pulses against the plain baseline.

For each benchmark the four library/policy combinations run over a set of
sampled devices; the table reports mean fidelities, the improvement of the
co-optimized pipeline over the baseline, and the duration cost.
"""

import time

import numpy as np

from zzsched.circuit import benchmark, to_native
from zzsched.pulse import native_library
from zzsched.quantumsim import sample_device, simulate_ensemble
from zzsched.scheduler import par_sched, schedule
from zzsched.topology import grid_snake_order, grid_topology


def run_benchmark(name, n, rows, cols, libraries, samples=10,
                  mu_hz=200e3, sigma_hz=50e3):
    g = grid_topology(rows, cols)
    order = grid_snake_order(rows, cols)[:n]
    circ = to_native(benchmark(name, n, qubit_order=order))
    plans = {"zzx": schedule(g, circ), "par": par_sched(g, circ)}
    means = {}
    for policy, plan in plans.items():
        for lib_name, lib in libraries.items():
            devices = [sample_device(g, mu_hz, sigma_hz, s) for s in range(samples)]
            fids = [r.fidelity for r in simulate_ensemble(devices, plan, lib)]
            means[(lib_name, policy)] = float(np.mean(fids))
    duration_ratio = plans["zzx"].total_duration / plans["par"].total_duration
    return means, duration_ratio


def main(cases, samples):
    libraries = {"pert": native_library("pert"), "gauss": native_library("gaussian")}
    print(f"{'bench':<10} {'pert+zzx':>9} {'pert+par':>9} {'gauss+zzx':>10} "
          f"{'gauss+par':>10} {'improve':>8} {'dur':>5}")
    for name, n, rows, cols in cases:
        t0 = time.time()
        means, dur = run_benchmark(name, n, rows, cols, libraries, samples)
        improve = means[("pert", "zzx")] / max(means[("gauss", "par")], 1e-12)
        print(f"{name + '-' + str(n):<10} {means[('pert', 'zzx')]:>9.4f} "
              f"{means[('pert', 'par')]:>9.4f} {means[('gauss', 'zzx')]:>10.4f} "
              f"{means[('gauss', 'par')]:>10.4f} {improve:>7.1f}x {dur:>5.2f}"
              f"   ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main(
        cases=[
            ("qft", 4, 2, 3),
            ("ising", 6, 3, 3),
        ],
        samples=10,
    )
