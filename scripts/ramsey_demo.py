"""Measure effective ZZ strength with spectator-conditioned Ramsey fringes.

On a two-qubit device the probe accumulates phase conditioned on the
spectator state; the fitted fringe-frequency difference is the effective
coupling. Filling the wait with shaped identity pulses should collapse it.
Also writes the bare fringe pair to CSV for plotting.
"""

import csv

from zzsched.pulse import native_pulse
from zzsched.quantumsim import ramsey_experiment, uniform_device
from zzsched.topology import line_topology


def write_fringes(path, result):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau_s", "p_control0", "p_control1"])
        for tau, p0, p1 in zip(result.taus, *result.populations):
            w.writerow([f"{tau:.6e}", f"{p0:.6f}", f"{p1:.6f}"])


def main(lambda_hz, csv_path):
    g = line_topology(2)
    device = uniform_device(g, lambda_hz)
    pulses = {kind: native_pulse(kind, "pert", lambda_hz=lambda_hz) for kind in ("rx90", "id")}
    print(f"device coupling {lambda_hz / 1e3:.0f} kHz"
          f" (bare effective ZZ = 4*lambda = {4 * lambda_hz / 1e3:.0f} kHz)")
    print(f"{'policy':<14} {'effective ZZ':>14}")
    for policy in ("bare", "suppressed_B", "suppressed_C"):
        res = ramsey_experiment(device, pulses, policy)
        print(f"{policy:<14} {res.effective_zz_hz / 1e3:>10.3f} kHz")
        if policy == "bare":
            write_fringes(csv_path, res)
            print(f"  fringes written to {csv_path}")


if __name__ == "__main__":
    main(lambda_hz=200e3, csv_path="ramsey_fringes.csv")
