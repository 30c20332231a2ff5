"""Sweep gate infidelity against coupling strength for each pulse family.

Writes one CSV per (pulse, gate) pair and prints the fitted log-log slope.
A quartic slope instead of the quadratic Gaussian one is the signature of
first-order crosstalk cancellation.
"""

import csv
import math

import numpy as np

from zzsched.pulse import native_pulse
from zzsched.quantumsim import suppression_sweep

TWO_PI = 2 * math.pi


def fitted_slope(lambdas_hz, infids):
    pts = [(l, f) for l, f in zip(lambdas_hz, infids) if f > 0]
    x = np.log10([p[0] for p in pts])
    y = np.log10([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def write_csv(path, lambdas_hz, infids):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda_hz", "infidelity"])
        for lam, inf in zip(lambdas_hz, infids):
            w.writerow([f"{lam:.6e}", f"{inf:.6e}"])


def main(lambda_min_hz, lambda_max_hz, points, calibration_lambda_hz):
    lambdas_hz = np.logspace(math.log10(lambda_min_hz),
                             math.log10(lambda_max_hz), points)
    print(f"{'pulse':<6} {'gate':<6} {'slope':>6}   csv")
    for kind in ("rx90", "id"):
        pert = native_pulse(kind, "pert", lambda_hz=calibration_lambda_hz)
        for label, spec in (("pert", pert), ("gauss", native_pulse(kind, "gaussian"))):
            curve = suppression_sweep("single_gate_pair", spec,
                                      TWO_PI * lambdas_hz,
                                      floor=None, target_gate=kind)
            infids = [inf for _, inf in curve]
            path = f"sweep_{label}_{kind}.csv"
            write_csv(path, lambdas_hz, infids)
            print(f"{label:<6} {kind:<6} "
                  f"{fitted_slope(lambdas_hz, infids):>6.2f}   {path}")


if __name__ == "__main__":
    main(
        lambda_min_hz=10e3,
        lambda_max_hz=200e3,
        points=9,
        calibration_lambda_hz=200e3,
    )
