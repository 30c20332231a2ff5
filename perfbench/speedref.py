"""Machine-speed sampler for run.py, in a process of its own.

    python3 perfbench/speedref.py INTERVAL_S

run.py pins itself to one CPU and starts this process, which inherits the
pinning, so both share that CPU. Every INTERVAL_S seconds, for as long as
its stdin stays open, it runs a short fixed kernel (no package code) and
records when it ran and the CPU time the kernel took. It prints "ready"
once numpy is loaded, and the samples as JSON when stdin closes. CPU time, not wall time, so that
the benchmark's own work, which shares the CPU, does not count in it.
Sampling keeps on while tasks run, so the samples follow the speed the
tasks saw, and the kernel runs outside the benchmark process, so the
program under test (its heap, its objects, its garbage collection) cannot
move the figure its own times are scaled by.
"""

import json
import sys
import threading
import time

import numpy as np


def kernel_cpu_seconds(a, u, psi):
    """CPU seconds for a fixed mix of interpreter work, small-matrix calls
    and 4096-amplitude state updates."""
    t0 = time.thread_time()
    for i in range(25):
        d = {j: (j * i) % 7 for j in range(30)}
        sorted(d.items(), key=lambda kv: kv[1])
        np.exp(-1j * (a @ a.T + i)[0])
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [i % 12])), 0, i % 12)
    return time.thread_time() - t0


def main():
    interval = float(sys.argv[1])
    a = np.arange(16.0).reshape(4, 4)
    u = np.eye(2, dtype=complex)
    psi = np.ones((2,) * 12, dtype=complex)
    kernel_cpu_seconds(a, u, psi)  # warm-up, not recorded
    print("ready", flush=True)
    samples = []
    stop = threading.Event()

    def sample():
        while not stop.wait(interval):
            samples.append((time.perf_counter(), kernel_cpu_seconds(a, u, psi)))

    sampler = threading.Thread(target=sample)
    sampler.start()
    sys.stdin.read()
    stop.set()
    sampler.join()
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
