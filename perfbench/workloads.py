"""The four benchmark workloads, each a fixed task list run as rounds.

A round runs every task kind once, in order. Its inputs come from variant
v = (seed + round) % VARIANTS, and the golden file holds each kind's
expected output for every variant, so every task's output is checked
exactly. Variants change values (device couplings, benchmark instances,
the coupling strength of sweeps and Ramsey probes) but not the amount of
work, which keeps runs of different seeds comparable. Some kinds give the
same output at every variant (the fixed brickwork circuits, pert and
optctrl pulses, whose loss normalizes the spectator strengths).

Every package call goes through its module attribute (`scheduler.schedule`,
not a bound name) so the tracer's wrappers see it.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics

import numpy as np

from zzsched import circuit, cli, pulse, quantumsim, scheduler, suppression, topology

VARIANTS = 8
TWO_PI = 2 * math.pi


class CheckFailed(Exception):
    """A task's output disagrees with the golden record or an invariant."""


def _sha(obj):
    # numpy scalars (a pulse's converged flag) serialize as their Python value
    text = json.dumps(obj, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def _snake_circuit(name, n, rows, cols, seed=0):
    order = topology.grid_snake_order(rows, cols)[:n]
    return circuit.benchmark(name, n, seed=seed, qubit_order=order)


def brickwork(rows, cols, depth, seed):
    """Random h/t/s/x on every qubit, then CZ on one of four edge classes
    (even/odd horizontal, even/odd vertical), rotating each layer."""
    g = topology.grid_topology(rows, cols)
    classes = [[], [], [], []]
    for u, v in g.edges:
        (ru, cu), (rv, _) = divmod(u, cols), divmod(v, cols)
        classes[cu % 2 if ru == rv else 2 + ru % 2].append((u, v))
    rng = np.random.default_rng(seed)
    singles = ("h", "t", "s", "x")
    gates = []
    for layer in range(depth):
        picks = rng.integers(0, len(singles), size=g.num_qubits)
        gates += [circuit.Gate(singles[p], (q,)) for q, p in enumerate(picks)]
        gates += [circuit.Gate("cz", e) for e in classes[layer % 4]]
    return g, circuit.Circuit(g.num_qubits, tuple(gates))


class Workload:
    name = ""
    module = ""  # package module a task's exception is tagged with
    kinds = ()
    quick_kinds = ()

    def setup(self):
        """Build inputs and anything the tasks share; timed as set-up."""

    def stage(self, kind):
        return self.module

    def prepare(self, kind, v, state, tmp):
        """Untimed per-task preparation."""

    def run(self, kind, v, state):
        raise NotImplementedError

    def result(self, kind, v, out, state):
        """(work units, golden entry) for a finished task; raises CheckFailed."""
        raise NotImplementedError

    def probes(self):
        """[(name, call, expected error text)] for the known defects."""
        return []

    def oracles(self, v, state):
        """[(name, ok, detail)] independent checks, run outside timing."""
        return []

    def issue_metrics(self, stats, e2e):
        """Workload-specific figures for the summary; stats as kind_stats."""
        return {}


# -------------------------------------------------------------------- report


class Report(Workload):
    """`zzsched report` (cli.run_pipeline), pert backend, policy both, two
    device seeds per task, so the pipeline's seed fan-out runs."""

    name = "report"
    module = "cli"
    # qaoa-6 on 2x3 runs the same paths as qft-4 and would double the run
    # time, which two device seeds per task already raised to about 30 s
    configs = {"qft4-2x3": ("qft", 4, 2, 3)}
    kinds = tuple(f"{c}.{t}" for c in configs for t in ("cold", "warm"))
    quick_kinds = ("qft4-2x3.cold", "qft4-2x3.warm")

    def setup(self):
        self.inputs = {}
        for cfg, (name, n, rows, cols) in self.configs.items():
            self.inputs[cfg] = (topology.grid_topology(rows, cols),
                                _snake_circuit(name, n, rows, cols))

    def _write_inputs(self, d, g, circ):
        d.mkdir(parents=True)
        topology.save_topology(d / "topology.json", g)
        circuit.save_circuit(d / "circuit.zzq", circ)

    def prepare(self, kind, v, state, tmp):
        cfg, temp = kind.split(".")
        if temp == "cold":
            d = tmp / f"{cfg}-{len(list(tmp.iterdir()))}"
            self._write_inputs(d, *self.inputs[cfg])
            state[cfg] = d
        d = state[cfg]
        pulses = d / "out" / "pulses"
        state["pulses_before"] = len(list(pulses.glob("*.json"))) if pulses.exists() else 0

    def run(self, kind, v, state):
        d = state[kind.split(".")[0]]
        cfg = cli.RunConfig(str(d / "topology.json"), str(d / "circuit.zzq"),
                            policy="both", backend="pert", seeds=(v, v + 1),
                            out_dir=str(d / "out"))
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_pipeline(cfg, threads=1)

    def result(self, kind, v, out, state):
        d = state[kind.split(".")[0]]
        raw = (d / "out" / "report.json").read_bytes()
        # the three path fields are the only run-specific bytes
        raw = raw.replace(str(d).encode(), b"<dir>")
        after = len(list((d / "out" / "pulses").glob("*.json")))
        state["cache"] = (len(cli.GATE_KINDS) - (after - state["pulses_before"]),
                          len(cli.GATE_KINDS))
        return 1, {"sha": hashlib.sha256(raw).hexdigest()}

    def issue_metrics(self, stats, e2e):
        out = {}
        for temp in ("cold", "warm"):
            vals = [s[0] for k, s in stats.items() if k.endswith(temp)]
            if vals:
                out[f"report_{temp}_s"] = statistics.median(vals)
        return out

    def probes(self):
        def ising(tmp):
            g = topology.grid_topology(3, 3)
            d = tmp / "probe-ising6-3x3"
            self._write_inputs(d, g, _snake_circuit("ising", 6, 3, 3))
            cfg = cli.RunConfig(str(d / "topology.json"), str(d / "circuit.zzq"),
                                seeds=(0,), out_dir=str(d / "out"))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run_pipeline(cfg, threads=1)
        return [("ising6-3x3 report", ising, "[pulse] region dimension capped at 64")]

    def oracles(self, v, state):
        d = state.get("qft4-2x3")
        if d is None:
            return []
        lib = {}
        for f in sorted((d / "out" / "pulses").glob("*.json")):
            op = pulse.load_pulse(f)
            lib[op.target_gate] = op
        return [_dense_vs_split("report-provisioned", lib, v)]


def _dense_vs_split(label, lib, v):
    """Split-step against the dense oracle on qft-3 over a 3-qubit line
    (the dense path costs about 0.25 s per layer at 6 qubits)."""
    g = topology.line_topology(3)
    plan = scheduler.schedule(g, circuit.to_native(circuit.benchmark("qft", 3)))
    dev = quantumsim.sample_device(g, 200e3, 50e3, v)
    split = quantumsim.simulate_plan(dev, plan, lib).fidelity
    dense = quantumsim.simulate_plan(dev, plan, lib, method="dense").fidelity
    # the package's own split/dense test allows 1e-5 on this plan
    return (f"dense vs split, qft-3 line, {label} pulses",
            abs(split - dense) <= 1e-5, f"split {split:.12f} dense {dense:.12f}")


# ------------------------------------------------------------------ ensemble


def pert_library(lambda_hz=200e3):
    """m=1 cancellation library at one design strength (criterion 09)."""
    lam = TWO_PI * lambda_hz
    single = pulse.RegionModel("single", neighbor_lambdas_a=(lam,))
    two = pulse.RegionModel("two", neighbor_lambdas_a=(lam,),
                            neighbor_lambdas_b=(lam,))
    return {
        "rx90": pulse.optimize(single, "rx90", "pert"),
        "id": pulse.optimize(single, "id", "pert"),
        "rzx90": pulse.optimize(two, "rzx90", "pert", pulse.OptimizeConfig(T=80e-9)),
    }


class Ensemble(Workload):
    """One simulate_plan call per sampled device, zzx and par plans."""

    name = "ensemble"
    module = "quantumsim"
    circuits = {"qft4-2x3": ("qft", 4, 2, 3), "ising6-3x3": ("ising", 6, 3, 3),
                "grc12-3x4": ("grc", 12, 3, 4)}
    kinds = tuple(f"{c}.{p}" for c in circuits for p in ("zzx", "par"))
    quick_kinds = ("qft4-2x3.par",)

    def setup(self):
        self.lib = pert_library()
        self.cases = {}
        for c, (name, n, rows, cols) in self.circuits.items():
            g = topology.grid_topology(rows, cols)
            native = circuit.to_native(_snake_circuit(name, n, rows, cols))
            self.cases[f"{c}.zzx"] = (g, scheduler.schedule(g, native))
            self.cases[f"{c}.par"] = (g, scheduler.par_sched(g, native))

    def run(self, kind, v, state):
        g, plan = self.cases[kind]
        dev = quantumsim.sample_device(g, 200e3, 50e3, v)
        return quantumsim.simulate_plan(dev, plan, self.lib).fidelity

    def result(self, kind, v, out, state):
        if not 0.0 <= out <= 1.0:
            raise CheckFailed(f"fidelity {out} outside [0, 1]")
        return 1, {"fid": [out]}

    def issue_metrics(self, stats, e2e):
        return {"sim_samples_per_s": e2e["work_per_s"]}

    def oracles(self, v, state):
        return [_dense_vs_split("m=1 library", self.lib, v)]


# ------------------------------------------------------------------ schedule


class Schedule(Workload):
    """schedule (zzx) and par_sched on brickwork and named circuits."""

    name = "schedule"
    module = "scheduler"
    depth = 4
    # Brickwork solve time is heavy-tailed in the circuit (0.02-10 s on
    # 7x7), so a run cannot average over fresh random circuits; the timed
    # brickwork set is fixed and the variant picks the named instances.
    bricks = {f"bw{n}x{n}.c{s}": (n, s) for n in (4, 5, 6) for s in (0, 1)}
    named = ("qft", "hs", "qpe", "qaoa", "ising", "grc")
    kinds = tuple(bricks) + tuple(f"{b}12-3x4" for b in named)
    quick_kinds = ("bw4x4.c0",)

    def setup(self):
        self.inputs = {k: brickwork(n, n, self.depth, s)
                       for k, (n, s) in self.bricks.items()}
        g = topology.grid_topology(3, 4)
        for b in self.named:
            for v in range(VARIANTS):
                self.inputs[(f"{b}12-3x4", v)] = (g, _snake_circuit(b, 12, 3, 4, v))

    def run(self, kind, v, state):
        g, circ = self.inputs.get(kind) or self.inputs[(kind, v)]
        native = circuit.to_native(circ)
        return native, scheduler.schedule(g, native), scheduler.par_sched(g, native)

    def result(self, kind, v, out, state):
        native, zzx, par = out
        for plan in (zzx, par):
            placed = sum(len([x for x in layer.gates if x.name != "id"])
                         + len(layer.rz_gates) for layer in plan.layers)
            if placed + len(plan.trailing_rz) != len(native.gates):
                raise CheckFailed("plan does not place every native gate once")
        doc = [scheduler.plan_to_json(zzx), scheduler.plan_to_json(par)]
        return 2 * len(native.gates), {"sha": _sha(doc)}

    def issue_metrics(self, stats, e2e):
        return {"gates_per_s": e2e["work_per_s"]}

    def probes(self):
        def brick(n, s):
            def call(tmp):
                g, circ = brickwork(n, n, self.depth, s)
                scheduler.schedule(g, circuit.to_native(circ))
            return (f"bw{n}x{n}.c{s} zzx schedule", call, "matching guard")
        return [brick(6, 3), brick(7, 0), brick(8, 0)]

    def oracles(self, v, state):
        """alpha_optimal against brute_force_optimal on small grids: never
        below the exhaustive optimum, its reported metrics match its cut,
        the gate set stays on one side, and the unconstrained case is
        exact. The worst ratio is reported, not bounded: repaired cuts can
        sit well above the optimum (1.625x on 3x4 with gates {0,3,5,11})."""
        out = []
        for rows, cols in ((3, 3), (3, 4)):
            g = topology.grid_topology(rows, cols)
            rng = np.random.default_rng([v, rows, cols])
            sets = [frozenset()] + [
                frozenset(int(x) for x in rng.choice(g.num_qubits, int(rng.integers(1, 5)),
                                                      replace=False))
                for _ in range(10)]
            bad, worst = [], 1.0
            for q in sets:
                res = suppression.alpha_optimal(g, q, 0.5, k=3)
                ref = suppression.brute_force_optimal(g, q, 0.5)
                n_q, n_c = suppression.metrics(g, res.cut)
                ok = (res.objective >= ref.objective - 1e-12
                      and (n_q, n_c) == (res.n_q, res.n_c)
                      and abs(res.objective - (0.5 * n_q + n_c)) < 1e-12
                      and (q <= res.cut.partition_s or q <= res.cut.partition_t)
                      and (q or res.objective == ref.objective))
                if not ok:
                    bad.append(sorted(q))
                worst = max(worst, res.objective / ref.objective)
            out.append((f"brute force {rows}x{cols}", not bad,
                        f"{len(sets)} gate sets, worst ratio {worst:.3f}, bad {bad}"))
        return out


# -------------------------------------------------------------------- pulses


class Pulses(Workload):
    """Pulse design and characterization. The variant sets the coupling
    strength of the sweeps and Ramsey probes; it reaches the pulse designs
    too, but the pert loss normalizes it away and optctrl uses its own
    fixed strength samples, so their outputs do not change with it."""

    name = "pulses"
    opt = {f"opt.pert.{k}.m{m}": ("pert", k, m)
           for k, ms in (("rx90", (1, 2, 3, 4)), ("id", (1, 2, 3, 4)),
                         ("rzx90", (1, 2)))
           for m in ms}
    opt["opt.optctrl.rx90.m1"] = ("optctrl", "rx90", 1)
    sweeps = {"sweep.rx90": ("single_gate_pair", "rx90"),
              "sweep.id": ("single_gate_pair", "id"),
              "sweep.rzx90": ("two_gate_chain", "rzx90")}
    ramseys = {f"ramsey.{p}.n{n}": (p, n) for n in (2, 3)
               for p in ("bare", "suppressed_B", "suppressed_C")}
    kinds = tuple(opt) + tuple(sweeps) + tuple(ramseys)
    quick_kinds = ("opt.pert.rx90.m3", "opt.pert.rx90.m1", "opt.pert.id.m1",
                   "sweep.rx90", "ramsey.bare.n2")

    @staticmethod
    def lambda_hz(v):
        return 150e3 + 12.5e3 * v

    @staticmethod
    def model(target, m, lam):
        if target == "rzx90":
            return pulse.RegionModel("two", neighbor_lambdas_a=(lam,) * m,
                                     neighbor_lambdas_b=(lam,) * m)
        return pulse.RegionModel("single", neighbor_lambdas_a=(lam,) * m)

    def setup(self):
        self.line = {n: topology.line_topology(n) for n in (2, 3)}

    def stage(self, kind):
        return "pulse" if kind.startswith("opt.") else "quantumsim"

    def run(self, kind, v, state):
        lam_hz = self.lambda_hz(v)
        if kind in self.opt:
            backend, target, m = self.opt[kind]
            config = pulse.OptimizeConfig(T=80e-9) if target == "rzx90" else None
            if backend == "optctrl":
                # unbudgeted optctrl takes minutes; a fixed small budget
                config = pulse.OptimizeConfig(max_iter=5, restarts=1)
            op = pulse.optimize(self.model(target, m, TWO_PI * lam_hz), target,
                                backend, config)
            if backend == "pert" and m == 1:
                state[target] = op
            return op
        if kind in self.sweeps:
            scenario, target = self.sweeps[kind]
            hz = np.logspace(4, math.log10(lam_hz), 7)
            return quantumsim.suppression_sweep(scenario, state[target],
                                                [TWO_PI * x for x in hz])
        policy, n = self.ramseys[kind]
        dev = quantumsim.uniform_device(self.line[n], lam_hz)
        lib = {"rx90": state["rx90"], "id": state["id"]}
        return quantumsim.ramsey_experiment(dev, lib, policy)

    def result(self, kind, v, out, state):
        if kind in self.opt:
            return int(out.converged), {"sha": _sha(pulse.pulse_to_json(out))}
        if kind in self.sweeps:
            return 0, {"val": [infid for _, infid in out]}
        expected = 4 * self.lambda_hz(v)
        if kind.startswith("ramsey.bare") and abs(
                out.effective_zz_hz - expected) > 0.05 * expected:
            raise CheckFailed(f"bare Ramsey {out.effective_zz_hz:.1f} Hz vs "
                              f"4 lambda = {expected:.1f} Hz")
        return 0, {"val": [out.effective_zz_hz, *out.freqs_hz]}

    def issue_metrics(self, stats, e2e):
        opt = [s for k, s in stats.items() if k in self.opt]
        return {"pulses_per_s": sum(s[1] for s in opt) / sum(s[0] for s in opt)}

    def probes(self):
        def rzx90_m3(tmp):
            pulse.optimize(self.model("rzx90", 3, TWO_PI * 200e3), "rzx90", "pert",
                           pulse.OptimizeConfig(T=80e-9))
        return [("opt.pert.rzx90.m3", rzx90_m3, "region dimension capped at 64")]

    def oracles(self, v, state):
        out = []
        lam = TWO_PI * self.lambda_hz(v)
        for target, angle in (("rx90", math.pi / 2), ("id", TWO_PI)):
            if target not in state:
                continue
            model = self.model(target, 1, lam)
            shaped = np.linalg.norm(pulse.pert_first_order(model, state[target].spec))
            gauss = np.linalg.norm(pulse.pert_first_order(
                model, pulse.gaussian_pulse(angle, 20e-9)))
            out.append((f"pert residual {target} m1", shaped <= 1e-3 * gauss,
                        f"{shaped:.3e} vs gaussian {gauss:.3e}"))
        return out


WORKLOADS = {w.name: w for w in (Report, Ensemble, Schedule, Pulses)}
