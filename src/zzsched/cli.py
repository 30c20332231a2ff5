"""Command-line front end: circuit in, schedule, pulses, simulated report out.

Every stage error surfaces as `error [module] message` on stderr with a
nonzero exit; reports are plain JSON/CSV so any plotting tool can consume
them, and re-running an identical config reproduces the bytes.
"""

import argparse
import contextlib
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .circuit import GateTimes, benchmark, load_circuit, save_circuit, to_native
from .pulse import (BACKENDS, DESIGN_BACKENDS, GATE_KINDS, check_native_size, load_pulse,
                    native_pulse, save_pulse)
from .quantumsim import (
    check_sim_size,
    ramsey_experiment,
    sample_device,
    simulate_ensemble,
    suppression_sweep,
    uniform_device,
)
from .scheduler import SuppressionRequirement, par_sched, save_plan, schedule
from .scheduler import load_plan as load_plan_file
from .suppression import alpha_optimal, save_result
from .topology import adjacency, grid_snake_order, load_topology

TWO_PI = 2 * math.pi


class PipelineError(RuntimeError):
    def __init__(self, module, message):
        super().__init__(message)
        self.module = module


@contextlib.contextmanager
def _stage(module, path=None):
    """Tag any failure inside a block with the owning module's name, and
    with the input file the block reads, if it reads one."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        msg = str(exc)
        if path is not None:
            if isinstance(exc, KeyError):
                msg = f"missing field {msg}"
            if str(path) not in msg:  # an OSError names its file already
                msg = f"{path}: {msg}"
        raise PipelineError(module, msg) from exc


def _read(module, load, path):
    """One input file, loaded under its module's stage."""
    with _stage(module, path):
        return load(path)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class RunConfig:
    topology: str
    circuit: str
    policy: str = "both"  # zzx | par | both (both adds the baseline row)
    alpha: float = 0.5
    k: int = 3
    nq_max: int | None = None
    nc_max: float | None = None
    backend: str = "pert"
    lambda_mu_hz: float = 200e3
    lambda_sigma_hz: float = 50e3
    seeds: tuple = (0,)
    out_dir: str = "runs"

    def __post_init__(self):
        if self.policy not in ("zzx", "par", "both"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        # operator.index: k = 2.5, nq_max = NaN or a seed of 1.5 fails here,
        # not after the schedule, and numpy ints become the Python ints
        # report.json writes
        object.__setattr__(self, "k", operator.index(self.k))
        if self.nq_max is not None:
            object.__setattr__(self, "nq_max", operator.index(self.nq_max))
        object.__setattr__(self, "seeds", tuple(map(operator.index, self.seeds)))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.nq_max is not None and self.nq_max <= 0:
            raise ValueError("n_q threshold must be positive")
        if self.nc_max is not None and not self.nc_max > 0:  # NaN fails too
            raise ValueError("n_c threshold must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown pulse backend {self.backend!r}")
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.lambda_mu_hz, self.lambda_sigma_hz)):
            raise ValueError("strength distribution must be finite and nonnegative")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be nonnegative")

    def to_json(self):
        return {**asdict(self), "seeds": list(self.seeds)}


# --------------------------------------------------------- pulse provisioning


def _pulse_cache_name(kind, m, backend, T, lams_hz):
    """A fixed shape is named by kind, backend and slot; a designed pulse
    also by its region's neighbor count and coupling strengths."""
    if backend not in DESIGN_BACKENDS:
        return f"{kind}_{backend}_{round(T * 1e9)}ns.json"
    tag = hashlib.sha1(
        ",".join(f"{v:.6e}" for v in sorted(lams_hz)).encode()
    ).hexdigest()[:12]
    return f"{kind}_{backend}_{m}n_{round(T * 1e9)}ns_{tag}.json"


def provision_pulses(g, backend, lambda_hz, pulses_dir, verbose=False):
    """One pulse per native kind, designed for the device's worst-case
    neighbor counts and cached on disk by shape-defining parameters."""
    pulses_dir = Path(pulses_dir)
    pulses_dir.mkdir(parents=True, exist_ok=True)
    deg_max = max((len(a) for a in adjacency(g)), default=1)
    times = GateTimes.for_backend(backend)
    designs = {}
    for kind in GATE_KINDS:
        m = max(deg_max - 1, 1) if kind == "rzx90" else deg_max
        name = _pulse_cache_name(kind, m, backend, getattr(times, kind),
                                 (lambda_hz,) * m)
        designs[kind] = (m, pulses_dir / name)
    # a dense design can take minutes, so every kind still to design is
    # sized against the cap before the first starts
    for kind, (m, path) in designs.items():
        if not path.exists():
            check_native_size(kind, backend, m, lambda_hz)
    out = {}
    for kind, (m, path) in designs.items():
        if path.exists():
            op = out[kind] = _read("pulse", load_pulse, path)
            held = (op.target_gate, op.backend, round(op.spec.duration * 1e9))
            if held != (kind, backend, round(getattr(times, kind) * 1e9)):
                raise ValueError(f"cached {path.name} holds a {held[1]} {held[0]} pulse "
                                 f"of {held[2]} ns; delete it to design the pulse again")
            if verbose:
                print(f"  pulse {kind}: cached {path.name}", file=sys.stderr)
            continue
        out[kind] = native_pulse(kind, backend, m, lambda_hz)
        save_pulse(path, out[kind])
        if verbose:
            made = "optimized" if backend in DESIGN_BACKENDS else "built"
            print(f"  pulse {kind}: {made} -> {path.name}", file=sys.stderr)
    return out


def _load_pulse_dir(path):
    pulses = {}
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise ValueError(f"no pulse files in {path}")
    for f in files:
        op = _read("pulse", load_pulse, f)
        if op.target_gate in pulses:
            raise ValueError(f"duplicate pulse for {op.target_gate!r} ({f.name})")
        pulses[op.target_gate] = op
    return pulses


# ------------------------------------------------------------------ pipeline


def _load_native(path):
    return to_native(load_circuit(path))


def _run_config(args, **extra):
    """The RunConfig that a subcommand's parsed flags describe."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(**given, **extra)


def _schedule_policy(g, circ, policy, cfg):
    gate_times = GateTimes.for_backend(cfg.backend)
    if policy == "par":
        return par_sched(g, circ, gate_times=gate_times)
    base = SuppressionRequirement.default(g)
    r = SuppressionRequirement(cfg.nq_max or base.max_n_q, cfg.nc_max or base.max_n_c)
    return schedule(g, circ, r, alpha=cfg.alpha, k=cfg.k, gate_times=gate_times)


def _simulate_seeds(g, plan, pulses, mu, sigma, seeds):
    devices = [sample_device(g, mu, sigma, s) for s in seeds]
    return simulate_ensemble(devices, plan, pulses)


def run_pipeline(cfg, threads=1, verbose=False):
    """Schedule, provision pulses, simulate across seeds, write artifacts.

    Returns {policy: [SimReport]} after writing plan/pulse/report files
    under cfg.out_dir and printing the summary table. threads is accepted
    and unused: all seeds of a plan run in one batched simulation.
    """
    g = _read("topology", load_topology, cfg.topology)
    circ = _read("circuit", _load_native, cfg.circuit)
    with _stage("quantumsim"):  # the register is the whole device
        check_sim_size(g.num_qubits)
    policies = ("zzx", "par") if cfg.policy == "both" else (cfg.policy,)

    out_dir = Path(cfg.out_dir)
    with _stage("cli"):
        out_dir.mkdir(parents=True, exist_ok=True)

    plans = {}
    with _stage("scheduler"):
        for policy in policies:
            plans[policy] = _schedule_policy(g, circ, policy, cfg)
            save_plan(out_dir / f"plan_{policy}.json", plans[policy])
            if verbose:
                p = plans[policy]
                print(f"  {policy}: {len(p.layers)} layers, "
                      f"{p.total_duration * 1e9:.0f} ns", file=sys.stderr)

    with _stage("pulse"):
        pulses = provision_pulses(g, cfg.backend, cfg.lambda_mu_hz,
                                  out_dir / "pulses", verbose)

    reports = {}
    with _stage("quantumsim"):
        for policy in policies:
            reports[policy] = _simulate_seeds(g, plans[policy], pulses, cfg.lambda_mu_hz,
                                              cfg.lambda_sigma_hz, cfg.seeds)

    with _stage("cli"):
        doc = _report_json(cfg, plans, reports)
        _write_json(out_dir / "report.json", doc)
    _print_summary(doc)
    return reports


def _report_json(cfg, plans, reports):
    runs = []
    for policy in sorted(reports):
        for rep in reports[policy]:
            runs.append({
                "policy": policy,
                "seed": rep.seed,
                "fidelity": rep.fidelity,
                "layers": len(plans[policy].layers),
                "total_duration_ns": plans[policy].total_duration * 1e9,
            })
    mean_fid = {p: float(np.mean([r.fidelity for r in reps]))
                for p, reps in reports.items()}
    summary = {
        "mean_fidelity": mean_fid,
        "layers": {p: len(plans[p].layers) for p in plans},
        "total_duration_ns": {p: plans[p].total_duration * 1e9 for p in plans},
        "fidelity_ratio_zzx_over_par": None,
        "duration_ratio_zzx_over_par": None,
    }
    if "zzx" in reports and "par" in reports:
        if mean_fid["par"] > 0:
            summary["fidelity_ratio_zzx_over_par"] = mean_fid["zzx"] / mean_fid["par"]
        if plans["par"].total_duration > 0:
            summary["duration_ratio_zzx_over_par"] = (
                plans["zzx"].total_duration / plans["par"].total_duration)
    config = cfg.to_json()
    meta = {key: config[key] for key in
            ("alpha", "k", "backend", "policy", "lambda_mu_hz", "lambda_sigma_hz", "seeds")}
    times = asdict(GateTimes.for_backend(cfg.backend))
    meta["gate_times_ns"] = {kind: t * 1e9 for kind, t in times.items()}
    return {"config": config, "meta": meta, "runs": runs, "summary": summary}


def _print_summary(doc):
    summary = doc["summary"]
    print(f"{'policy':<8} {'mean_fid':>10} {'layers':>8} {'duration_ns':>12}")
    for policy in sorted(summary["mean_fidelity"]):
        print(f"{policy:<8} {summary['mean_fidelity'][policy]:>10.4f} "
              f"{summary['layers'][policy]:>8d} "
              f"{summary['total_duration_ns'][policy]:>12.0f}")
    ratio = summary["fidelity_ratio_zzx_over_par"]
    if ratio is not None:
        print(f"fidelity improvement zzx/par: {ratio:.2f}x")
    dur = summary["duration_ratio_zzx_over_par"]
    if dur is not None:
        print(f"duration ratio zzx/par: {dur:.2f}")


# ---------------------------------------------------------------- subcommands


def _parse_qubits(text):
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ValueError(f"--qubits must be comma-separated qubit indices, "
                         f"got {text!r}") from None


def _seed_range(args):
    """Device seeds --seed, --seed + 1, ... for --samples devices."""
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    return tuple(range(args.seed, args.seed + args.samples))


def cmd_suppress(args):
    g = _read("topology", load_topology, args.topology)
    with _stage("suppression"):
        q = _parse_qubits(args.qubits)
        res = alpha_optimal(g, q, args.alpha, k=args.k)
        save_result(args.out, g, q, res)
    print(f"n_q={res.n_q} n_c={res.n_c} objective={res.objective:.3f} "
          f"-> {args.out}")
    return 0


def cmd_bench(args):
    with _stage("circuit"):
        order = None
        if args.grid:
            try:
                rows, cols = map(int, args.grid.lower().split("x"))
            except ValueError:
                raise ValueError(f"--grid must be RxC, got {args.grid!r}") from None
            if min(rows, cols) < 1 or rows * cols < args.n:
                raise ValueError(f"--grid {args.grid} holds fewer than --n {args.n} qubits")
            order = grid_snake_order(rows, cols)[: args.n]
        circ = benchmark(args.name, args.n, seed=args.seed, qubit_order=order)
        save_circuit(args.out, circ)
    print(f"{args.name}-{args.n}: {len(circ.gates)} gates -> {args.out}")
    return 0


def cmd_schedule(args):
    g = _read("topology", load_topology, args.topology)
    circ = _read("circuit", _load_native, args.circuit)
    with _stage("scheduler"):
        plan = _schedule_policy(g, circ, args.policy, _run_config(args))
        save_plan(args.out, plan)
    print(f"{args.policy}: {len(plan.layers)} layers, "
          f"{plan.total_duration * 1e9:.0f} ns -> {args.out}")
    return 0


def cmd_optimize_pulse(args):
    with _stage("pulse"):
        if args.neighbors < 0:
            raise ValueError(f"neighbor count must be nonnegative, "
                             f"got --neighbors {args.neighbors}")
        op = native_pulse(args.gate, args.backend, args.neighbors, args.lambda_hz)
        save_pulse(args.out, op)
    print(f"{args.gate} [{args.backend}] converged={op.converged} "
          f"-> {args.out}")
    return 0


def cmd_simulate(args):
    with _stage("cli"):
        seeds = _seed_range(args)
    g = _read("topology", load_topology, args.topology)
    plan = _read("scheduler", load_plan_file, args.plan)
    pulses = _read("pulse", _load_pulse_dir, args.pulses)
    with _stage("quantumsim"):
        reports = _simulate_seeds(g, plan, pulses, args.lambda_mu_hz,
                                  args.lambda_sigma_hz, seeds)
    with _stage("cli"):
        backends = {op.backend for op in pulses.values()}
        label = backends.pop() if len(backends) == 1 else "mixed"
        policy = "zzx" if any(layer.cut is not None for layer in plan.layers) else "par"
        doc = {
            "topology": args.topology,
            "plan": args.plan,
            "pulses": args.pulses,
            "lambda_mu_hz": args.lambda_mu_hz,
            "lambda_sigma_hz": args.lambda_sigma_hz,
            "seeds": list(seeds),
            "policy": policy,
            "pulse_backend": label,
            "runs": [{"seed": r.seed, "fidelity": r.fidelity} for r in reports],
            "mean_fidelity": float(np.mean([r.fidelity for r in reports])),
            "total_duration_ns": plan.total_duration * 1e9,
        }
        _write_json(args.out, doc)
    print(f"mean fidelity {doc['mean_fidelity']:.4f} over {len(seeds)} "
          f"samples -> {args.out}")
    return 0


def cmd_ramsey(args):
    g = _read("topology", load_topology, args.topology)
    with _stage("quantumsim"):
        if not (math.isfinite(args.lambda_hz) and args.lambda_hz >= 0):
            raise ValueError(f"--lambda-hz must be finite and nonnegative, "
                             f"got {args.lambda_hz:g}")
        for flag, q in (("--probe", args.probe), ("--control", args.control)):
            if not 0 <= q < g.num_qubits:
                raise ValueError(f"{flag} must be a device qubit, 0 to "
                                 f"{g.num_qubits - 1}, got {q}")
        if args.probe == args.control:
            raise ValueError(f"--probe and --control must be distinct, "
                             f"both are {args.probe}")
    pulses = _read("pulse", _load_pulse_dir, args.pulses)
    with _stage("quantumsim"):
        dev = uniform_device(g, args.lambda_hz)
        res = ramsey_experiment(dev, pulses, args.policy, probe=args.probe,
                                control=args.control)
    with _stage("cli"):
        with open(args.out, "w") as fh:
            fh.write("tau_s,p_control0,p_control1\n")
            for tau, p0, p1 in zip(res.taus, res.populations[0],
                                   res.populations[1]):
                fh.write(f"{tau:.9e},{p0:.9e},{p1:.9e}\n")
    print(f"{args.policy}: effective ZZ {res.effective_zz_hz / 1e3:.3f} kHz "
          f"(fringes {res.freqs_hz[0] / 1e6:.4f} / {res.freqs_hz[1] / 1e6:.4f} "
          f"MHz, R^2 {min(res.r_squared):.3f}) -> {args.out}")
    return 0


def cmd_sweep(args):
    op = _read("pulse", load_pulse, args.pulse)
    with _stage("quantumsim"):
        for flag, bound in (("--lambda-hz-min", args.lambda_hz_min),
                            ("--lambda-hz-max", args.lambda_hz_max)):
            if bound <= 0:  # NaN passes on to the region's finiteness check
                raise ValueError(f"{flag} must be positive, got {bound:g}: "
                                 f"the strength grid is log-spaced")
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        lams_hz = np.logspace(math.log10(args.lambda_hz_min),
                              math.log10(args.lambda_hz_max), args.points)
        curve = suppression_sweep(args.scenario, op,
                                  [TWO_PI * v for v in lams_hz])
    with _stage("cli"):
        with open(args.out, "w") as fh:
            fh.write("lambda_hz,infidelity\n")
            for lam, infid in curve:
                fh.write(f"{lam / TWO_PI:.9e},{infid:.9e}\n")
    print(f"{args.scenario}: {args.points} points -> {args.out}")
    return 0


def cmd_report(args):
    with _stage("cli"):
        cfg = _run_config(args, seeds=_seed_range(args))
    run_pipeline(cfg, verbose=args.verbose)
    return 0


# -------------------------------------------------------------------- parser


def _shared(*options):
    """A parent parser declaring options that mean the same wherever they
    are taken; each is a (flag, add_argument keywords) pair."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in options:
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser():
    p = argparse.ArgumentParser(
        prog="zzsched",
        description="crosstalk-aware scheduling and pulse shaping toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    defaults = RunConfig
    topology = _shared(("--topology", {"required": True}))
    circuit = _shared(("--circuit", {"required": True}))
    out = _shared(("--out", {"required": True}))
    cut = _shared(("--alpha", {"type": float, "default": defaults.alpha}),
                  ("--k", {"type": int, "default": defaults.k}))
    thresholds = _shared(("--nq-max", {"type": int, "default": defaults.nq_max}),
                         ("--nc-max", {"type": float, "default": defaults.nc_max}))
    strengths = _shared(
        ("--lambda-mu-hz", {"type": float, "default": defaults.lambda_mu_hz}),
        ("--lambda-sigma-hz", {"type": float, "default": defaults.lambda_sigma_hz}))
    pulses = _shared(("--pulses", {"required": True, "help": "directory of pulse JSON"}))
    lambda_hz = _shared(("--lambda-hz", {"type": float, "default": defaults.lambda_mu_hz}))
    # --seed, --samples, --policy and --backend differ in meaning or default
    # between subcommands, so each declares its own; subcommands share the
    # parents' action objects, so a set_defaults on one would reach them all

    def command(name, func, help, *parents):
        s = sub.add_parser(name, help=help, parents=parents)
        s.set_defaults(func=func)
        return s

    s = command("suppress", cmd_suppress, "find a cut meeting gate constraints",
                topology, cut, out)
    s.add_argument("--qubits", default="")

    s = command("bench", cmd_bench, "emit a deterministic benchmark circuit", out)
    s.add_argument("--name", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--grid", default=None,
                   help="RxC; embed the chain as a grid snake")
    s.add_argument("--seed", type=int, default=0)

    s = command("schedule", cmd_schedule, "layer a circuit over a device",
                topology, circuit, cut, thresholds, out)
    s.add_argument("--policy", choices=("zzx", "par"), default="zzx")
    s.add_argument("--backend", choices=BACKENDS, default="gaussian",
                   help="sets the gate slot durations")

    s = command("optimize-pulse", cmd_optimize_pulse, "shape one native-gate pulse",
                lambda_hz, out)
    s.add_argument("--gate", choices=GATE_KINDS, required=True)
    s.add_argument("--backend", choices=BACKENDS, default=defaults.backend)
    s.add_argument("--neighbors", type=int, default=1)

    s = command("simulate", cmd_simulate, "run a plan on sampled devices",
                topology, pulses, strengths, out)
    s.add_argument("--plan", required=True)
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)

    s = command("ramsey", cmd_ramsey, "probe the effective ZZ strength",
                topology, pulses, lambda_hz, out)
    s.add_argument("--policy",
                   choices=("bare", "suppressed_B", "suppressed_C"),
                   default="bare")
    s.add_argument("--probe", type=int, default=0)
    s.add_argument("--control", type=int, default=1)

    s = command("sweep", cmd_sweep, "infidelity vs coupling strength curve", out)
    s.add_argument("--scenario",
                   choices=("single_gate_pair", "two_gate_chain"),
                   default="single_gate_pair")
    s.add_argument("--pulse", required=True)
    s.add_argument("--lambda-hz-min", type=float, default=10e3)
    s.add_argument("--lambda-hz-max", type=float, default=200e3)
    s.add_argument("--points", type=int, default=7)

    s = command("report", cmd_report, "full pipeline with summary table",
                topology, circuit, cut, thresholds, strengths)
    s.add_argument("--policy", choices=("zzx", "par", "both"), default=defaults.policy)
    s.add_argument("--backend", choices=BACKENDS, default=defaults.backend)
    s.add_argument("--samples", type=int, default=len(defaults.seeds))
    s.add_argument("--out-dir", default=defaults.out_dir)
    s.add_argument("--seed", type=int, default=defaults.seeds[0])
    s.add_argument("--verbose", action="store_true")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc.module}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
