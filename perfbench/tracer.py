"""Span recorder that wraps zzsched's public functions from the outside.

Nothing in the package is edited: `Tracer.install` replaces each public
function of each module with a timing wrapper wherever callers look it up,
that is in the defining module and in every package module that bound it
with `from ... import`. Spans stay in memory with their parent ids and are
written as JSONL once the run ends.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# bound before any wrapper is installed, so annotators make no spans
from zzsched.pulse import num_steps

MODULES = ("cli", "circuit", "topology", "suppression", "scheduler", "pulse",
           "quantumsim")


class Tracer:
    """In-memory span list; the open-span stack gives each span its parent.

    `install` swaps the wrappers in and `uninstall` puts the package's own
    functions back, so untraced tasks run the package untouched.
    """

    def __init__(self, annotators):
        self.spans = []  # [id, parent, name, start, end, attrs]
        self.stack = []
        self.bindings = []  # (module, alias, function, wrapper)
        mods = {m: importlib.import_module(f"zzsched.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn, annotators.get(name))
                # the defining module and every `from ... import` binding
                for other in mods.values():
                    for alias, val in vars(other).items():
                        if val is fn:
                            self.bindings.append((other, alias, fn, wrapper))

    def install(self):
        for mod, alias, _, wrapper in self.bindings:
            setattr(mod, alias, wrapper)

    def uninstall(self):
        for mod, alias, fn, _ in self.bindings:
            setattr(mod, alias, fn)

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None,
                    name, time.perf_counter(), None, None]
            self.spans.append(span)
            self.stack.append(span[0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
                attrs = {"error": f"{type(exc).__name__}: {exc}"} if exc else {}
                if annotate is not None:
                    attrs.update(annotate(args, kwargs, result, exc))
                span[5] = attrs
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


# ------------------------------------------------------------ per-layer view

PER_LAYER_UNITS = {
    "quantumsim.simulate_plan.calls": "count",
    "quantumsim.simulate_plan.self_s": "s",
    "quantumsim.steps_per_s.n6": "1/s",
    "quantumsim.steps_per_s.n9": "1/s",
    "quantumsim.steps_per_s.n12": "1/s",
    "quantumsim.sample_device.self_s": "s",
    "quantumsim.ramsey_experiment.self_s": "s",
    "quantumsim.suppression_sweep.self_s": "s",
    "pulse.optimize.calls": "count",
    "pulse.optimize.iterations": "count",
    "pulse.optimize.converged_ratio": "1",
    "pulse.optimize.pert.rx90.self_s": "s",
    "pulse.optimize.pert.id.self_s": "s",
    "pulse.optimize.pert.rzx90.self_s": "s",
    "pulse.optimize.optctrl.rx90.self_s": "s",
    "pulse.evolve.self_s": "s",
    "pulse.control_unitary.self_s": "s",
    "suppression.alpha_optimal.calls": "count",
    "suppression.alpha_optimal.self_s": "s",
    "suppression.alpha_optimal.failed": "count",
    "suppression.alpha_optimal.distinct_ratio": "1",
    "suppression.alpha_optimal.warning_ratio": "1",
    "topology.dual_graph.calls": "count",
    "topology.dual_graph.self_s": "s",
    "topology.cut_from_contraction.calls": "count",
    "topology.cut_from_contraction.self_s": "s",
    "scheduler.schedule.self_s": "s",
    "scheduler.par_sched.self_s": "s",
    "scheduler.two_q_schedule.calls": "count",
    "scheduler.two_q_schedule.self_s": "s",
    "scheduler.layers": "count",
    "circuit.to_native.self_s": "s",
    "circuit.native_gates": "count",
    "cli.run_pipeline.self_s": "s",
    "cli.provision_pulses.self_s": "s",
    "cli.pulse_cache_hit_ratio": "1",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
    "trace.overhead.task_p50_s": "s",
    "trace.overhead.work_per_s": "1/s",
}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _ann_simulate(args, kwargs, result, exc):
    plan = _arg(args, kwargs, 1, "plan")
    pulses = _arg(args, kwargs, 2, "pulses")
    rate = _arg(args, kwargs, 6, "rate")
    if rate is None:
        specs = [getattr(p, "spec", p) for p in pulses.values()]
        rate = max((s.sample_rate for s in specs), default=200)
    steps = sum(num_steps(layer.duration, rate) for layer in plan.layers)
    return {"n": plan.num_qubits, "steps": steps}


def _ann_optimize(args, kwargs, result, exc):
    attrs = {"target": _arg(args, kwargs, 1, "target"),
             "backend": _arg(args, kwargs, 2, "backend")}
    if result is not None:
        attrs.update(iterations=int(result.iterations),
                     converged=bool(result.converged))
    return attrs


def _ann_alpha(args, kwargs, result, exc):
    g = _arg(args, kwargs, 0, "g")
    q = _arg(args, kwargs, 1, "q")
    attrs = {"key": [g.num_qubits, len(g.edges), sorted(q)]}
    if result is not None:
        attrs["warning"] = bool(result.warning or result.repaired)
    return attrs


def _ann_plan(args, kwargs, result, exc):
    return {"layers": len(result.layers)} if result is not None else {}


def _ann_native(args, kwargs, result, exc):
    return {"gates": len(result.gates)} if result is not None else {}


ANNOTATORS = {
    "quantumsim.simulate_plan": _ann_simulate,
    "pulse.optimize": _ann_optimize,
    "suppression.alpha_optimal": _ann_alpha,
    "scheduler.schedule": _ann_plan,
    "scheduler.par_sched": _ann_plan,
    "circuit.to_native": _ann_native,
}


def _raw(spans, own):
    """Additive quantities of one task's spans."""
    raw = defaultdict(float)
    keys = set()
    for s, t in zip(spans, own):
        name, attrs = s[2], s[5]
        raw[f"{name}.calls"] += 1
        raw[f"{name}.self_s"] += t
        if name == "quantumsim.simulate_plan":
            raw[f"steps.n{attrs['n']}"] += attrs["steps"]
            raw[f"seconds.n{attrs['n']}"] += s[4] - s[3]
        elif name == "pulse.optimize":
            raw[f"{name}.{attrs['backend']}.{attrs['target']}.self_s"] += t
            raw[f"{name}.iterations"] += attrs.get("iterations", 0)
            raw["converged"] += bool(attrs.get("converged"))
        elif name == "suppression.alpha_optimal":
            raw[f"{name}.failed"] += "error" in attrs
            raw["warnings"] += bool(attrs.get("warning"))
            keys.add(json.dumps(attrs["key"]))
        elif name in ("scheduler.schedule", "scheduler.par_sched"):
            raw["scheduler.layers"] += attrs.get("layers", 0)
        elif name == "circuit.to_native":
            raw["circuit.native_gates"] += attrs.get("gates", 0)
    raw["distinct"] = len(keys)
    raw["trace.spans"] = len(spans)
    return raw


def per_layer(spans, tasks):
    """Per-layer metrics for one pass over the task list.

    tasks holds (kind, first span, end span, (pulse files found, kinds
    requested)) per traced task run. Each quantity is averaged over the
    runs of a kind and summed over kinds, so repeated tasks do not weigh
    more; ratios divide those per-pass sums.
    """
    own = self_times(spans)
    by_kind = {}
    for kind, a, b, (found, asked) in tasks:
        raw = _raw(spans[a:b], own[a:b])
        raw["cache_found"], raw["cache_asked"] = found, asked
        by_kind.setdefault(kind, []).append(raw)
    tot = defaultdict(float)
    for rows in by_kind.values():
        for row in rows:
            for k, v in row.items():
                tot[k] += v / len(rows)

    def ratio(num, den):
        return tot[num] / tot[den] if tot[den] else 0.0

    out = {k: tot[k] for k, unit in PER_LAYER_UNITS.items() if unit in ("s", "count")}
    for n in (6, 9, 12):
        out[f"quantumsim.steps_per_s.n{n}"] = ratio(f"steps.n{n}", f"seconds.n{n}")
    out["pulse.optimize.converged_ratio"] = ratio("converged", "pulse.optimize.calls")
    out["suppression.alpha_optimal.distinct_ratio"] = ratio(
        "distinct", "suppression.alpha_optimal.calls")
    out["suppression.alpha_optimal.warning_ratio"] = ratio(
        "warnings", "suppression.alpha_optimal.calls")
    out["cli.pulse_cache_hit_ratio"] = ratio("cache_found", "cache_asked")
    return out
