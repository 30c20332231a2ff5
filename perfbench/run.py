"""zzsched benchmark: closed-loop workloads against the public API.

    python3 perfbench/run.py --workload report --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick            # self-test, every workload
    python3 perfbench/run.py --record-golden    # rewrite perfbench/golden.json

One client runs a workload's task list as rounds, back to back, in this
process and on one thread; the first round always completes, later rounds
stop once --seconds have passed. Every task's output is compared with the
golden record. The last stdout line is the JSON result; with --trace 1
its metrics are the per-layer numbers from wrapped package functions.
A helper process (speedref.py) samples the machine's speed on the same
CPU, to scale the times by. Results and span files go to .perfbench_out/
at the checkout root.
"""

import os
import sys

# one thread of load: pin the BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# String hashes are salted per interpreter, and with them the order of
# string-keyed sets and dicts; some package paths run 1.5x faster or
# slower from one process to the next with it. A fixed salt makes runs
# comparable, so the launcher restarts itself with one.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SETUP_REPS = 3
# the package import is timed in this many fresh interpreters
IMPORT_REPS = 5
# short tasks repeat within a round until this much time is spent on them
# (at most MAX_REPS runs), so their median is not one noisy sample
KIND_SECONDS = 0.5
MAX_REPS = 10

# Machine speed on a shared host changes from minute to minute, and each
# virtual CPU also jumps by up to 2x for a second or so at a time. Every
# timed task, import and set-up is therefore multiplied by REF_SECONDS
# over the mean CPU time of a reference kernel that a helper process runs
# every SAMPLE_INTERVAL seconds, on the CPU the run is pinned to
# (speedref.py), taken over the samples from WINDOW_MARGIN before it
# started to WINDOW_MARGIN after it ended. Samples taken only between
# tasks would miss what a 10 s task saw. Figures are seconds on a machine
# where the kernel takes REF_SECONDS; raw wall times and the samples are
# kept in the result file.
REF_SECONDS = 0.002
SAMPLE_INTERVAL = 0.1
WINDOW_MARGIN = 0.15

IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t0 = time.perf_counter(); import numpy, zzsched; "
               "from zzsched import circuit, cli, pulse, quantumsim, scheduler, "
               "suppression, topology; print(t0, time.perf_counter() - t0)")

E2E_UNITS = {"setup_s": "s", "task_p50_s": "s", "work_per_s": "1/s",
             "peak_rss_mb": "MB"}


def load_package():
    """Import the checkout's zzsched and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "zzsched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'zzsched'}")
    sys.path.insert(0, str(src))
    import zzsched
    global W, T
    import tracer as T
    import workloads as W
    if Path(zzsched.__file__).resolve().parent != src / "zzsched":
        raise SystemExit(f"perfbench: imported zzsched from {zzsched.__file__}")


def environment():
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


class SpeedMeter:
    """Pins this process to one CPU and samples that CPU's speed from a
    helper process (speedref.py) while the `with` block runs."""

    def __enter__(self):
        self.affinity = os.sched_getaffinity(0)
        # children (the helper, the import runs) inherit the pinning
        os.sched_setaffinity(0, {min(self.affinity)})
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedref.py"), str(SAMPLE_INTERVAL)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # its own start-up would slow the first thing timed on the CPU
        self.proc.stdout.readline()
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate(timeout=60)
        os.sched_setaffinity(0, self.affinity)
        self.samples = json.loads(out)

    def factor(self, start, end):
        """Speed factor around [start, end]; the whole run's if no sample
        fell there."""
        ks = ([k for t, k in self.samples
               if start - WINDOW_MARGIN <= t <= end + WINDOW_MARGIN]
              or [k for _, k in self.samples])
        return REF_SECONDS / statistics.fmean(ks)

    def scaled(self, start, seconds):
        return seconds * self.factor(start, start + seconds)


def import_times(reps):
    """(start, seconds) of importing numpy and the package, each time in a
    fresh interpreter."""
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        start, seconds = out.stdout.split()[-2:]
        times.append((float(start), float(seconds)))
    return times


# --------------------------------------------------------------- one task


def compare(entry, expected):
    if expected is None:
        raise W.CheckFailed("no golden record for this task")
    if set(entry) != set(expected):
        raise W.CheckFailed(f"golden fields {sorted(expected)} != {sorted(entry)}")
    for key, val in entry.items():
        ref = expected[key]
        if key == "sha":
            ok = val == ref
        elif len(val) != len(ref):
            ok = False
        elif key == "fid":
            ok = all(abs(a - b) <= 1e-9 for a, b in zip(val, ref))
        else:
            ok = all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
                     for a, b in zip(val, ref))
        if not ok:
            raise W.CheckFailed(f"{key} {val} != golden {ref}")


def run_task(wl, kind, v, state, tmp, golden, tr=None):
    """Run one task, timed, then check it; failures are recorded, not raised."""
    rec = {"kind": kind, "variant": v, "traced": tr is not None, "ok": False,
           "work": 0, "start": 0.0, "elapsed": 0.0, "error": None}
    if tr is not None:
        rec["spans"] = (len(tr.spans), len(tr.spans))
    try:
        wl.prepare(kind, v, state, tmp)
        if tr is not None:
            tr.install()
        rec["start"] = t0 = time.perf_counter()
        try:
            out = wl.run(kind, v, state)
        finally:
            rec["elapsed"] = time.perf_counter() - t0
            if tr is not None:
                tr.uninstall()
                rec["spans"] = (rec["spans"][0], len(tr.spans))
    except Exception as exc:  # a failed task is a result, not a crash
        stage = getattr(exc, "module", wl.stage(kind))
        rec["error"] = f"[{stage}] {type(exc).__name__}: {exc}"
        return rec
    try:
        work, entry = wl.result(kind, v, out, state)
        if golden is not None:
            table = golden.get(kind, {})
            compare(entry, table.get(str(v), table.get("*")))
    except W.CheckFailed as exc:
        rec["error"] = f"[check] {exc}"
        return rec
    rec.update(ok=True, work=work, entry=entry)
    return rec


def measure(wl, kinds, seed, seconds, tmp, golden, tr=None):
    """Rounds of the task list until `seconds` pass; the first round always
    completes. With a tracer, round 0 runs each task untraced and then
    traced (the overhead pairs) and later rounds run traced only.

    Returns (task records, round-0 untraced state).
    """
    records = []
    first = None
    start = time.perf_counter()
    r = 0
    while True:
        v = (seed + r) % W.VARIANTS
        states = {False: {}, True: {}}
        if first is None:
            first = states[False]
        for kind in kinds:
            if r > 0 and time.perf_counter() - start >= seconds:
                return records, first
            copies = (False,) if tr is None else ((False, True) if r == 0 else (True,))
            for traced in copies:
                batch = []
                while len(batch) < MAX_REPS:
                    rec = run_task(wl, kind, v, states[traced], tmp, golden,
                                   tr if traced else None)
                    rec.update(round=r, cache=states[traced].pop("cache", (0, 0)))
                    batch.append(rec)
                    if not rec["ok"] or sum(b["elapsed"] for b in batch) >= KIND_SECONDS:
                        break
                records.extend(batch)
        r += 1


# ---------------------------------------------------------------- metrics


def kind_stats(records):
    """kind -> (median scaled seconds, median work units), in task-list
    order. A failed task counts as +inf seconds, never as a fast one."""
    by = {}
    for rec in records:
        by.setdefault(rec["kind"], []).append(rec)
    return {k: (statistics.median(r["scaled"] if r["ok"] else math.inf for r in recs),
                statistics.median(r["work"] for r in recs))
            for k, recs in by.items()}


def end_to_end(records):
    """task_p50_s and work_per_s over one balanced pass of the task list.

    Each kind contributes its median, so the mix does not depend on where
    the time limit cut the last round. A kind whose median task failed
    takes +inf seconds, which makes the rate 0.
    """
    stats = kind_stats(records)
    secs = sum(s[0] for s in stats.values())
    return {"task_p50_s": statistics.median(s[0] for s in stats.values()),
            "work_per_s": sum(s[1] for s in stats.values()) / secs}


def block(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ------------------------------------------------------------------- modes


def run_workload(name, seed, seconds, trace, kinds=None, reps=SETUP_REPS):
    wl = W.WORKLOADS[name]()
    kinds = kinds or wl.kinds
    golden = json.loads(GOLDEN.read_text()).get(name, {}) if GOLDEN.exists() else {}
    OUT.mkdir(exist_ok=True)
    with SpeedMeter() as meter, tempfile.TemporaryDirectory(dir=OUT) as tmp:
        imports = import_times(IMPORT_REPS if reps > 1 else 1)
        setups = []
        for _ in range(reps):
            t0 = time.perf_counter()
            wl.setup()
            setups.append((t0, time.perf_counter() - t0))
        tr = T.Tracer(T.ANNOTATORS) if trace else None
        t_loop = time.perf_counter()
        records, first = measure(wl, kinds, seed, seconds, Path(tmp), golden, tr)
        t_end = time.perf_counter()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = []
        for pname, call, expect in wl.probes():
            try:
                call(Path(tmp))
                status, text = "fixed", "completed"
            except Exception as exc:  # the probe's point is the exception
                text = f"[{getattr(exc, 'module', wl.stage(pname))}] {exc}"
                status = "present" if expect in text else "changed"
            probes.append({"name": pname, "status": status, "error": text})
        oracles = [{"name": n, "ok": bool(ok), "detail": d}
                   for n, ok, d in wl.oracles(seed % W.VARIANTS, first)]

    for rec in records:
        rec["scaled"] = meter.scaled(rec["start"], rec["elapsed"])
    untraced = [r for r in records if not r["traced"]]
    stats = kind_stats(untraced)
    e2e = end_to_end(untraced)
    e2e.update(setup_s=statistics.median(meter.scaled(*x) for x in imports)
               + statistics.median(meter.scaled(*x) for x in setups),
               peak_rss_mb=peak_mb)
    # timed tasks may not fail (the known failures run as probes), so any
    # failed task, by exception or by output check, makes the run incorrect
    failed = sum(1 for r in records if not r["ok"])
    correct = failed == 0 and all(o["ok"] for o in oracles)
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "environment": environment(), "speed": meter.factor(t_loop, t_end),
           "kernel_cpu_s": [k for _, k in meter.samples],
           "import_runs_s": [s for _, s in imports],
           "setup_runs_s": [s for _, s in setups], "end_to_end": e2e,
           "issue_metrics": wl.issue_metrics(stats, e2e),
           "fail_ratio": failed / len(records),
           "kinds": {k: {"p50_s": s[0], "work": s[1],
                         "wall_s": statistics.median(r["elapsed"] for r in records
                                                     if r["kind"] == k and not r["traced"])}
                     for k, s in stats.items()},
           "tasks": [[r["kind"], r["round"], r["traced"], r["elapsed"]]
                     for r in records],
           "errors": [f"{r['kind']} v{r['variant']}: {r['error']}"
                      for r in records if r["error"]],
           "probes": probes, "oracles": oracles}
    if trace:
        traced = [r for r in records if r["traced"]]
        layer = T.per_layer(tr.spans, [(r["kind"], *r["spans"], r["cache"])
                                       for r in traced])
        # round 0 ran every task untraced and then traced on the same inputs
        paired = [r for r in traced if r["round"] == 0]
        with_t, without = end_to_end(paired), end_to_end(untraced)
        layer["trace.overhead.task_p50_s"] = with_t["task_p50_s"] - without["task_p50_s"]
        layer["trace.overhead.work_per_s"] = with_t["work_per_s"] - without["work_per_s"]
        secs_t = sum(s[0] for s in kind_stats(paired).values())
        secs_u = sum(s[0] for s in stats.values())
        layer["trace.overhead_ratio"] = secs_t / secs_u - 1
        doc["per_layer"] = layer
        tr.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1, default=str) + "\n")
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": block(doc["per_layer"], T.PER_LAYER_UNITS) if trace
              else block(e2e, E2E_UNITS)}
    return doc, result


def print_summary(doc):
    env = doc["environment"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} trace={int(doc['trace'])} "
          f"| {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']} | speed factor {doc['speed']:.3f}")
    for k, s in doc["kinds"].items():
        print(f"  {k:<22} p50 {s['p50_s']:9.4f} s (wall {s['wall_s']:9.4f} s)  "
              f"work {s['work']}")
    shown = dict(doc["end_to_end"], fail_ratio=doc["fail_ratio"], **doc["issue_metrics"])
    units = dict(E2E_UNITS, fail_ratio="1", report_cold_s="s", report_warm_s="s",
                 sim_samples_per_s="1/s", gates_per_s="1/s", pulses_per_s="1/s")
    for k, val in shown.items():
        print(f"  {k:<22} {val:.6g} {units[k]}")
    for e in doc["errors"]:
        print(f"  failed: {e}")
    for p in doc["probes"]:
        print(f"  known defect {p['name']}: {p['status']} ({p['error']})")
    for o in doc["oracles"]:
        print(f"  oracle {o['name']}: {'ok' if o['ok'] else 'FAILED'} ({o['detail']})")
    if doc["trace"]:
        for k in T.PER_LAYER_UNITS:
            val = doc["per_layer"][k]
            print(f"  {k:<42} {val:.6g} {T.PER_LAYER_UNITS[k]}")


def quick():
    """Smallest tasks of every workload, traced and untraced; checks that
    the metric names and units match BENCHMARK.json and that every output
    check, probe and oracle ran."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name, wl in W.WORKLOADS.items():
        doc, result = run_workload(name, 0, 0, False, wl.quick_kinds, 1)
        tdoc, tresult = run_workload(name, 0, 0, True, wl.quick_kinds, 1)
        print_summary(tdoc)
        got_e2e = {k: m["unit"] for k, m in result["metrics"].items()}
        got_layer = {k: m["unit"] for k, m in tresult["metrics"].items()}
        if got_e2e != want_e2e:
            problems.append(f"{name}: end-to-end metrics {got_e2e} != {want_e2e}")
        if got_layer != want_layer:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
        for d, res in ((doc, result), (tdoc, tresult)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{name}: correct={res['correct']} "
                                f"failed={res['failed']} {d['errors']}")
        if not doc["oracles"]:
            problems.append(f"{name}: no oracle ran")
        if any(p["status"] != "present" for p in doc["probes"]):
            problems.append(f"{name}: known defect changed {doc['probes']}")
    for p in problems:
        print(f"quick: {p}")
    print("quick: ok" if not problems else f"quick: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record_golden(names):
    """Run every kind at every variant and store its output entries; a kind
    whose output is the same at every variant is stored once, as "*"."""
    OUT.mkdir(exist_ok=True)
    for name in names:
        wl = W.WORKLOADS[name]()
        wl.setup()
        table = {}
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for v in range(W.VARIANTS):
                state = {}
                for kind in wl.kinds:
                    rec = run_task(wl, kind, v, state, Path(tmp), None)
                    if not rec["ok"]:
                        raise SystemExit(f"{name} {kind} v{v}: {rec['error']}")
                    table.setdefault(kind, {})[str(v)] = rec["entry"]
                print(f"recorded {name} variant {v}", file=sys.stderr)
        for kind, entries in table.items():
            if len({json.dumps(e, sort_keys=True) for e in entries.values()}) == 1:
                table[kind] = {"*": entries["0"]}
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[name] = table
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("report", "ensemble", "schedule", "pulses"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    load_package()
    if args.record_golden:
        record_golden([args.workload] if args.workload else list(W.WORKLOADS))
        return 0
    if args.workload is None and not args.quick:
        p.error("--workload is required")
    if args.quick:
        return quick()
    # a traced run reports no setup_s, so one set-up is enough
    doc, result = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), reps=1 if args.trace else SETUP_REPS)
    print_summary(doc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
