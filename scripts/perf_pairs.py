"""Compare two revisions on one perfbench workload in alternating pairs.

    python3 scripts/perf_pairs.py PARENT CHANGE --workload report --seed 51 --pairs 10

Each revision is unpacked with `git archive` into `<dir>/pa` and `<dir>/ch`,
paths of the same length: the process heap's layout follows the path, and
the layout alone can move a workload's speed. For seed s the parent runs
first when s is odd and the change first when it is even. Each side's runs
are summed up per end-to-end metric of BENCHMARK.json: the median, the
quartiles, and the pairs the change wins. Per task kind it then prints the
median `p50_s` of each side, read from the result file perfbench writes
for each run (`.perfbench_out/result-<workload>-seed<s>-trace0.json` in
each tree), and their ratio, parent over change, which shows the kinds
that carry a gain. The exit status is 1 when any run reads
`correct: false`.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("pa", "ch")


def checkout(rev, dest):
    """Unpack revision rev of this repository into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree, workload, seed, seconds):
    """The closing JSON line of one perfbench run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}


def kind_p50s(tree, workload, seed):
    """Per task kind, p50_s of the untraced run perfbench wrote for seed in tree."""
    path = tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    try:
        return {k: v["p50_s"] for k, v in json.loads(path.read_text())["kinds"].items()}
    except (OSError, ValueError, KeyError):
        return {}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, metrics):
    """One line per metric: medians, parent quartiles, change quartiles, wins."""
    lines = []
    for m in metrics:
        name = m["name"]
        vals = {side: [r[side]["metrics"][name]["value"] for r in runs
                       if name in r[side]["metrics"]] for side in SIDES}
        if not all(vals.values()) or len(vals["pa"]) != len(vals["ch"]):
            lines.append(f"{name:<12} missing in some runs")
            continue
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["pa"], vals["ch"]))
        pq, cq = quartiles(vals["pa"]), quartiles(vals["ch"])
        lines.append(
            f"{name:<12} median {statistics.median(vals['pa']):.4g} -> "
            f"{statistics.median(vals['ch']):.4g} {m['unit']}, quartiles "
            f"{pq[0]:.4g}-{pq[1]:.4g} -> {cq[0]:.4g}-{cq[1]:.4g}, "
            f"change better in {wins} of {len(vals['pa'])}")
    return lines


def summarize_kinds(kinds):
    """One line per task kind: each side's median p50_s and parent / change."""
    names = list(dict.fromkeys(k for side in SIDES for run in kinds[side] for k in run))
    lines = []
    for name in names:
        med = {side: statistics.median(v) for side in SIDES
               if (v := [run[name] for run in kinds[side] if name in run])}
        if len(med) == len(SIDES):
            lines.append(f"{name:<24} p50 {med['pa']:.4g} -> {med['ch']:.4g} s, "
                         f"parent/change {med['pa'] / med['ch']:.3f}")
    return lines


def main(parent, change, workload, seed, pairs, seconds, workdir=None):
    root = Path(workdir or tempfile.mkdtemp(prefix="perf-pairs-"))
    trees = {side: root / side for side in SIDES}
    try:
        for side, rev in zip(SIDES, (parent, change)):
            checkout(rev, trees[side])
        metrics = json.loads((trees["ch"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs, bad = [], 0
        kinds = {side: [] for side in SIDES}
        for s in range(seed, seed + pairs):
            order = SIDES if s % 2 else SIDES[::-1]
            run = {side: run_once(trees[side], workload, s, seconds) for side in order}
            for side in SIDES:
                kinds[side].append(kind_p50s(trees[side], workload, s))
                res = run[side]
                if not res.get("correct"):
                    bad += 1
                    print(f"seed {s} {side}: correct={res.get('correct')} "
                          f"failed={res.get('failed')} {res.get('error', '')}")
            runs.append(run)
            print(f"seed {s} done ({'parent' if s % 2 else 'change'} first)", file=sys.stderr)
        print(f"{workload}: {parent} -> {change}, seeds {seed}-{seed + pairs - 1}")
        for line in summarize(runs, metrics):
            print(f"  {line}")
        kind_lines = summarize_kinds(kinds)
        if kind_lines:
            print("  per task kind, median p50_s:")
        for line in kind_lines:
            print(f"    {line}")
        return 1 if bad else 0
    finally:
        if workdir is None:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="the revision compared against, such as HEAD~1")
    p.add_argument("change", help="the revision measured, such as HEAD")
    p.add_argument("--workload", required=True,
                   choices=("report", "ensemble", "schedule", "pulses"))
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--dir", default=None,
                   help="where to unpack the two trees (must not hold pa/ or ch/); "
                        "a temporary directory, removed afterwards, by default")
    args = p.parse_args()
    sys.exit(main(args.parent, args.change, args.workload, args.seed, args.pairs,
                  args.seconds, args.dir))
