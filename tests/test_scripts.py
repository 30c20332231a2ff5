"""Each script under scripts/ imports against the current package API.

The scripts call the package through names imported `from zzsched.<module>`.
Importing a script runs none of those calls, so every call is also read
with ast and bound against the current signature: a renamed or deleted
keyword fails here rather than when someone runs the script.
"""

import ast
import json
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports, not the __main__ block
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def package_calls(source, filename):
    """(module, name, call node) per call in source to a name imported
    from zzsched.<module>."""
    tree = ast.parse(source, filename=filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zzsched."):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    return [(*imported[node.func.id], node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported]


def bind_error(module, name, call):
    """The TypeError binding call's arguments to module.name raises, or None."""
    obj = getattr(importlib.import_module(module), name)
    positional = 0 if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
    keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
    try:
        inspect.signature(obj).bind_partial(*[None] * positional,
                                            **dict.fromkeys(keywords))
    except TypeError as exc:
        return (f"{module}.{name} with {positional} positional and keywords "
                f"{keywords}: {exc}")
    return None


CALLS = [(path.stem, *c) for path in SCRIPTS for c in package_calls(path.read_text(), str(path))]


def test_scripts_call_the_package():
    assert {name for _, _, name, _ in CALLS} >= {
        "ramsey_experiment", "uniform_device", "simulate_ensemble", "suppression_sweep"}


@pytest.mark.parametrize("script,module,name,call", CALLS,
                         ids=[f"{s}:{n}:{c.lineno}" for s, _, n, c in CALLS])
def test_script_call_binds(script, module, name, call):
    error = bind_error(module, name, call)
    if error:
        pytest.fail(f"{script}.py:{call.lineno} calls {error}")


def test_sweep_suppression_writes_csvs(tmp_path, monkeypatch):
    # the one script that sweeps against an exact target gate
    module = _load(next(p for p in SCRIPTS if p.stem == "sweep_suppression"))
    monkeypatch.chdir(tmp_path)
    module.main(10e3, 200e3, 3, 200e3)
    for label in ("pert", "gauss"):
        for kind in ("rx90", "id"):
            rows = (tmp_path / f"sweep_{label}_{kind}.csv").read_text().splitlines()
            assert rows[0] == "lambda_hz,infidelity"
            assert len(rows) == 4


def test_ramsey_demo_writes_fringes(tmp_path, monkeypatch, capsys):
    module = _load(next(p for p in SCRIPTS if p.stem == "ramsey_demo"))
    monkeypatch.chdir(tmp_path)
    module.main(200e3, "fringes.csv")
    rows = (tmp_path / "fringes.csv").read_text().splitlines()
    assert rows[0] == "tau_s,p_control0,p_control1"
    assert len(rows) == 65
    zz_khz = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] == "kHz":
            zz_khz[parts[0]] = float(parts[1])
    assert list(zz_khz) == ["bare", "suppressed_B", "suppressed_C"]
    assert zz_khz["bare"] == pytest.approx(800.0, rel=0.05)


def test_perf_pairs_alternates_and_flags_incorrect_runs(tmp_path, monkeypatch, capsys):
    module = _load(next(p for p in SCRIPTS if p.stem == "perf_pairs"))
    bench = (Path(module.__file__).resolve().parent.parent / "BENCHMARK.json").read_text()

    def checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(bench)

    order = []
    speed = {"pa": 1.0, "ch": 1.2}

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        order.append((seed, side))
        value = speed[side] + 0.01 * seed
        return {"correct": not (side == "ch" and seed == 4), "failed": 0,
                "metrics": {"work_per_s": {"value": value, "unit": "1/s"},
                            "task_p50_s": {"value": 1 / value, "unit": "s"}}}

    monkeypatch.setattr(module, "checkout", checkout)
    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main("A", "B", "report", 1, 4, 15, tmp_path / "w") == 1
    # the parent first on odd seeds, the change first on even ones
    assert order == [(1, "pa"), (1, "ch"), (2, "ch"), (2, "pa"),
                     (3, "pa"), (3, "ch"), (4, "ch"), (4, "pa")]
    out = capsys.readouterr().out
    assert "seed 4 ch: correct=False" in out
    assert "work_per_s   median 1.025 -> 1.225 1/s" in out
    assert "change better in 4 of 4" in out.split("work_per_s")[1].splitlines()[0]
    assert "change better in 4 of 4" in out.split("task_p50_s")[1].splitlines()[0]
    assert "setup_s      missing in some runs" in out


def test_perf_pairs_prints_kind_medians(tmp_path, monkeypatch, capsys):
    # the per-kind table comes from the result files perfbench writes in
    # each tree; a kind one side lacks is left out
    module = _load(next(p for p in SCRIPTS if p.stem == "perf_pairs"))
    bench = (Path(module.__file__).resolve().parent.parent / "BENCHMARK.json").read_text()

    def checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(bench)

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        kinds = {"opt.a": {"p50_s": (0.2 if side == "pa" else 0.1) * seed},
                 "sweep.b": {"p50_s": 0.05}}
        if side == "ch":
            kinds["ch.only"] = {"p50_s": 1.0}
        out = tree / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"result-{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"kinds": kinds}))
        return {"correct": True, "failed": 0,
                "metrics": {"work_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(module, "checkout", checkout)
    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main("A", "B", "pulses", 1, 3, 15, tmp_path / "w") == 0
    out = capsys.readouterr().out
    lines = out.split("per task kind, median p50_s:\n")[1].splitlines()
    assert [ln.split()[0] for ln in lines] == ["opt.a", "sweep.b"]
    assert "p50 0.4 -> 0.2 s, parent/change 2.000" in lines[0]
    assert "p50 0.05 -> 0.05 s, parent/change 1.000" in lines[1]
