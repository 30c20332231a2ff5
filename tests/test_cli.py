"""Tests for the command-line pipeline and its file artifacts."""

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from zzsched import cli, pulse
from zzsched.circuit import Circuit, benchmark, load_circuit, save_circuit
from zzsched.cli import RunConfig, main, run_pipeline
from zzsched.pulse import load_pulse, native_pulse, save_pulse
from zzsched.scheduler import load_plan
from zzsched.topology import grid_snake_order, grid_topology, line_topology, save_topology

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Topologies, a benchmark circuit, and one full pipeline run."""
    ws = tmp_path_factory.mktemp("cli")
    save_topology(ws / "g23.json", grid_topology(2, 3))
    save_topology(ws / "line2.json", line_topology(2))
    assert main(["bench", "--name", "qft", "--n", "4", "--grid", "2x3",
                 "--out", str(ws / "qft4.zzq")]) == 0
    assert main(["report", "--topology", str(ws / "g23.json"),
                 "--circuit", str(ws / "qft4.zzq"), "--backend", "pert",
                 "--samples", "2", "--out-dir", str(ws / "runs")]) == 0
    return ws


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig("t.json", "c.zzq")
        assert cfg.alpha == 0.5
        assert cfg.k == 3
        assert cfg.policy == "both"
        assert cfg.backend == "pert"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig("t", "c", policy="serial")
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                RunConfig("t", "c", alpha=alpha)
        with pytest.raises(ValueError):
            RunConfig("t", "c", k=0)
        with pytest.raises(ValueError):
            RunConfig("t", "c", nq_max=0)
        # operator.index, as for k: a fraction or NaN fails here, and a numpy
        # int becomes the Python int report.json writes
        for nq_max in (2.5, math.nan):
            with pytest.raises(TypeError):
                RunConfig("t", "c", nq_max=nq_max)
        cfg = RunConfig("t", "c", nq_max=np.int64(3))
        assert type(cfg.nq_max) is int and cfg.nq_max == 3
        json.dumps(cfg.to_json())
        for nc_max in (-1.0, math.nan):
            with pytest.raises(ValueError):
                RunConfig("t", "c", nc_max=nc_max)
        with pytest.raises(ValueError):
            RunConfig("t", "c", backend="grape")
        with pytest.raises(ValueError):
            RunConfig("t", "c", lambda_mu_hz=-1.0)
        # NaN and inf slip past a `< 0` test
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RunConfig("t", "c", lambda_mu_hz=bad)
            with pytest.raises(ValueError):
                RunConfig("t", "c", lambda_sigma_hz=bad)
        with pytest.raises(ValueError):
            RunConfig("t", "c", seeds=())

    def test_integer_k_and_seeds(self):
        for kwargs in ({"k": 2.5}, {"seeds": (1.5,)}, {"seeds": (0, "1")}):
            with pytest.raises(TypeError):
                RunConfig("t", "c", **kwargs)
        for seeds in ((-1,), (3, -2)):
            with pytest.raises(ValueError, match="nonnegative"):
                RunConfig("t", "c", seeds=seeds)
        cfg = RunConfig("t", "c", k=np.int64(2), seeds=(np.int64(4), 5))
        assert (type(cfg.k), cfg.seeds) == (int, (4, 5))
        assert all(type(s) is int for s in cfg.seeds)
        json.dumps(cfg.to_json())


class TestBench:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.zzq", tmp_path / "b.zzq"
        for out in (a, b):
            assert main(["bench", "--name", "ising", "--n", "4",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(load_circuit(a).gates) > 0

    def test_grid_embedding(self, workspace):
        c = load_circuit(workspace / "qft4.zzq")
        # chain positions 0..3 land on snake qubits 0,1,2,5 of the 2x3 grid
        assert c.num_qubits == 6
        used = {q for g in c.gates for q in g.qubits}
        assert used == {0, 1, 2, 5}

    def test_unknown_name(self, tmp_path, capsys):
        code = main(["bench", "--name", "vqe", "--n", "4",
                     "--out", str(tmp_path / "x.zzq")])
        assert code == 1
        assert "[circuit]" in capsys.readouterr().err


class TestSuppress:
    def test_unconstrained_bipartite(self, workspace, tmp_path, capsys):
        out = tmp_path / "cut.json"
        code = main(["suppress", "--topology", str(workspace / "g23.json"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_q"] == 1
        assert doc["n_c"] == 0
        assert sorted(doc["partition_s"] + doc["partition_t"]) == list(range(6))
        assert isinstance(doc["pairing_edges"], list)

    def test_constrained_gate_set(self, workspace, tmp_path):
        out = tmp_path / "cut.json"
        code = main(["suppress", "--topology", str(workspace / "g23.json"),
                     "--qubits", "0,1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        side_s, side_t = set(doc["partition_s"]), set(doc["partition_t"])
        assert {0, 1} <= side_s or {0, 1} <= side_t

    def test_bad_qubit(self, workspace, tmp_path, capsys):
        code = main(["suppress", "--topology", str(workspace / "g23.json"),
                     "--qubits", "17", "--out", str(tmp_path / "cut.json")])
        assert code == 1
        assert "[suppression]" in capsys.readouterr().err

    def test_nan_alpha(self, workspace, tmp_path, capsys):
        # NaN slips past an `alpha < 0` test and would write "objective": NaN
        out = tmp_path / "cut.json"
        code = main(["suppress", "--topology", str(workspace / "g23.json"),
                     "--qubits", "0,1", "--alpha", "nan", "--out", str(out)])
        assert code == 1
        assert "error [suppression]" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_flags_it_does_not_read(self, workspace, tmp_path, capsys):
        # --seed and --verbose belong to the subcommands that use them;
        # --threads went away with the seed thread pool
        suppress = ["suppress", "--topology", str(workspace / "g23.json"),
                    "--out", str(tmp_path / "cut.json")]
        report = ["report", "--topology", str(workspace / "g23.json"),
                  "--circuit", str(workspace / "qft4.zzq"),
                  "--out-dir", str(tmp_path / "runs")]
        for argv in (suppress + ["--threads", "4"], suppress + ["--seed", "3"],
                     suppress + ["--verbose"], report + ["--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestSchedule:
    def test_both_policies(self, workspace, tmp_path):
        plans = {}
        for policy in ("zzx", "par"):
            out = tmp_path / f"{policy}.json"
            assert main(["schedule", "--topology", str(workspace / "g23.json"),
                         "--circuit", str(workspace / "qft4.zzq"),
                         "--policy", policy, "--out", str(out)]) == 0
            plans[policy] = load_plan(out)
        assert len(plans["zzx"].layers) == 156
        assert len(plans["par"].layers) == 111
        assert plans["zzx"].total_duration >= plans["par"].total_duration

    def test_dcg_slots_stretch_the_plan(self, workspace, tmp_path):
        times = {}
        for backend in ("gaussian", "dcg"):
            out = tmp_path / f"{backend}.json"
            assert main(["schedule", "--topology", str(workspace / "g23.json"),
                         "--circuit", str(workspace / "qft4.zzq"),
                         "--backend", backend, "--out", str(out)]) == 0
            times[backend] = load_plan(out).total_duration
        assert times["dcg"] > times["gaussian"]

    def test_nan_nc_max(self, workspace, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["schedule", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"),
                     "--nc-max", "nan", "--out", str(out)])
        assert code == 1
        assert "error [scheduler]" in capsys.readouterr().err
        assert not out.exists()

    def test_brickwork_8x8(self, brickwork, tmp_path, capsys):
        # its whole-set solves need a matching over more than 16 odd faces;
        # the requirement rejects those sets before any cut search
        g, c = brickwork(8, 8, 4, 0)
        save_topology(tmp_path / "g88.json", g)
        save_circuit(tmp_path / "bw.zzq", c)
        out = tmp_path / "p.json"
        assert main(["schedule", "--topology", str(tmp_path / "g88.json"),
                     "--circuit", str(tmp_path / "bw.zzq"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(load_plan(out).layers) == 122

    def test_missing_circuit(self, workspace, tmp_path, capsys):
        code = main(["schedule", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(tmp_path / "nope.zzq"),
                     "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert "[circuit]" in capsys.readouterr().err


class TestOptimizePulse:
    def test_pert_rx90(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "rx90", "--backend", "pert",
                     "--out", str(out)]) == 0
        op = load_pulse(out)
        assert op.target_gate == "rx90"
        assert op.backend == "pert"
        assert op.converged

    def test_gaussian_identity(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "id", "--backend", "gaussian",
                     "--out", str(out)]) == 0
        op = load_pulse(out)
        assert op.spec.duration == pytest.approx(20e-9)

    @pytest.mark.parametrize("gate,backend,flag,value,message", [
        ("rx90", "pert", "--lambda-hz", "nan", "ZZ strengths must be finite"),
        ("rx90", "pert", "--neighbors", "-1", "neighbor count must be nonnegative"),
        # fixed shapes ignore the count, but one below zero is still wrong
        ("rx90", "gaussian", "--neighbors", "-3", "neighbor count must be nonnegative"),
        ("rzx90", "dcg", "--neighbors", "-1", "neighbor count must be nonnegative"),
    ], ids=["--lambda-hz-nan", "--neighbors--1", "gaussian--neighbors--3", "dcg--neighbors--1"])
    def test_bad_region_rejected(self, tmp_path, capsys, gate, backend, flag, value,
                                 message):
        # a NaN strength would write "loss": NaN, which is not JSON
        out = tmp_path / "p.json"
        code = main(["optimize-pulse", "--gate", gate, "--backend", backend,
                     flag, value, "--out", str(out)])
        assert code == 1
        assert f"error [pulse] {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_dcg_has_no_coupler_sequence(self, tmp_path):
        # dcg runs the Gaussian rzx90, tagged with the backend asked for
        out = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "rzx90", "--backend", "dcg",
                     "--out", str(out)]) == 0
        op = load_pulse(out)
        assert op.backend == "dcg"
        assert op.spec == native_pulse("rzx90", "gaussian").spec


class TestReportPipeline:
    def test_nan_strength_rejected_before_any_pulse(self, workspace, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["report", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"),
                     "--lambda-mu-hz", "nan", "--out-dir", str(out)])
        assert code == 1
        assert "error [cli]" in capsys.readouterr().err
        assert not list(out.glob("**/*.json"))

    def test_negative_seed_rejected_before_any_work(self, workspace, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["report", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"),
                     "--seed", "-1", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error [cli] --seed must be nonnegative, got -1\n"
        assert not list(out.glob("**/plan_*.json"))

    def test_device_past_the_simulator_cap_rejected_before_any_work(self, tmp_path, capsys):
        # the register is the whole 16-qubit device, though the circuit has 4
        save_topology(tmp_path / "g44.json", grid_topology(4, 4))
        save_circuit(tmp_path / "qft4.zzq",
                     benchmark("qft", 4, qubit_order=grid_snake_order(4, 4)[:4]))
        out = tmp_path / "runs"
        code = main(["report", "--topology", str(tmp_path / "g44.json"),
                     "--circuit", str(tmp_path / "qft4.zzq"), "--backend", "gaussian",
                     "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error [quantumsim] simulation capped at 12 qubits\n"
        assert not (out / "plan_zzx.json").exists()

    def test_summary_table(self, workspace, capsys):
        # rerun on the cached pulses; zzx must beat the baseline
        assert main(["report", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"),
                     "--backend", "pert", "--samples", "2",
                     "--out-dir", str(workspace / "runs")]) == 0
        out = capsys.readouterr().out
        assert "zzx" in out and "par" in out
        assert "fidelity improvement zzx/par" in out
        assert "duration ratio zzx/par" in out

    def test_reports_are_byte_identical(self, workspace):
        report = workspace / "runs" / "report.json"
        before = report.read_bytes()
        assert main(["report", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"),
                     "--backend", "pert", "--samples", "2",
                     "--out-dir", str(workspace / "runs")]) == 0
        assert report.read_bytes() == before

    def test_improvement_ratio_above_one(self, workspace):
        doc = json.loads((workspace / "runs" / "report.json").read_text())
        assert doc["summary"]["fidelity_ratio_zzx_over_par"] > 1.0

    def test_defaults_recorded_in_meta(self, workspace):
        doc = json.loads((workspace / "runs" / "report.json").read_text())
        assert doc["meta"]["alpha"] == 0.5
        assert doc["meta"]["k"] == 3
        assert doc["meta"]["backend"] == "pert"
        assert doc["config"]["topology"].endswith("g23.json")
        assert doc["config"]["seeds"] == [0, 1]

    def test_artifacts_on_disk(self, workspace):
        runs = workspace / "runs"
        assert (runs / "plan_zzx.json").exists()
        assert (runs / "plan_par.json").exists()
        pulses = sorted(p.name for p in (runs / "pulses").glob("*.json"))
        assert len(pulses) == 3
        kinds = {load_pulse(runs / "pulses" / p).target_gate for p in pulses}
        assert kinds == {"rx90", "id", "rzx90"}

    def test_runs_cover_seeds_and_policies(self, workspace):
        doc = json.loads((workspace / "runs" / "report.json").read_text())
        assert len(doc["runs"]) == 4
        assert {(r["policy"], r["seed"]) for r in doc["runs"]} == {
            ("zzx", 0), ("zzx", 1), ("par", 0), ("par", 1)}
        for r in doc["runs"]:
            assert 0.0 <= r["fidelity"] <= 1.0

    def test_empty_circuit_is_perfect(self, workspace, tmp_path):
        empty = tmp_path / "empty.zzq"
        save_circuit(empty, Circuit(6, ()))
        out_dir = tmp_path / "runs"
        assert main(["report", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(empty), "--backend", "gaussian",
                     "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["summary"]["mean_fidelity"]["zzx"] == 1.0
        assert doc["summary"]["mean_fidelity"]["par"] == 1.0
        assert doc["summary"]["layers"] == {"zzx": 0, "par": 0}


# sha256 of report.json with its three path fields replaced by "<dir>",
# recorded before the simulator evolved all seeds of a plan in one batch
REPORT_SHA256 = "96f5943dd736f7de9a696bf687b456e3768209bcd019aa53ff8b8295761f1dcc"


def test_report_json_pinned(tmp_path):
    save_topology(tmp_path / "g23.json", grid_topology(2, 3))
    save_circuit(tmp_path / "qft4.zzq",
                 benchmark("qft", 4, qubit_order=grid_snake_order(2, 3)[:4]))
    cfg = RunConfig(str(tmp_path / "g23.json"), str(tmp_path / "qft4.zzq"),
                    policy="both", backend="pert", seeds=(0, 1, 2),
                    out_dir=str(tmp_path / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(cfg)
    raw = (tmp_path / "out" / "report.json").read_bytes()
    raw = raw.replace(str(tmp_path).encode(), b"<dir>")
    assert hashlib.sha256(raw).hexdigest() == REPORT_SHA256


def test_report_on_degree4_grid(tmp_path):
    """ising-6 on the 3x3 grid: the centre qubit has four neighbors, so the
    rzx90 pulse is designed for a 256-dimension region."""
    save_topology(tmp_path / "g33.json", grid_topology(3, 3))
    save_circuit(tmp_path / "ising6.zzq",
                 benchmark("ising", 6, qubit_order=grid_snake_order(3, 3)[:6]))
    cfg = RunConfig(str(tmp_path / "g33.json"), str(tmp_path / "ising6.zzq"),
                    seeds=(0, 1), out_dir=str(tmp_path / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        reports = run_pipeline(cfg)
    mean = {p: np.mean([r.fidelity for r in reps]) for p, reps in reports.items()}
    assert mean["zzx"] > mean["par"]


def test_report_verbose_logs_layers_and_pulses_to_stderr(workspace, tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["report", "--topology", str(workspace / "g23.json"),
            "--circuit", str(workspace / "qft4.zzq"), "--backend", "gaussian",
            "--out-dir", str(out)]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    report = (out / "report.json").read_bytes()
    summary = json.loads(report)["summary"]
    layer_lines = [f"  {p}: {summary['layers'][p]} layers, "
                   f"{summary['total_duration_ns'][p]:.0f} ns" for p in ("zzx", "par")]
    files = {"rx90": "rx90_gaussian_20ns.json", "id": "id_gaussian_20ns.json",
             "rzx90": "rzx90_gaussian_80ns.json"}

    def verbose_stderr_lines():
        assert main(argv + ["--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        assert (out / "report.json").read_bytes() == report
        return loud.err.splitlines()

    assert verbose_stderr_lines() == layer_lines + [
        f"  pulse {kind}: cached {name}" for kind, name in files.items()]
    shutil.rmtree(out / "pulses")
    assert verbose_stderr_lines() == layer_lines + [
        f"  pulse {kind}: built -> {name}" for kind, name in files.items()]


@pytest.mark.parametrize("name,wrong", [
    ("rx90_gaussian_20ns.json", lambda: native_pulse("id", "gaussian")),
    ("rzx90_gaussian_80ns.json", lambda: native_pulse("rzx90", "dcg")),
    ("id_gaussian_20ns.json", lambda: replace(native_pulse("id", "dcg"), backend="gaussian")),
], ids=["other-kind", "other-backend", "other-slot"])
def test_report_rejects_a_cached_pulse_that_is_not_the_named_one(
        workspace, tmp_path, capsys, name, wrong):
    out = tmp_path / "runs"
    (out / "pulses").mkdir(parents=True)
    save_pulse(out / "pulses" / name, wrong())
    code = main(["report", "--topology", str(workspace / "g23.json"),
                 "--circuit", str(workspace / "qft4.zzq"), "--backend", "gaussian",
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [pulse] cached {name} holds a ")
    assert not (out / "report.json").exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("policy", ["zzx", "par"])
    def test_simulate_plan_file(self, workspace, tmp_path, policy):
        out = tmp_path / "report.json"
        assert main(["simulate", "--topology", str(workspace / "g23.json"),
                     "--plan", str(workspace / "runs" / f"plan_{policy}.json"),
                     "--pulses", str(workspace / "runs" / "pulses"),
                     "--samples", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["policy"] == policy
        assert doc["pulse_backend"] == "pert"
        assert len(doc["runs"]) == 2
        assert 0.0 <= doc["mean_fidelity"] <= 1.0

    def test_dcg_pulse_dir_is_labelled_dcg(self, workspace, tmp_path):
        # dcg's Gaussian rzx90 is cached under the dcg name, not "mixed"
        plan = tmp_path / "plan.json"
        assert main(["schedule", "--topology", str(workspace / "g23.json"),
                     "--circuit", str(workspace / "qft4.zzq"), "--backend", "dcg",
                     "--out", str(plan)]) == 0
        pulses = tmp_path / "pulses"
        cli.provision_pulses(grid_topology(2, 3), "dcg", 200e3, pulses)
        assert sorted(f.name.split("_")[:2] for f in pulses.glob("*.json")) == [
            ["id", "dcg"], ["rx90", "dcg"], ["rzx90", "dcg"]]
        out = tmp_path / "report.json"
        assert main(["simulate", "--topology", str(workspace / "g23.json"),
                     "--plan", str(plan), "--pulses", str(pulses),
                     "--samples", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pulse_backend"] == "dcg"

    def test_empty_pulse_dir(self, workspace, tmp_path, capsys):
        empty = tmp_path / "pulses"
        empty.mkdir()
        code = main(["simulate", "--topology", str(workspace / "g23.json"),
                     "--plan", str(workspace / "runs" / "plan_zzx.json"),
                     "--pulses", str(empty), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "[pulse]" in capsys.readouterr().err

    def test_missing_id_pulse_error_line(self, workspace, tmp_path, capsys):
        # the zzx plan fills cut-layer tails with id pulses; the message
        # prints without quotes around it
        pulses = tmp_path / "pulses"
        pulses.mkdir()
        for f in (workspace / "runs" / "pulses").glob("*.json"):
            if not f.name.startswith("id_"):
                shutil.copy(f, pulses / f.name)
        code = main(["simulate", "--topology", str(workspace / "g23.json"),
                     "--plan", str(workspace / "runs" / "plan_zzx.json"),
                     "--pulses", str(pulses), "--samples", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error [quantumsim] no pulse provided for gate kind 'id'\n")


class TestSweepCommand:
    def test_csv_shape_and_floor(self, workspace, tmp_path):
        pulse = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "rx90", "--backend", "pert",
                     "--out", str(pulse)]) == 0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--pulse", str(pulse), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda_hz,infidelity"
        assert len(lines) == 8
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        assert rows[0][0] == pytest.approx(10e3)
        assert rows[-1][0] == pytest.approx(200e3)
        assert all(infid >= 1e-8 for _, infid in rows)

    def test_nan_strength(self, tmp_path, capsys):
        pulse = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "rx90", "--backend", "gaussian",
                     "--out", str(pulse)]) == 0
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--pulse", str(pulse), "--lambda-hz-min", "nan",
                     "--out", str(out)])
        assert code == 1
        assert "ZZ strengths must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--lambda-hz-min", "0"),
                                            ("--lambda-hz-min", "-5e3"),
                                            ("--lambda-hz-max", "-2e5")])
    def test_nonpositive_bound(self, tmp_path, capsys, flag, value):
        # log10 of the bound used to fail with "math domain error"
        pulse = tmp_path / "p.json"
        assert main(["optimize-pulse", "--gate", "rx90", "--backend", "gaussian",
                     "--out", str(pulse)]) == 0
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--pulse", str(pulse), f"{flag}={value}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error [quantumsim] {flag} must be positive" in err
        assert "log-spaced" in err
        assert not out.exists()


class TestRamseyCommand:
    def test_bare_and_suppressed(self, workspace, tmp_path, capsys):
        pulses = workspace / "runs" / "pulses"
        out = tmp_path / "bare.csv"
        assert main(["ramsey", "--topology", str(workspace / "line2.json"),
                     "--pulses", str(pulses), "--policy", "bare",
                     "--out", str(out)]) == 0
        bare_khz = float(capsys.readouterr().out.split("effective ZZ")[1].split("kHz")[0])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "tau_s,p_control0,p_control1"
        assert len(lines) == 65
        assert bare_khz == pytest.approx(800.0, rel=0.05)

        assert main(["ramsey", "--topology", str(workspace / "line2.json"),
                     "--pulses", str(pulses), "--policy", "suppressed_B",
                     "--out", str(tmp_path / "b.csv")]) == 0
        held_khz = float(capsys.readouterr().out.split("effective ZZ")[1].split("kHz")[0])
        assert held_khz * 10 <= bare_khz

    def test_missing_rx90_pulse_error_line(self, workspace, tmp_path, capsys):
        pulses = tmp_path / "pulses"
        pulses.mkdir()
        for f in (workspace / "runs" / "pulses").glob("id_*.json"):
            shutil.copy(f, pulses / f.name)
        code = main(["ramsey", "--topology", str(workspace / "line2.json"),
                     "--pulses", str(pulses), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error [quantumsim] pulses must cover rx90\n"


class TestErrorTagging:
    def test_missing_topology(self, tmp_path, capsys):
        code = main(["suppress", "--topology", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "cut.json")])
        assert code == 1
        assert "error [topology]" in capsys.readouterr().err


def test_optctrl_region_cap_raises_before_any_design(tmp_path, monkeypatch):
    # degree 4 asks for an rzx90 region with 3+3 spectators (8 qubits);
    # the 5-qubit rx90 and id designs come first and take minutes each
    def no_design(*args, **kwargs):
        raise AssertionError("optimize ran before the region sizes were checked")

    monkeypatch.setattr(pulse, "optimize", no_design)
    with pytest.raises(ValueError, match="dimension 256"):
        cli.provision_pulses(grid_topology(3, 3), "optctrl", 1e5, tmp_path)
    assert not list(tmp_path.glob("*.json"))


# a Gaussian depends on neither the device degree nor its strength, so
# every device gets the same three files
GAUSSIAN_SHA256 = {
    "id_gaussian_20ns.json": "907a3756ceb25597393f12c771892a14442adef47324e788a8185e9b38706d16",
    "rx90_gaussian_20ns.json": "7c46b574ced96109e5955a3b0227b8602be8d7762ab974ce94922d1a26d9547c",
    "rzx90_gaussian_80ns.json": "d416daa25fa5824c561d6817a377b4e3bcca03e3a0809c373fe26091e53fc754",
}

# sha256 of every file provision_pulses writes, recorded before one builder
# (pulse.native_pulse) replaced the CLI's own region and library rules
PROVISIONED_SHA256 = {
    ("gaussian", 2, 3): GAUSSIAN_SHA256,
    ("gaussian", 3, 3): GAUSSIAN_SHA256,
    ("pert", 2, 3): {
        "id_pert_3n_20ns_3214a80ff98c.json": "e5a4e737e179d844ec6e3c3c8644f695e429695a80a40233afea7e6302ff2bcf",
        "rx90_pert_3n_20ns_3214a80ff98c.json": "ad6030e553fb8497366a4e15c7c27a37d5149bdda8c210c701551017b234c8a3",
        "rzx90_pert_2n_80ns_b3b548b07c70.json": "e6a10d2bcdada5d8a96d8a079f690d54f95ae764bf569b1d9617e375a34dabc5",
    },
    ("pert", 3, 3): {
        "id_pert_4n_20ns_568720311426.json": "2f6c3141c4235488fca374c7c5eb354ba145c4acf1f6aa3c9796cc1749131c01",
        "rx90_pert_4n_20ns_568720311426.json": "8843776cd53be17225c7ef4b9f3e1a1f4f510f279561f9d0103f0d777d588bd4",
        "rzx90_pert_3n_80ns_3214a80ff98c.json": "2eda23ba7be074f8bd060c563d266214402717dd4319a49131821028edb40043",
    },
}


@pytest.mark.parametrize("backend,rows,cols", list(PROVISIONED_SHA256))
def test_provisioned_pulse_files_pinned(tmp_path, backend, rows, cols):
    cli.provision_pulses(grid_topology(rows, cols), backend, 200e3, tmp_path)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.glob("*.json")}
    assert written == PROVISIONED_SHA256[backend, rows, cols]


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_report_out_dir_that_cannot_be_made(workspace, tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "runs" if under else blocker
    code = main(["report", "--topology", str(workspace / "g23.json"),
                 "--circuit", str(workspace / "qft4.zzq"), "--backend", "gaussian",
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli] ") and str(out) in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("kind", ["topology", "plan", "pulse-dir", "pulse", "cached-pulse"])
def test_malformed_input_names_file_and_field(workspace, tmp_path, capsys, kind):
    # each used to print only the missing key, e.g. `error [topology] 'edges'`
    g23, qft4, runs = workspace / "g23.json", workspace / "qft4.zzq", workspace / "runs"
    pulse = sorted((runs / "pulses").glob("rx90_*.json"))[0]
    bad = tmp_path / "bad.json"
    stage, src, field = "pulse", pulse, "T_ns"
    if kind == "topology":
        stage, src, field = "topology", g23, "edges"
        argv = ["suppress", "--topology", bad, "--out", tmp_path / "cut.json"]
    elif kind == "plan":
        stage, src, field = "scheduler", runs / "plan_zzx.json", "num_qubits"
        argv = ["simulate", "--topology", g23, "--plan", bad, "--pulses", runs / "pulses",
                "--out", tmp_path / "r.json"]
    elif kind == "pulse-dir":
        bad = shutil.copytree(runs / "pulses", tmp_path / "pulses") / pulse.name
        argv = ["ramsey", "--topology", workspace / "line2.json", "--pulses", bad.parent,
                "--out", tmp_path / "r.csv"]
    elif kind == "pulse":
        argv = ["sweep", "--pulse", bad, "--out", tmp_path / "s.csv"]
    else:
        bad = tmp_path / "runs" / "pulses" / "rx90_gaussian_20ns.json"
        bad.parent.mkdir(parents=True)
        argv = ["report", "--topology", g23, "--circuit", qft4, "--backend", "gaussian",
                "--out-dir", tmp_path / "runs"]
    doc = json.loads(src.read_text())
    del doc[field]
    bad.write_text(json.dumps(doc))
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error [{stage}] {bad}: missing field '{field}'\n"


def test_malformed_circuit_names_file_and_line(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.zzq"
    bad.write_text("qubits 6\nh 0\nfoo 1\n")
    code = main(["schedule", "--topology", str(workspace / "g23.json"),
                 "--circuit", str(bad), "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error [circuit] {bad}: line 3: unknown gate 'foo'\n"


@pytest.mark.parametrize("grid", ["2x3x4", "2by3", "x3"])
def test_bench_grid_must_be_rows_by_columns(tmp_path, capsys, grid):
    out = tmp_path / "c.zzq"
    code = main(["bench", "--name", "qft", "--n", "4", "--grid", grid, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error [circuit] --grid must be RxC, got '{grid}'\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0x3", "1x3"])
def test_bench_grid_must_hold_the_circuit(tmp_path, capsys, grid):
    # 1x3 used to print `qubit_order must be a permutation of length n`
    out = tmp_path / "c.zzq"
    code = main(["bench", "--name", "qft", "--n", "4", "--grid", grid, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error [circuit] --grid {grid} holds fewer than --n 4 qubits\n")
    assert not out.exists()


def test_suppress_qubits_must_be_integers(workspace, tmp_path, capsys):
    # used to print `invalid literal for int() with base 10: 'x'`
    out = tmp_path / "cut.json"
    code = main(["suppress", "--topology", str(workspace / "g23.json"),
                 "--qubits", "0,x", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error [suppression] --qubits must be comma-separated qubit indices, got '0,x'\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "--seed must be nonnegative, got -1"),
    ("--samples", "0", "--samples must be at least 1, got 0"),
])
def test_simulate_seed_flags_named(workspace, tmp_path, capsys, flag, value, message):
    # the device sampler used to answer `expected non-negative integer`, and
    # the ensemble `need at least one device`
    out = tmp_path / "r.json"
    code = main(["simulate", "--topology", str(workspace / "g23.json"),
                 "--plan", str(workspace / "runs" / "plan_zzx.json"),
                 "--pulses", str(workspace / "runs" / "pulses"),
                 flag, value, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error [cli] {message}\n"
    assert not out.exists()


def test_report_samples_flag_named(workspace, tmp_path, capsys):
    # RunConfig used to answer `need at least one seed`
    out = tmp_path / "runs"
    code = main(["report", "--topology", str(workspace / "g23.json"),
                 "--circuit", str(workspace / "qft4.zzq"),
                 "--samples", "0", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error [cli] --samples must be at least 1, got 0\n"
    assert not out.exists()


def test_optimize_pulse_neighbors_flag_named(tmp_path, capsys):
    # `_native_region` answered `neighbor count must be nonnegative` alone
    out = tmp_path / "p.json"
    code = main(["optimize-pulse", "--gate", "rx90", "--backend", "pert",
                 "--neighbors", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error [pulse] neighbor count must be nonnegative, got --neighbors -1\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--probe", "5", "--probe must be a device qubit, 0 to 1, got 5"),
    ("--control", "-1", "--control must be a device qubit, 0 to 1, got -1"),
    ("--control", "0", "--probe and --control must be distinct, both are 0"),
    ("--lambda-hz", "-5", "--lambda-hz must be finite and nonnegative, got -5"),
    ("--lambda-hz", "nan", "--lambda-hz must be finite and nonnegative, got nan"),
])
def test_ramsey_flags_named(workspace, tmp_path, capsys, flag, value, message):
    # the protocol used to answer `probe and control must be distinct device
    # qubits` and the device `ZZ strengths must be finite and nonnegative`
    out = tmp_path / "r.csv"
    code = main(["ramsey", "--topology", str(workspace / "line2.json"),
                 "--pulses", str(workspace / "runs" / "pulses"),
                 f"{flag}={value}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error [quantumsim] {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-2"])
def test_sweep_points_flag_named(tmp_path, capsys, points):
    # the sweep used to answer `need at least one strength` (and numpy's
    # `Number of samples, -2, must be non-negative.` below zero)
    pulse = tmp_path / "p.json"
    assert main(["optimize-pulse", "--gate", "rx90", "--backend", "gaussian",
                 "--out", str(pulse)]) == 0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--pulse", str(pulse), "--points", points, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error [quantumsim] --points must be at least 1, got {points}\n")
    assert not out.exists()
