"""Each script under scripts/ imports against the current package API."""

import importlib.util
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
