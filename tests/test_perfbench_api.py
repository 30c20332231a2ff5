"""The benchmark's workloads still fit the package API.

perfbench/workloads.py calls the package through module attributes
(`pulse.optimize`, `cli.run_pipeline`, ...). This test reads that file with
ast, imports nothing from it, and checks every such name and call against
the package, so a renamed or deleted name or keyword fails here rather than
in a benchmark run. The tracer (perfbench/tracer.py) names the package
functions it annotates and reports; those names are read the same way and
must each be a public function of the package, or the tracer would record
nothing under them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TRACER = WORKLOADS.parent / "tracer.py"


def _package_uses():
    """(module, name, call node or None, line) per `<module>.<name>` use."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "zzsched":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"zzsched.{alias.name}"
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(modules[node.value.id], node.attr, calls.get(id(node)), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


USES = _package_uses()


def test_workloads_use_the_package():
    assert {module for module, *_ in USES} >= {"zzsched.pulse", "zzsched.quantumsim",
                                               "zzsched.cli"}


@pytest.mark.parametrize("module,name,call,line", USES,
                         ids=[f"{m.split('.')[1]}.{n}:{ln}" for m, n, _, ln in USES])
def test_workload_use_resolves(module, name, call, line):
    obj = getattr(importlib.import_module(module), name, None)
    assert obj is not None, f"workloads.py:{line} uses {module}.{name}, which is gone"
    if call is None:
        return
    positional = 0 if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
    keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
    try:
        inspect.signature(obj).bind_partial(*[None] * positional,
                                            **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"workloads.py:{line} calls {module}.{name} with {positional} "
                    f"positional and keywords {keywords}: {exc}")


def _traced_names():
    """`<module>.<function>` per ANNOTATORS key, and per PER_LAYER_UNITS
    name that ends in .calls or .self_s, in perfbench/tracer.py."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    keys = {node.targets[0].id: [k.value for k in node.value.keys] for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)}
    names = set(keys["ANNOTATORS"])
    names |= {".".join(k.split(".")[:2]) for k in keys["PER_LAYER_UNITS"]
              if k.endswith((".calls", ".self_s"))}
    return sorted(names)


TRACED = _traced_names()


def test_tracer_tables_read():
    assert {"quantumsim.simulate_plan", "pulse.optimize", "pulse.evolve",
            "pulse.control_unitary", "cli.provision_pulses"} <= set(TRACED)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    mod = importlib.import_module(f"zzsched.{module}")
    fn = getattr(mod, attr, None)
    # the tracer wraps exactly the public functions a module defines
    assert (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__), (
        f"perfbench/tracer.py names {name}, which is not a public function of {mod.__name__}")
