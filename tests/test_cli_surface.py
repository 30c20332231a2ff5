"""The command line's surface: every subcommand's options, pinned.

Each option is `(option strings, dest, default, type, choices, required,
action class)`; help text is left out, so rewording it moves nothing here.
Defaults are compared by repr, so 3 and 3.0 differ. The table was recorded
before the parser declared its shared options once, and a flag, default,
type, choice or `required` that any subcommand gains or loses fails here.
"""

import argparse

from zzsched import cli

STORE = "_StoreAction"
BACKENDS = ("gaussian", "pert", "optctrl", "dcg")
HELP = ("-h --help", "help", argparse.SUPPRESS, None, None, False, "_HelpAction")

SURFACE = {
    "suppress": [
        ("--alpha", "alpha", 0.5, "float", None, False, STORE),
        ("--k", "k", 3, "int", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--qubits", "qubits", "", None, None, False, STORE),
        ("--topology", "topology", None, None, None, True, STORE),
        HELP,
    ],
    "bench": [
        ("--grid", "grid", None, None, None, False, STORE),
        ("--n", "n", None, "int", None, True, STORE),
        ("--name", "name", None, None, None, True, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--seed", "seed", 0, "int", None, False, STORE),
        HELP,
    ],
    "schedule": [
        ("--alpha", "alpha", 0.5, "float", None, False, STORE),
        ("--backend", "backend", "gaussian", None, BACKENDS, False, STORE),
        ("--circuit", "circuit", None, None, None, True, STORE),
        ("--k", "k", 3, "int", None, False, STORE),
        ("--nc-max", "nc_max", None, "float", None, False, STORE),
        ("--nq-max", "nq_max", None, "int", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--policy", "policy", "zzx", None, ("zzx", "par"), False, STORE),
        ("--topology", "topology", None, None, None, True, STORE),
        HELP,
    ],
    "optimize-pulse": [
        ("--backend", "backend", "pert", None, BACKENDS, False, STORE),
        ("--gate", "gate", None, None, ("rx90", "id", "rzx90"), True, STORE),
        ("--lambda-hz", "lambda_hz", 200000.0, "float", None, False, STORE),
        ("--neighbors", "neighbors", 1, "int", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        HELP,
    ],
    "simulate": [
        ("--lambda-mu-hz", "lambda_mu_hz", 200000.0, "float", None, False, STORE),
        ("--lambda-sigma-hz", "lambda_sigma_hz", 50000.0, "float", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--plan", "plan", None, None, None, True, STORE),
        ("--pulses", "pulses", None, None, None, True, STORE),
        ("--samples", "samples", 20, "int", None, False, STORE),
        ("--seed", "seed", 0, "int", None, False, STORE),
        ("--topology", "topology", None, None, None, True, STORE),
        HELP,
    ],
    "ramsey": [
        ("--control", "control", 1, "int", None, False, STORE),
        ("--lambda-hz", "lambda_hz", 200000.0, "float", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--policy", "policy", "bare", None, ("bare", "suppressed_B", "suppressed_C"), False,
         STORE),
        ("--probe", "probe", 0, "int", None, False, STORE),
        ("--pulses", "pulses", None, None, None, True, STORE),
        ("--topology", "topology", None, None, None, True, STORE),
        HELP,
    ],
    "sweep": [
        ("--lambda-hz-max", "lambda_hz_max", 200000.0, "float", None, False, STORE),
        ("--lambda-hz-min", "lambda_hz_min", 10000.0, "float", None, False, STORE),
        ("--out", "out", None, None, None, True, STORE),
        ("--points", "points", 7, "int", None, False, STORE),
        ("--pulse", "pulse", None, None, None, True, STORE),
        ("--scenario", "scenario", "single_gate_pair", None,
         ("single_gate_pair", "two_gate_chain"), False, STORE),
        HELP,
    ],
    "report": [
        ("--alpha", "alpha", 0.5, "float", None, False, STORE),
        ("--backend", "backend", "pert", None, BACKENDS, False, STORE),
        ("--circuit", "circuit", None, None, None, True, STORE),
        ("--k", "k", 3, "int", None, False, STORE),
        ("--lambda-mu-hz", "lambda_mu_hz", 200000.0, "float", None, False, STORE),
        ("--lambda-sigma-hz", "lambda_sigma_hz", 50000.0, "float", None, False, STORE),
        ("--nc-max", "nc_max", None, "float", None, False, STORE),
        ("--nq-max", "nq_max", None, "int", None, False, STORE),
        ("--out-dir", "out_dir", "runs", None, None, False, STORE),
        ("--policy", "policy", "both", None, ("zzx", "par", "both"), False, STORE),
        ("--samples", "samples", 1, "int", None, False, STORE),
        ("--seed", "seed", 0, "int", None, False, STORE),
        ("--topology", "topology", None, None, None, True, STORE),
        ("--verbose", "verbose", False, None, None, False, "_StoreTrueAction"),
        HELP,
    ],
}


def _surface(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted((" ".join(a.option_strings), a.dest, a.default,
                          getattr(a.type, "__name__", a.type),
                          a.choices and tuple(a.choices), a.required, type(a).__name__)
                         for a in sp._actions)
            for name, sp in sub.choices.items()}


def test_subcommands_in_order():
    assert list(_surface(cli.build_parser())) == list(SURFACE)


def test_parser_surface_pinned():
    surface = _surface(cli.build_parser())
    for name, options in SURFACE.items():
        assert repr(surface[name]) == repr(options), name
