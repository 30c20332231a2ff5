"""The README's examples still fit the package and the command line.

Every call in the README's python blocks to a name imported from
zzsched.<module> is bound against the current signature, as
tests/test_scripts.py does for the scripts, and every `zzsched ...` line
of its sh blocks, continuations joined, parses with the CLI's parser. A
renamed keyword or flag fails here rather than for a reader.
"""

import re
import shlex
from pathlib import Path

import pytest
from test_scripts import bind_error, package_calls

from zzsched import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    """Bodies of the README's fenced blocks of one language."""
    fence = re.compile(rf"^ *```{lang}\n(.*?)^ *```$", re.M | re.S)
    return fence.findall(README.read_text())


CALLS = [c for block in _blocks("python") for c in package_calls(block, str(README))]
COMMANDS = [line.strip() for block in _blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("zzsched ")]


def test_readme_has_examples():
    assert {name for _, name, _ in CALLS} >= {"schedule", "native_library", "simulate_plan"}
    assert {shlex.split(c)[1] for c in COMMANDS} >= {"report", "simulate", "ramsey"}


@pytest.mark.parametrize("module,name,call", CALLS,
                         ids=[f"{n}:{c.lineno}" for _, n, c in CALLS])
def test_readme_call_binds(module, name, call):
    error = bind_error(module, name, call)
    if error:
        pytest.fail(f"README python block line {call.lineno} calls {error}")


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_readme_command_parses(command, capsys):
    try:
        cli.build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
