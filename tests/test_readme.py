"""Every ``inertia-lab`` example in README's shell blocks runs and exits 0.

The examples are read from README.md itself, so they cannot drift from the
CLI unnoticed.  A command may continue over lines, by a trailing backslash or
inside a quoted JSON argument.  A comment line holding JSON right after an
example is its documented stdout.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from inertia_lab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands(block: str) -> list[tuple[list[str], object]]:
    """(argv, documented output or None) of each command in a shell block."""
    found, pending = [], ""
    for line in block.splitlines():
        if not pending and line.lstrip().startswith("#"):
            text = line.lstrip()[1:].strip()
            if found and text.startswith("{"):
                found[-1] = (found[-1][0], json.loads(text))
            continue
        pending += line + "\n"
        if line.endswith("\\"):
            continue
        try:
            argv = shlex.split(pending.replace("\\\n", " "), comments=True)
        except ValueError:  # an open quote: the command goes on
            continue
        pending = ""
        if argv:
            found.append((argv, None))
    return found


EXAMPLES = [
    (argv, want)
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for argv, want in _commands(block)
    if argv[0] == "inertia-lab"
]


def test_the_readme_has_cli_examples():
    assert len(EXAMPLES) >= 10
    assert any(want is not None for _, want in EXAMPLES)


@pytest.mark.parametrize(
    "argv,want",
    EXAMPLES,
    # the example's number and its subcommand words, not its JSON arguments
    ids=["-".join([f"{i:02d}", *(w for w in a[1:3] if w[:1].isalpha())]) for i, (a, _) in enumerate(EXAMPLES)],
)
def test_readme_example_exits_zero(argv, want, tmp_path, monkeypatch):
    # the verify example writes report.json and report.csv
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[1:])
    assert code == 0, err.getvalue()
    if want is not None:
        assert json.loads(out.getvalue()) == want
        assert out.getvalue() == json.dumps(want, separators=(",", ":")) + "\n"
