"""Every ``mlcc`` command of the README's CLI section runs: exit 0 and a JSON report.

The commands are read from the ``sh`` block under "## CLI", continuation lines
joined, and run in-process with ``cli.run`` inside a temporary directory (where
``report`` finds a small ``checks.json``), so a README command that breaks
fails the suite.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from mlcc.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

#: The config that the README's ``mlcc report --config checks.json`` reads.
CHECKS = {"checks": [
    {"name": "nakano", "args": ["--field", "raufi_corrected", "--param", "s=0.75",
                                "--point", "0,0"]},
    {"name": "schur", "args": ["--field", "raufi_corrected", "--param", "s=0.75",
                               "--point", "0,0", "--n0", "1"]},
]}


def readme_commands() -> list[str]:
    """The ``mlcc`` command lines of the first ``sh`` block after "## CLI"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("mlcc ")]


def test_the_cli_section_has_commands():
    names = [shlex.split(cmd)[1] for cmd in readme_commands()]
    assert {"nakano", "scan", "bl", "prekopa", "schur", "report"} <= set(names)


@pytest.mark.parametrize("command", readme_commands())
def test_the_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "checks.json").write_text(json.dumps(CHECKS))
    code = run(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["checks"]
