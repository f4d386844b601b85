"""Byte-identity gate: every command keyed in perfbench/golden.json must print
exactly the stdout whose sha256 is recorded there.

The digests were recorded from the package's output before any optimisation;
the commands run in-process through ``degenpoly.cli.main``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from degenpoly.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["stdout_sha256"]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
