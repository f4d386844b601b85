"""Byte-identity gate: every command keyed in perfbench/golden.json must print
exactly the stdout whose sha256 is recorded there, and so must the larger
verify run keyed in LARGE.

The golden.json digests were recorded from the package's output before any
optimisation, LARGE at the commit named beside it; the commands run in-process
through ``degenpoly.cli.main``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from degenpoly.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["stdout_sha256"]


# Recorded at commit b8a0b9a, before the check layer's sums were regrouped.
LARGE = {
    "verify --identity all --n-max 20 --order 22 --format json":
        "c08d2fcb0509e4aa1cd5baddf3b4c6cbbf3e928fc254569f2fc31e412c31c1cf",
}
DIGESTS = {**GOLDEN, **LARGE}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_golden_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
