"""The work of four commands, pinned exactly by ``multipoly.COUNTS``.

Wall time on a shared host cannot see a 20% slowdown; these counts see any
change in the work, a rebuilt table or a lost check alike, so the pin is an
equality and not a bound.  Each command runs in a fresh interpreter, because
in this one the module caches hold whatever earlier tests built.  A change
that moves a count changes its pin here and says which count moved and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degenpoly

RUN = """
import contextlib, io, json, sys
from degenpoly import cli, multipoly
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, **multipoly.COUNTS}))
"""


def _counts(calls, pairs, cancelled, largest, zero=0, sign=0, identity=0, general=0):
    return {"status": 0, "calls": calls, "pairs": pairs, "cancelled": cancelled,
            "largest": largest, "substitute_zero": zero, "substitute_sign": sign,
            "substitute_identity": identity, "substitute_general": general}


PINS = [
    pytest.param("verify --identity all --n-max 12 --order 14 --format json",
                 _counts(1995, 170677, 6605, 788, 214, 65, 13, 130), id="verify-n12"),
    pytest.param("table --family deg-cos-bernoulli --n-max 20",
                 _counts(225, 26633, 128, 614), id="table-deg-cos-bernoulli-20"),
    pytest.param("stirling --kind degenerate-second --n-max 20",
                 _counts(249, 34278, 0, 20), id="stirling-degenerate-second-20"),
    pytest.param("series --kernel bernoulli --order 20",
                 _counts(103, 6757, 109, 21), id="series-bernoulli-20"),
]


@pytest.mark.parametrize("command, counts", PINS)
def test_command_does_the_pinned_work(command, counts):
    paths = filter(None, (str(Path(degenpoly.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", RUN, *command.split()], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == counts
