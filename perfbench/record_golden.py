"""Record golden.json: the sha256 of stdout of every CLI command the
benchmark runs.  The digests are fixtures of the package's current
(byte-deterministic) output; re-record them only when the output is meant
to change, and say so.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json

import run
import spec


def main() -> int:
    commands = [spec.VERIFY_N12, spec.VERIFY_N9, *sorted(spec.tabulate_commands(0))]
    digests = {}
    for argv in commands:
        child = run.spawn("cli", "--", *argv)
        if child.rc != 0 or child.report is None or child.report.get("rc") != 0:
            raise SystemExit(f"command failed: {spec.command_key(argv)}")
        digests[spec.command_key(argv)] = spec.digest(child.stdout)
    spec.GOLDEN_PATH.write_text(
        json.dumps({"stdout_sha256": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
