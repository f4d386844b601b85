"""The project's source rules, one row of ``RULES`` each.

A rule is a regex that no line of the ``.py`` files under its directories may
match, its exempt files aside, more often than the row allows.  Each row's
reason says why the rule holds, and its sample is a line the rule must catch.
"""

import re
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
Rule = namedtuple("Rule", "id pattern dirs exempt allowed reason sample")

RULES = [
    Rule("line-length", r"^.{100,}", ("src", "tests"), (), 0,
         "No line is over 99 characters.", "x = " + "1" * 96),
    Rule("typed-cache", r"^\s*@(functools\.)?(lru_cache|cache)\b(?!.*typed=True)", ("src",), (), 0,
         "Untyped, a cache keyed on 5 answers a call with 5.0, and one keyed on 1 a call "
         "with True; write lru_cache(..., typed=True).", "@lru_cache(maxsize=None)"),
    Rule("numeric-import", r"^\s*(from\s+|import\s+([A-Za-z_.]+\s*,\s*)*)(numpy|mpmath|sympy)\b",
         ("src",), (), 0, "The coefficients run past 64 bits, so none of numpy, mpmath or "
         "sympy may become a dependency.", "import os, mpmath"),
    Rule("stdout", r"print\(|sys\.stdout", ("src",), ("src/degenpoly/cli.py",), 0,
         "Stdout is byte-deterministic and only cli.py writes to it; anything else goes "
         "to stderr or a file.", 'print("done")'),
    Rule("size-check", r"raise ValueError\(.*(non-negative|>= 0|negative power)", ("src",),
         ("src/degenpoly/multipoly.py",), 0, "Sizes pass multipoly.as_size, the one rule: "
         "a bool or non-int is a TypeError, an int outside 0..2**15-1 a ValueError.",
         'raise ValueError(f"n must be non-negative, got {n}")'),
    Rule("size-bound", r"\b_LIMIT\b", ("src",), ("src/degenpoly/multipoly.py",), 0,
         "The exponent bound multipoly._LIMIT is named nowhere else; call as_size.",
         "if order >= _LIMIT:"),
    Rule("system-exit", r"\bSystemExit\b", ("src",), (), 0,
         "Bad input is a ValueError; cli.main reports each as 'error: ...' with exit "
         "status 2.", 'raise SystemExit("error: bad size")'),
    Rule("csv-writer", r"csv\.writer", ("src",), (), 1,
         "table and stirling write CSV through cli._write_rows, the one row writer.",
         "writer = csv.writer(sys.stdout)"),
]
IDS = [rule.id for rule in RULES]


@pytest.mark.parametrize("rule", RULES, ids=IDS)
def test_source_rule(rule):
    regex, hits = re.compile(rule.pattern), []
    for top in rule.dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            name = path.relative_to(ROOT).as_posix()
            if name not in rule.exempt:
                lines = path.read_text(encoding="utf-8").splitlines()
                hits += [f"{name}:{i}: {line}" for i, line in enumerate(lines, 1)
                         if regex.search(line)]
    assert len(hits) <= rule.allowed, "\n".join([rule.reason, *hits])


@pytest.mark.parametrize("rule", RULES, ids=IDS)
def test_rule_catches_its_sample(rule):
    assert re.search(rule.pattern, rule.sample)
