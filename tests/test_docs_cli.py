"""Every ``--flag`` README.md and DESIGN.md mention is one the CLI accepts.

A flag that is renamed or deleted in ``repro.cli`` but still written in
the docs fails here, so the docs cannot keep advertising a knob the
program no longer has.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import make_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
#: Flags of other programs the docs quote: pytest-benchmark and curl.
FOREIGN = {"--benchmark-only", "--data-urlencode"}
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def cli_flags() -> set[str]:
    """The long options of the top-level parser and every subparser."""
    flags: set[str] = set()
    pending = [make_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return flags


def doc_flags(name: str) -> set[str]:
    return set(FLAG.findall((ROOT / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", DOCS)
def test_documented_flags_are_accepted(name):
    unknown = doc_flags(name) - cli_flags() - FOREIGN
    assert not unknown, f"{name} names flags the CLI rejects: {sorted(unknown)}"


def test_foreign_allowlist_stays_foreign_and_used():
    # An allowlisted flag the CLI grew, or one the docs no longer quote,
    # would hide a real mismatch: keep the list exact.
    assert not FOREIGN & cli_flags()
    documented = set().union(*(doc_flags(name) for name in DOCS))
    assert FOREIGN <= documented
