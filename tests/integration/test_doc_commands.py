"""Every ``python -m repro`` command in the docs parses.

The test reads each fenced code block of README.md and EXPERIMENTS.md,
joins ``\\`` continuations, drops trailing ``#`` comments and anything
after a pipe, and hands the arguments to the CLI's own parser.  A
``{a,b,...}`` argument stands for the parser's set of commands.
"""

import argparse
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "EXPERIMENTS.md")
PREFIX = "python -m repro"


def doc_commands():
    """``(doc:line, argv)`` for every fenced ``python -m repro`` line."""
    found = []
    for doc in DOCS:
        fenced = False
        pending = None
        for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if pending is not None:
                where, text = pending
                text += " " + line.strip()
            elif fenced and PREFIX in line:
                where, text = f"{doc}:{number}", line[line.index(PREFIX) :]
            else:
                continue
            if text.endswith("\\"):
                pending = (where, text[:-1])
                continue
            pending = None
            argv = shlex.split(text, comments=True)
            if "|" in argv:
                argv = argv[: argv.index("|")]
            found.append((where, argv[len(PREFIX.split()) :]))
    return found


COMMANDS = doc_commands()


def parser_commands():
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(sub.choices)


def test_both_docs_hold_commands():
    assert {where.split(":")[0] for where, _argv in COMMANDS} == set(DOCS)


@pytest.mark.parametrize(
    "argv", [argv for _where, argv in COMMANDS], ids=[where for where, _argv in COMMANDS]
)
def test_command_parses(argv):
    if argv[0].startswith("{"):
        assert set(argv[0].strip("{}").split(",")) == parser_commands()
    else:
        build_parser().parse_args(argv)
