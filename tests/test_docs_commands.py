"""Every ``repro-study`` command in the docs' shell blocks must parse.

Commands are taken from the fenced ``bash``/``sh`` blocks of README.md
and EXPERIMENTS.md, with backslash-continued lines joined and ``#``
comments dropped, and handed to the CLI's own argument parser.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md")
SHELL_FENCE = re.compile(r"```(?:bash|sh|shell)\s*$")


def documented_commands(doc):
    """``(line number, argv)`` of each ``repro-study`` command in *doc*."""
    lines = (ROOT / doc).read_text().splitlines()
    in_shell = False
    command, start = "", 0
    for number, line in enumerate(lines, start=1):
        if line.startswith("```"):
            in_shell = bool(SHELL_FENCE.match(line)) and not in_shell
            continue
        if not in_shell:
            continue
        if not command:
            start = number
        command += line
        if command.endswith("\\"):
            command = command[:-1] + " "
            continue
        argv = shlex.split(command, comments=True)
        command = ""
        if argv[:1] == ["repro-study"]:
            yield start, argv[1:]


def test_documented_commands_parse(capsys):
    failures, parsed = [], set()
    for doc in DOCS:
        for line, argv in documented_commands(doc):
            parsed.add(doc)
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                error = capsys.readouterr().err.strip().splitlines()[-1]
                failures.append(f"{doc}:{line}: {error}")
    assert parsed == set(DOCS), "a doc lost its repro-study commands"
    assert not failures, "\n".join(failures)
