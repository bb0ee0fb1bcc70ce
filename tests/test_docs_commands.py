"""Every ``repro-study`` and ``repro-worker`` command in the docs' shell
blocks must parse.

Commands are taken from the fenced ``bash``/``sh`` blocks of README.md
and EXPERIMENTS.md, with backslash-continued lines joined, ``#``
comments and leading ``NAME=value`` environment assignments dropped,
and handed to the program's own argument parser.  Each doc must keep
at least one command of each program, so a removed flag cannot linger
in a doc that merely stopped being checked.
"""

import re
import shlex
from pathlib import Path

from repro.cli import build_parser as study_parser
from repro.parallel.worker import build_parser as worker_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md")
PARSERS = {"repro-study": study_parser, "repro-worker": worker_parser}
SHELL_FENCE = re.compile(r"```(?:bash|sh|shell)\s*$")
ENV_ASSIGNMENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=")


def documented_commands(doc):
    """``(line number, program, argv)`` of each command in *doc*."""
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
        while argv and ENV_ASSIGNMENT.match(argv[0]):
            argv = argv[1:]
        if argv and argv[0] in PARSERS:
            yield start, argv[0], argv[1:]


def test_documented_commands_parse(capsys):
    failures, parsed = [], set()
    for doc in DOCS:
        for line, program, argv in documented_commands(doc):
            parsed.add((doc, program))
            try:
                PARSERS[program]().parse_args(argv)
            except SystemExit:
                error = capsys.readouterr().err.strip().splitlines()[-1]
                failures.append(f"{doc}:{line}: {error}")
    missing = {(doc, p) for doc in DOCS for p in PARSERS} - parsed
    assert not missing, f"docs lost their commands: {sorted(missing)}"
    assert not failures, "\n".join(failures)
