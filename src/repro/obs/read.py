"""Read, summarize, validate, and live-tail search-trajectory traces.

Usage::

    python -m repro.obs.read TRACE [TRACE ...]
        [--validate] [--cells] [--spans] [--json]
        [--follow] [--interval SECONDS] [--max-polls N]

``TRACE`` is a trace JSONL file or a trace directory (every ``*.jsonl``
inside is read — the study writes one file per worker process).  The
default output is a summary: event counts by kind, number of cells, and
evaluation totals.  ``--cells`` adds a per-cell table (evaluate events,
incumbent updates, best runtime); ``--spans`` renders the hierarchical
span tree with per-phase/per-worker attribution and a worker-utilization
timeline (see :mod:`repro.obs.spans`).  ``--validate`` checks every
event against :mod:`repro.obs.schema` and exits non-zero on the first
invalid trace — CI runs a tiny traced study and gates on exactly this.

``--follow`` polls the trace for new events (``tail -f`` for JSONL):
each poll prints only the newly appended complete lines, tolerating a
torn final line the same way checkpoint loading does — a line without a
trailing newline is left unconsumed until its writer finishes it (or,
if the file shrank underneath us, the reader restarts from the top).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from .schema import validate_trace_path

__all__ = [
    "iter_trace_events",
    "summarize_events",
    "JsonlTail",
    "TraceTail",
    "main",
]


def _trace_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.glob("*.jsonl")))
        else:
            files.append(path)
    return files


def iter_trace_events(paths: Iterable[Path]) -> Iterator[dict]:
    """Parsed events from files/directories, skipping torn final lines."""
    for path in _trace_files(paths):
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    continue  # torn final line from a killed writer
                raise


class JsonlTail:
    """Incremental reader of one append-only JSONL file.

    Each :meth:`poll` returns the events appended since the previous
    poll.  Only bytes up to the last newline are consumed — a torn final
    line (a writer killed or still mid-write) stays in the file until a
    later poll sees its terminator, mirroring the checkpoint loader's
    torn-line tolerance.  If the file shrinks below the consumed offset
    (trimmed by ``StudyCheckpoint.open()`` on resume, or replaced), the
    tail restarts from byte zero rather than reading garbage.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.offset = 0

    def poll(self) -> List[dict]:
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self.offset:
            self.offset = 0  # truncated/replaced underneath us
        if size == self.offset:
            return []
        with self.path.open("rb") as fh:
            fh.seek(self.offset)
            chunk = fh.read(size - self.offset)
        # Consume only through the last complete line; a torn tail is
        # someone's in-flight write, not ours to parse yet.
        end = chunk.rfind(b"\n")
        if end < 0:
            return []
        self.offset += end + 1
        events: List[dict] = []
        for line in chunk[: end + 1].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn interior write glued by a crash; skip
        return events


class TraceTail:
    """Incremental reader of a whole trace directory (or one file).

    Rescans the directory each poll so worker files created after the
    tail started are picked up; per-file offsets live in
    :class:`JsonlTail` instances.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._tails: Dict[Path, JsonlTail] = {}

    def poll(self) -> List[dict]:
        if self.path.is_dir():
            files = sorted(self.path.glob("*.jsonl"))
        elif self.path.exists():
            files = [self.path]
        else:
            files = []
        events: List[dict] = []
        for f in files:
            tail = self._tails.get(f)
            if tail is None:
                tail = self._tails[f] = JsonlTail(f)
            events.extend(tail.poll())
        return events


def summarize_events(events: Iterable[dict]) -> dict:
    """Aggregate a trace into kind counts and per-cell statistics."""
    kinds: Dict[str, int] = {}
    cells: Dict[str, dict] = {}
    for doc in events:
        kind = doc.get("kind", "<missing>")
        kinds[kind] = kinds.get(kind, 0) + 1
        cell = doc.get("cell")
        if cell is None:
            continue
        stats = cells.setdefault(
            cell,
            {"evaluate": 0, "incumbent_update": 0, "best_ms": None,
             "model_fit": 0},
        )
        if kind == "evaluate":
            stats["evaluate"] += 1
            best = doc.get("best_ms")
            if isinstance(best, (int, float)):
                stats["best_ms"] = best
        elif kind in ("incumbent_update", "model_fit"):
            stats[kind] += 1
    return {
        "events": sum(kinds.values()),
        "kinds": dict(sorted(kinds.items())),
        "cells": cells,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.read",
        description="Summarize and validate search-trajectory trace files.",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="TRACE",
        help="trace .jsonl file(s) or trace directories",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="validate every event against the trace schema; exit 1 on "
             "any error",
    )
    parser.add_argument(
        "--cells", action="store_true",
        help="print a per-cell table (evaluations, incumbents, best ms)",
    )
    parser.add_argument(
        "--spans", action="store_true",
        help="render the hierarchical span tree, per-phase/per-worker "
             "time attribution, and a worker-utilization timeline",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the summary as JSON instead of text",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="poll for newly appended events and print them as they "
             "arrive (tail -f for trace JSONL; torn-last-line tolerant)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll interval for --follow (default 1s)",
    )
    parser.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="stop --follow after N polls (default: run until killed)",
    )
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing and not args.follow:
        for p in missing:
            print(f"error: {p} does not exist", file=sys.stderr)
        return 2

    if args.follow:
        return _follow(paths, args.interval, args.max_polls)

    if args.validate:
        errors: List[str] = []
        for p in paths:
            errors.extend(validate_trace_path(p))
        if errors:
            for err in errors:
                print(f"schema error: {err}", file=sys.stderr)
            print(f"{len(errors)} schema error(s)", file=sys.stderr)
            return 1

    summary = summarize_events(iter_trace_events(paths))
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    print(f"events: {summary['events']}")
    for kind, n in summary["kinds"].items():
        print(f"  {kind}: {n}")
    print(f"cells: {len(summary['cells'])}")
    if args.cells:
        width = max((len(c) for c in summary["cells"]), default=4)
        print(f"{'cell':<{width}}  evals  incumbents  model_fits  best_ms")
        for cell in sorted(summary["cells"]):
            s = summary["cells"][cell]
            best = "-" if s["best_ms"] is None else f"{s['best_ms']:.4f}"
            print(
                f"{cell:<{width}}  {s['evaluate']:>5}  "
                f"{s['incumbent_update']:>10}  {s['model_fit']:>10}  {best}"
            )
    if args.spans:
        from .spans import (
            build_span_forest,
            render_attribution,
            render_span_tree,
            span_attribution,
            worker_timeline,
        )

        events = list(iter_trace_events(paths))
        forest = build_span_forest(events)
        if not forest:
            print("spans: none recorded")
        else:
            print()
            print(render_span_tree(forest))
            print()
            print(render_attribution(span_attribution(events)))
            print()
            print(worker_timeline(events))
    if args.validate:
        print("schema: OK")
    return 0


def _follow(
    paths: List[Path],
    interval: float,
    max_polls: Optional[int],
    out=None,
    sleep=time.sleep,
) -> int:
    """Tail trace paths, printing each newly appended event as JSON."""
    out = out if out is not None else sys.stdout
    tails = [TraceTail(p) for p in paths]
    polls = 0
    try:
        while True:
            for tail in tails:
                for event in tail.poll():
                    print(json.dumps(event, sort_keys=True), file=out)
            out.flush()
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return 0
            sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
