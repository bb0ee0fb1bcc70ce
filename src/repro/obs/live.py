"""Live monitoring of an in-flight study: ``repro-study --watch``.

A long study already streams everything a monitor needs — completed
cells into its JSONL checkpoint, trajectory and span events into its
trace directory.  :class:`StudyWatch` tails both *read-only* (byte-offset
polling via :class:`~repro.obs.read.JsonlTail`; it never opens the
checkpoint for append, never trims, never touches the run) and derives:

* progress — completed/failed cell counts against the planned total
  (the checkpoint's ``plan`` line, written by the study at startup);
* throughput and ETA — from a sliding window of recent completions, so
  the estimate tracks the current phase rather than the whole history;
* trace activity — event counts by kind, live span starts.

Torn final lines are tolerated exactly like checkpoint resume: a line
still being written is left unconsumed until a later poll sees its
newline.

::

    repro-study ... --checkpoint ck.jsonl --trace-dir traces &
    repro-study --watch --checkpoint ck.jsonl --trace-dir traces
"""

from __future__ import annotations

import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .read import JsonlTail, TraceTail
from .spans import format_seconds

__all__ = ["StudyWatch", "watch_study"]

#: Sliding completion-rate window (seconds) for throughput/ETA.
RATE_WINDOW_S = 60.0


class StudyWatch:
    """Read-only tail of one study's checkpoint + trace files."""

    def __init__(
        self,
        checkpoint=None,
        trace_dir=None,
        clock: Callable[[], float] = time.monotonic,
        rate_window_s: float = RATE_WINDOW_S,
    ) -> None:
        if checkpoint is None and trace_dir is None:
            raise ValueError("watch needs a checkpoint and/or trace dir")
        self._ckpt_tail = (
            JsonlTail(checkpoint) if checkpoint is not None else None
        )
        self._trace_tail = (
            TraceTail(trace_dir) if trace_dir is not None else None
        )
        self._clock = clock
        self._window = float(rate_window_s)
        self.total: Optional[int] = None
        self.plan: Dict[str, object] = {}
        self.completed = 0
        self.failed = 0
        self.event_kinds: Dict[str, int] = {}
        self.last_cell: Optional[str] = None
        self._completions: Deque[Tuple[float, int]] = deque()

    # -- polling --------------------------------------------------------------
    def poll(self) -> dict:
        """Consume new lines and return the current status snapshot."""
        now = self._clock()
        if self._ckpt_tail is not None:
            for doc in self._ckpt_tail.poll():
                self._checkpoint_line(doc, now)
        if self._trace_tail is not None:
            for doc in self._trace_tail.poll():
                kind = str(doc.get("kind", "<missing>"))
                self.event_kinds[kind] = self.event_kinds.get(kind, 0) + 1
        while (
            self._completions
            and now - self._completions[0][0] > self._window
        ):
            self._completions.popleft()
        return self.status(now)

    def _checkpoint_line(self, doc: dict, now: float) -> None:
        kind = doc.get("kind")
        if kind == "plan":
            self.plan = dict(doc.get("data") or {})
            # A plan written while adaptive replication existed names its
            # cell count ``budget_cells``; resumed, such a study runs
            # exactly that many cells of the fixed design.
            total = self.plan.get(
                "total_cells", self.plan.get("budget_cells")
            )
            if isinstance(total, int):
                self.total = total
        elif kind == "result":
            self.completed += 1
            self.last_cell = doc.get("cell_key")
            self._completions.append((now, self.completed))
        elif kind == "failure":
            self.failed += 1
            self.last_cell = doc.get("cell_key")

    # -- derived --------------------------------------------------------------
    def throughput(self, now: Optional[float] = None) -> float:
        """Completions per second over the sliding window."""
        if len(self._completions) < 2:
            return 0.0
        now = now if now is not None else self._clock()
        t0, n0 = self._completions[0]
        t1, n1 = self._completions[-1]
        dt = t1 - t0
        return (n1 - n0) / dt if dt > 0 else 0.0

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        if self.total is None:
            return None
        rate = self.throughput(now)
        if rate <= 0:
            return None
        remaining = self.total - self.completed - self.failed
        return max(0.0, remaining / rate)

    def status(self, now: Optional[float] = None) -> dict:
        eta = self.eta_seconds(now)
        return {
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "throughput_per_s": round(self.throughput(now), 3),
            "eta_seconds": round(eta, 1) if eta is not None else None,
            "last_cell": self.last_cell,
            "event_kinds": dict(sorted(self.event_kinds.items())),
            "plan": dict(self.plan),
        }

    def render(self, status: Optional[dict] = None) -> str:
        """One human-readable progress line from a status snapshot."""
        st = status if status is not None else self.status()
        total = st["total"]
        done = st["completed"] + st["failed"]
        parts: List[str] = []
        if total:
            pct = 100.0 * done / total if total else 0.0
            parts.append(f"cells {done}/{total} ({pct:.0f}%)")
        else:
            parts.append(f"cells {done}")
        if st["failed"]:
            parts.append(f"{st['failed']} failed")
        rate = st["throughput_per_s"]
        if rate:
            parts.append(f"{rate:.1f}/s")
        if st["eta_seconds"] is not None and total and done < total:
            parts.append(f"ETA {format_seconds(st['eta_seconds'])}")
        if st["event_kinds"]:
            evals = st["event_kinds"].get("evaluate", 0)
            spans = st["event_kinds"].get("span", 0)
            trace = f"{evals} evaluations"
            if spans:
                trace += f", {spans} spans"
            parts.append(trace)
        if st["last_cell"]:
            parts.append(f"last {st['last_cell']}")
        return " | ".join(parts)


def watch_study(
    checkpoint=None,
    trace_dir=None,
    interval: float = 2.0,
    max_polls: Optional[int] = None,
    emit: Optional[Callable[[str], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> int:
    """Poll an in-flight study and emit progress lines until done.

    Exits 0 when the plan's total cell count is reached (or after
    ``max_polls`` polls); the watcher never writes to any study file.
    """
    emit = emit if emit is not None else (
        lambda line: print(line, file=sys.stderr)
    )
    missing = [
        str(p) for p in (checkpoint, trace_dir)
        if p is not None and not Path(p).exists()
    ]
    if missing:
        emit(f"waiting for {', '.join(missing)} to appear…")
    watch = StudyWatch(
        checkpoint=checkpoint, trace_dir=trace_dir, clock=clock
    )
    polls = 0
    last_line = None
    try:
        while True:
            status = watch.poll()
            line = watch.render(status)
            if line != last_line:
                emit(line)
                last_line = line
            polls += 1
            done = status["completed"] + status["failed"]
            if status["total"] is not None and done >= status["total"]:
                emit("study complete")
                return 0
            if max_polls is not None and polls >= max_polls:
                return 0
            sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
