"""Lightweight study observability: counts, throughput, ETA, phase times.

A multi-hour study run is opaque without progress signals.
:class:`StudyTelemetry` tracks

* per-phase wall time (dataset collection, optimum scans, experiments),
  read from the study's phase spans (:mod:`repro.obs.spans`),
* completed / failed / skipped (resumed-from-checkpoint) cell counts,
* experiment throughput and a simple remaining-work ETA,

and emits human-readable progress lines through a pluggable ``emit``
callable, so ``run_study(progress=True)`` prints to stdout while tests
and services can capture the same stream.  :meth:`snapshot` returns the
numbers as a dict for structured logging and for
``StudyResults.metadata``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..obs.spans import SpanScope, format_seconds, span_clock

__all__ = ["StudyTelemetry"]


class StudyTelemetry:
    """Progress and timing accumulator for one study run.

    Parameters
    ----------
    emit:
        Sink for progress lines (e.g. ``print``).  ``None`` disables
        emission; counters still accumulate.
    report_every:
        Emit an experiment-progress line every N completed tasks (in
        addition to one final line).
    clock:
        Time source of the telemetry and of its spans, injectable for
        deterministic tests.
    """

    def __init__(
        self,
        emit: Optional[Callable[[str], None]] = None,
        report_every: int = 25,
        clock: Callable[[], float] = span_clock,
    ) -> None:
        self._emit = emit
        self._report_every = max(1, int(report_every))
        self._clock = clock
        self._started = clock()
        #: The study span (see :meth:`study`) and every phase span, in
        #: the order they were opened.
        self._spans: List[SpanScope] = []
        self._trace_dir: Optional[str] = None
        self._parent = None
        self.completed = 0
        self.failed = 0
        self.skipped = 0
        self.total = 0
        #: Executor backend name the study dispatched through
        #: (``None`` = historical auto-selection).
        self.executor: Optional[str] = None
        self._tasks_started: Optional[float] = None

    # -- emission -------------------------------------------------------------
    def line(self, message: str) -> None:
        """Emit one progress line (no-op without a sink)."""
        if self._emit is not None:
            self._emit(message)

    # -- spans ----------------------------------------------------------------
    def study(self, trace_dir: Optional[str], subject: str) -> SpanScope:
        """The study's root span; phases opened after it are its
        children.  ``trace_dir=None`` keeps every span in memory."""
        scope = SpanScope(
            trace_dir, "study", subject=subject, clock=self._clock
        )
        self._trace_dir = trace_dir
        self._parent = scope.ctx
        self._spans.append(scope)
        return scope

    def phase(self, name: str) -> SpanScope:
        """The span of one named phase (a context manager).  Its
        :attr:`~repro.obs.spans.SpanScope.ctx` exists before it is
        entered, so child tasks can carry it."""
        scope = SpanScope(
            self._trace_dir, "phase", subject=name, parent=self._parent,
            clock=self._clock,
        )
        self._spans.append(scope)
        return scope

    def span_docs(self) -> List[dict]:
        """The finished study and phase span docs, in opening order."""
        return [s.doc for s in self._spans if s.doc is not None]

    def _phase_docs(self) -> List[dict]:
        return [d for d in self.span_docs() if d["name"] == "phase"]

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall seconds per phase name, summed over repeated phases."""
        acc: Dict[str, float] = {}
        for doc in self._phase_docs():
            name = doc["subject"]
            acc[name] = acc.get(name, 0.0) + doc["duration_s"]
        return acc

    # -- experiment progress ---------------------------------------------------
    def start_tasks(self, total: int, skipped: int = 0) -> None:
        """Begin the experiment phase: ``total`` cells to run now,
        ``skipped`` already satisfied by a checkpoint."""
        self.total = int(total)
        self.skipped = int(skipped)
        self._tasks_started = self._clock()
        if skipped:
            self.line(
                f"checkpoint: {skipped} cells already complete, "
                f"{total} to run"
            )

    def task_finished(self, ok: bool) -> None:
        """Record one finished cell and emit a periodic progress line."""
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        done = self.completed + self.failed
        if done == self.total or done % self._report_every == 0:
            self.line(self.progress_line())

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def throughput(self) -> float:
        """Finished experiments per second (0.0 before any finish)."""
        if self._tasks_started is None:
            return 0.0
        dt = self._clock() - self._tasks_started
        done = self.completed + self.failed
        return done / dt if dt > 0 and done > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to finish the experiment phase."""
        rate = self.throughput()
        if rate <= 0:
            return None
        remaining = self.total - self.completed - self.failed
        return max(0.0, remaining / rate)

    def progress_line(self) -> str:
        done = self.completed + self.failed
        parts = [f"experiments: {done}/{self.total}"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        rate = self.throughput()
        if rate > 0:
            parts.append(f"{rate:.1f}/s")
        eta = self.eta_seconds()
        if eta is not None and done < self.total:
            parts.append(f"ETA {format_seconds(eta)}")
        return ", ".join(parts)

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """The run's telemetry as a JSON-serializable dict."""
        eta = self.eta_seconds()
        return {
            "completed": self.completed,
            "failed": self.failed,
            "skipped": self.skipped,
            "total": self.total,
            "executor": self.executor,
            "elapsed_seconds": round(self.elapsed, 3),
            "throughput_per_s": round(self.throughput(), 3),
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "phase_seconds": {
                k: round(v, 3) for k, v in self.phase_seconds.items()
            },
            # One entry per phase span, so repeated phases each appear;
            # ``started_at`` is seconds since telemetry construction.
            "phases": [
                {
                    "name": doc["subject"],
                    "started_at": round(doc["start"] - self._started, 3),
                    "seconds": round(doc["duration_s"], 3),
                }
                for doc in self._phase_docs()
            ],
        }
