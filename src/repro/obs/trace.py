"""Structured search-trajectory tracing to append-only JSONL.

A *trace* is a stream of flat JSON events — tuner lifecycle, per-iteration
``propose`` / ``model_fit`` / ``evaluate`` / ``incumbent_update`` records
with wall time, configuration, runtime and budget index (see
:mod:`repro.obs.schema` for the event catalogue).  Three tracer flavours:

* :class:`NullTracer` (singleton :data:`NULL_TRACER`) — the default
  everywhere.  Its disabled path is one ``tracer.enabled`` attribute
  check at each instrumentation site, so tracing-off runs are
  bit-identical to pre-instrumentation behaviour.
* :class:`JsonlTracer` — appends one JSON object per line to a file,
  flushing per line (a killed run loses at most one torn line, which the
  reader skips — the same durability contract as the study checkpoint).
* :func:`tracer_for_dir` — the process-pool-safe entry point: one
  ``trace-<pid>.jsonl`` file per worker process inside a shared trace
  directory, cached per ``(pid, dir)`` so forked workers never write
  through an inherited parent handle.

Events never consume RNG and never feed back into results, so traced and
untraced runs produce identical :class:`~repro.search.base.TuningResult`s.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict

__all__ = [
    "Tracer",
    "NullTracer",
    "JsonlTracer",
    "NULL_TRACER",
    "tracer_for_dir",
]


class Tracer:
    """Base tracer interface.

    ``enabled`` is the hot-path guard: instrumentation sites check it
    before building event payloads, so a disabled tracer costs one
    attribute read.
    """

    enabled: bool = True

    def event(self, kind: str, **fields) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullTracer(Tracer):
    """The no-op tracer: every method is a constant-time no-op."""

    enabled = False

    def event(self, kind: str, **fields) -> None:
        return None


NULL_TRACER = NullTracer()


class JsonlTracer(Tracer):
    """Append-only JSONL tracer.

    Parameters
    ----------
    path:
        Trace file; parent directories are created, the file is opened
        lazily (first event) in append mode.
    clock:
        Wall-clock source for the ``t`` field (injectable for tests).
    """

    enabled = True

    def __init__(
        self, path, clock: Callable[[], float] = time.time
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self._fh = None
        self.events_written = 0

    def event(self, kind: str, **fields) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        doc = {"t": round(self._clock(), 6), "kind": kind}
        doc.update(fields)
        self._fh.write(json.dumps(doc) + "\n")
        # Flush per line: a killed run loses at most the torn final line.
        self._fh.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: (pid, trace_dir) -> tracer; the pid key means a forked worker opens its
#: own file instead of writing through the parent's inherited handle.
_TRACERS: Dict[tuple, JsonlTracer] = {}


def tracer_for_dir(trace_dir) -> JsonlTracer:
    """The calling process's tracer for a shared trace directory.

    Every process (study parent and each pool worker) gets its own
    ``trace-<pid>.jsonl`` file, so trace writes need no cross-process
    locking; readers merge the per-process files (events carry the cell
    key, so attribution never depends on which file a line landed in).
    """
    key = (os.getpid(), str(trace_dir))
    tracer = _TRACERS.get(key)
    if tracer is None:
        tracer = JsonlTracer(Path(trace_dir) / f"trace-{os.getpid()}.jsonl")
        _TRACERS[key] = tracer
    return tracer
