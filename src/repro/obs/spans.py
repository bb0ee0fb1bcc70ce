"""Hierarchical span tracing with cross-process context propagation.

A *span* times one named unit of work — the study itself, one pipeline
phase, one worker chunk — and records its ancestry, so a trace
directory holds a tree:

    study
    ├─ phase landscapes
    ├─ phase dataset
    ├─ phase optima
    └─ phase experiments
       ├─ worker-chunk tasks[0:8]          (pid 1201)
       └─ worker-chunk tasks[8:16]         (pid 1202)

Spans are the only events a trace holds (``kind == "span"``, schema v3
in :mod:`repro.obs.schema`).  Each process appends to its own
``trace-<pid>.jsonl`` inside the shared trace directory
(:func:`tracer_for_dir`), so no locks or merge steps exist — the reader
stitches the tree back together from ``span_id`` / ``parent_id`` pairs
regardless of which process's file a span landed in.  Per-cell time is
not a span: every result carries its own ``*_seconds_sum`` /
``*_seconds_count`` counters, so the cell path runs the same code
whether or not the study is traced.

Cross-process propagation is by value: a :class:`SpanContext` is a tiny
frozen (picklable, hashable) record of ``(trace_dir, trace_id,
span_id)`` that the study hands to
:class:`~repro.parallel.ParallelMap`; pool workers open their
``worker-chunk`` spans parented on it through their own process-local
tracer.  Every span also samples CPU time and peak RSS on exit, which
:func:`span_attribution` aggregates into per-phase / per-worker
attribution and :func:`render_attribution` prints.

Spans are the study's only region timer.  A scope without a trace
directory still measures and keeps its finished :attr:`SpanScope.doc`
but writes nothing, so the study's phase spans always run and feed its
telemetry (:class:`~repro.experiments.telemetry.StudyTelemetry`) and
``StudyResults.metadata["spans"]``.

Emission never consumes RNG (span ids come from :mod:`uuid`, i.e.
``os.urandom``) and never feeds back into results, so span-traced runs
are bit-identical to untraced ones.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "JsonlTracer",
    "tracer_for_dir",
    "SpanContext",
    "SpanScope",
    "SpanNode",
    "span_clock",
    "format_seconds",
    "new_span_id",
    "child_span",
    "build_span_forest",
    "span_attribution",
    "render_attribution",
    "render_span_tree",
    "worker_timeline",
]

#: Epoch seconds at this process's performance-counter origin.
_EPOCH_OFFSET = time.time() - time.perf_counter()  # repro: noqa[REP002] one wall-clock read anchors span starts to the epoch so spans from different processes line up; durations come from the monotonic counter


def span_clock() -> float:
    """Epoch seconds read from the monotonic performance counter.

    One clock gives both a span's ``start`` (comparable across
    processes) and its ``duration_s`` (monotonic, high resolution).
    """
    return _EPOCH_OFFSET + time.perf_counter()


def format_seconds(seconds: float) -> str:
    """A duration as ``42s``, ``3m07s`` or ``2h05m``."""
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, sec = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{sec:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def new_span_id() -> str:
    """16-hex-char span id from ``os.urandom`` — no numpy RNG touched."""
    return uuid.uuid4().hex[:16]


def _rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB (None where unavailable)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class JsonlTracer:
    """Append-only JSONL event writer.

    Parameters
    ----------
    path:
        Trace file; parent directories are created, the file is opened
        lazily (first event) in append mode.
    clock:
        Wall-clock source for the ``t`` field (injectable for tests).
    """

    def __init__(
        self, path, clock: Callable[[], float] = time.time
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self._fh = None

    def event(self, kind: str, **fields) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        doc = {"t": round(self._clock(), 6), "kind": kind}
        doc.update(fields)
        self._fh.write(json.dumps(doc) + "\n")
        # Flush per line: a killed run loses at most the torn final line.
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: (pid, trace_dir) -> tracer; the pid key means a forked worker opens its
#: own file instead of writing through the parent's inherited handle.
_TRACERS: Dict[tuple, JsonlTracer] = {}


def tracer_for_dir(trace_dir) -> JsonlTracer:
    """The calling process's writer for a shared trace directory.

    Every process (study parent and each pool worker) gets its own
    ``trace-<pid>.jsonl`` file, so trace writes need no cross-process
    locking; readers merge the per-process files.
    """
    key = (os.getpid(), str(trace_dir))
    tracer = _TRACERS.get(key)
    if tracer is None:
        tracer = JsonlTracer(Path(trace_dir) / f"trace-{os.getpid()}.jsonl")
        _TRACERS[key] = tracer
    return tracer


@dataclass(frozen=True)
class SpanContext:
    """Picklable handle for parenting spans across process boundaries.

    ``trace_dir`` names the shared trace directory (each process appends
    to its own file inside it; ``None`` for in-memory spans),
    ``trace_id`` identifies the whole study trace, and ``span_id`` is
    the parent span new children attach to.
    Frozen and hashable so it can ride inside frozen task dataclasses
    and grouped-dispatch keys.
    """

    trace_dir: Optional[str]
    trace_id: str
    span_id: str


class SpanScope:
    """Context manager that times a block into one ``span`` doc.

    The span's identity (:attr:`ctx`) exists from construction — before
    ``__enter__`` — so a caller can mint the context, hand it to child
    tasks, and only then start the clock.  On exit the finished doc —
    wall start/duration, CPU seconds, peak RSS, and the ancestry fields —
    is kept as :attr:`doc` and, with a ``trace_dir``, appended to this
    process's trace file as a ``span`` event.
    """

    __slots__ = (
        "trace_dir", "name", "subject", "parent_id", "trace_id",
        "span_id", "ctx", "doc", "_fields", "_start", "_c0", "_clock",
    )

    def __init__(
        self,
        trace_dir,
        name: str,
        subject: str = "",
        parent: Optional[SpanContext] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        fields: Optional[dict] = None,
        clock=span_clock,
    ) -> None:
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.name = name
        self.subject = subject
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = (
            trace_id
            if trace_id is not None
            else (parent.trace_id if parent is not None else new_span_id())
        )
        self.span_id = span_id if span_id is not None else new_span_id()
        self.ctx = SpanContext(self.trace_dir, self.trace_id, self.span_id)
        self._fields = dict(fields or {})
        self._clock = clock
        #: The finished span (``kind == "span"``), set on exit.
        self.doc: Optional[dict] = None

    def __enter__(self) -> SpanContext:
        self._start = self._clock()
        self._c0 = time.process_time()
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        doc = dict(
            kind="span",
            span_id=self.span_id,
            trace_id=self.trace_id,
            name=self.name,
            start=round(self._start, 6),
            duration_s=round(self._clock() - self._start, 6),
            cpu_s=round(time.process_time() - self._c0, 6),
            pid=os.getpid(),
        )
        if self.subject:
            doc["subject"] = self.subject
        if self.parent_id is not None:
            doc["parent_id"] = self.parent_id
        rss = _rss_kb()
        if rss is not None:
            doc["rss_kb"] = rss
        if exc_type is not None:
            doc["error"] = exc_type.__name__
        doc.update(self._fields)
        self.doc = doc
        if self.trace_dir is not None:
            tracer_for_dir(self.trace_dir).event(**doc)


def child_span(
    ctx: SpanContext, name: str, subject: str = "", **fields
) -> SpanScope:
    """A :class:`SpanScope` parented on a propagated context."""
    return SpanScope(
        ctx.trace_dir, name, subject=subject, parent=ctx, fields=fields
    )


# -- reading the tree back ----------------------------------------------------


@dataclass
class SpanNode:
    """One span plus its children, rebuilt from trace events."""

    event: dict
    children: List["SpanNode"]

    @property
    def name(self) -> str:
        return str(self.event.get("name", "?"))

    @property
    def subject(self) -> str:
        return str(self.event.get("subject", ""))

    @property
    def start(self) -> float:
        return float(self.event.get("start", 0.0))

    @property
    def duration_s(self) -> float:
        return float(self.event.get("duration_s", 0.0))

    @property
    def cpu_s(self) -> float:
        return float(self.event.get("cpu_s", 0.0))

    @property
    def pid(self) -> Optional[int]:
        pid = self.event.get("pid")
        return int(pid) if pid is not None else None

    @property
    def node(self) -> Optional[str]:
        """Node name of the machine that ran this span (socket-executor
        ``worker-chunk`` spans only; ``None`` for local execution)."""
        node = self.event.get("node")
        return str(node) if node is not None else None

    @property
    def label(self) -> str:
        return f"{self.name} {self.subject}".strip()


def build_span_forest(events: Iterable[dict]) -> List[SpanNode]:
    """Rebuild the span tree(s) from a merged event stream.

    Spans whose parent never appears (a killed worker's torn parent, or
    an event filtered upstream) become roots — the forest is always
    complete, never silently dropped.  Children sort by start time.
    """
    nodes: Dict[str, SpanNode] = {}
    order: List[SpanNode] = []
    for doc in events:
        if doc.get("kind") != "span" or "span_id" not in doc:
            continue
        node = SpanNode(event=doc, children=[])
        nodes[str(doc["span_id"])] = node
        order.append(node)
    roots: List[SpanNode] = []
    for node in order:
        parent = node.event.get("parent_id")
        if parent is not None and str(parent) in nodes:
            nodes[str(parent)].children.append(node)
        else:
            roots.append(node)
    for node in order:
        node.children.sort(key=lambda n: (n.start, n.label))
    roots.sort(key=lambda n: (n.start, n.label))
    return roots


def _union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals.

    Spans nest (a phase inside its study), so summing durations
    would double-count; the union length is the true busy time.
    """
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_attribution(events: Iterable[dict]) -> dict:
    """Per-phase and per-worker wall-time attribution from span events.

    Returns::

        {"total_s": <study span duration or observed extent>,
         "phases": {"<subject>": {"wall_s", "cpu_s"}},
         "workers": {<pid>: {"busy_s", "cpu_s", "spans", "rss_kb_peak"}},
         "nodes": {<node>: {"busy_s", "cpu_s", "spans"}},
         "study_pid": <pid of the study root span, if present>}

    ``nodes`` aggregates socket-executor spans by machine (a node may
    host many worker pids); it is empty for local-only traces.  A pid's
    ``cpu_s`` sums only its outermost spans — those whose parent is
    absent or ran in another process — because a nested span's CPU is
    already inside its parent's.
    """
    spans = [e for e in events if e.get("kind") == "span"]
    pid_of = {str(e.get("span_id")): e.get("pid") for e in spans}
    phases: Dict[str, dict] = {}
    per_pid: Dict[int, dict] = {}
    per_node: Dict[str, dict] = {}
    node_intervals: Dict[str, List[Tuple[float, float]]] = {}
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    study_pid = None
    total = 0.0
    lo = float("inf")
    hi = -float("inf")
    for doc in spans:
        start = float(doc.get("start", 0.0))
        dur = float(doc.get("duration_s", 0.0))
        cpu = float(doc.get("cpu_s", 0.0))
        lo = min(lo, start)
        hi = max(hi, start + dur)
        if doc.get("name") == "study":
            study_pid = doc.get("pid")
            total = max(total, dur)
        elif doc.get("name") == "phase":
            entry = phases.setdefault(
                str(doc.get("subject", "?")), {"wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["wall_s"] += dur
            entry["cpu_s"] += cpu
        node = doc.get("node")
        if node is not None:
            node = str(node)
            nstats = per_node.setdefault(
                node, {"busy_s": 0.0, "cpu_s": 0.0, "spans": 0}
            )
            nstats["spans"] += 1
            nstats["cpu_s"] += cpu
            node_intervals.setdefault(node, []).append((start, start + dur))
        pid = doc.get("pid")
        if pid is None:
            continue
        pid = int(pid)
        stats = per_pid.setdefault(
            pid, {"busy_s": 0.0, "cpu_s": 0.0, "spans": 0, "rss_kb_peak": 0}
        )
        stats["spans"] += 1
        if pid_of.get(str(doc.get("parent_id"))) != pid:
            stats["cpu_s"] += cpu
        rss = doc.get("rss_kb")
        if isinstance(rss, (int, float)):
            stats["rss_kb_peak"] = max(stats["rss_kb_peak"], int(rss))
        intervals.setdefault(pid, []).append((start, start + dur))
    for pid, ivals in intervals.items():
        per_pid[pid]["busy_s"] = round(_union_seconds(ivals), 6)
    for node, ivals in node_intervals.items():
        per_node[node]["busy_s"] = round(_union_seconds(ivals), 6)
    if not total and hi > lo:
        total = hi - lo
    return {
        "total_s": round(total, 6),
        "phases": {
            k: {f: round(v, 6) for f, v in stats.items()}
            for k, stats in sorted(phases.items())
        },
        "workers": {
            pid: {
                **stats,
                "cpu_s": round(stats["cpu_s"], 6),
                "busy_s": round(stats["busy_s"], 6),
            }
            for pid, stats in sorted(per_pid.items())
        },
        "nodes": {
            node: {
                **stats,
                "cpu_s": round(stats["cpu_s"], 6),
                "busy_s": round(stats["busy_s"], 6),
            }
            for node, stats in sorted(per_node.items())
        },
        "study_pid": study_pid,
    }


def render_attribution(attr: dict) -> str:
    """The text block of :func:`span_attribution`'s result: the study
    total, then one line per phase and per worker pid."""
    total = attr["total_s"]
    lines = [f"profile: {total:.3f}s total"]
    for phase, st in attr["phases"].items():
        share = 100.0 * st["wall_s"] / total if total > 0 else 0.0
        lines.append(
            f"  phase {phase:<14} wall {st['wall_s']:>9.3f}s  "
            f"cpu {st['cpu_s']:>9.3f}s  {share:5.1f}%"
        )
    for pid, st in attr["workers"].items():
        lines.append(
            f"  pid {pid:<10} busy {st['busy_s']:>9.3f}s  "
            f"cpu {st['cpu_s']:>9.3f}s  spans {st['spans']:>4}  "
            f"rss {st['rss_kb_peak']} KiB"
        )
    return "\n".join(lines)


def render_span_tree(
    roots: List[SpanNode], max_depth: Optional[int] = None
) -> str:
    """Indented text rendering of a span forest with durations and pids."""
    lines: List[str] = []

    def walk(node: SpanNode, prefix: str, is_last: bool, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        connector = "└─ " if is_last else "├─ "
        if depth == 0:
            connector = ""
        detail = f"{node.duration_s:.3f}s"
        if node.cpu_s:
            detail += f" cpu {node.cpu_s:.3f}s"
        if node.pid is not None:
            detail += f" [pid {node.pid}]"
        if node.node is not None:
            detail += f" [node {node.node}]"
        lines.append(f"{prefix}{connector}{node.label}  {detail}")
        child_prefix = prefix + ("   " if is_last else "│  ")
        if depth == 0:
            child_prefix = ""
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, depth + 1)

    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1, 0)
    return "\n".join(lines)


def worker_timeline(events: Iterable[dict], width: int = 60) -> str:
    """ASCII per-worker utilization timeline.

    One row per pid; each column covers ``total/width`` seconds of the
    study extent, shaded by that worker's busy fraction in the bucket
    (`` ``, ``.``, ``:``, ``#`` for 0 / <1/3 / <2/3 / more).
    """
    spans = [e for e in events if e.get("kind") == "span"]
    if not spans:
        return "(no spans)"
    lo = min(float(e.get("start", 0.0)) for e in spans)
    hi = max(
        float(e.get("start", 0.0)) + float(e.get("duration_s", 0.0))
        for e in spans
    )
    extent = max(hi - lo, 1e-9)
    per_pid: Dict[int, List[Tuple[float, float]]] = {}
    for doc in spans:
        pid = doc.get("pid")
        if pid is None:
            continue
        start = float(doc.get("start", 0.0))
        per_pid.setdefault(int(pid), []).append(
            (start, start + float(doc.get("duration_s", 0.0)))
        )
    shades = " .:#"
    lines = [f"timeline: {extent:.3f}s across {width} columns"]
    for pid in sorted(per_pid):
        row = []
        for col in range(width):
            b_lo = lo + extent * col / width
            b_hi = lo + extent * (col + 1) / width
            busy = _union_seconds(
                [
                    (max(s, b_lo), min(e, b_hi))
                    for s, e in per_pid[pid]
                    if e > b_lo and s < b_hi
                ]
            )
            frac = busy / (b_hi - b_lo)
            row.append(shades[min(3, int(frac * 3 + 0.999))])
        lines.append(f"pid {pid:>8} |{''.join(row)}|")
    return "\n".join(lines)
