"""Zero-dependency observability: trajectory tracing and metrics.

The study pipeline only ever recorded the *final* best configuration per
cell; everything the paper argues about — how each search technique
spends its sample budget — happened invisibly inside a tuner run.  This
package makes that trajectory first-class:

* :mod:`repro.obs.trace` — structured event tracing to append-only
  JSONL, with a no-op implementation whose disabled-path overhead is a
  single attribute check;
* :mod:`repro.obs.metrics` — a process-local registry of unlabeled
  counters (timings are ``*_seconds_sum`` / ``*_seconds_count`` pairs),
  exportable as JSON and Prometheus text format;
* :mod:`repro.obs.schema` — the trace event schema and its validator;
* :mod:`repro.obs.read` — ``python -m repro.obs.read`` for summarizing,
  validating, and live-tailing (``--follow``) trace files;
* :mod:`repro.obs.spans` — hierarchical span tracing (study → phase →
  replication-group → cell) with cross-process context
  propagation, tree/timeline readers and the per-phase/per-worker
  wall/CPU/RSS attribution; spans are the study's only region timer;
* :mod:`repro.obs.runs` — the content-addressed run ledger and the
  ``repro-runs`` list/show/diff CLI;
* :mod:`repro.obs.live` — read-only live monitoring of an in-flight
  study (``repro-study --watch``).

Everything here is dependency-free and import-light so the hot paths
(``Objective.evaluate``, the GPU simulator) can reference it without
cost when observability is off.  The CLI modules (:mod:`~repro.obs.read`
and :mod:`~repro.obs.runs`, and :mod:`~repro.obs.live` on top of
``read``) load on first use of their names, so ``python -m`` can run
them without the package having imported them first.
"""

import importlib

from .metrics import (
    Counter,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
    to_prometheus,
)
from .schema import (
    TRACE_SCHEMA_VERSION,
    validate_event,
    validate_trace_lines,
    validate_trace_path,
)
from .spans import (
    SpanContext,
    SpanScope,
    build_span_forest,
    child_span,
    render_attribution,
    render_span_tree,
    span_attribution,
    worker_timeline,
)
from .trace import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    Tracer,
    tracer_for_dir,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "JsonlTracer",
    "NULL_TRACER",
    "tracer_for_dir",
    "MetricsRegistry",
    "Counter",
    "global_registry",
    "reset_global_registry",
    "to_prometheus",
    "TRACE_SCHEMA_VERSION",
    "validate_event",
    "validate_trace_lines",
    "validate_trace_path",
    "SpanContext",
    "SpanScope",
    "child_span",
    "build_span_forest",
    "span_attribution",
    "render_attribution",
    "render_span_tree",
    "worker_timeline",
    "build_manifest",
    "record_run",
    "list_runs",
    "load_run",
    "diff_runs",
    "StudyWatch",
    "watch_study",
]

#: Lazily imported names -> the submodule that defines them.
_LAZY = dict.fromkeys(("StudyWatch", "watch_study"), "live")
_LAZY.update(dict.fromkeys(
    ("build_manifest", "record_run", "list_runs", "load_run", "diff_runs"),
    "runs",
))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
