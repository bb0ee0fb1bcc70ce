"""The trace event schema and its validator.

Every event is a flat JSON object with the common fields

* ``t`` — wall-clock timestamp (seconds since the epoch, float),
* ``kind`` — one of :data:`EVENT_KINDS`,

plus per-kind required fields (:data:`EVENT_FIELDS`).  Extra fields are
always allowed (forward compatibility); missing required fields, wrong
basic types, or unknown kinds are validation errors.

Schema history:

* v1 — per-cell trajectory events (``tuner_start``, ``evaluate``,
  ``incumbent_update``, ``model_fit``, ``propose``, ``tuner_end``,
  ``experiment_end``), each carrying the cell key.
* v2 — adds the ``span`` kind (hierarchical span tracing, see
  :mod:`repro.obs.spans`).
* v3 — ``span`` is the only kind.  The trajectory kinds are gone: each
  result already holds its best-so-far curve and its per-cell timing
  counters, so a trace records only the study, phase and worker-chunk
  spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EVENT_FIELDS",
    "validate_event",
    "validate_trace_lines",
    "validate_trace_path",
]

TRACE_SCHEMA_VERSION = 3

#: kind -> required fields beyond the common (t, kind) pair.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # One completed hierarchical span (repro.obs.spans).  Ancestry
    # fields (parent_id, trace_id) and resource samples (cpu_s, rss_kb)
    # are optional extras; ``subject`` names what the span covered
    # (phase name, task slice).
    "span": ("span_id", "name", "start", "duration_s", "pid"),
}

EVENT_KINDS = tuple(EVENT_FIELDS)

_COMMON = ("t", "kind")

#: field -> acceptable types, for the basic fields worth checking.
_FIELD_TYPES: Dict[str, tuple] = {
    "t": (int, float),
    "duration_s": (int, float),
    "span_id": (str,),
    "parent_id": (str,),
    "trace_id": (str,),
    "name": (str,),
    "subject": (str,),
    "start": (int, float),
    "pid": (int,),
    "cpu_s": (int, float),
    "rss_kb": (int,),
    "error": (str,),
}


def validate_event(doc: object) -> List[str]:
    """Schema errors for one parsed event (empty list = valid)."""
    if not isinstance(doc, dict):
        return [f"event is not an object: {type(doc).__name__}"]
    errors: List[str] = []
    for name in _COMMON:
        if name not in doc:
            errors.append(f"missing common field {name!r}")
    kind = doc.get("kind")
    if kind is not None:
        if kind not in EVENT_FIELDS:
            errors.append(f"unknown event kind {kind!r}")
        else:
            for name in EVENT_FIELDS[kind]:
                if name not in doc:
                    errors.append(f"{kind}: missing field {name!r}")
    for name, types in _FIELD_TYPES.items():
        if name not in doc:
            continue
        value = doc[name]
        # bool is an int subclass but never a valid field value here.
        if isinstance(value, bool) or not isinstance(value, types):
            errors.append(
                f"field {name!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return errors


def validate_trace_lines(
    lines: Iterable[str], source: str = "<trace>"
) -> List[str]:
    """Validate raw JSONL lines; returns error strings with positions.

    A torn (unparseable) *final* line is tolerated — it is the signature
    of a killed writer, same as the study checkpoint format.
    """
    errors: List[str] = []
    lines = list(lines)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                continue  # torn final line from a killed writer
            errors.append(f"{source}:{lineno}: not valid JSON")
            continue
        for err in validate_event(doc):
            errors.append(f"{source}:{lineno}: {err}")
    return errors


def validate_trace_path(path) -> List[str]:
    """Validate one trace file, or every ``*.jsonl`` under a directory."""
    path = Path(path)
    if path.is_dir():
        errors: List[str] = []
        for child in sorted(path.glob("*.jsonl")):
            errors.extend(validate_trace_path(child))
        return errors
    return validate_trace_lines(
        path.read_text().splitlines(), source=str(path)
    )
