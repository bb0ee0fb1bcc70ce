"""Content-addressed on-disk store of completed tuning results.

One directory, one JSON file per fingerprint, sharded by the first two
hex digits to keep directories small at production entry counts::

    <root>/ab/ab12cd34...90ef.json

Each entry is a self-validating document::

    {
      "format_version": 1,
      "fingerprint": "ab12cd34...",
      "kind": "cell",
      "created": 1699999999.0,
      "simulator_version": 7,
      "identity": { ...the document the fingerprint hashes... },
      "result": { ...ExperimentResult fields... }
    }

Integrity is best-effort by design, mirroring the landscape cache: a
missing, torn, truncated, or stale entry is simply a **miss** — callers
recompute and overwrite, they never crash.  Writes go through
``repro.io.atomic_write_text`` (temp file + ``os.replace``), so a killed
writer never leaves a partial entry that validates, and two processes
racing the same fingerprint converge on one whole entry (last atomic
rename wins; both wrote identical content by construction).

Invalidation is content-driven: bumping ``SIMULATOR_VERSION`` or
``STORE_FORMAT_VERSION`` turns every old entry into a miss, and an
optional TTL expires entries older than ``ttl`` seconds.  ``gc()``
reclaims everything a lookup would refuse.

Stored ``result`` payloads drop metrics keys ending ``_seconds_sum`` —
the same wall-clock scrubbing the checkpoint applies — so entry bytes
are deterministic for deterministic inputs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..gpu.simulator import SIMULATOR_VERSION
from ..io import atomic_write_text
from ..obs.metrics import MetricsRegistry, global_registry

__all__ = [
    "ResultStore",
    "default_store_dir",
    "STORE_ENV",
    "STORE_FORMAT_VERSION",
]

#: Environment variable naming the on-disk result store directory.
STORE_ENV = "REPRO_RESULT_STORE"

#: On-disk entry layout version; bump on incompatible schema changes.
STORE_FORMAT_VERSION = 1

_ENTRY_SUFFIX = ".json"

_HELP = {
    "result_store_hits_total": "Store lookups answered by a valid entry.",
    "result_store_misses_total": "Store lookups that found no usable entry.",
    "result_store_invalid_total": (
        "Lookups that found an entry but refused it (corrupt, torn, "
        "version-mismatched, or schema-incompatible)."
    ),
    "result_store_expired_total": "Lookups that found a TTL-expired entry.",
    "result_store_writes_total": "Entries written to the store.",
    "result_store_evictions_total": "Entries deleted by gc().",
}


def default_store_dir() -> Optional[Path]:
    """The store directory from ``REPRO_RESULT_STORE``, if set."""
    value = os.environ.get(STORE_ENV, "").strip()
    return Path(value) if value else None


class ResultStore:
    """Fingerprint-keyed store of tuning results.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).
    ttl:
        Optional max entry age in seconds; older entries are misses and
        ``gc()`` fodder.  ``None`` disables expiry.
    metrics:
        Registry receiving hit/miss/eviction counters (the global
        registry by default).
    clock:
        Injectable wall-clock for entry timestamps and TTL checks —
        tests pin it to make expiry deterministic.
    """

    def __init__(
        self,
        root,
        *,
        ttl: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.ttl = ttl
        self._metrics = global_registry() if metrics is None else metrics
        self._clock = clock

    # -- layout ----------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """The entry file a fingerprint maps to."""
        return self.root / fingerprint[:2] / f"{fingerprint}{_ENTRY_SUFFIX}"

    # -- metrics ---------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self._metrics.counter(name, _HELP.get(name, "")).inc(amount)

    def _note(self, reason: str) -> None:
        if reason == "ok":
            self._count("result_store_hits_total")
            return
        self._count("result_store_misses_total")
        if reason == "expired":
            self._count("result_store_expired_total")
        elif reason != "absent":
            self._count("result_store_invalid_total")

    # -- reads -----------------------------------------------------------------
    def _load(self, fingerprint: str) -> Tuple[Optional[dict], str]:
        """One entry with its verdict: ``(doc, "ok")`` or ``(None, why)``."""
        path = self.path_for(fingerprint)
        try:
            text = path.read_text()
        except OSError:
            return None, "absent"
        return self._validate(fingerprint, text)

    def _validate(
        self, fingerprint: str, text: str
    ) -> Tuple[Optional[dict], str]:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return None, "corrupt"
        if not isinstance(doc, dict):
            return None, "corrupt"
        if doc.get("format_version") != STORE_FORMAT_VERSION:
            return None, "format-version"
        if doc.get("fingerprint") != fingerprint:
            return None, "fingerprint-mismatch"
        if doc.get("simulator_version") != SIMULATOR_VERSION:
            return None, "simulator-version"
        if not isinstance(doc.get("result"), dict):
            return None, "corrupt"
        if self.ttl is not None:
            created = doc.get("created")
            if not isinstance(created, (int, float)):
                return None, "corrupt"
            if (self._clock() - created) > self.ttl:
                return None, "expired"
        return doc, "ok"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The validated entry document, or ``None`` (always a miss)."""
        doc, reason = self._load(fingerprint)
        self._note(reason)
        return doc

    def get_result(self, fingerprint: str):
        """The stored :class:`ExperimentResult`, or ``None`` on any miss."""
        # Lazy import: repro.experiments.__init__ pulls in study, which
        # imports this package — a module-level import would recurse.
        from ..experiments.results import ExperimentResult

        doc, reason = self._load(fingerprint)
        if doc is not None:
            try:
                result = ExperimentResult(**doc["result"])
            except TypeError:
                # Field set from another schema generation: refuse it the
                # same way a torn entry is refused.
                doc, reason = None, "schema"
            else:
                self._note("ok")
                return result
        self._note(reason)
        return None

    # -- writes ----------------------------------------------------------------
    def put(self, fingerprint: str, identity: dict, payload: dict) -> Path:
        """Write one entry atomically; returns the entry path."""
        kind = identity.get("kind", "cell") if isinstance(identity, dict) \
            else "cell"
        doc = {
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "kind": kind,
            "created": float(self._clock()),
            "simulator_version": SIMULATOR_VERSION,
            "identity": identity,
            "result": payload,
        }
        path = self.path_for(fingerprint)
        atomic_write_text(
            path, json.dumps(doc, sort_keys=True, default=str, indent=1)
        )
        self._count("result_store_writes_total")
        return path

    def put_result(self, fingerprint: str, result, identity: dict) -> Path:
        """Store one :class:`ExperimentResult` under ``fingerprint``."""
        return self.put(fingerprint, identity, result.to_durable_dict())

    # -- maintenance -----------------------------------------------------------
    def entries(self) -> Iterator[Tuple[Path, Optional[dict], str]]:
        """Every entry file with its validation verdict, in path order."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*/*{_ENTRY_SUFFIX}")):
            fingerprint = path.stem
            try:
                text = path.read_text()
            except OSError:
                yield path, None, "unreadable"
                continue
            doc, reason = self._validate(fingerprint, text)
            yield path, doc, reason

    def stats(self) -> dict:
        """Entry counts by verdict plus on-disk footprint."""
        by_reason: Dict[str, int] = {}
        total_bytes = 0
        total = 0
        for path, _doc, reason in self.entries():
            total += 1
            by_reason[reason] = by_reason.get(reason, 0) + 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
        return {
            "root": str(self.root),
            "entries": total,
            "valid": by_reason.get("ok", 0),
            "by_reason": by_reason,
            "total_bytes": total_bytes,
            "ttl": self.ttl,
            "simulator_version": SIMULATOR_VERSION,
            "format_version": STORE_FORMAT_VERSION,
        }

    def gc(self, *, dry_run: bool = False) -> dict:
        """Delete every entry a lookup would refuse; keep valid ones.

        Returns a summary with the kept count and the evicted entries
        (path + refusal reason).  ``dry_run`` reports without deleting.
        """
        evicted = []
        kept = 0
        for path, _doc, reason in self.entries():
            if reason == "ok":
                kept += 1
                continue
            evicted.append({"path": str(path), "reason": reason})
            if dry_run:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self._count("result_store_evictions_total")
            try:
                path.parent.rmdir()  # drop now-empty shard dirs
            except OSError:
                continue
        return {"kept": kept, "evicted": evicted, "dry_run": bool(dry_run)}
