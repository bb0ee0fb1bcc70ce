"""Durable JSONL checkpointing for long-running studies.

The paper's full design is ~3 million kernel samples — hours of compute
even on the simulator — so a study must survive crashes, preemptions and
deliberate interruption.  :class:`StudyCheckpoint` streams every completed
:class:`~repro.experiments.results.ExperimentResult` to an append-only
JSON-Lines file keyed by the task's ``cell_key``; on restart,
``run_study(..., checkpoint=path)`` loads the file and skips every cell
already completed.

Because each cell's RNG streams are derived from its own key (see
:mod:`repro.parallel.rng`), a resumed run is **bit-identical** to an
uninterrupted run with the same ``root_seed`` — execution order and
worker count never enter the results.

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "root_seed": 20220530}
    {"kind": "plan", "data": {"total_cells": 90}}
    {"kind": "result", "cell_key": "rs/add/titan_v/25/0", "data": {...}}
    {"kind": "failure", "cell_key": "...", "error": "...", "error_type":
     "...", "traceback": "..."}

* The header guards against resuming with a mismatched study seed.  A
  non-empty file with no header line (e.g. a torn first write) is
  rejected outright — its seed and version cannot be validated.
* The optional ``plan`` line records the study's planned shape (its
  total cell count) so a read-only watcher (``repro-study --watch``)
  can compute progress and ETA without knowing the study config.  It
  is written once, right after the header — a resumed run never
  rewrites it, keeping resumed and uninterrupted checkpoint files
  byte-identical.
* ``result`` lines carry the full ``ExperimentResult`` as a dict.
* ``failure`` lines are informational: failed cells are *retried* on
  resume (only completed cells are skipped).
* A torn final line — the signature of a killed process — is ignored on
  load, and trimmed from the file before the resumed run appends (so
  new lines are never glued onto the fragment); every complete line
  before it is recovered.

Checkpoint bytes are a **cross-backend invariant**: lines are written
parent-side in task-input order (the pool buffers out-of-order
completions — see :meth:`repro.parallel.ParallelMap.run_grouped`),
contain no timestamps, and deliberately exclude worker identity — which
pid, node, or executor backend produced a result must never change the
file.  The same study run serially, on a process pool, or sharded over
N ``repro-worker`` machines produces the identical checkpoint; per-node
failure attribution lives in ``StudyResults.metadata["failed_cells"]``
instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from .results import ExperimentResult

__all__ = ["StudyCheckpoint", "CheckpointMismatchError"]

CHECKPOINT_VERSION = 1


class CheckpointMismatchError(RuntimeError):
    """The checkpoint on disk belongs to a different study configuration."""


class StudyCheckpoint:
    """Append-only JSONL store of per-cell study outcomes.

    Parameters
    ----------
    path:
        Checkpoint file.  Created (with a header line) on first write if
        absent; loaded and validated if present.
    root_seed:
        The study's root seed.  ``None`` skips validation (read-only
        inspection); otherwise a seed mismatch with an existing header
        raises :class:`CheckpointMismatchError` — resuming a study under
        a different seed would silently mix incompatible results.
    """

    def __init__(self, path, root_seed: Optional[int] = None) -> None:
        self.path = Path(path)
        self.root_seed = root_seed
        #: cell_key -> completed result, recovered from disk.
        self.completed: Dict[str, ExperimentResult] = {}
        #: cell_key -> recorded failure info (latest per cell).
        self.failures: Dict[str, dict] = {}
        #: Planned study shape recorded by the original run (None until
        #: a ``plan`` line is written or loaded).
        self.plan: Optional[dict] = None
        self._fh = None
        self._has_header = False
        #: Byte offset of the end of the last *valid* line, set when a
        #: torn final line was dropped on load.  ``open()`` truncates the
        #: file here before appending — otherwise the first new line
        #: would be glued onto the torn fragment, corrupting the file
        #: for every later resume.
        self._trim_to: Optional[int] = None
        if self.path.exists():
            self._load()

    # -- loading --------------------------------------------------------------
    def _load(self) -> None:
        text = self.path.read_text()
        lines = text.splitlines()
        seen_content = False
        for lineno, line in enumerate(lines):
            raw = line
            line = line.strip()
            if not line:
                continue
            seen_content = True
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    # Torn final line from a killed writer; drop it, and
                    # remember where the valid prefix ends so open() can
                    # trim the fragment before appending.
                    tail = len(raw.encode("utf-8"))
                    if text.endswith("\n"):
                        tail += 1
                    self._trim_to = len(text.encode("utf-8")) - tail
                    break
                raise CheckpointMismatchError(
                    f"{self.path}: line {lineno + 1} is not valid JSON — "
                    f"the checkpoint is corrupt"
                ) from None
            kind = doc.get("kind")
            if not self._has_header and kind != "header":
                # The header is always the first line written; any other
                # leading content means the file cannot be validated.
                self._raise_headerless()
            if kind == "header":
                self._check_header(doc)
                self._has_header = True
            elif kind == "result":
                result = ExperimentResult(**doc["data"])
                self.completed[doc["cell_key"]] = result
            elif kind == "failure":
                self.failures[doc["cell_key"]] = {
                    k: doc.get(k, "")
                    for k in ("error", "error_type", "traceback")
                }
            elif kind == "plan":
                self.plan = dict(doc.get("data", {}))
            # Unknown kinds are skipped: forward compatibility.
        if seen_content and not self._has_header:
            # A non-empty file whose only content was a torn (trimmed)
            # line still has no validatable header; refuse it too.
            self._raise_headerless()

    def _raise_headerless(self) -> None:
        # A non-empty file with no leading header (torn first write, or
        # not a checkpoint at all) cannot be seed/version-validated, and
        # open() never rewrites headers — appending to it would grow an
        # unvalidatable file, so refuse it outright.
        raise CheckpointMismatchError(
            f"{self.path}: non-empty checkpoint has no header line — "
            f"the file was torn at creation or is not a study "
            f"checkpoint; root_seed/version cannot be validated, use "
            f"a fresh checkpoint path"
        )

    def _check_header(self, doc: dict) -> None:
        version = doc.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint version {version!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if self.root_seed is not None and doc.get("root_seed") != self.root_seed:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint was written for root_seed="
                f"{doc.get('root_seed')!r} but this study uses "
                f"root_seed={self.root_seed} — results would not be "
                f"comparable; use a fresh checkpoint path"
            )

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.completed)

    def __contains__(self, cell_key: str) -> bool:
        return cell_key in self.completed

    # -- writing --------------------------------------------------------------
    def open(self) -> "StudyCheckpoint":
        """Open for appending; writes the header on a fresh file."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            if self._trim_to is not None and not fresh:
                with self.path.open("r+b") as trim:
                    trim.truncate(self._trim_to)
                self._trim_to = None
            self._fh = self.path.open("a")
            if fresh and not self._has_header:
                self._write_line(
                    {
                        "kind": "header",
                        "version": CHECKPOINT_VERSION,
                        "root_seed": self.root_seed,
                    }
                )
                self._has_header = True
        return self

    def _write_line(self, doc: dict) -> None:
        if self._fh is None:
            self.open()
        self._fh.write(json.dumps(doc) + "\n")
        # Flush per line: a killed run loses at most the line being torn.
        self._fh.flush()

    def record_result(self, cell_key: str, result: ExperimentResult) -> None:
        # The line leaves out wall-clock sums; this run's timings still
        # reach the study registry through the in-memory result.
        self._write_line(
            {
                "kind": "result",
                "cell_key": cell_key,
                "data": result.to_durable_dict(),
            }
        )
        self.completed[cell_key] = result

    def record_failure(
        self,
        cell_key: str,
        error: str,
        error_type: str = "",
        traceback: str = "",
    ) -> None:
        self._write_line(
            {
                "kind": "failure",
                "cell_key": cell_key,
                "error": error,
                "error_type": error_type,
                "traceback": traceback,
            }
        )
        self.failures[cell_key] = {
            "error": error,
            "error_type": error_type,
            "traceback": traceback,
        }

    def record_plan(self, data: dict) -> None:
        """Record the study's planned shape, once per checkpoint file.

        Idempotent across resumes: a checkpoint that already carries a
        plan (loaded from disk or written this run) is left untouched,
        so resumed files stay byte-identical to uninterrupted ones.
        ``data`` must be deterministic (no timestamps) for the same
        reason.
        """
        if self.plan is not None:
            return
        self._write_line({"kind": "plan", "data": dict(data)})
        self.plan = dict(data)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StudyCheckpoint":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()
