"""Content-addressed run ledger: provenance for every study invocation.

Long-lived autotuning studies need answers to "what exactly ran, and did
it get slower?" — per-run provenance is infrastructure, not an
afterthought.  Every ``repro-study --run-ledger DIR`` invocation (or
any caller of :func:`build_manifest` and :func:`record_run` on a
``run_study`` result) drops one *manifest* into the ledger directory:

* identity — ``run_id`` (first 12 hex chars of the SHA-256 of the
  manifest's canonical JSON, i.e. content-addressed: identical runs
  collide into identical ids), creation timestamp, the CLI argv;
* configuration — the design schedule, algorithms/kernels/archs, image
  size, root seed, worker count;
* environment — git revision (when inside a work tree), Python/platform
  versions, the BLAS thread count (``metadata["blas_threads"]``), every
  ``REPRO_*`` environment variable;
* fingerprints — the PR-3 landscape fingerprint of every (kernel, arch)
  landscape in the run, which pins kernel profile + architecture +
  search space + simulator version;
* outcome — the telemetry snapshot (phase wall times, throughput,
  failure counts), the study's counters (``metadata["metrics"]``,
  counters only), and BENCH-style headline numbers (wall seconds,
  evaluations, failed cells).

``repro-runs`` (installed CLI) reads the ledger back::

    repro-runs list LEDGER_DIR
    repro-runs show LEDGER_DIR RUN_ID_PREFIX
    repro-runs diff LEDGER_DIR OLD NEW [--wall-tolerance PCT]

``diff`` compares two manifests (by run-id prefix, or literal manifest
file paths) and exits non-zero when the newer run regressed: total or
per-phase wall clock beyond the tolerance, or more failed cells.  CI
runs exactly this against a committed baseline manifest.

This module is stdlib-only at import time (``repro.gpu`` imports the
obs package for metrics, so the fingerprint helpers are imported lazily
inside :func:`build_manifest`); the ledger never feeds back into study
execution, so results stay bit-identical with the ledger on or off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..io import atomic_write_text

__all__ = [
    "MANIFEST_VERSION",
    "build_manifest",
    "record_run",
    "list_runs",
    "load_run",
    "diff_runs",
    "main",
]

MANIFEST_VERSION = 1

#: Default wall-clock regression tolerance for ``diff`` (fraction).
DEFAULT_WALL_TOLERANCE = 0.20
#: Phases shorter than this are never flagged (timer noise floor).
DEFAULT_MIN_SECONDS = 0.5


#: The ``repro`` package directory: the revision is that of the source
#: tree that ran, wherever the process was started.
_PACKAGE_DIR = Path(__file__).resolve().parents[1]


def _git_rev() -> Optional[str]:
    """Commit of the checkout the ``repro`` package runs from, or None
    outside a work tree / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=_PACKAGE_DIR,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def manifest_id(manifest: dict) -> str:
    """Content address: SHA-256 of the canonical JSON, minus run_id."""
    doc = {k: v for k, v in manifest.items() if k != "run_id"}
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:12]


def build_manifest(
    config,
    results,
    argv: Optional[List[str]] = None,
    *,
    created: float,
) -> dict:
    """Assemble one run's manifest from its config and results.

    ``config`` is the :class:`~repro.experiments.study.StudyConfig`,
    ``results`` the returned
    :class:`~repro.experiments.results.StudyResults`.  ``created`` is
    the creation timestamp (seconds since the epoch), threaded in
    explicitly from the caller's single wall-clock read so
    manifest construction itself is deterministic and ledger tests can
    pin it.
    """
    # Lazy: repro.gpu imports repro.obs at module level for metrics, so
    # importing it here (not at module import) keeps the package cycle-free.
    from ..gpu.arch import get_architecture
    from ..gpu.landscape import landscape_fingerprint
    from ..kernels import get_kernel

    meta = results.metadata
    fingerprints: Dict[str, str] = {}
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            fingerprints[f"{kname}/{aname}"] = landscape_fingerprint(
                profile, get_architecture(aname), space
            )

    telemetry = dict(meta.get("telemetry") or {})
    headline = {
        "wall_seconds": telemetry.get("elapsed_seconds"),
        "experiments_total": meta.get("total_experiments"),
        "experiments_completed": telemetry.get("completed"),
        "experiments_failed": len(meta.get("failed_cells") or []),
        "experiments_resumed": meta.get("resumed_from_checkpoint"),
        "store_hits": meta.get("store_hits"),
        "throughput_per_s": telemetry.get("throughput_per_s"),
        "phase_seconds": dict(telemetry.get("phase_seconds") or {}),
    }

    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "created": round(created, 3),
        "argv": list(argv) if argv is not None else None,
        "config": {
            "design": meta.get("design"),
            "algorithms": list(config.algorithms),
            "kernels": list(config.kernels),
            "archs": list(config.archs),
            "image": [config.image_x, config.image_y],
            "root_seed": config.root_seed,
            "final_repeats": config.final_repeats,
            "workers": config.workers,
            "executor": meta.get("executor"),
            "failure_policy": meta.get("failure_policy"),
            # Boolean, not the path: store directories differ across
            # machines while the results they produce do not.
            "result_store_used": meta.get("result_store") is not None,
        },
        "fingerprints": fingerprints,
        "environment": {
            "git_rev": _git_rev(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "blas_threads": meta.get("blas_threads"),
            "repro_env": {
                k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")
            },
        },
        "telemetry": telemetry,
        "metrics": dict(meta.get("metrics") or {}),
        "headline": headline,
    }
    manifest["run_id"] = manifest_id(manifest)
    return manifest


def record_run(ledger_dir, manifest: dict) -> Path:
    """Write one manifest into the ledger; returns its path.

    Atomic (write-then-rename, via :func:`repro.io.atomic_write_text`)
    so a concurrent ``repro-runs list`` never sees a torn manifest, and
    content-addressed filenames mean a re-run of an identical study
    overwrites its own manifest rather than duplicating it.
    """
    path = Path(ledger_dir) / f"{manifest['run_id']}.json"
    return atomic_write_text(
        path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def list_runs(ledger_dir) -> List[dict]:
    """Every manifest in the ledger, oldest first; torn files skipped."""
    ledger = Path(ledger_dir)
    runs: List[dict] = []
    if not ledger.is_dir():
        return runs
    for path in sorted(ledger.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and "run_id" in doc:
            runs.append(doc)
    runs.sort(key=lambda d: (d.get("created") or 0, d.get("run_id", "")))
    return runs


def load_run(ledger_dir, ref: str) -> dict:
    """Resolve ``ref`` — a run-id prefix, or a manifest file path."""
    as_path = Path(ref)
    if as_path.is_file():
        return json.loads(as_path.read_text())
    matches = [
        r for r in list_runs(ledger_dir)
        if str(r.get("run_id", "")).startswith(ref)
    ]
    if not matches:
        raise KeyError(f"no run matching {ref!r} in {ledger_dir}")
    if len(matches) > 1:
        ids = ", ".join(str(r["run_id"]) for r in matches)
        raise KeyError(f"ambiguous run ref {ref!r}: matches {ids}")
    return matches[0]


def diff_runs(
    old: dict,
    new: dict,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> dict:
    """Compare two manifests; returns changes and flagged regressions.

    Regressions:

    * total wall clock grew beyond ``wall_tolerance`` (and by at least
      ``min_seconds`` — sub-second noise never flags);
    * any phase's wall clock grew beyond the same thresholds;
    * more failed cells.

    Fingerprint or config changes are reported as *changes*, not
    regressions — different workloads are expected to differ.

    Keys present in only one manifest are neutral: the manifest schema
    grows over time (e.g. ``config.result_store_used`` appeared in a
    later version), and a baseline recorded before a key existed must
    stay diffable — and ``comparable`` — against runs recorded after.
    Only keys both manifests carry can mark a workload change.
    """
    changes: List[str] = []
    regressions: List[str] = []

    old_cfg = old.get("config") or {}
    new_cfg = new.get("config") or {}
    shared_cfg = sorted(set(old_cfg) & set(new_cfg))
    for key in shared_cfg:
        if old_cfg.get(key) != new_cfg.get(key):
            changes.append(
                f"config.{key}: {old_cfg.get(key)!r} -> "
                f"{new_cfg.get(key)!r}"
            )
    old_fp = old.get("fingerprints") or {}
    new_fp = new.get("fingerprints") or {}
    shared_fp = sorted(set(old_fp) & set(new_fp))
    for key in shared_fp:
        if old_fp.get(key) != new_fp.get(key):
            changes.append(
                f"fingerprint {key}: {old_fp.get(key)} -> {new_fp.get(key)}"
            )
    comparable = all(
        _canonical(old_cfg.get(k)) == _canonical(new_cfg.get(k))
        for k in shared_cfg
    ) and all(old_fp.get(k) == new_fp.get(k) for k in shared_fp)

    old_head = old.get("headline") or {}
    new_head = new.get("headline") or {}

    def wall_check(label: str, before, after) -> None:
        if not isinstance(before, (int, float)) or not isinstance(
            after, (int, float)
        ):
            return
        if (
            after > before * (1.0 + wall_tolerance)
            and after - before >= min_seconds
        ):
            pct = 100.0 * (after - before) / before if before > 0 else 100.0
            regressions.append(
                f"{label}: {before:.3f}s -> {after:.3f}s (+{pct:.0f}%, "
                f"tolerance {wall_tolerance * 100:.0f}%)"
            )

    wall_check(
        "wall_seconds",
        old_head.get("wall_seconds"),
        new_head.get("wall_seconds"),
    )
    old_phases = old_head.get("phase_seconds") or {}
    new_phases = new_head.get("phase_seconds") or {}
    for phase in sorted(set(old_phases) & set(new_phases)):
        wall_check(
            f"phase {phase}", old_phases.get(phase), new_phases.get(phase)
        )

    old_failed = old_head.get("experiments_failed") or 0
    new_failed = new_head.get("experiments_failed") or 0
    if new_failed > old_failed:
        regressions.append(
            f"experiments_failed: {old_failed} -> {new_failed}"
        )

    return {
        "old": old.get("run_id"),
        "new": new.get("run_id"),
        "comparable": comparable,
        "changes": changes,
        "regressions": regressions,
    }


# -- CLI ----------------------------------------------------------------------


def _cmd_list(args) -> int:
    runs = list_runs(args.ledger)
    if not runs:
        print(f"no runs in {args.ledger}")
        return 0
    print(f"{'run_id':<12}  {'created':<19}  {'wall':>9}  "
          f"{'cells':>6}  {'failed':>6}  git")
    for run in runs:
        head = run.get("headline") or {}
        created = run.get("created")
        stamp = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
            if isinstance(created, (int, float))
            else "-"
        )
        wall = head.get("wall_seconds")
        rev = (run.get("environment") or {}).get("git_rev") or "-"
        print(
            f"{run['run_id']:<12}  {stamp:<19}  "
            f"{wall if wall is not None else '-':>9}  "
            f"{head.get('experiments_total', '-'):>6}  "
            f"{head.get('experiments_failed', '-'):>6}  {rev[:12]}"
        )
    return 0


def _cmd_show(args) -> int:
    try:
        run = load_run(args.ledger, args.run)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(run, indent=2, sort_keys=True))
    return 0


def _cmd_diff(args) -> int:
    try:
        old = load_run(args.ledger, args.old)
        new = load_run(args.ledger, args.new)
    except (KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = diff_runs(
        old,
        new,
        wall_tolerance=args.wall_tolerance / 100.0,
        min_seconds=args.min_seconds,
    )
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"diff {report['old']} -> {report['new']}")
        if not report["comparable"]:
            print("note: configs/fingerprints differ — wall-clock "
                  "comparisons are between different workloads")
        for change in report["changes"]:
            print(f"  changed: {change}")
        if report["regressions"]:
            for reg in report["regressions"]:
                print(f"  REGRESSION: {reg}")
        else:
            print("  no regressions")
    return 1 if report["regressions"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-runs",
        description="Inspect and diff the content-addressed run ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list runs, oldest first")
    p_list.add_argument("ledger", help="ledger directory")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="print one run's manifest")
    p_show.add_argument("ledger", help="ledger directory")
    p_show.add_argument("run", help="run-id prefix or manifest path")
    p_show.set_defaults(func=_cmd_show)

    p_diff = sub.add_parser(
        "diff",
        help="compare two runs; exit 1 when the newer one regressed",
    )
    p_diff.add_argument("ledger", help="ledger directory")
    p_diff.add_argument("old", help="baseline run-id prefix or path")
    p_diff.add_argument("new", help="candidate run-id prefix or path")
    p_diff.add_argument(
        "--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE * 100,
        metavar="PCT",
        help="flag wall-clock growth beyond this percentage "
             "(default %(default)s)",
    )
    p_diff.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        metavar="S",
        help="never flag absolute growth below this many seconds "
             "(default %(default)s)",
    )
    p_diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the diff report as JSON",
    )
    p_diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
