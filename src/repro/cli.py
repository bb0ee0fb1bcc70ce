"""Command-line entry point: run a (scaled) study and print the figures.

Installed as ``repro-study``::

    repro-study --kernels harris --archs titan_v \
        --sample-sizes 25 100 400 --experiments-at-largest 5 \
        --workers 2 --save results.json

Defaults run a small smoke-scale study; ``--paper-scale`` switches to the
full design from the paper (hours of compute).

Figures and data artifacts go to **stdout** (pipeable); progress,
warnings, and bookkeeping lines go to **stderr** (``--quiet`` silences
them).  ``--trace-dir`` records search-trajectory JSONL (readable with
``python -m repro.obs.read``), ``--metrics-out`` exports the study's
counters, ``--run-ledger`` records a provenance manifest, and
``--convergence`` prints best-so-far plots.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .experiments import (
    ExperimentDesign,
    StudyConfig,
    run_study,
)
from .io import atomic_write_text
from .obs import to_prometheus
from .obs.runs import build_manifest, record_run
from .parallel import EXECUTOR_NAMES, TaskError
from .gpu.arch import PAPER_ARCHITECTURES
from .kernels import PAPER_KERNEL_NAMES
from .reporting import (
    convergence_plots,
    figure2,
    figure3,
    figure4a,
    figure4b,
    render_heatmap,
    render_lineplot,
)
from .search import PAPER_ALGORITHM_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Reproduce the sample-size autotuning study "
            "(Tørring & Elster 2022) on the simulated GPU testbed."
        ),
    )
    parser.add_argument(
        "--algorithms", nargs="+", default=list(PAPER_ALGORITHM_NAMES),
        choices=list(PAPER_ALGORITHM_NAMES), help="algorithms to compare",
    )
    parser.add_argument(
        "--kernels", nargs="+", default=list(PAPER_KERNEL_NAMES),
        choices=list(PAPER_KERNEL_NAMES), help="benchmarks to run",
    )
    parser.add_argument(
        "--archs", nargs="+", default=list(PAPER_ARCHITECTURES),
        choices=list(PAPER_ARCHITECTURES), help="simulated GPUs",
    )
    parser.add_argument(
        "--sample-sizes", nargs="+", type=int, default=[25, 50, 100],
        help="sample sizes S",
    )
    parser.add_argument(
        "--experiments-at-largest", type=int, default=5,
        help="experiment count at the largest S (others scale inversely)",
    )
    parser.add_argument("--image-size", type=int, default=8192,
                        help="square image size X = Y")
    parser.add_argument("--seed", type=int, default=20220530)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial)")
    parser.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES), default=None,
        help="transport backend for the experiments phase: serial "
             "(inline, zero IPC), process (the classic pool), or socket "
             "(multi-node: a TCP "
             "coordinator fed by `repro-worker connect HOST:PORT` "
             "processes); default: auto (serial for --workers 1, else "
             "process). Checkpoints are byte-identical across backends",
    )
    parser.add_argument(
        "--bind", metavar="HOST:PORT", default=None,
        help="with --executor socket: address to listen on (default "
             "127.0.0.1:0, an ephemeral loopback port, announced at "
             "startup)",
    )
    parser.add_argument(
        "--min-workers", type=int, default=0, metavar="N",
        help="with --executor socket: wait for N connected workers "
             "before dispatching (default 0: start immediately, "
             "workers join elastically)",
    )
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the paper's full design (slow!)")
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="stream completed cells to a JSONL checkpoint; rerunning "
             "with the same PATH resumes, skipping completed cells",
    )
    parser.add_argument(
        "--failure-policy", choices=["fail_fast", "collect"],
        default="fail_fast",
        help="fail_fast: abort on the first failed cell; collect: run "
             "everything and report failed cells at the end",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="per-cell retries (capped backoff) for transient errors",
    )
    parser.add_argument("--save", metavar="PATH",
                        help="save results JSON to PATH")
    parser.add_argument("--svg-dir", metavar="DIR",
                        help="also write every figure as SVG into DIR")
    parser.add_argument("--no-figures", action="store_true",
                        help="skip printing figures")
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="record search-trajectory events as JSONL into DIR (one "
             "trace-<pid>.jsonl per worker; inspect with "
             "`python -m repro.obs.read DIR --validate --cells`)",
    )
    parser.add_argument(
        "--trace-level", choices=["spans", "full"], default="full",
        help="what --trace-dir records: hierarchical spans "
             "(study/phase/worker/group/cell; view with "
             "`python -m repro.obs.read DIR --spans`) plus trajectory "
             "events (full, the default), or spans only",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase/per-worker wall/CPU/RSS attribution "
             "of the study's spans to stderr at the end",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="also write the profile: span attribution JSON when PATH "
             "ends in .json, a flamegraph SVG when it ends in .svg, the "
             "--profile text otherwise (from the trace dir's spans when "
             "--trace-dir is set)",
    )
    parser.add_argument(
        "--run-ledger", metavar="DIR",
        help="record this run's provenance manifest (config, "
             "fingerprints, git rev, telemetry, headline numbers) into "
             "the content-addressed ledger at DIR; inspect and compare "
             "with `repro-runs list/show/diff DIR`",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="monitor an in-flight study instead of running one: tail "
             "its --checkpoint and/or --trace-dir files read-only and "
             "print progress/ETA/stop decisions until it completes",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval for --watch (default 2s)",
    )
    parser.add_argument(
        "--watch-polls", type=int, default=None, metavar="N",
        help="stop --watch after N polls (default: until complete)",
    )
    parser.add_argument(
        "--landscape-cache", metavar="DIR",
        help="directory for memory-mapped landscape tables: one full "
             "noise-free simulator pass per (kernel, arch), cached on "
             "disk and reused by every dataset row, optimum scan, and "
             "tuner measurement (bit-identical results; defaults to "
             "$REPRO_LANDSCAPE_CACHE when set)",
    )
    parser.add_argument(
        "--result-store", metavar="DIR",
        help="content-addressed result store: cells whose fingerprint "
             "(kernel profile, arch, space, tuner+config, budget, seed "
             "policy, simulator version) is already materialized are "
             "answered without running; completed cells are written "
             "back for later studies (defaults to "
             "$REPRO_RESULT_STORE when set; inspect with "
             "`repro-store ls/stats/gc`)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="export the study's counters to PATH — Prometheus text "
             "format, or JSON when PATH ends in .json",
    )
    parser.add_argument(
        "--convergence", action="store_true",
        help="print median+IQR best-so-far convergence plots per "
             "(kernel, arch) panel",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress/status lines on stderr (figures and "
             "data still print to stdout)",
    )
    return parser


def _write_profile(args, results, status) -> None:
    """``--profile`` / ``--profile-out``: one span attribution, built from
    the trace dir's spans when the study was traced and from the study's
    own spans (``metadata["spans"]``) otherwise."""
    from .obs import build_span_forest, render_attribution, span_attribution
    from .obs.read import iter_trace_events
    from .reporting import flame_svg

    if args.trace_dir:
        events = list(iter_trace_events([Path(args.trace_dir)]))
    else:
        events = results.metadata["spans"]
    attr = span_attribution(events)
    text = render_attribution(attr)
    if args.profile:
        print(text, file=sys.stderr)
    if args.profile_out:
        out = Path(args.profile_out)
        if out.suffix == ".json":
            body = json.dumps(attr, indent=2, sort_keys=True) + "\n"
        elif out.suffix == ".svg":
            body = flame_svg(build_span_forest(events))
        else:
            body = text + "\n"
        atomic_write_text(out, body)
        status(f"wrote profile to {out}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # Status/progress goes to stderr so stdout stays pipeable (figures,
    # plots); --quiet silences status but never hard errors.
    def status(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)

    if args.watch:
        if not args.checkpoint and not args.trace_dir:
            print(
                "error: --watch needs --checkpoint and/or --trace-dir "
                "pointing at the in-flight study's files",
                file=sys.stderr,
            )
            return 2
        from .obs import watch_study

        return watch_study(
            checkpoint=args.checkpoint,
            trace_dir=args.trace_dir,
            interval=args.watch_interval,
            max_polls=args.watch_polls,
        )

    if args.paper_scale:
        design = ExperimentDesign()
    else:
        design = ExperimentDesign(
            sample_sizes=tuple(sorted(set(args.sample_sizes))),
            experiments_at_largest=args.experiments_at_largest,
        )
    config = StudyConfig(
        design=design,
        algorithms=tuple(args.algorithms),
        kernels=tuple(args.kernels),
        archs=tuple(args.archs),
        image_x=args.image_size,
        image_y=args.image_size,
        root_seed=args.seed,
        workers=args.workers,
    )
    status(f"design: {design.describe()}")
    try:
        results = run_study(
            config,
            progress=status,
            checkpoint=args.checkpoint,
            failure_policy=args.failure_policy,
            retries=args.retries,
            trace_dir=args.trace_dir,
            landscape_cache=args.landscape_cache,
            trace_level=args.trace_level,
            executor=args.executor,
            executor_bind=args.bind,
            min_workers=args.min_workers,
            result_store=args.result_store,
        )
    except TaskError as err:
        cell = getattr(err.task, "cell_key", repr(err.task))
        print(f"ERROR: cell {cell} failed: {err.cause!r}", file=sys.stderr)
        if err.traceback:
            print(err.traceback, file=sys.stderr)
        if args.checkpoint:
            print(
                f"completed cells are checkpointed in {args.checkpoint}; "
                f"rerun the same command to resume",
                file=sys.stderr,
            )
        return 1

    exit_code = 0
    if results.failed_cells:
        # Partial failure under --failure-policy collect must be visible
        # to CI wrappers: the summary prints regardless of --quiet and
        # the process exits non-zero (3 = completed with failed cells).
        exit_code = 3
        print(
            f"FAILED CELLS: {len(results.failed_cells)} of "
            f"{results.metadata.get('total_experiments', '?')} cells "
            f"failed:",
            file=sys.stderr,
        )
        for cell in results.failed_cells:
            print(
                f"  {cell['cell_key']}: [{cell.get('error_type', '')}] "
                f"{cell['error']} (attempts: {cell.get('attempts', 1)})",
                file=sys.stderr,
            )

    if args.run_ledger:
        manifest = build_manifest(
            config,
            results,
            argv=list(argv) if argv is not None else sys.argv[1:],
            # The single wall-clock read: when the run really happened.
            created=time.time(),
        )
        path = record_run(args.run_ledger, manifest)
        results.metadata["run_id"] = manifest["run_id"]
        results.metadata["run_manifest"] = str(path)
        status(
            f"run {manifest['run_id']} recorded in {args.run_ledger} "
            f"(compare with `repro-runs diff {args.run_ledger} <old> "
            f"{manifest['run_id']}`)"
        )

    if args.save:
        results.save(args.save)
        status(f"saved {len(results)} results to {args.save}")

    if args.metrics_out:
        out = Path(args.metrics_out)
        doc = results.metadata["metrics"]
        atomic_write_text(
            out,
            json.dumps(doc, indent=2, sort_keys=True)
            if out.suffix == ".json"
            else to_prometheus(doc),
        )
        status(f"wrote metrics to {out}")
    if results.metadata.get("landscape_cache"):
        status(f"landscape tables in {results.metadata['landscape_cache']}")
    if results.metadata.get("result_store"):
        status(
            f"result store {results.metadata['result_store']}: "
            f"{results.metadata.get('store_hits', 0)} cells answered "
            f"from cache"
        )
    if args.trace_dir:
        status(
            f"trace JSONL in {args.trace_dir} "
            f"(read with `python -m repro.obs.read {args.trace_dir}`)"
        )

    if args.profile or args.profile_out:
        _write_profile(args, results, status)

    if not args.no_figures:
        for panel in figure2(results).panels.values():
            print()
            print(render_heatmap(panel))
        print()
        print(render_lineplot(figure3(results)))
        if "random_search" in results.algorithms and len(results.algorithms) > 1:
            for fig in (figure4a(results), figure4b(results)):
                for panel in fig.panels.values():
                    print()
                    print(render_heatmap(panel, fmt="{:7.3f}"))

    conv_panels = {}
    if args.convergence:
        conv_panels = convergence_plots(results)
        if not conv_panels:
            status("no convergence curves recorded in these results")
        for plot in conv_panels.values():
            print()
            print(render_lineplot(plot))

    if args.svg_dir:
        from .reporting import lineplot_svg, save_figure_svg

        written = save_figure_svg(figure2(results), args.svg_dir)
        written += save_figure_svg(figure3(results), args.svg_dir)
        if "random_search" in results.algorithms and len(results.algorithms) > 1:
            written += save_figure_svg(
                figure4a(results), args.svg_dir, fmt="{:.2f}"
            )
            written += save_figure_svg(
                figure4b(results), args.svg_dir, fmt="{:.2f}"
            )
        for (kernel, arch), plot in conv_panels.items():
            path = Path(args.svg_dir) / f"convergence_{kernel}_{arch}.svg"
            atomic_write_text(path, lineplot_svg(plot))
            written.append(path)
        status(f"wrote {len(written)} SVG files to {args.svg_dir}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
