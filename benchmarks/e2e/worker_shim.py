"""Socket worker for the benchmark: ``repro-worker`` with layer timers.

Started before a study's timer by the harness::

    python -m benchmarks.e2e.worker_shim --stats FILE [--trace]

It imports the worker and the cell path, prints ``ready``, reads the
coordinator's ``HOST:PORT`` from stdin (sent once the coordinator
listens), and runs :func:`repro.parallel.worker.main` until the
coordinator shuts it down.  With ``--trace`` the cell-side layer hooks
are installed first and their totals are written to ``FILE`` on exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import runner  # noqa: F401 - warm the cell path
from repro.parallel import worker

from .layers import LayerTracer, Patches, install_layer_hooks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = LayerTracer()
    with Patches() as patches:
        if args.trace:
            install_layer_hooks(patches, tracer, study_side=False)
        print("ready", flush=True)
        address = sys.stdin.readline().strip()
        if not address:
            return 1
        code = worker.main(["connect", address, "--quiet"])
    with open(args.stats, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
