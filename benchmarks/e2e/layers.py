"""Per-layer timers wrapped around the study path's public functions.

Nothing under ``src/`` is instrumented for this benchmark: a traced run
patches the layer functions listed in :data:`STUDY_HOOKS` (and the wire
counters in :data:`WIRE_HOOKS`) with timing wrappers for the duration of
one study, then restores them.  Every wrapper feeds one
:class:`LayerTracer`, which keeps

* inclusive seconds, self seconds and call counts per layer key,
* every span in memory as ``(id, parent, name, start, end)``, written out
  once the study ends,
* the duration of every cell, for per-tuner percentiles.

A layer's self time is its duration minus the part covered by the
wrapped calls nested inside it, so self times of the spans under the
experiments phase add up to that phase's wall time.

Re-entrant routes are counted once, at their outermost call: the hooks of
one route (``Objective.evaluate_flats`` -> ``evaluate_flat`` ->
``evaluate`` for instance) share a depth counter, and a call made while
the route is already active passes straight through.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LayerTracer",
    "Patches",
    "STUDY_HOOKS",
    "WORKER_HOOKS",
    "WIRE_HOOKS",
    "install_layer_hooks",
    "install_wire_hooks",
]

#: (target, layer, route, per_tuner).  ``target`` is ``module:attr`` or
#: ``module:Class.attr``.  Hooks on module attributes patch the *caller's*
#: binding, so e.g. ``gpu.landscape`` times only the study-level table
#: builds and ``runner.setup`` the per-cell ones.
STUDY_HOOKS: Tuple[Tuple[str, str, str, bool], ...] = (
    # set-up phase of run_study
    ("repro.experiments.study:load_or_compute_landscape",
     "gpu.landscape", "gpu.landscape", False),
    ("repro.experiments.study:collect_dataset",
     "experiments.dataset", "experiments.dataset", False),
    ("repro.experiments.study:find_true_optimum",
     "experiments.optimum", "experiments.optimum", False),
    ("repro.store.store:ResultStore.get_result",
     "store.get", "store.get", False),
    ("repro.store.store:ResultStore.put_result",
     "store.put", "store.put", False),
    # experiments phase: dispatch, then the cells it runs
    ("repro.parallel.pool:ParallelMap.run",
     "parallel.dispatch", "parallel.dispatch", False),
    ("repro.parallel.pool:ParallelMap.run_grouped",
     "parallel.dispatch", "parallel.dispatch", False),
    ("repro.experiments.checkpoint:StudyCheckpoint.record_result",
     "checkpoint.record", "checkpoint.record", False),
    ("repro.experiments.checkpoint:StudyCheckpoint.record_failure",
     "checkpoint.record", "checkpoint.record", False),
    ("repro.experiments.checkpoint:StudyCheckpoint.record_plan",
     "checkpoint.record", "checkpoint.record", False),
    ("repro.obs.spans:SpanScope.__exit__", "obs.span", "obs.span", False),
)

#: Hooks inside a cell; installed in the study process and in every
#: socket worker.  ``run_experiment`` is patched both where the study
#: binds it and in the runner module, so the socket transport still
#: pickles it by name.
WORKER_HOOKS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.experiments.runner:run_experiment",
     "runner.cell", "runner.cell", True),
    ("repro.experiments.study:run_experiment",
     "runner.cell", "runner.cell", True),
    # Kernel, space, landscape handle and tuner construction per cell.
    # _context_for is private, but it is the one place that builds them.
    ("repro.experiments.runner:_context_for",
     "runner.setup", "runner.setup", False),
    ("repro.experiments.runner:make_tuner",
     "runner.setup", "runner.setup", False),
    ("repro.search.base:Objective.evaluate",
     "search.evaluate", "search.evaluate", True),
    ("repro.search.base:Objective.evaluate_flat",
     "search.evaluate", "search.evaluate", True),
    ("repro.search.base:Objective.evaluate_flats",
     "search.evaluate", "search.evaluate", True),
    ("repro.gpu.device:SimulatedDevice.measure",
     "gpu.measure", "gpu.measure", False),
    ("repro.gpu.device:SimulatedDevice.measure_flat",
     "gpu.measure", "gpu.measure", False),
    ("repro.gpu.device:SimulatedDevice.measure_flats_each",
     "gpu.measure", "gpu.measure", False),
    ("repro.gpu.device:SimulatedDevice.measure_repeated",
     "gpu.final_repeats", "gpu.final_repeats", False),
    ("repro.gpu.device:SimulatedDevice.measure_flat_repeated",
     "gpu.final_repeats", "gpu.final_repeats", False),
    ("repro.ml.forest:RandomForestRegressor.fit",
     "ml.fit.rf", "ml.rf", False),
    ("repro.ml.forest:RandomForestRegressor.predict",
     "ml.predict.rf", "ml.rf", False),
    ("repro.ml.forest:RandomForestRegressor.predict_std",
     "ml.predict.rf", "ml.rf", False),
    ("repro.ml.gp:GaussianProcessRegressor.fit",
     "ml.fit.gp", "ml.gp", False),
    ("repro.ml.gp:GaussianProcessRegressor.predict",
     "ml.predict.gp", "ml.gp", False),
    ("repro.ml.kde:AdaptiveParzenEstimator1D.fit",
     "ml.fit.tpe", "ml.tpe", False),
    ("repro.ml.kde:AdaptiveParzenEstimator1D.log_prob",
     "ml.predict.tpe", "ml.tpe", False),
    ("repro.ml.kde:AdaptiveParzenEstimator1D.sample",
     "ml.predict.tpe", "ml.tpe", False),
)

def _frame_bytes(args, _result) -> int:
    return len(args[1])


def _result_bytes(_args, result) -> int:
    return len(result) if result is not None else 0


def _no_bytes(_args, _result) -> int:
    return 0


#: Coordinator-side socket transport counters: (target, name, bytes of a
#: call).  They run on the executor's per-worker threads, so they only
#: accumulate (no spans).  ``_recv_exact`` is private; it is the one read
#: path that sees bytes.
WIRE_HOOKS: Tuple[Tuple[str, str, Callable], ...] = (
    ("repro.parallel.executors.socket:encode", "wire.encode", _result_bytes),
    ("repro.parallel.executors.wire:encode", "wire.encode", _result_bytes),
    ("repro.parallel.executors.socket:send_frame", "wire.send", _frame_bytes),
    ("repro.parallel.executors.wire:send_frame", "wire.send", _frame_bytes),
    ("repro.parallel.executors.socket:recv_msg", "wire.recv", _no_bytes),
    ("repro.parallel.executors.wire:_recv_exact", "wire.recv_bytes",
     _result_bytes),
)


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Attribute replacements that :meth:`close` undoes in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LayerTracer:
    """Inclusive/self seconds, counts and spans of wrapped layer calls."""

    def __init__(self, study_id: str = "") -> None:
        self.study_id = study_id
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Wall seconds of every cell, keyed by tuner.
        self.cell_s: Dict[str, List[float]] = defaultdict(list)
        #: Thread-side accumulators (wire counters and bytes, tables opened).
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.tuner: Optional[str] = None
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}-"
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    # -- wrappers -------------------------------------------------------------
    def timed(
        self, fn: Callable, layer: str, route: str, per_tuner: bool
    ) -> Callable:
        """``fn`` timed as ``layer`` (suffixed by the current tuner when
        ``per_tuner``), counted at the outermost call of ``route``."""
        sets_tuner = layer == "runner.cell"
        clock = time.perf_counter
        depth = self._depth
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[route] or threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            previous = self.tuner
            if sets_tuner:
                self.tuner = args[0].algorithm
            key = f"{layer}.{self.tuner}" if per_tuner else layer
            parent = stack[-1][0] if stack else None
            # [span id, seconds covered by children]
            frame = [f"{self._prefix}{next(self._ids)}", 0.0]
            stack.append(frame)
            depth[route] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[route] -= 1
                stack.pop()
                elapsed = end - start
                self.inclusive[key] += elapsed
                self.self_s[key] += elapsed - frame[1]
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
                self.spans.append((frame[0], parent, key, start, end))
                if sets_tuner:
                    self.cell_s[self.tuner].append(elapsed)
                    self.tuner = previous

        return wrapper

    def counted(self, fn: Callable, name: str, size_of: Callable) -> Callable:
        """``fn`` accumulated into ``<name>_s``, ``<name>_calls`` and
        ``<name>_bytes`` from any thread."""
        clock = time.perf_counter
        counters = self.counters
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            size = size_of(args, result)
            with lock:
                counters[f"{name}_s"] += elapsed
                counters[f"{name}_calls"] += 1
                counters[f"{name}_bytes"] += size
            return result

        return wrapper

    def count_calls(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------------
    def span_docs(self) -> List[dict]:
        return [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "study": self.study_id,
            }
            for span_id, parent, name, start, end in self.spans
        ]

    def to_json(self) -> dict:
        """Picklable/JSON snapshot (socket workers ship this back)."""
        return {
            "inclusive": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "cell_s": {k: list(v) for k, v in self.cell_s.items()},
            "counters": dict(self.counters),
            "spans": self.span_docs(),
        }

    def merge_json(self, doc: dict) -> None:
        """Fold another process's :meth:`to_json` into this tracer."""
        for name in ("inclusive", "self_s", "counters"):
            target = getattr(self, name)
            for key, value in doc[name].items():
                target[key] += value
        for key, value in doc["calls"].items():
            self.calls[key] += value
        for key, values in doc["cell_s"].items():
            self.cell_s[key].extend(values)
        self.spans.extend(
            (d["id"], d["parent"], d["name"], d["start"], d["end"])
            for d in doc["spans"]
        )


def install_layer_hooks(
    patches: Patches, tracer: LayerTracer, study_side: bool = True
) -> None:
    """Wrap every layer function for one traced study (or one worker)."""
    hooks = (STUDY_HOOKS + WORKER_HOOKS) if study_side else WORKER_HOOKS
    cell_wrapper: Optional[Callable] = None
    for target, layer, route, per_tuner in hooks:
        if layer == "runner.cell":
            # One wrapper object for both bindings, so pickling by name
            # resolves to the same function.
            if cell_wrapper is None:
                owner, attr = _resolve(target)
                cell_wrapper = tracer.timed(
                    getattr(owner, attr), layer, route, per_tuner
                )
            patches.wrap(target, lambda _fn, w=cell_wrapper: w)
            continue
        patches.wrap(
            target,
            lambda fn, a=layer, r=route, t=per_tuner: tracer.timed(fn, a, r, t),
        )
    patches.wrap(
        "repro.gpu.landscape:LandscapeTable.__init__",
        lambda fn: tracer.count_calls(fn, "gpu.tables_opened"),
    )


def install_wire_hooks(patches: Patches, tracer: LayerTracer) -> None:
    for target, name, size_of in WIRE_HOOKS:
        patches.wrap(
            target, lambda fn, n=name, b=size_of: tracer.counted(fn, n, b)
        )
