"""Common tuner interface, budget accounting and result types.

The paper's experimental design (Section V) compares algorithms by
*sample efficiency*: every algorithm gets the same fixed number of kernel
measurements (the sample size S), and the quality of its final
configuration is what counts.  The machinery here enforces that contract:

* :class:`Objective` wraps a measurement source and *counts every
  evaluation*, raising :class:`BudgetExhausted` past the budget — so a
  tuner cannot accidentally cheat;
* :class:`TuningResult` records the best configuration *by observed
  runtime* plus the full evaluation history (the experiment runner
  re-evaluates the final configuration 10x separately, per Section VI-A);
  :func:`best_of_rows` is the one rule that picks it, shared by
  :meth:`Objective.best_observed` and the experiment runner's
  row-wise reduction of whole Random Search replication groups;
* :class:`Tuner` is the base class of the five algorithms.  Every tuner
  is a :data:`Stepper` — its search loop turned inside out: it yields the
  flat indices it wants measured and takes their runtimes back — so the
  experiment runner can step the replications of one study cell
  together (:func:`measure_steps`);
* the SMBO/non-SMBO split from Section V-C: non-SMBO tuners
  (:class:`DatasetTuner`) spend the first rows of their budget on a
  pre-collected, constraint-respecting dataset slice, which the
  objective holds before the search starts
  (:meth:`Objective.record_dataset`); the SMBO tuners measure live and
  sample the *unconstrained* space (the paper's SMBO implementations had
  no constraint support).
"""

from __future__ import annotations

import contextlib
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..obs import Counter, MetricsRegistry
from ..searchspace import SearchSpace

__all__ = [
    "BudgetExhausted",
    "Objective",
    "TuningResult",
    "Tuner",
    "DatasetTuner",
    "best_of_rows",
    "best_so_far",
    "Stepper",
    "measure_steps",
    "run_to_end",
]

Configuration = Dict[str, int]


def best_so_far(runtimes: Iterable[float]) -> List[float]:
    """The best-so-far-vs-evaluation-index convergence curve.

    Entry ``i`` is the minimum runtime observed over evaluations
    ``0..i``; while every observation so far failed to launch, the entry
    is ``inf``.  This is the curve the paper-style convergence plots
    (median + IQR per technique) are built from.
    """
    curve: List[float] = []
    best = math.inf
    for runtime in runtimes:
        runtime = float(runtime)
        if runtime < best:
            best = runtime
        curve.append(best)
    return curve


def best_of_rows(runtimes_ms) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, runtime_ms)`` of the best sample in each row of an
    ``(n, S)`` runtime array (S >= 1): the row's first finite minimum,
    or index 0 and ``inf`` when nothing in the row launched.  Every
    tuner's pick, and all of Random Search: "we simply select the
    minimum runtime from the collection of S samples" (Section VI-B).
    """
    runtimes = np.asarray(runtimes_ms, dtype=np.float64)
    masked = np.where(np.isfinite(runtimes), runtimes, np.inf)
    index = np.argmin(masked, axis=1)
    return index, masked[np.arange(masked.shape[0]), index]


class BudgetExhausted(RuntimeError):
    """Raised when a tuner tries to measure past its sample budget."""


class Objective:
    """A budgeted, history-keeping measurement source.

    Parameters
    ----------
    space:
        The search space (used for validation and feature encoding).
    measure:
        ``config -> runtime_ms`` callable, returning ``inf`` for launch
        failures: a user measurement function, e.g. ``lambda c:
        device.measure(c).runtime_ms``.  May be ``None`` when
        ``measure_flats`` is given.
    budget:
        Maximum number of evaluations.
    metrics:
        Optional registry accumulating ``evaluations_total``,
        ``launch_failures_total`` and the ``evaluate_seconds_sum`` /
        ``evaluate_seconds_count`` timing counters (never read back, so
        they have no effect on results or RNG streams).
    measure_flats:
        Optional ``flat_index_array -> runtime_ms_array`` callable
        (usually ``SimulatedDevice.measure_flats_each``).  When present,
        every evaluation route measures through it — :meth:`evaluate`
        and :meth:`evaluate_flat` as 1-element batches — and ``measure``
        is never called.  It MUST consume the noise stream with
        per-measurement draw granularity — the batch is a convenience
        over the element-at-a-time sequence, not a different experiment.
    """

    def __init__(
        self,
        space: SearchSpace,
        measure: Optional[Callable[[Configuration], float]],
        budget: int,
        metrics: Optional[MetricsRegistry] = None,
        measure_flats: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if measure is None and measure_flats is None:
            raise ValueError("an Objective needs measure or measure_flats")
        self.space = space
        self._measure = measure
        self._measure_flats = measure_flats
        self.budget = int(budget)
        #: Flat index of every configuration evaluated, in order.
        self.flats: List[int] = []
        self.runtimes: List[float] = []
        self.metrics = metrics
        #: How many of the first rows are pre-collected dataset rows.
        self.dataset_rows = 0
        #: ``metrics`` instruments by name, looked up on first use.
        self._instruments: Dict[str, Counter] = {}

    @property
    def evaluations(self) -> int:
        return len(self.runtimes)

    @property
    def remaining(self) -> int:
        return self.budget - self.evaluations

    @property
    def configs(self) -> List[Configuration]:
        """Every configuration evaluated, in order (decoded from
        :attr:`flats` on each access)."""
        return self.space.flats_to_configs(
            np.asarray(self.flats, dtype=np.int64)
        )

    def _exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(
            f"budget of {self.budget} evaluations exhausted"
        )

    def _observed(self) -> bool:
        return self.metrics is not None

    def record_dataset(self, flats, runtimes_ms) -> None:
        """Record pre-collected rows (a dataset slice, measured before
        the search) as this objective's first evaluations, without
        measuring them.

        They count against the budget and join the history, but touch no
        metric counter: the counters describe the measurements the
        search makes.
        """
        flats = np.asarray(flats, dtype=np.int64).ravel()
        runtimes = np.asarray(runtimes_ms, dtype=np.float64).ravel()
        if flats.shape != runtimes.shape:
            raise ValueError("dataset flats/runtimes length mismatch")
        if self.evaluations or flats.size > self.budget:
            raise ValueError(
                "dataset rows must be the first rows of an objective's "
                "budget"
            )
        if flats.size and (flats.min() < 0 or flats.max() >= self.space.size):
            raise ValueError("flat index out of range")
        self.flats.extend(flats.tolist())
        self.runtimes.extend(runtimes.tolist())
        self.dataset_rows = int(flats.size)

    def evaluate(self, config: Configuration) -> float:
        """Measure one configuration (counts against the budget)."""
        if self.remaining <= 0:
            raise self._exhausted()
        return self._evaluate_one(self.space.config_to_flat(config), config)

    def evaluate_flat(self, flat: int) -> float:
        """Measure one configuration by flat index (counts against the
        budget).  History, metric counts and RNG consumption are those of
        :meth:`evaluate` on the decoded configuration."""
        flat = int(flat)
        if not 0 <= flat < self.space.size:
            raise ValueError(
                f"flat index {flat} out of range [0, {self.space.size})"
            )
        if self.remaining <= 0:
            raise self._exhausted()
        return self._evaluate_one(flat)

    def _evaluate_one(
        self, flat: int, config: Optional[Configuration] = None
    ) -> float:
        """Measure and record one in-budget evaluation: through
        ``measure_flats`` as a 1-element batch when it is given, else
        through the dict ``measure``."""
        t0 = time.perf_counter() if self._observed() else 0.0
        if self._measure_flats is not None:
            runtime = float(
                self._measure_flats(np.array([flat], dtype=np.int64))[0]
            )
        else:
            if config is None:
                config = self.space.flat_to_config(flat)
            runtime = float(self._measure(dict(config)))
        return self._record([flat], [runtime], t0)[0]

    def evaluate_flats(self, flats) -> List[float]:
        """Measure many configurations by flat index (each counts
        against the budget).

        Bit-identical to calling :meth:`evaluate_flat` once per element
        in order: history, metric counts and RNG consumption all match —
        the ``measure_flats`` backing draws noise per measurement, and
        recording happens per evaluation.  When the batch overruns the
        remaining budget, the affordable prefix is recorded first and
        :class:`BudgetExhausted` is raised — exactly the objective state
        a sequential loop leaves behind when its next call raises.
        """
        arr = np.asarray(flats, dtype=np.int64).ravel()
        remaining = self.remaining
        if remaining <= 0:
            raise self._exhausted()
        take = arr[:remaining] if arr.size > remaining else arr
        out: List[float] = []
        if take.size:
            if take.min() < 0 or take.max() >= self.space.size:
                raise ValueError("flat index out of range")
            if self._measure_flats is None:
                out = [self._evaluate_one(f) for f in take.tolist()]
            else:
                t0 = time.perf_counter() if self._observed() else 0.0
                runtimes = np.asarray(
                    self._measure_flats(take), dtype=np.float64
                )
                out = self._record(take.tolist(), runtimes.tolist(), t0)
        if take.size < arr.size:
            raise self._exhausted()
        return out

    def _instrument(self, name: str) -> Counter:
        """The ``metrics`` counter ``name``, registered on the first call
        and cached on the objective after it."""
        handle = self._instruments.get(name)
        if handle is None:
            handle = self._instruments[name] = self.metrics.counter(name)
        return handle

    def _record(
        self, flats: List[int], runtimes: List[float], t0: float
    ) -> List[float]:
        """The bookkeeping of every evaluation route: append a batch of
        measured flats (``runtimes`` are Python floats) to the history.

        One wall-clock reading covers the batch.  The metrics advance by
        the batch at once: its wall time lands in
        ``evaluate_seconds_sum`` and its size in the counts; counters are
        registered in the order one-at-a-time recording first uses them
        (``flat_counters`` follows registration order, and checkpoint
        bytes follow it).
        """
        self.flats.extend(flats)
        self.runtimes.extend(runtimes)
        if self.metrics is None:
            return runtimes
        n = len(runtimes)
        instrument = self._instrument
        instrument("evaluations_total").inc(n)
        failures = n - sum(map(math.isfinite, runtimes))
        if failures and not math.isfinite(runtimes[0]):
            # A failing first evaluation registers the failure
            # counter before the timing pair, as it would alone.
            instrument("launch_failures_total")
        instrument("evaluate_seconds_sum").inc(time.perf_counter() - t0)
        instrument("evaluate_seconds_count").inc(n)
        if failures:
            instrument("launch_failures_total").inc(failures)
        return runtimes

    def span(self, kind: str):
        """Time a block into the ``<kind>_seconds_sum`` /
        ``<kind>_seconds_count`` counters.  Tuners wrap model fits and
        candidate proposals in this — a no-op without ``metrics``.
        """
        if self.metrics is not None:
            return _InstrumentedSpan(self, kind)
        return _NO_SPAN

    def best_observed(self, first: int = 0) -> tuple:
        """(best_config, best_runtime) among the evaluations so far, from
        row ``first`` on (:func:`best_of_rows`: the first finite minimum,
        or the first row and ``inf`` when every one failed to launch)."""
        if len(self.runtimes) <= first:
            raise RuntimeError("no evaluations performed yet")
        index, best_ms = best_of_rows([self.runtimes[first:]])
        return (
            self.space.flat_to_config(self.flats[first + int(index[0])]),
            float(best_ms[0]),
        )


#: The unobserved span: one shared no-op, so the disabled path never
#: allocates.
_NO_SPAN = contextlib.nullcontext()


class _InstrumentedSpan:
    """Times a block into ``<kind>_seconds_sum`` / ``_count``."""

    __slots__ = ("_objective", "_kind", "_t0")

    def __init__(self, objective: Objective, kind: str) -> None:
        self._objective = objective
        self._kind = kind

    def __enter__(self) -> "_InstrumentedSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._t0
        instrument = self._objective._instrument
        instrument(f"{self._kind}_seconds_sum").inc(duration)
        instrument(f"{self._kind}_seconds_count").inc()


class FlatConfigs(Sequence):
    """A flat-index history read as configuration dicts, each decoded
    when it is read.  Compares equal to any sequence of the same
    configurations."""

    __slots__ = ("_space", "_flats")

    def __init__(self, space: SearchSpace, flats: List[int]) -> None:
        self._space = space
        self._flats = flats

    def __len__(self) -> int:
        return len(self._flats)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._space.flats_to_configs(
                np.asarray(self._flats[i], dtype=np.int64)
            )
        return self._space.flat_to_config(self._flats[i])

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning run."""

    #: Best configuration by observed (single-run) runtime.
    best_config: Configuration
    #: The observed runtime of that configuration, ms.
    best_runtime_ms: float
    #: Every configuration evaluated, in order (a :class:`FlatConfigs`
    #: view when the result comes from an :class:`Objective`).
    history_configs: Sequence = field(default_factory=list)
    #: Matching observed runtimes, ms (inf = launch failure).
    history_runtimes: List[float] = field(default_factory=list)
    #: Total measurements consumed.
    samples_used: int = 0

    def __post_init__(self) -> None:
        if len(self.history_configs) != len(self.history_runtimes):
            raise ValueError("history configs/runtimes length mismatch")


#: A search loop as a generator: it yields the flat indices it wants
#: measured next and takes their runtimes back through ``send``; it
#: reads budget state from its objective and returns when it is done.
Stepper = Generator[List[int], List[float], None]


def measure_steps(
    stepper: Stepper, objective: Objective
) -> Generator[List[int], None, None]:
    """Run ``stepper`` against ``objective``: measure each request with
    one :meth:`Objective.evaluate_flats` call and send the runtimes back.

    Before it measures a request, it yields the request's affordable
    prefix — the rows the objective will measure — so that a caller
    stepping many cells together can resolve those rows with its
    siblings' first.  It ends when the stepper returns or when the
    budget runs out inside a request (the objective has then recorded
    the affordable prefix).
    """
    try:
        flats = next(stepper)
        while True:
            yield flats[: objective.remaining]
            flats = stepper.send(objective.evaluate_flats(flats))
    except (StopIteration, BudgetExhausted):
        return


def run_to_end(steps: Generator):
    """Drive a generator alone, ignoring what it yields; its return
    value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


class Tuner:
    """Base class of all search algorithms."""

    #: Registry name, e.g. ``"bo_gp"``.
    name: str = ""
    #: Human-readable label used in figures, e.g. ``"BO GP"``.
    label: str = ""

    def steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Stepper:
        """The search as a :data:`Stepper` over ``objective``."""
        raise NotImplementedError

    def tune(self, objective: Objective, rng: np.random.Generator) -> TuningResult:
        """:meth:`steps` driven alone, every request measured as soon as
        it is made."""
        return run_to_end(self.run_steps(objective, rng))

    def run_steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Generator[List[int], None, TuningResult]:
        """The search as a generator that returns its result: it yields
        each request before measuring it (see :func:`measure_steps`)."""
        yield from measure_steps(self.steps(objective, rng), objective)
        return self._result_from(objective)

    def _result_from(
        self, objective: Objective, first: int = 0
    ) -> TuningResult:
        """The result of a search that has ended: the best of the
        objective's rows from ``first`` on, and the whole history."""
        best_config, best_runtime = objective.best_observed(first)
        return TuningResult(
            best_config=best_config,
            best_runtime_ms=best_runtime,
            history_configs=FlatConfigs(
                objective.space, list(objective.flats)
            ),
            history_runtimes=list(objective.runtimes),
            samples_used=objective.evaluations,
        )


class DatasetTuner(Tuner):
    """A dataset-slice (non-SMBO-group) tuner: RS, RF.

    The first ``budget - live_reserve()`` rows of its objective are a
    pre-collected, feasible-only dataset slice
    (:meth:`Objective.record_dataset`).  :meth:`steps` samples and
    measures live any of those rows the objective lacks, so a bare
    objective works too — the paper's pipeline, where the dataset rows
    are themselves measured samples.  Subclasses extend it with what
    they do after the dataset rows.
    """

    def steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Stepper:
        reserve = self.live_reserve()
        n_dataset = objective.budget - reserve
        if n_dataset < 1:
            raise ValueError(
                f"budget {objective.budget} too small for {self.name} "
                f"(needs > {reserve})"
            )
        missing = n_dataset - objective.evaluations
        if missing > 0:
            space = objective.space
            configs = space.sample(rng, missing, feasible_only=True)
            yield [space.config_to_flat(c) for c in configs]

    def live_reserve(self) -> int:
        """Evaluations to reserve for post-dataset live measurements."""
        return 0
