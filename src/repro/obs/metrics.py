"""Process-local metrics: unlabeled counters.

A :class:`MetricsRegistry` is a named collection of monotonically
increasing :class:`Counter` instruments.  :meth:`MetricsRegistry.to_json`
gives the structured dict that lands in ``StudyResults.metadata``, and
:func:`to_prometheus` renders such a dict as Prometheus text (``# HELP``
/ ``# TYPE`` headers, one sample per counter), so a saved study's
metrics export without the registry that produced them.

Timings are counters too: a timed region ``X`` adds its seconds to
``X_seconds_sum`` and one to ``X_seconds_count``, which merge
additively like every other counter.

Registries are process-local by design: experiment cells run in worker
processes, so each cell's counter deltas travel back to the study parent
inside its :class:`~repro.experiments.results.ExperimentResult` (as a
flat ``{name: value}`` dict from :meth:`flat_counters`) and are merged
with :meth:`merge_flat`.  That route survives both the process-pool
boundary and checkpoint resume — a resumed cell's metrics reload with its
result.

The module-level :func:`global_registry` is the sink for always-on,
process-wide instrumentation (e.g. the GPU simulator's evaluation
counters) that has no natural place to thread a registry through.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

__all__ = [
    "Counter",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
    "to_prometheus",
]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value", "help")

    def __init__(self, help: str = "") -> None:
        self.value = 0.0
        self.help = help

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:
            # Also rejects NaN, which would poison the value forever.
            raise ValueError("counters can only increase")
        self.value += amount


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(doc: Mapping[str, dict]) -> str:
    """Render a :meth:`MetricsRegistry.to_json` dict as Prometheus text
    (exposition format 0.0.4)."""
    lines = []
    for name in sorted(doc):
        family = doc[name]
        if family["help"]:
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family["series"]:
            lines.append(f"{name} {_fmt(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsRegistry:
    """A named collection of counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter ``name``, registered on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(help)
        elif help and not inst.help:
            inst.help = help
        return inst

    def to_json(self) -> dict:
        """Structured, JSON-serializable view of every counter."""
        return {
            name: {
                "type": "counter",
                "help": inst.help,
                "series": [{"labels": {}, "value": inst.value}],
            }
            for name, inst in sorted(self._counters.items())
        }

    # -- cross-process merging ------------------------------------------------
    def flat_counters(self) -> Dict[str, float]:
        """Non-zero counters as a flat dict, in registration order.

        This is the picklable per-cell payload attached to
        ``ExperimentResult.metrics``; checkpoint bytes follow its order.
        """
        return {
            name: float(inst.value)
            for name, inst in self._counters.items()
            if inst.value
        }

    def merge_flat(self, flat: Mapping[str, float]) -> None:
        """Add a :meth:`flat_counters` payload into this registry."""
        for name, value in flat.items():
            self.counter(name).inc(float(value))


#: Lazily-created process-wide registry for always-on instrumentation.
_GLOBAL: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry()
    return _GLOBAL


def reset_global_registry() -> None:
    """Fresh global registry (test isolation)."""
    global _GLOBAL
    _GLOBAL = None
