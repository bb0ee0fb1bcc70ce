"""Process-local metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a named collection of instruments with
optional labels, exportable two ways:

* :meth:`MetricsRegistry.to_json` — a structured dict for
  ``StudyResults.metadata`` and programmatic consumers;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` headers, escaped label values, sorted
  label keys, cumulative histogram buckets with ``le="+Inf"``), so a
  long-running service embedding the study pipeline can expose the file
  behind a scrape endpoint unchanged.

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

import json
import math
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds) — tuned for model fits and
#: per-evaluation latencies on the simulator.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` minus
    those in earlier buckets (non-cumulative storage; the Prometheus
    export cumulates).  Observations above the last bound only appear in
    the implicit ``+Inf`` bucket (``count``).
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one bucket search)."""
        value = float(value)
        if math.isnan(value):
            # A single NaN would poison `sum` forever (NaN + x = NaN),
            # silently corrupting every later export.
            raise ValueError("cannot observe NaN in a histogram")
        if count < 1:
            raise ValueError("histogram observation count must be >= 1")
        self.sum += value * count
        self.count += count
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets):
            self.bucket_counts[i] += count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All series (label sets) of one named metric."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: Dict[LabelKey, object] = {}

    def get(self, labels: LabelKey):
        inst = self.series.get(labels)
        if inst is None:
            if self.kind == "histogram":
                inst = Histogram(self.buckets or DEFAULT_BUCKETS)
            else:
                inst = _KINDS[self.kind]()
            self.series[labels] = inst
        return inst


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = list(labels) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- instrument access ----------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            if kind == "histogram":
                # A histogram named X exports X_sum / X_count samples; a
                # counter family already holding either name would make
                # to_prometheus() emit duplicate sample names (invalid
                # exposition format), so reject the collision loudly.
                for suffix in ("_sum", "_count"):
                    other = self._families.get(f"{name}{suffix}")
                    if other is not None and other.kind != "histogram":
                        raise ValueError(
                            f"cannot register histogram {name!r}: "
                            f"{name + suffix!r} already exists as a "
                            f"{other.kind} and the exported sample names "
                            f"would collide"
                        )
            fam = _Family(name, kind, help, buckets)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"requested {kind}"
            )
        elif help and not fam.help:
            fam.help = help
        return fam

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._family(name, "counter", help).get(_label_key(labels))

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._family(name, "gauge", help).get(_label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._family(name, "histogram", help, buckets).get(
            _label_key(labels)
        )

    # -- export ---------------------------------------------------------------
    def to_json(self) -> dict:
        """Structured, JSON-serializable view of every metric."""
        out: dict = {}
        for name in sorted(self._families):
            fam = self._families[name]
            series = []
            for labels in sorted(fam.series):
                inst = fam.series[labels]
                entry: dict = {"labels": dict(labels)}
                if fam.kind == "histogram":
                    entry.update(
                        buckets=list(inst.buckets),
                        bucket_counts=list(inst.bucket_counts),
                        sum=inst.sum,
                        count=inst.count,
                    )
                else:
                    entry["value"] = inst.value
                series.append(entry)
            out[name] = {"type": fam.kind, "help": fam.help, "series": series}
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._families):
            fam = self._families[name]
            if fam.help:
                lines.append(f"# HELP {name} {_escape_help(fam.help)}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for labels in sorted(fam.series):
                inst = fam.series[labels]
                if fam.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(inst.buckets, inst.bucket_counts):
                        cumulative += n
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(labels, (('le', _fmt(bound)),))}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, (('le', '+Inf'),))}"
                        f" {inst.count}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} {_fmt(inst.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {inst.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} {_fmt(inst.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    # -- cross-process merging ------------------------------------------------
    def flat_counters(self) -> Dict[str, float]:
        """Unlabeled counters plus histogram sums/counts as a flat dict.

        This is the picklable per-cell payload attached to
        ``ExperimentResult.metrics``: histograms flatten to
        ``<name>_sum`` / ``<name>_count`` so they merge additively.
        Labeled series are skipped (per-cell metrics are unlabeled by
        construction).
        """
        out: Dict[str, float] = {}
        for name, fam in self._families.items():
            inst = fam.series.get(())
            if inst is None:
                continue
            if fam.kind == "histogram":
                if inst.count:
                    out[f"{name}_sum"] = float(inst.sum)
                    out[f"{name}_count"] = float(inst.count)
            elif fam.kind == "counter":
                if inst.value:
                    out[name] = float(inst.value)
        return out

    def merge_flat(self, flat: Mapping[str, float], **labels) -> None:
        """Add a :meth:`flat_counters` payload into this registry.

        Histogram-derived ``<name>_sum`` / ``<name>_count`` entries merge
        back into the ``<name>`` histogram family when this registry owns
        one — registering them as counters instead would make
        :meth:`to_prometheus` export duplicate sample names.  The flat
        payload carries no bucket positions, so merged observations
        surface only in the histogram's implicit ``+Inf`` bucket (its
        ``count``), which the cumulative exposition format represents
        exactly.  Entries with no histogram counterpart accumulate as
        counters, as before.
        """
        key = _label_key(labels)
        for name, value in flat.items():
            hist = self._histogram_for_flat(name, key)
            if hist is not None:
                if name.endswith("_sum"):
                    hist.sum += float(value)
                else:
                    hist.count += int(value)
                continue
            self.counter(name, **labels).inc(float(value))

    def _histogram_for_flat(self, name: str, key: LabelKey):
        """The histogram instrument a flat ``_sum``/``_count`` entry
        belongs to, or ``None`` when no such family exists here."""
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix):
                fam = self._families.get(name[: -len(suffix)])
                if fam is not None and fam.kind == "histogram":
                    return fam.get(key)
        return None


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
