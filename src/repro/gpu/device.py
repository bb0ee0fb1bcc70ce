"""The simulated measurement harness — what a tuner actually talks to.

:class:`SimulatedDevice` plays the role of the paper's benchmark runner
(Section VI-A): it "transfers" input data over PCIe, launches the kernel,
and times *only the kernel execution* — data transfers happen outside the
timed region, exactly as the paper prescribes ("start the measurement
timer *after* the transfer... stop *before* the data is transferred
back").  Transfer costs are still modelled and reported so that end-to-end
accounting (and tests of the measurement protocol) remain possible.

Launch failures (the work-group product exceeding the device limit — the
configurations the paper's unconstrained SMBO methods kept sampling) are
reported as invalid measurements with infinite runtime, mirroring an
OpenCL ``CL_INVALID_WORK_GROUP_SIZE`` error.

The device also counts every kernel launch, which is how experiment code
enforces the paper's fixed *sample budgets*.

Every measurement route resolves noise-free runtimes for a batch of
flat indices in one step: a fancy-index on a precomputed
:class:`~repro.gpu.landscape.LandscapeTable` when the device has one,
otherwise one simulator pass over the batch's decoded rows.  The
simulator is deterministic and elementwise, and the noise is applied
after the runtimes are resolved, so table-backed and live measurements
are bit-identical — same runtimes, same RNG consumption — and a batch
costs one pass whatever its size.

A device remembers the noise-free runtime of every configuration
:meth:`~SimulatedDevice.measure_flats_each` resolved, so the final
repeats of a configuration it already ran need no further pass.
:func:`resolve_together` resolves the requests of many devices on one
landscape (the cells of a replication group stepping in lockstep) in
one gather or one pass and hands each device its slice; each device
then measures its own request as before, drawing noise from its own
stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import global_registry
from ..searchspace import SearchSpace, paper_search_space
from .arch import GpuArchitecture
from .noise import DEFAULT_NOISE, NoiseModel
from .simulator import CONFIG_COLUMNS, simulate_runtimes
from .workload import WorkloadProfile

__all__ = [
    "Measurement",
    "SimulatedDevice",
    "PCIE_BANDWIDTH_GBS",
    "resolve_together",
]

#: Host <-> device transfer bandwidth (PCIe 3.0 x16 sustained).
PCIE_BANDWIDTH_GBS = 12.0


@dataclass(frozen=True)
class Measurement:
    """One timed kernel run."""

    #: Measured kernel time in milliseconds (``inf`` if the launch failed).
    runtime_ms: float
    #: False for launch failures.
    valid: bool
    #: Host->device + device->host transfer time (ms), *not* included in
    #: ``runtime_ms`` per the paper's measurement protocol.
    transfer_ms: float

    @property
    def total_ms(self) -> float:
        """End-to-end time including transfers (diagnostic only)."""
        return self.runtime_ms + self.transfer_ms


#: Cached (registry, lookups counter) — same pattern as the simulator's
#: counters: one identity check per measurement instead of a dict lookup.
_COUNTERS: tuple = (None, None)


def _lookup_counter():
    global _COUNTERS
    registry = global_registry()
    if _COUNTERS[0] is not registry:
        _COUNTERS = (registry, registry.counter("landscape_lookups_total"))
    return _COUNTERS[1]


@functools.lru_cache(maxsize=1)
def _paper_space() -> SearchSpace:
    """The paper's space, built once for every table-less device."""
    return paper_search_space()


class SimulatedDevice:
    """A virtual GPU running one workload under measurement noise.

    Parameters
    ----------
    arch:
        The simulated architecture.
    profile:
        The workload (kernel + problem size) this device instance runs.
    noise:
        Measurement-noise model; defaults to the paper-reproduction level.
    rng:
        Generator for the noise stream.  Supply a dedicated stream from
        :class:`repro.parallel.RngFactory` for reproducible experiments.
    table:
        Optional precomputed :class:`~repro.gpu.landscape.LandscapeTable`
        for this (profile, arch) landscape.  When present, measurements
        resolve true runtimes by table lookup (bit-identical to the live
        simulator) instead of running the analytic pipeline.

    Flat indices, and the configurations :meth:`measure` takes, belong
    to :attr:`space`: the table's space, else the paper's.  Its
    parameters must be the simulator's :data:`CONFIG_COLUMNS`, in that
    order.
    """

    def __init__(
        self,
        arch: GpuArchitecture,
        profile: WorkloadProfile,
        noise: NoiseModel = DEFAULT_NOISE,
        rng: Optional[np.random.Generator] = None,
        table=None,
    ) -> None:
        if table is not None and (
            table.profile_name != profile.name
            or table.arch_codename != arch.codename
        ):
            raise ValueError(
                f"landscape table for {table.profile_name}/"
                f"{table.arch_codename} cannot back a device running "
                f"{profile.name}/{arch.codename}"
            )
        space = table.space if table is not None else _paper_space()
        if tuple(space.names) != CONFIG_COLUMNS:
            raise ValueError(
                f"the GPU simulator needs the parameters {CONFIG_COLUMNS} "
                f"in that order; the search space has {tuple(space.names)}"
            )
        self.arch = arch
        self.profile = profile
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng()
        self.table = table
        self.space = space
        self._launches = 0
        #: Noise-free runtime of every flat this device has resolved
        #: through :meth:`measure_flats_each` or been handed by
        #: :func:`resolve_together`.
        self._resolved: Dict[int, float] = {}
        # Constant per device (profile and bandwidth are fixed), yet it
        # used to be recomputed on every single measurement.
        eb = profile.element_bytes
        in_bytes = profile.elements * profile.reads_per_element * eb
        out_bytes = profile.elements * profile.writes_per_element * eb
        self._transfer_ms = (
            (in_bytes + out_bytes) / (PCIE_BANDWIDTH_GBS * 1e9) * 1e3
        )

    # -- accounting ---------------------------------------------------------
    @property
    def launches(self) -> int:
        """Total kernel launches performed (the paper's 'samples')."""
        return self._launches

    # -- transfers ----------------------------------------------------------
    def transfer_time_ms(self) -> float:
        """Modelled host->device + device->host transfer time (cached)."""
        return self._transfer_ms

    # -- true (noise-free) runtimes ------------------------------------------
    def _true_runtimes(
        self, flats: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(noise-free runtimes ms, launch-failure flags) of a batch of
        flat indices: a table fancy-index, or one simulator pass over
        the decoded rows."""
        if self.table is not None:
            _lookup_counter().inc(float(flats.size))
            return self.table.runtimes_at(flats), self.table.failures_at(flats)
        sim = simulate_runtimes(
            self.profile, self.arch, self.space.flats_to_values(flats)
        )
        return sim.runtime_ms, sim.launch_failure

    def _known_runtimes(self, flats: np.ndarray) -> np.ndarray:
        """Noise-free runtimes of ``flats`` from what this device has
        already resolved; a batch with any unknown flat is resolved
        whole, in one pass, and remembered."""
        keys = flats.tolist()
        known = self._resolved
        try:
            return np.array([known[k] for k in keys], dtype=np.float64)
        except KeyError:
            runtimes, _ = self._true_runtimes(flats)
            known.update(zip(keys, runtimes.tolist()))
            return runtimes

    def _measurement(self, flat: int) -> Measurement:
        runtime, failure = self._true_runtimes(
            np.array([flat], dtype=np.int64)
        )
        noisy = self.noise.apply(runtime, self.rng)
        self._launches += 1
        return Measurement(
            runtime_ms=float(noisy[0]), valid=not failure[0],
            transfer_ms=self._transfer_ms,
        )

    def _repeated(self, true_ms: float, repeats: int) -> np.ndarray:
        """``repeats`` noisy runs of one true runtime: one batched noise
        draw over ``repeats`` copies of it."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        noisy = self.noise.apply(
            np.full(repeats, true_ms, dtype=np.float64), self.rng
        )
        self._launches += repeats
        return noisy

    # -- measurement ----------------------------------------------------------
    # The public routes share the private helpers above and never call
    # one another, so a timer wrapped around each counts every
    # measurement once.
    def measure(self, config: Mapping[str, int]) -> Measurement:
        """Run the kernel once with ``config`` and time it.  ``config``
        must lie in :attr:`space` (a ``KeyError`` or ``ValueError``
        otherwise)."""
        return self._measurement(self.space.config_to_flat(config))

    def measure_flat(self, flat: int) -> Measurement:
        """Run the configuration at flat index ``flat`` once."""
        return self._measurement(int(flat))

    def measure_repeated(
        self, config: Mapping[str, int], repeats: int
    ) -> List[Measurement]:
        """Run the kernel ``repeats`` times (the paper re-runs the final
        configuration 10x to compensate for runtime variance)."""
        runtime, failure = self._true_runtimes(
            np.array([self.space.config_to_flat(config)], dtype=np.int64)
        )
        noisy = self._repeated(runtime[0], repeats)
        valid = not failure[0]
        return [
            Measurement(
                runtime_ms=float(t), valid=valid,
                transfer_ms=self._transfer_ms,
            )
            for t in noisy
        ]

    def measure_flat_repeated(self, flat: int, repeats: int) -> np.ndarray:
        """:meth:`measure_repeated` by flat index: the noisy runtimes,
        bit-identical to its ``runtime_ms`` values.  A flat this device
        has resolved costs no table lookup or simulator pass."""
        true_ms = self._resolved.get(flat)
        if true_ms is None:
            runtime, _ = self._true_runtimes(
                np.array([flat], dtype=np.int64)
            )
            true_ms = runtime[0]
        return self._repeated(true_ms, repeats)

    def measure_flats(self, flats: np.ndarray) -> np.ndarray:
        """One noisy measurement per flat index (``inf`` marks launch
        failures), with one vectorized noise draw over the batch: the
        dataset-collection stream contract."""
        flats = np.asarray(flats, dtype=np.int64)
        runtimes, _ = self._true_runtimes(flats)
        noisy = self.noise.apply(runtimes, self.rng)
        self._launches += int(flats.size)
        return noisy

    def measure_flats_each(self, flats: np.ndarray) -> np.ndarray:
        """One noisy measurement per flat index with *per-measurement*
        noise-draw granularity.

        The batched-evaluation route for sequential tuners: the batch's
        true runtimes are resolved at once, then
        :meth:`NoiseModel.apply_each` replays the element-at-a-time draw
        order — so the result is bit-identical to calling
        :meth:`measure_flat` once per index on the same stream, unlike
        :meth:`measure_flats` whose single batched draw belongs to the
        dataset-collection stream contract.  The true runtimes come from
        what the device already resolved when it has them all (see
        :func:`resolve_together`), else from one pass over the batch.
        """
        flats = np.asarray(flats, dtype=np.int64)
        noisy = self.noise.apply_each(self._known_runtimes(flats), self.rng)
        self._launches += int(flats.size)
        return noisy


def resolve_together(
    devices: Sequence[SimulatedDevice], requests: Sequence[Sequence[int]]
) -> None:
    """Resolve ``requests[i]`` for ``devices[i]``, for every ``i``, with
    one table gather or one simulator pass, and hand each device its
    slice.

    Nothing is measured and no launch is counted: a device measures its
    request afterwards through :meth:`SimulatedDevice.measure_flats_each`
    (or its final repeats through ``measure_flat_repeated``), which then
    finds every runtime resolved and draws its noise from that device's
    own stream, exactly as if it had resolved the request alone.  The
    simulator is elementwise, so the runtimes do not depend on what
    else shares the pass.  The devices must run one landscape: the same
    architecture, workload and table (the cells of one replication
    group do).
    """
    if not devices:
        return
    lead = devices[0]
    for device in devices[1:]:
        if (
            device.arch != lead.arch
            or device.profile != lead.profile
            or device.table is not lead.table
        ):
            raise ValueError(
                "resolve_together needs devices on one landscape"
            )
    keys = [int(flat) for request in requests for flat in request]
    if not keys:
        return
    runtimes, _ = lead._true_runtimes(np.array(keys, dtype=np.int64))
    values = runtimes.tolist()
    start = 0
    for device, request in zip(devices, requests, strict=True):
        end = start + len(request)
        device._resolved.update(zip(keys[start:end], values[start:end]))
        start = end
