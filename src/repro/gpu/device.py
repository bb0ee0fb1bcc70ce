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

A device may be backed by a precomputed :class:`~repro.gpu.landscape.
LandscapeTable`, in which case every measurement is a flat-index lookup
plus the same noise draw instead of a full simulator pipeline pass.
Because the simulator is deterministic and noise is applied after the
lookup, table-backed and live measurements are bit-identical — same
runtimes, same RNG consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from ..obs.metrics import global_registry
from .arch import GpuArchitecture
from .noise import DEFAULT_NOISE, NoiseModel
from .simulator import CONFIG_COLUMNS, SimulationResult, simulate_runtimes
from .workload import WorkloadProfile

__all__ = ["Measurement", "SimulatedDevice", "PCIE_BANDWIDTH_GBS"]

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


def config_dict_to_row(config: Mapping[str, int]) -> np.ndarray:
    """Configuration dict -> simulator row in :data:`CONFIG_COLUMNS` order."""
    try:
        return np.array([int(config[c]) for c in CONFIG_COLUMNS], dtype=np.int64)
    except KeyError as exc:
        raise KeyError(
            f"configuration is missing parameter {exc.args[0]!r}; the GPU "
            f"simulator needs all of {CONFIG_COLUMNS}"
        ) from None


#: Cached (registry, lookups counter) — same pattern as the simulator's
#: counters: one identity check per measurement instead of a dict lookup.
_COUNTERS: tuple = (None, None)


def _lookup_counter():
    global _COUNTERS
    registry = global_registry()
    if _COUNTERS[0] is not registry:
        _COUNTERS = (registry, registry.counter("landscape_lookups_total"))
    return _COUNTERS[1]


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
        self.arch = arch
        self.profile = profile
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng()
        self.table = table
        self._launches = 0
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

    def reset_counter(self) -> None:
        self._launches = 0

    # -- transfers ----------------------------------------------------------
    def transfer_time_ms(self) -> float:
        """Modelled host->device + device->host transfer time (cached)."""
        return self._transfer_ms

    # -- true (noise-free) runtimes ------------------------------------------
    def _true_runtime(self, config: Mapping[str, int]) -> tuple:
        """(noise-free runtime ms, valid) — table lookup or 1-row pipeline."""
        if self.table is not None:
            flat = self.table.flat_of(config)
            _lookup_counter().inc()
            return self.table.runtime_at(flat), not self.table.failure_at(flat)
        row = config_dict_to_row(config)
        sim = simulate_runtimes(self.profile, self.arch, row)
        return float(sim.runtime_ms[0]), not bool(sim.launch_failure[0])

    # -- measurement ----------------------------------------------------------
    def measure(self, config: Mapping[str, int]) -> Measurement:
        """Run the kernel once with ``config`` and time it."""
        true_ms, valid = self._true_runtime(config)
        noisy = self.noise.apply(np.array([true_ms]), self.rng)
        self._launches += 1
        return Measurement(
            runtime_ms=float(noisy[0]), valid=valid,
            transfer_ms=self._transfer_ms,
        )

    def measure_flat(self, flat: int) -> Measurement:
        """Run the configuration at flat index ``flat`` once (table-backed
        fast path: no configuration dict or simulator row is built)."""
        table = self._require_table("measure_flat")
        flat = int(flat)
        _lookup_counter().inc()
        noisy = self.noise.apply(
            np.array([table.runtime_at(flat)]), self.rng
        )
        self._launches += 1
        return Measurement(
            runtime_ms=float(noisy[0]),
            valid=not table.failure_at(flat),
            transfer_ms=self._transfer_ms,
        )

    def measure_repeated(
        self, config: Mapping[str, int], repeats: int
    ) -> List[Measurement]:
        """Run the kernel ``repeats`` times (the paper re-runs the final
        configuration 10x to compensate for runtime variance)."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        true_ms, valid = self._true_runtime(config)
        noisy = self.noise.apply(
            np.full(repeats, true_ms, dtype=np.float64), self.rng
        )
        self._launches += repeats
        return [
            Measurement(
                runtime_ms=float(t), valid=valid,
                transfer_ms=self._transfer_ms,
            )
            for t in noisy
        ]

    def measure_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """One noisy measurement per row of an ``(n, 6)`` configuration
        matrix (vectorized).  Returns runtimes in ms; ``inf`` marks launch
        failures."""
        sim = simulate_runtimes(self.profile, self.arch, matrix)
        noisy = self.noise.apply(sim.runtime_ms, self.rng)
        self._launches += int(matrix.shape[0] if matrix.ndim == 2 else 1)
        return noisy

    def measure_flats(self, flats: np.ndarray) -> np.ndarray:
        """One noisy measurement per flat index: a single fancy-index on
        the landscape table plus one vectorized noise draw.

        The table-backed equivalent of :meth:`measure_matrix` — dataset
        pre-collection routes here when a table is present.
        """
        table = self._require_table("measure_flats")
        flats = np.asarray(flats, dtype=np.int64)
        _lookup_counter().inc(float(flats.size))
        noisy = self.noise.apply(table.runtimes_at(flats), self.rng)
        self._launches += int(flats.size)
        return noisy

    def measure_flats_each(self, flats: np.ndarray) -> np.ndarray:
        """One noisy measurement per flat index with *per-measurement*
        noise-draw granularity.

        The batched-evaluation fast path for sequential tuners: one
        fancy-index resolves every true runtime, then
        :meth:`NoiseModel.apply_each` replays the element-at-a-time draw
        order — so the result is bit-identical to calling
        :meth:`measure_flat` once per index on the same stream, unlike
        :meth:`measure_flats` whose single batched draw belongs to the
        dataset-collection stream contract.
        """
        table = self._require_table("measure_flats_each")
        flats = np.asarray(flats, dtype=np.int64)
        _lookup_counter().inc(float(flats.size))
        noisy = self.noise.apply_each(table.runtimes_at(flats), self.rng)
        self._launches += int(flats.size)
        return noisy

    def measure_flat_repeated(self, flat: int, repeats: int) -> np.ndarray:
        """Table-backed :meth:`measure_repeated` by flat index.

        Returns the noisy runtimes array; bit-identical to
        ``[m.runtime_ms for m in measure_repeated(config, repeats)]`` for
        the configuration at ``flat`` (one lookup, one batched noise
        draw over ``repeats`` copies of the true runtime).
        """
        table = self._require_table("measure_flat_repeated")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        _lookup_counter().inc()
        true_ms = table.runtime_at(int(flat))
        noisy = self.noise.apply(
            np.full(repeats, true_ms, dtype=np.float64), self.rng
        )
        self._launches += repeats
        return noisy

    def true_runtimes(self, matrix: np.ndarray) -> SimulationResult:
        """Noise-free simulation (for optima and tests); not counted as
        launches — nothing 'runs'."""
        return simulate_runtimes(self.profile, self.arch, matrix)

    def _require_table(self, method: str):
        if self.table is None:
            raise RuntimeError(
                f"SimulatedDevice.{method} needs a landscape table; "
                f"construct the device with table=... (see "
                f"repro.gpu.landscape.load_or_compute_landscape)"
            )
        return self.table
