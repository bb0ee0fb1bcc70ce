"""Simulated GPU testbed: architectures, performance model, measurement.

This package is the reproduction's substitute for the paper's physical
GPUs (GTX 980, Titan V, RTX Titan).  See DESIGN.md section 1 for the
substitution rationale: the search algorithms under study only ever
observe (configuration -> noisy runtime) responses, so an analytic
performance model with realistic parameter interactions preserves the
behaviour the paper measures.
"""

from .arch import (
    GTX_980,
    PAPER_ARCHITECTURES,
    RTX_TITAN,
    TITAN_V,
    GpuArchitecture,
    get_architecture,
)
from .device import Measurement, SimulatedDevice
from .geometry import LaunchGeometry, derive_geometry
from .landscape import (
    LANDSCAPE_CACHE_ENV,
    LandscapeTable,
    compute_landscape,
    default_cache_dir,
    landscape_fingerprint,
    load_landscape,
    load_or_compute_landscape,
    save_landscape,
)
from .noise import DEFAULT_NOISE, NOISELESS, NoiseModel
from .occupancy import OccupancyResult, compute_occupancy
from .simulator import (
    CONFIG_COLUMNS,
    SIMULATOR_VERSION,
    SimulationResult,
    simulate_runtimes,
)
from .workload import WorkloadProfile

__all__ = [
    "GpuArchitecture",
    "GTX_980",
    "TITAN_V",
    "RTX_TITAN",
    "PAPER_ARCHITECTURES",
    "get_architecture",
    "WorkloadProfile",
    "LaunchGeometry",
    "derive_geometry",
    "OccupancyResult",
    "compute_occupancy",
    "SimulationResult",
    "simulate_runtimes",
    "CONFIG_COLUMNS",
    "SIMULATOR_VERSION",
    "LandscapeTable",
    "LANDSCAPE_CACHE_ENV",
    "landscape_fingerprint",
    "compute_landscape",
    "load_landscape",
    "save_landscape",
    "load_or_compute_landscape",
    "default_cache_dir",
    "NoiseModel",
    "DEFAULT_NOISE",
    "NOISELESS",
    "Measurement",
    "SimulatedDevice",
]
