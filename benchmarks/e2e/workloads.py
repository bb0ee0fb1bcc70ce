"""The four study workloads of the end-to-end benchmark.

Each workload is one :class:`~repro.experiments.StudyConfig` at the
paper's 8192x8192 image, run with ``failure_policy="collect"`` and a
checkpoint, plus the environment it runs in (landscape cache state,
socket workers, result store with span tracing).  The workload seed is
the config's ``root_seed`` and nothing else: the program sees only the
generated config.

The paper's design keeps S*E constant across sample sizes; the scales
below keep that shape on one kernel and one GPU, sized so that one
benchmark run repeats the study and reports medians.  Each keeps the
part of the full-size study it stands for: ``surrogate_grid`` keeps
S=400, where the surrogate fits cost most, and ``rsga_live`` runs enough
replications that live measurements outweigh the live optimum scan.
``tiny=True`` shrinks every workload to a handful of cells for the
harness self-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.experiments import ExperimentDesign, StudyConfig
from repro.search import PAPER_ALGORITHM_NAMES

__all__ = ["DEFAULT_SEED", "NAMES", "TUNERS", "Workload", "build"]

#: ``StudyConfig.root_seed``'s default; the pinned digests use it.
DEFAULT_SEED = StudyConfig().root_seed

TUNERS: Tuple[str, ...] = tuple(PAPER_ALGORITHM_NAMES)
RSGA = ("random_search", "genetic_algorithm")
RSGA_SIZES = (25, 50, 100, 200, 400)

#: Why each exists is in ``BENCHMARK.json`` and the README.
NAMES = ("surrogate_grid", "rsga_live", "rsga_socket2", "rsga_store_half")

#: (algorithms, kernels, archs, sample sizes, E at the largest size)
_FULL = {
    "surrogate_grid": (TUNERS, ("harris",), ("titan_v",), (100, 400), 1),
    "rsga_live": (RSGA, ("add",), ("titan_v",), RSGA_SIZES, 4),
    "rsga_socket2": (RSGA, ("add",), ("titan_v",), RSGA_SIZES, 32),
}
_FULL["rsga_store_half"] = _FULL["rsga_socket2"]

_TINY = {
    "surrogate_grid": (TUNERS, ("harris",), ("titan_v",), (25,), 1),
    "rsga_live": (RSGA, ("add",), ("titan_v",), (25, 50), 1),
    "rsga_socket2": (RSGA, ("add",), ("titan_v",), (25, 50), 2),
}
_TINY["rsga_store_half"] = _TINY["rsga_socket2"]


@dataclass(frozen=True)
class Workload:
    """One named study plus the environment it runs in."""

    name: str
    config: StudyConfig
    #: ``"cold"``: a fresh, empty landscape cache dir per study;
    #: ``"warm"``: one cache dir filled before timing starts;
    #: ``"live"``: no landscape cache, the simulator runs per measurement.
    landscape: str
    #: Loopback ``repro-worker`` processes, spawned before each study's
    #: timer; the study runs with ``executor="socket"`` when there are any.
    socket_workers: int = 0
    #: Pre-seed the result store with the odd replications of every group
    #: (half the cells), so one study both reads and writes it, and run
    #: with ``trace_dir`` and ``trace_level="spans"``.
    store_half: bool = False

    @property
    def cells(self) -> int:
        """Cells one study runs."""
        cfg = self.config
        per_landscape = sum(cfg.design.schedule.values())
        return (
            len(cfg.algorithms) * len(cfg.kernels) * len(cfg.archs)
            * per_landscape
        )


def build(name: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> Workload:
    """The workload called ``name`` at ``seed`` (``tiny`` for self-tests)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    algorithms, kernels, archs, sizes, e_max = (_TINY if tiny else _FULL)[name]
    config = StudyConfig(
        design=ExperimentDesign(
            sample_sizes=sizes, experiments_at_largest=e_max
        ),
        algorithms=algorithms,
        kernels=kernels,
        archs=archs,
        image_x=8192,
        image_y=8192,
        root_seed=int(seed),
        workers=1,
    )
    if name == "surrogate_grid":
        return Workload(name, config, landscape="cold")
    if name == "rsga_live":
        return Workload(name, config, landscape="live")
    if name == "rsga_socket2":
        return Workload(name, config, landscape="warm", socket_workers=2)
    return Workload(name, config, landscape="warm", store_half=True)
