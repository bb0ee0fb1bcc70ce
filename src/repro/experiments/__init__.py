"""The paper's experimental pipeline: design, datasets, optima, studies."""

from .checkpoint import CheckpointMismatchError, StudyCheckpoint
from .dataset import PrecollectedDataset, collect_dataset
from .design import (
    PAPER_EXPERIMENTS_AT_LARGEST,
    PAPER_SAMPLE_SIZES,
    ExperimentDesign,
    paper_design,
)
from .optimum import OptimumResult, clear_optimum_cache, find_true_optimum
from .results import CellKey, ExperimentResult, StudyResults
from .runner import (
    ExperimentTask,
    InjectedFailure,
    NonFiniteResultError,
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from .study import StudyConfig, build_tasks, paper_study_config, run_study
from .telemetry import StudyTelemetry

__all__ = [
    "StudyCheckpoint",
    "CheckpointMismatchError",
    "StudyTelemetry",
    "NonFiniteResultError",
    "InjectedFailure",
    "ExperimentDesign",
    "paper_design",
    "PAPER_SAMPLE_SIZES",
    "PAPER_EXPERIMENTS_AT_LARGEST",
    "PrecollectedDataset",
    "collect_dataset",
    "OptimumResult",
    "find_true_optimum",
    "clear_optimum_cache",
    "ExperimentResult",
    "CellKey",
    "StudyResults",
    "ExperimentTask",
    "run_experiment",
    "run_experiment_batch",
    "batch_group_key",
    "StudyConfig",
    "paper_study_config",
    "run_study",
    "build_tasks",
]
