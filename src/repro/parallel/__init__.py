"""Reproducible RNG streams and parallel experiment execution."""

from .blas import pin_blas_threads
from .executors import (
    EXECUTOR_NAMES,
    ExecutionSettings,
    Executor,
    make_executor,
)
from .pool import (
    DEFAULT_RETRYABLE,
    NODE_ID_ENV,
    ParallelMap,
    TaskError,
    TaskFailure,
    TaskOutcome,
    TransientError,
    default_worker_count,
)
from .rng import RngFactory, hash_key_to_entropy

__all__ = [
    "RngFactory",
    "hash_key_to_entropy",
    "ParallelMap",
    "TaskError",
    "TaskFailure",
    "TaskOutcome",
    "TransientError",
    "DEFAULT_RETRYABLE",
    "default_worker_count",
    "Executor",
    "ExecutionSettings",
    "make_executor",
    "EXECUTOR_NAMES",
    "NODE_ID_ENV",
    "pin_blas_threads",
]
