"""The runner's reduction of Random Search replication groups against
``run_experiment`` per task.

A Random Search cell asks for nothing once its objective holds the
cell's dataset rows, so ``run_experiment_batch`` reduces a whole group's
stacked rows with one ``best_of_rows`` instead of stepping its cells.
Crafted rows pin the corners of that rule: a tied minimum, rows with no
finite entry (``inf``; NaN and ``-inf`` first), and a row whose chosen
configuration fails to launch, which fails its cell on both routes.
"""

import math

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import (
    ExperimentTask,
    NonFiniteResultError,
    run_experiment,
    run_experiment_batch,
)
from repro.gpu.arch import get_architecture
from repro.gpu.device import SimulatedDevice
from repro.kernels import get_kernel
from repro.parallel import TaskFailure

from .test_lockstep import assert_same, per_task

INF, NAN = math.inf, math.nan
S = 6


@pytest.fixture(autouse=True)
def no_injected_failures(monkeypatch):
    monkeypatch.delenv(runner.FAIL_CELLS_ENV, raising=False)


def launch_split():
    """Flats of add/titan_v (512x512) that launch, and some that do
    not."""
    kernel = get_kernel("add", 512, 512)
    device = SimulatedDevice(
        get_architecture("titan_v"),
        kernel.profile(),
        rng=np.random.default_rng(0),
    )
    flats = np.random.default_rng(1).integers(0, kernel.space().size, 400)
    finite = np.isfinite(device.measure_flats_each(flats))
    return flats[finite].tolist(), flats[~finite].tolist()


def rs_group(rows):
    return [
        ExperimentTask(
            "random_search", "add", "titan_v",
            sample_size=S, experiment=e, root_seed=11,
            image_x=512, image_y=512,
            dataset_flats=tuple(flats), dataset_runtimes=tuple(runtimes),
        )
        for e, (flats, runtimes) in enumerate(rows)
    ]


def crafted_rows():
    ok, failing = launch_split()
    assert len(ok) >= 4 * S and failing
    take = iter(ok)
    return [
        # A tied minimum: the first one wins.
        ([next(take) for _ in range(S)], [5.0, 2.0, 9.0, 2.0, INF, 3.0]),
        # Nothing launched.
        ([next(take) for _ in range(S)], [INF] * S),
        # Nothing finite, NaN and -inf first.
        ([next(take) for _ in range(S)], [NAN, -INF, INF, NAN, INF, -INF]),
        # Nothing launched, and the fallback configuration cannot.
        ([failing[0]] + [next(take) for _ in range(S - 1)], [INF] * S),
        # An ordinary row with one failure.
        ([next(take) for _ in range(S)], [4.0, INF, 1.5, 2.5, 7.0, 1.25]),
    ]


def test_crafted_group_matches_per_task():
    tasks = rs_group(crafted_rows())
    reference = per_task(tasks)
    batched = run_experiment_batch(tasks)
    assert_same(batched, reference)

    tie, no_launch, non_finite, failed, ordinary = batched
    assert tie.best_flat == tasks[0].dataset_flats[1]
    assert tie.observed_best_ms == 2.0
    for item, task in ((no_launch, tasks[1]), (non_finite, tasks[2])):
        assert item.best_flat == task.dataset_flats[0]
        assert item.observed_best_ms == INF
        assert math.isfinite(item.final_runtime_ms)
    assert isinstance(failed, TaskFailure)
    assert type(failed.error) is NonFiniteResultError
    assert ordinary.best_flat == tasks[4].dataset_flats[5]
    assert ordinary.observed_best_ms == 1.25


def test_group_reduces_without_stepping(monkeypatch):
    # The reduction never builds a cell's steps: a group of five cells
    # makes no _cell_steps call, where run_experiment makes one each.
    calls = []
    cell_steps = runner._cell_steps

    def counting(task, ctx, device):
        calls.append(task.cell_key)
        return cell_steps(task, ctx, device)

    monkeypatch.setattr(runner, "_cell_steps", counting)
    tasks = rs_group(crafted_rows())
    run_experiment_batch(tasks)
    assert calls == []
    run_experiment(tasks[0])
    assert calls == [tasks[0].cell_key]
