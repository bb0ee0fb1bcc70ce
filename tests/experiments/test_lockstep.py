"""Lockstep replication groups against ``run_experiment`` per task.

``run_experiment_batch`` steps the GA cells of one replication group
together: every round, each live cell makes its next generation's
request, the round's requests are resolved in one simulator pass, and
each cell measures its slice on its own device and noise stream.  Each
case below compares one group with ``run_experiment`` on each of its
tasks, bit for bit, on the live (table-less) simulator, where a pass is
a simulator call that can be counted.
"""

import numpy as np
import pytest

import repro.experiments.runner as runner
import repro.gpu.device as device_module
from repro.experiments.runner import (
    FAIL_CELLS_ENV,
    ExperimentTask,
    InjectedFailure,
    NonFiniteResultError,
    run_experiment,
    run_experiment_batch,
)
from repro.gpu.device import SimulatedDevice
from repro.parallel import TaskFailure
from repro.search import GeneticAlgorithmTuner


@pytest.fixture(autouse=True)
def no_injected_failures(monkeypatch):
    monkeypatch.delenv(FAIL_CELLS_ENV, raising=False)


def ga_group(sample_size, replications=4, **tuner_kwargs):
    return [
        ExperimentTask(
            "genetic_algorithm", "add", "titan_v",
            sample_size=sample_size, experiment=e, root_seed=5,
            image_x=512, image_y=512,
            tuner_kwargs=tuple(sorted(tuner_kwargs.items())),
        )
        for e in range(replications)
    ]


def per_task(tasks):
    """The reference: ``run_experiment`` on each task, exceptions kept."""
    out = []
    for task in tasks:
        try:
            out.append(run_experiment(task))
        except Exception as exc:  # noqa: BLE001 - compared below
            out.append(exc)
    return out


def assert_same(batched, reference):
    assert len(batched) == len(reference)
    for item, ref in zip(batched, reference):
        if isinstance(ref, Exception):
            assert isinstance(item, TaskFailure)
            assert type(item.error) is type(ref)
            assert str(item.error) == str(ref)
        else:
            assert item == ref
            assert item.final_runtime_ms == ref.final_runtime_ms
            assert item.convergence == ref.convergence


@pytest.fixture
def passes(monkeypatch):
    """Rows of every simulator pass the device module makes."""
    rows = []
    simulate = device_module.simulate_runtimes

    def counting(profile, arch, matrix):
        rows.append(len(matrix))
        return simulate(profile, arch, matrix)

    monkeypatch.setattr(device_module, "simulate_runtimes", counting)
    return rows


@pytest.fixture
def requests(monkeypatch):
    """``(request size, budget left)`` of every ``evaluate_flats`` call,
    by cell."""
    from repro.search import Objective

    log = {}
    evaluate_flats = Objective.evaluate_flats

    def counting(self, flats):
        log.setdefault(self.cell, []).append((len(flats), self.remaining))
        return evaluate_flats(self, flats)

    monkeypatch.setattr(Objective, "evaluate_flats", counting)
    return log


def test_budgets_run_out_mid_generation(passes, requests):
    # Six-individual generations against S = 30: cached individuals
    # shrink the requests, so cells spend their budgets in different
    # rounds, several of them inside a generation.
    tasks = ga_group(30, replications=5, pop_size=6)
    batched = run_experiment_batch(tasks)
    assert all(r.samples_used == 30 for r in batched)
    assert len({len(calls) for calls in requests.values()}) > 1
    assert any(size > left for size, left in (
        calls[-1] for calls in requests.values()
    ))
    # Only the affordable prefixes were simulated, and the final repeats
    # of each chosen configuration (measured by its cell) added none.
    group_rows = sum(passes)
    assert group_rows == 30 * len(tasks)
    passes.clear()
    assert_same(batched, per_task(tasks))
    assert sum(passes) == group_rows


def test_converged_generation_injects_immigrant(monkeypatch):
    immigrants = []
    original = GeneticAlgorithmTuner._random_individual

    def counting(self, objective, rng):
        immigrants.append(objective.cell)
        return original(self, objective, rng)

    monkeypatch.setattr(
        GeneticAlgorithmTuner, "_random_individual", counting
    )
    # Two individuals that rarely mutate: children often copy a parent,
    # so whole generations are cached and an immigrant is injected.
    tasks = ga_group(40, pop_size=2, mutation_chance=1000)
    batched = run_experiment_batch(tasks)
    lockstep_immigrants = list(immigrants)
    assert len(set(lockstep_immigrants)) > 1
    immigrants.clear()
    assert_same(batched, per_task(tasks))
    assert sorted(immigrants) == sorted(lockstep_immigrants)


def test_injected_failure_mid_group_siblings_survive(monkeypatch):
    tasks = ga_group(25, replications=3)
    monkeypatch.setenv(FAIL_CELLS_ENV, tasks[1].cell_key)
    batched = run_experiment_batch(tasks)
    assert isinstance(batched[1], TaskFailure)
    assert isinstance(batched[1].error, InjectedFailure)
    assert_same(batched, per_task(tasks))
    assert not isinstance(batched[0], TaskFailure)
    assert not isinstance(batched[2], TaskFailure)


def test_non_finite_final_fails_one_cell(monkeypatch):
    tasks = ga_group(25, replications=3)
    reference = per_task(tasks)
    chosen = [r.best_flat for r in reference]
    assert len(set(chosen)) == len(chosen)
    original = SimulatedDevice.measure_flat_repeated

    def failing_final(self, flat, repeats):
        if flat == chosen[1]:
            return np.full(repeats, np.inf)
        return original(self, flat, repeats)

    monkeypatch.setattr(
        SimulatedDevice, "measure_flat_repeated", failing_final
    )
    batched = run_experiment_batch(tasks)
    assert isinstance(batched[1].error, NonFiniteResultError)
    assert_same(batched, per_task(tasks))


@pytest.mark.parametrize("width", [None, 2])
def test_group_passes_follow_its_longest_cell(
    passes, requests, monkeypatch, width
):
    """A live GA group makes one pass per round: as many as its longest
    cell has generations, not their sum, and the final repeats add
    none.  A group wider than ``LOCKSTEP_CELLS`` steps in slices, one
    pass per slice and round, with the same results."""
    if width is not None:
        monkeypatch.setattr(runner, "LOCKSTEP_CELLS", width)
    tasks = ga_group(100, replications=6)
    batched = run_experiment_batch(tasks)
    generations = [len(requests[task.cell_key]) for task in tasks]
    slice_width = width or len(tasks)
    assert len(passes) == sum(
        max(generations[start : start + slice_width])
        for start in range(0, len(tasks), slice_width)
    )
    assert len(passes) < sum(generations)
    assert sum(passes) == sum(r.samples_used for r in batched)
    if width is not None:
        assert_same(batched, per_task(tasks))
