"""Lockstep replication groups against ``run_experiment`` per task.

``run_experiment_batch`` steps the cells of one replication group
together: every round, each live cell makes its next request (a GA
generation, a BO start-up batch or proposal, RF's top-k stage), the
round's requests are resolved in one simulator pass or table gather,
and each cell measures its slice on its own device and noise stream.
Each case below compares one group with ``run_experiment`` on each of
its tasks, bit for bit.  The GA cases run on the live (table-less)
simulator, where a pass is a simulator call that can be counted; the
BO and RF groups run on both devices.
"""

import numpy as np
import pytest

import repro.experiments.runner as runner
import repro.gpu.device as device_module
from repro.experiments.dataset import collect_dataset
from repro.experiments.runner import (
    FAIL_CELLS_ENV,
    ExperimentTask,
    InjectedFailure,
    NonFiniteResultError,
    run_experiment,
    run_experiment_batch,
)
from repro.gpu.arch import get_architecture
from repro.gpu.device import SimulatedDevice
from repro.gpu.landscape import LandscapeTable
from repro.kernels import get_kernel
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
            # Counters in the same order; only wall-clock sums differ.
            assert list(item.metrics) == list(ref.metrics)
            assert {
                k: v for k, v in item.metrics.items()
                if not k.endswith("_seconds_sum")
            } == {
                k: v for k, v in ref.metrics.items()
                if not k.endswith("_seconds_sum")
            }


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


# -- BO GP, BO TPE and RF groups -----------------------------------------------

#: Small surrogate settings, so each group stays cheap.
SURROGATE_KWARGS = {
    "bo_gp": {"n_candidates": 64},
    "bo_tpe": {},
    "random_forest": {"n_estimators": 10, "candidate_pool": 256},
}


def surrogate_group(
    algorithm, sample_size=30, replications=4, landscape_cache=None
):
    """One replication group; RF cells carry disjoint rows of one
    pre-collected dataset."""
    rows = [(None, None)] * replications
    if algorithm == "random_forest":
        kernel = get_kernel("add", 512, 512)
        device = SimulatedDevice(
            get_architecture("titan_v"), kernel.profile(),
            rng=np.random.default_rng(11),
        )
        data = collect_dataset(
            device, kernel.space(), sample_size * replications,
            np.random.default_rng(12),
        )
        rows = [
            (
                tuple(part.flats.tolist()),
                tuple(part.runtimes_ms.tolist()),
            )
            for part in (
                data.slice_for(sample_size, e) for e in range(replications)
            )
        ]
    return [
        ExperimentTask(
            algorithm, "add", "titan_v",
            sample_size=sample_size, experiment=e, root_seed=5,
            image_x=512, image_y=512,
            dataset_flats=flats, dataset_runtimes=runtimes,
            tuner_kwargs=tuple(sorted(SURROGATE_KWARGS[algorithm].items())),
            landscape_cache=landscape_cache,
        )
        for e, (flats, runtimes) in enumerate(rows)
    ]


@pytest.fixture(scope="module")
def table_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("landscapes"))


@pytest.fixture
def gathers(monkeypatch):
    """Rows of every landscape-table gather."""
    rows = []
    runtimes_at = LandscapeTable.runtimes_at

    def counting(self, flats):
        rows.append(len(flats))
        return runtimes_at(self, flats)

    monkeypatch.setattr(LandscapeTable, "runtimes_at", counting)
    return rows


@pytest.mark.parametrize("tables", [False, True], ids=["live", "tables"])
@pytest.mark.parametrize("algorithm", ["bo_gp", "bo_tpe", "random_forest"])
def test_surrogate_group_matches_per_task(
    algorithm, tables, table_cache, passes, gathers, requests
):
    """Every cell of a BO GP, BO TPE or RF group steps in lockstep: one
    pass (live) or one gather (tables) per round, as many rounds as a
    cell makes requests — not one per cell per request — and the final
    repeats add none.  The results equal ``run_experiment`` per task."""
    tasks = surrogate_group(
        algorithm, landscape_cache=table_cache if tables else None
    )
    run_experiment(tasks[0])  # builds the table outside the count
    passes.clear()
    gathers.clear()
    requests.clear()
    batched = run_experiment_batch(tasks)
    rounds = {len(requests[task.cell_key]) for task in tasks}
    assert len(rounds) == 1  # same budget and schedule in every cell
    resolved = gathers if tables else passes
    assert len(resolved) == rounds.pop()
    assert sum(resolved) == sum(
        size for task in tasks for size, _ in requests[task.cell_key]
    )
    assert not (passes if tables else gathers)
    assert_same(batched, per_task(tasks))


def test_live_bo_gp_slice_one_pass_per_round(passes, requests, monkeypatch):
    """A live BO GP group wider than ``LOCKSTEP_CELLS`` makes one
    simulator pass per slice and round: its start-up design, then one
    per proposal, whatever the slice's width."""
    monkeypatch.setattr(runner, "LOCKSTEP_CELLS", 3)
    tasks = surrogate_group("bo_gp", sample_size=25, replications=6)
    batched = run_experiment_batch(tasks)
    # n_init = 2 start-up points in one request, then 23 proposals: 24
    # rounds for each of the two slices.
    assert len(passes) == 2 * 24
    assert [len(requests[task.cell_key]) for task in tasks] == [24] * 6
    assert sum(passes) == sum(r.samples_used for r in batched) == 6 * 25
    assert_same(batched, per_task(tasks))
