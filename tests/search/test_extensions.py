"""Tests for the extension tuners: SA and PSO."""

import numpy as np
import pytest

from repro.search import (
    EXTENSION_ALGORITHM_NAMES,
    ParticleSwarmTuner,
    SimulatedAnnealingTuner,
    make_tuner,
)

from .conftest import make_quadratic_objective, make_sim_objective


class TestRegistry:
    def test_extensions_registered(self):
        assert set(EXTENSION_ALGORITHM_NAMES) == {
            "simulated_annealing", "particle_swarm",
        }
        for name in EXTENSION_ALGORITHM_NAMES:
            assert make_tuner(name).name == name


@pytest.mark.parametrize("name", EXTENSION_ALGORITHM_NAMES)
class TestMetaheuristicContract:
    def test_exact_budget(self, name):
        obj = make_sim_objective(40, seed=11)
        result = make_tuner(name).tune(obj, np.random.default_rng(12))
        assert result.samples_used == 40
        assert np.isfinite(result.best_runtime_ms)

    def test_reproducible(self, name):
        r1 = make_tuner(name).tune(
            make_sim_objective(30, seed=13), np.random.default_rng(14)
        )
        r2 = make_tuner(name).tune(
            make_sim_objective(30, seed=13), np.random.default_rng(14)
        )
        assert r1.history_runtimes == r2.history_runtimes

    def test_optimizes_quadratic(self, name):
        obj, _ = make_quadratic_objective(120)
        result = make_tuner(name).tune(obj, np.random.default_rng(15))
        assert result.best_runtime_ms <= 10.0


class TestSimulatedAnnealing:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingTuner(t_start=0.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingTuner(t_start=0.1, t_end=0.2)
        with pytest.raises(ValueError):
            SimulatedAnnealingTuner(neighbour_hop=1.5)
        with pytest.raises(ValueError):
            SimulatedAnnealingTuner(restart_after=0)

    def test_neighbour_changes_one_dimension(self):
        tuner = SimulatedAnnealingTuner(neighbour_hop=0.0)
        obj = make_sim_objective(5, seed=0)
        rng = np.random.default_rng(0)
        genes = (3, 3, 3, 3, 3, 3)
        for _ in range(20):
            nxt = tuner._neighbour(genes, obj, rng)
            diffs = [abs(a - b) for a, b in zip(genes, nxt)]
            assert sum(d != 0 for d in diffs) <= 1
            assert max(diffs) <= 1  # adjacent steps only with hop=0


class TestParticleSwarm:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSwarmTuner(num_particles=1)
        with pytest.raises(ValueError):
            ParticleSwarmTuner(inertia=-0.1)

