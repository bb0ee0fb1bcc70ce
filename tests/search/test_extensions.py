"""Tests for the extension tuners: SA, PSO, HyperBand, BOHB."""

import hashlib

import numpy as np
import pytest

from repro.gpu import TITAN_V
from repro.experiments.fidelity import make_fidelity_measure
from repro.parallel import RngFactory
from repro.search import (
    BohbTuner,
    BudgetExhausted,
    EXTENSION_ALGORITHM_NAMES,
    HyperbandTuner,
    MultiFidelityObjective,
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


def make_mf_objective(budget_units):
    measure = make_fidelity_measure(
        "add", TITAN_V, full_x=2048, full_y=2048,
        rng_factory=RngFactory(7),
    )
    return MultiFidelityObjective(
        space=make_sim_objective(1).space,
        measure=measure,
        budget_units=budget_units,
    )


@pytest.fixture
def mf_objective():
    return make_mf_objective(12.0)


def index_digest(objective, configs, *arrays) -> str:
    """sha256 over the configurations' index rows and extra arrays."""
    rows = np.array([objective.space.config_to_indices(c) for c in configs])
    h = hashlib.sha256()
    for a in (rows, *arrays):
        a = np.asarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestMultiFidelityObjective:
    def test_budget_units_charged_by_fidelity(self, mf_objective):
        cfg = mf_objective.space.sample(np.random.default_rng(0), 1,
                                        feasible_only=True)[0]
        mf_objective.evaluate(cfg, fidelity=0.25)
        assert mf_objective.spent == pytest.approx(0.25)
        mf_objective.evaluate(cfg, fidelity=1.0)
        assert mf_objective.spent == pytest.approx(1.25)

    def test_budget_exhaustion(self, mf_objective):
        cfg = mf_objective.space.sample(np.random.default_rng(0), 1,
                                        feasible_only=True)[0]
        for _ in range(12):
            mf_objective.evaluate(cfg, fidelity=1.0)
        with pytest.raises(BudgetExhausted):
            mf_objective.evaluate(cfg, fidelity=1.0)

    def test_invalid_fidelity(self, mf_objective):
        cfg = mf_objective.space.sample(np.random.default_rng(0), 1,
                                        feasible_only=True)[0]
        with pytest.raises(ValueError):
            mf_objective.evaluate(cfg, fidelity=0.0)
        with pytest.raises(ValueError):
            mf_objective.evaluate(cfg, fidelity=1.5)

    def test_lower_fidelity_runs_faster(self, mf_objective):
        cfg = {"thread_x": 1, "thread_y": 1, "thread_z": 1,
               "wg_x": 8, "wg_y": 4, "wg_z": 1}
        low = mf_objective.evaluate(cfg, fidelity=1 / 16)
        high = mf_objective.evaluate(cfg, fidelity=1.0)
        assert low < high

    def test_best_at_highest_fidelity(self, mf_objective):
        rng = np.random.default_rng(1)
        cfgs = mf_objective.space.sample(rng, 3, feasible_only=True)
        mf_objective.evaluate(cfgs[0], fidelity=0.1)
        r1 = mf_objective.evaluate(cfgs[1], fidelity=1.0)
        r2 = mf_objective.evaluate(cfgs[2], fidelity=1.0)
        best_cfg, best_rt = mf_objective.best_at_highest_fidelity()
        assert best_rt == min(r1, r2)
        assert best_cfg in (cfgs[1], cfgs[2])


class TestHyperband:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperbandTuner(eta=1)
        with pytest.raises(ValueError):
            HyperbandTuner(s_max=-1)
        with pytest.raises(ValueError):
            BohbTuner(gamma=0.0)
        with pytest.raises(ValueError):
            BohbTuner(min_points=1)

    def test_requires_mf_objective(self):
        with pytest.raises(TypeError):
            HyperbandTuner().tune(
                make_sim_objective(10), np.random.default_rng(0)
            )

    @pytest.mark.parametrize("cls", [HyperbandTuner, BohbTuner])
    def test_spends_full_budget_and_reaches_full_fidelity(
        self, cls, mf_objective
    ):
        result = cls(s_max=2).tune_mf(mf_objective, np.random.default_rng(3))
        assert mf_objective.remaining < 1.0  # nearly all spent
        assert max(mf_objective.fidelities) == pytest.approx(1.0)
        assert np.isfinite(result.best_runtime_ms)
        # More launches than full-fidelity evaluations could afford.
        assert len(mf_objective.runtimes) > mf_objective.budget_units

    def test_bracket_promotes_best(self, mf_objective):
        tuner = HyperbandTuner(s_max=2)
        tuner._run_bracket(2, mf_objective, np.random.default_rng(4))
        fids = np.asarray(mf_objective.fidelities)
        # Successive halving: strictly fewer evaluations per rung.
        rung_sizes = [int((fids == f).sum()) for f in sorted(set(fids))]
        assert rung_sizes == sorted(rung_sizes, reverse=True)

    def test_bohb_uses_model_after_enough_points(self, mf_objective):
        tuner = BohbTuner(s_max=2, min_points=4)
        rng = np.random.default_rng(5)
        cfgs = mf_objective.space.sample(rng, 6, feasible_only=True)
        for cfg in cfgs:
            mf_objective.evaluate(cfg, fidelity=1.0)
        assert tuner._model_observations(mf_objective) is not None
        proposals = tuner._propose(3, mf_objective, rng)
        assert len(proposals) == 3
        for p in proposals:
            mf_objective.space.validate_config(p)

    def test_bohb_proposals_pinned(self):
        """BOHB's TPE proposals, and a whole run, at fixed seeds.  The
        digests were recorded when every proposal refitted a scalar
        estimator per dimension; the shared batched fit must not move
        them."""
        objective = make_mf_objective(40.0)
        rng = np.random.default_rng(5)
        for cfg in objective.space.sample(rng, 20, feasible_only=True):
            objective.evaluate(cfg, fidelity=1.0)
        proposals = BohbTuner()._propose(6, objective, rng)
        assert index_digest(
            objective, proposals, rng.integers(0, 2**31, 4)
        ) == "82bb1db14b89207cfef2a19f49b60b73e5a8624a94b64d6b9639c6d65d1788e8"

        objective = make_mf_objective(30.0)
        result = BohbTuner(s_max=2, min_points=4).tune_mf(
            objective, np.random.default_rng(9)
        )
        assert index_digest(
            objective, result.history_configs, objective.fidelities
        ) == "2e2017009a764c37803047a22cdb16387e62ccf287a45effcd364ed7e82cd992"
