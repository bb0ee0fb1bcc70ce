"""Behavioural tests shared by all five tuners, plus per-tuner checks."""

import numpy as np
import pytest

from repro.search import (
    PAPER_ALGORITHM_NAMES,
    BayesianGpTuner,
    BayesianTpeTuner,
    DatasetTuner,
    GeneticAlgorithmTuner,
    Objective,
    RandomForestTuner,
    RandomSearchTuner,
    TUNER_FACTORIES,
    make_tuner,
    paper_tuners,
)

from .conftest import make_quadratic_objective, make_sim_objective


def dataset_objective(space, configs, runtimes):
    """An objective whose rows are the pre-collected ``(configs,
    runtimes)`` slice, with a budget of one row per runtime; it measures
    nothing."""

    def measure(config):
        raise AssertionError("dataset rows are not measured")

    objective = Objective(space, measure, budget=len(runtimes))
    objective.record_dataset(
        [space.config_to_flat(c) for c in configs], runtimes
    )
    return objective


class TestRegistry:
    def test_five_paper_algorithms(self):
        assert len(PAPER_ALGORITHM_NAMES) == 5
        tuners = paper_tuners()
        assert [t.name for t in tuners] == list(PAPER_ALGORITHM_NAMES)

    def test_labels_match_paper(self):
        labels = {t.name: t.label for t in paper_tuners()}
        assert labels == {
            "random_search": "RS",
            "random_forest": "RF",
            "genetic_algorithm": "GA",
            "bo_gp": "BO GP",
            "bo_tpe": "BO TPE",
        }

    def test_registry_is_exactly_the_paper_five(self):
        """No tuner outside the paper's comparison is registered, so a
        name such as simulated annealing is unknown."""
        assert set(TUNER_FACTORIES) == set(PAPER_ALGORITHM_NAMES)
        with pytest.raises(KeyError, match="unknown tuner"):
            make_tuner("simulated_annealing")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_tuner("gradient_descent")

    def test_kwargs_forwarded(self):
        t = make_tuner("bo_gp", init_fraction=0.2)
        assert t.init_fraction == 0.2

    def test_smbo_grouping_matches_paper(self):
        """Section V-C: RS/RF are non-SMBO (dataset) methods; GA and the
        BO variants measure live."""
        live = {
            t.name: not isinstance(t, DatasetTuner) for t in paper_tuners()
        }
        assert live == {
            "random_search": False,
            "random_forest": False,
            "genetic_algorithm": True,
            "bo_gp": True,
            "bo_tpe": True,
        }


@pytest.mark.parametrize("name", PAPER_ALGORITHM_NAMES)
class TestBudgetContract:
    """Every algorithm must consume exactly its sample budget."""

    def test_exact_budget_on_simulator(self, name):
        budget = 30
        obj = make_sim_objective(budget, seed=1)
        result = make_tuner(name).tune(obj, np.random.default_rng(2))
        assert result.samples_used == budget
        assert len(result.history_runtimes) == budget
        assert np.isfinite(result.best_runtime_ms)

    def test_result_best_matches_history(self, name):
        obj = make_sim_objective(25, seed=3)
        result = make_tuner(name).tune(obj, np.random.default_rng(4))
        finite = [r for r in result.history_runtimes if np.isfinite(r)]
        assert result.best_runtime_ms == min(finite)


@pytest.mark.parametrize("name", PAPER_ALGORITHM_NAMES)
class TestReproducibility:
    def test_same_seed_same_result(self, name):
        r1 = make_tuner(name).tune(
            make_sim_objective(25, seed=7), np.random.default_rng(8)
        )
        r2 = make_tuner(name).tune(
            make_sim_objective(25, seed=7), np.random.default_rng(8)
        )
        assert r1.best_config == r2.best_config
        assert r1.history_runtimes == r2.history_runtimes


class TestOptimizers:
    """Model-driven tuners must actually optimize a learnable function."""

    @pytest.mark.parametrize("name", ["bo_gp", "bo_tpe", "genetic_algorithm"])
    def test_beats_random_on_quadratic(self, name):
        budget = 60
        smart_best = []
        random_best = []
        for seed in range(3):
            obj, _ = make_quadratic_objective(budget)
            r = make_tuner(name).tune(obj, np.random.default_rng(seed))
            smart_best.append(r.best_runtime_ms)
            obj2, _ = make_quadratic_objective(budget)
            r2 = RandomSearchTuner().tune(obj2, np.random.default_rng(seed))
            random_best.append(r2.best_runtime_ms)
        assert np.median(smart_best) <= np.median(random_best)

    def test_bo_gp_converges_near_optimum(self):
        obj, target = make_quadratic_objective(60)
        r = BayesianGpTuner().tune(obj, np.random.default_rng(0))
        assert r.best_runtime_ms <= 5.0  # within 2 steps of the bowl bottom


class TestRandomSearch:
    def test_picks_dataset_minimum(self, paper_space):
        rng = np.random.default_rng(0)
        configs = paper_space.sample(rng, 20, feasible_only=True)
        runtimes = np.arange(20, 0, -1).astype(float)
        r = RandomSearchTuner().tune(
            dataset_objective(paper_space, configs, runtimes), rng
        )
        assert r.best_runtime_ms == 1.0
        assert r.best_config == configs[-1]
        assert r.samples_used == 20

    def test_all_failures_returns_something(self, paper_space):
        rng = np.random.default_rng(0)
        configs = paper_space.sample(rng, 5, feasible_only=True)
        runtimes = np.full(5, np.inf)
        r = RandomSearchTuner().tune(
            dataset_objective(paper_space, configs, runtimes), rng
        )
        assert np.isinf(r.best_runtime_ms)

    def test_mismatched_lengths(self, paper_space):
        with pytest.raises(ValueError):
            RandomSearchTuner().tune(
                dataset_objective(paper_space, [], np.ones(3)),
                np.random.default_rng(0),
            )


class TestRandomForestTuner:
    def test_two_stage_protocol(self, paper_space):
        """Paper: train on S-10, measure top-10 predictions live."""
        rng = np.random.default_rng(0)
        tuner = RandomForestTuner(n_estimators=10, candidate_pool=256)
        obj = make_sim_objective(40, seed=5)
        result = tuner.tune(obj, rng)
        # 30 dataset samples + 10 live evaluations.
        assert result.samples_used == 40
        assert tuner.live_reserve() == 10

    def test_needs_live_objective(self, paper_space):
        rng = np.random.default_rng(0)
        configs = paper_space.sample(rng, 15, feasible_only=True)
        with pytest.raises(ValueError, match="live objective"):
            RandomForestTuner().tune(
                dataset_objective(paper_space, configs, np.ones(15)), rng
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestTuner(top_k=0)
        with pytest.raises(ValueError):
            RandomForestTuner(top_k=10, candidate_pool=5)


class TestGeneticAlgorithm:
    def test_respects_constraints_by_default(self):
        obj = make_sim_objective(40, seed=6)
        GeneticAlgorithmTuner().tune(obj, np.random.default_rng(7))
        assert all(obj.space.is_feasible(c) for c in obj.configs[:20])

    def test_caching_avoids_duplicate_budget(self):
        """Re-visiting a cached individual must not burn budget."""
        obj, _ = make_quadratic_objective(100)
        GeneticAlgorithmTuner(pop_size=4).tune(
            obj, np.random.default_rng(0)
        )
        # All 100 evaluations are distinct configurations.
        seen = {tuple(sorted(c.items())) for c in obj.configs}
        assert len(seen) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithmTuner(pop_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithmTuner(mutation_chance=0)


class TestBoGp:
    def test_init_fraction_matches_paper(self):
        assert BayesianGpTuner().init_fraction == 0.08

    def test_samples_unconstrained_space(self):
        """Section V-C: the SMBO methods had no constraint support, so
        some sampled configurations are infeasible."""
        infeasible_seen = 0
        for seed in range(5):
            obj = make_sim_objective(30, seed=seed)
            BayesianGpTuner().tune(obj, np.random.default_rng(seed + 100))
            infeasible_seen += sum(
                not obj.space.is_feasible(c) for c in obj.configs
            )
        assert infeasible_seen > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BayesianGpTuner(init_fraction=0.0)
        with pytest.raises(ValueError):
            BayesianGpTuner(n_candidates=0)
        with pytest.raises(ValueError):
            BayesianGpTuner(max_train_points=1)

    def test_training_subset_cap(self):
        tuner = BayesianGpTuner(max_train_points=10)
        X = np.arange(40, dtype=float).reshape(-1, 2)
        y = np.arange(20, dtype=float)
        Xs, ys = tuner._training_subset(X, y)
        assert ys.size <= 10
        assert 0.0 in ys      # best observation kept
        assert 19.0 in ys     # most recent kept


class TestBoTpe:
    def test_startup_is_hyperopt_default(self):
        assert BayesianTpeTuner().n_startup == 20

    def test_n_good_capping(self):
        t = BayesianTpeTuner(gamma=0.25)
        assert t._n_good(16) == 1
        assert t._n_good(100) == 3
        assert t._n_good(100000) == 25  # hyperopt's cap

    def test_validation(self):
        with pytest.raises(ValueError):
            BayesianTpeTuner(n_startup=1)
        with pytest.raises(ValueError):
            BayesianTpeTuner(gamma=1.0)
        with pytest.raises(ValueError):
            BayesianTpeTuner(n_ei_candidates=0)
