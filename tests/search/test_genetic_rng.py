"""The GA's parent choice keeps ``Generator.choice``'s RNG contract.

``GeneticAlgorithmTuner._rank_weighted_choice`` draws one uniform and
bisects a cached CDF instead of calling ``rng.choice(s, p=w)``.  These
tests pin that the two pick the same index on every draw and leave the
generator in the same state, and that whole GA histories are unchanged
(the digest was recorded before the cached-CDF choice existed).  The
initial population is one ``sample_indices`` draw; these tests pin that
it equals one draw per individual, rows and generator state.
"""

import hashlib

import numpy as np
import pytest

from repro.search import GeneticAlgorithmTuner

from .conftest import make_sim_objective

#: sha256[:16] of every (S, seed) history: flat indices as int64 then
#: runtimes as float64, for S in {25, 100} and seeds {3, 11}.
GA_HISTORY_DIGEST = "df247662ca1efd27"


def _ranked(survivors: int) -> list:
    # ``_rank_weighted_choice`` draws among the top half of ``ranked``.
    return [((i,), float(i)) for i in range(2 * survivors)]


@pytest.mark.parametrize("survivors", [2, 3, 4, 5, 6, 7, 8, 9, 10, 37])
def test_choice_matches_generator_choice(survivors):
    draws = 10_000
    weights = np.arange(survivors, 0, -1, dtype=np.float64)
    weights /= weights.sum()
    ref = np.random.default_rng(survivors)
    expected = [int(ref.choice(survivors, p=weights)) for _ in range(draws)]

    choose = GeneticAlgorithmTuner._rank_weighted_choice
    ranked = _ranked(survivors)
    rng = np.random.default_rng(survivors)
    got = [choose(ranked, rng)[0] for _ in range(draws)]

    assert got == expected
    assert rng.bit_generator.state == ref.bit_generator.state


def _history_digest() -> str:
    h = hashlib.sha256()
    for sample_size in (25, 100):
        for seed in (3, 11):
            objective = make_sim_objective(sample_size, seed=seed, kernel="add")
            result = GeneticAlgorithmTuner().tune(
                objective, np.random.default_rng(seed + 1)
            )
            space = objective.space
            flats = [space.config_to_flat(c) for c in result.history_configs]
            h.update(np.asarray(flats, dtype=np.int64).tobytes())
            h.update(
                np.asarray(result.history_runtimes, dtype=np.float64).tobytes()
            )
    return h.hexdigest()[:16]


def test_ga_history_digest_pinned():
    assert _history_digest() == GA_HISTORY_DIGEST


def _per_individual(space, rng, n, feasible_only):
    """The initial population as one ``sample_indices(rng, 1)`` call per
    individual — the draw the GA made before it drew the population at
    once."""
    return [
        tuple(space.sample_indices(rng, 1, feasible_only=feasible_only)[0]
              .tolist())
        for _ in range(n)
    ]


@pytest.mark.parametrize("feasible_only", [True, False])
@pytest.mark.parametrize("n", [1, 7, 20])
def test_population_draw_matches_per_individual_draws(feasible_only, n):
    space = make_sim_objective(1, kernel="add").space
    rejected = 0
    for seed in range(300):
        one = np.random.default_rng(seed)
        rows = space.sample_indices(one, n, feasible_only=feasible_only)
        ref = np.random.default_rng(seed)
        expected = _per_individual(space, ref, n, feasible_only)
        assert [tuple(r) for r in rows.tolist()] == expected
        assert one.bit_generator.state == ref.bit_generator.state
        plain = np.random.default_rng(seed).integers(
            0, space.cardinalities(), size=(n, space.dimensions)
        )
        rejected += [tuple(r) for r in plain.tolist()] != expected
    # Constrained draws really went through rejection rounds.
    assert bool(rejected) == feasible_only


@pytest.mark.parametrize("respect_constraints", [True, False])
@pytest.mark.parametrize("budget", [5, 20, 40])
def test_ga_first_generation_is_the_per_individual_draw(
    respect_constraints, budget
):
    """The GA evaluates its initial population first; it is the
    per-individual draw, also when the budget is below ``pop_size``."""
    tuner = GeneticAlgorithmTuner(respect_constraints=respect_constraints)
    for seed in range(20):
        objective = make_sim_objective(budget, seed=seed, kernel="add")
        result = tuner.tune(objective, np.random.default_rng(seed))
        space = objective.space
        n = min(budget, tuner.pop_size)
        population = _per_individual(
            space, np.random.default_rng(seed), n, respect_constraints
        )
        assert [
            tuple(space.config_to_indices(c).tolist())
            for c in result.history_configs[:n]
        ] == population
