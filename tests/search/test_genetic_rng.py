"""The GA's parent choice keeps ``Generator.choice``'s RNG contract.

``GeneticAlgorithmTuner._rank_weighted_choice`` draws one uniform and
bisects a cached CDF instead of calling ``rng.choice(s, p=w)``.  These
tests pin that the two pick the same index on every draw and leave the
generator in the same state, and that whole GA histories are unchanged
(the digest was recorded before the cached-CDF choice existed).
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
