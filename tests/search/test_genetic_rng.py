"""The GA keeps ``Generator``'s RNG contract.

The GA breeds a generation in one step, ``genetic._breed``, that reads
raw PCG64 words and converts them the way ``Generator.random`` and
``Generator.integers`` do.  The reference is the per-child operator loop
it replaced, kept here verbatim: two parents picked by bisecting a cached
CDF with one ``rng.random()`` each, a ``rng.random(d)`` crossover mask and
one ``rng.random()`` per gene with an ``rng.integers(card)`` re-draw below
the mutation threshold.  These tests pin that the cached-CDF pick equals
``rng.choice(s, p=w)``, that the breeding step yields the reference's
children and leaves the generator in the reference's state, and that whole
GA histories are unchanged (the digest was recorded before either
rewrite).  The initial population is one ``sample_indices`` draw; these
tests pin that it equals one draw per individual, rows and generator
state.
"""

import bisect
import hashlib

import numpy as np
import pytest

from repro.search import GeneticAlgorithmTuner
from repro.search import genetic
from repro.search.genetic import _breed, _rank_cdf

from .conftest import make_sim_objective

#: sha256[:16] of every (S, seed) history: flat indices as int64 then
#: runtimes as float64, for S in {25, 100} and seeds {3, 11}.
GA_HISTORY_DIGEST = "df247662ca1efd27"


# -- the per-child operator loop the breeding step replaced ------------------
def _pick(ranked, rng):
    """A parent, linearly rank-weighted among the top half of ``ranked``."""
    cdf = _rank_cdf(max(2, len(ranked) // 2))
    return ranked[bisect.bisect_right(cdf, rng.random())]


def _uniform_crossover(a, b, random):
    mask = (random(len(a)) < 0.5).tolist()
    child1 = tuple(x if m else y for x, y, m in zip(a, b, mask))
    child2 = tuple(y if m else x for x, y, m in zip(a, b, mask))
    return [child1, child2]


def _mutate(genes, cards, threshold, random, integers):
    out = list(genes)
    for i, card in enumerate(cards):
        if random() < threshold:
            out[i] = int(integers(card))
    return tuple(out)


def _scalar_breed(rng, ranked, pop_size, cards, threshold):
    children = []
    while len(children) < pop_size:
        p1 = _pick(ranked, rng)
        p2 = _pick(ranked, rng)
        for child in _uniform_crossover(p1, p2, rng.random):
            children.append(
                _mutate(child, cards, threshold, rng.random, rng.integers)
            )
    return children


# -- parent choice ------------------------------------------------------------
@pytest.mark.parametrize("survivors", [2, 3, 4, 5, 6, 7, 8, 9, 10, 37])
def test_choice_matches_generator_choice(survivors):
    draws = 10_000
    weights = np.arange(survivors, 0, -1, dtype=np.float64)
    weights /= weights.sum()
    ref = np.random.default_rng(survivors)
    expected = [int(ref.choice(survivors, p=weights)) for _ in range(draws)]

    ranked = list(range(2 * survivors))
    rng = np.random.default_rng(survivors)
    got = [_pick(ranked, rng) for _ in range(draws)]

    assert got == expected
    assert rng.bit_generator.state == ref.bit_generator.state


# -- the breeding step against the scalar loop --------------------------------
#: Lemire rejects about half of the ``next_uint32`` draws for 2**31 + 1;
#: 2**32 is the largest card and the one that never rejects.
CARD_SETS = {
    "paper": (16, 16, 16, 8, 8, 8),
    "odd": (1, 2, 3, 7, 10, 1000, 1, 2**31 + 1, 2**32),
    "flat": (1,),
}


def _words_used(seed, draw):
    """PCG64 words ``draw(rng)`` consumes from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    draw(rng)
    target = rng.bit_generator.state["state"]
    ref = np.random.default_rng(seed).bit_generator
    for words in range(1_000):
        if ref.state["state"] == target:
            return words
        ref.random_raw()
    raise AssertionError("state not reached")


def test_odd_cards_hit_lemire_rejections():
    """64 ``integers(2**31 + 1)`` draws take more than the 32 words of
    64 unrejected ``next_uint32`` halves."""
    card = 2**31 + 1
    assert _words_used(0, lambda rng: [rng.integers(card) for _ in range(64)]) > 32
    assert _words_used(0, lambda rng: [rng.integers(2**32) for _ in range(64)]) == 32


def _entry_state(seed):
    """A generator whose ``has_uint32`` buffer is empty and fresh
    (seed % 3 == 0), full (1) or empty with a stale half (2)."""
    rng = np.random.default_rng(seed)
    for _ in range(seed % 3):
        rng.integers(7)
    assert rng.bit_generator.state["has_uint32"] == (seed % 3 == 1)
    return rng


@pytest.mark.parametrize("cards", sorted(CARD_SETS))
@pytest.mark.parametrize("mutation_chance", [1, 10, 1000])
@pytest.mark.parametrize("pop_size", [2, 7, 20, 21])
def test_breed_matches_scalar_loop(pop_size, mutation_chance, cards):
    cards = CARD_SETS[cards]
    threshold = 1.0 / mutation_chance
    pairs = (pop_size + 1) // 2
    for seed in range(200):
        # Between 2 and pop_size ranked individuals, as the GA breeds from.
        layout = np.random.default_rng(10_000 + seed)
        size = int(layout.integers(2, pop_size + 1))
        ranked = [
            tuple(int(layout.integers(card)) for card in cards)
            for _ in range(size)
        ]
        ref = _entry_state(seed)
        expected = _scalar_breed(ref, ranked, pop_size, cards, threshold)
        rng = _entry_state(seed)
        got = _breed(rng.bit_generator, ranked, pairs, cards, threshold)
        assert got == expected, seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def test_breed_requires_pcg64():
    objective = make_sim_objective(25, kernel="add")
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        GeneticAlgorithmTuner().tune(objective, rng)
    assert objective.evaluations == 0


@pytest.mark.parametrize("mutation_chance", [1, 10, 1000])
@pytest.mark.parametrize("pop_size", [2, 7, 20, 21])
def test_tune_matches_scalar_loop(monkeypatch, pop_size, mutation_chance):
    """Whole GA runs bred by the scalar loop and by the breeding step
    record the same history and leave the same generator state."""
    tuner = GeneticAlgorithmTuner(
        pop_size=pop_size, mutation_chance=mutation_chance
    )

    def run(seed):
        objective = make_sim_objective(80, seed=seed, kernel="add")
        rng = np.random.default_rng(seed)
        tuner.tune(objective, rng)
        return objective.flats, objective.runtimes, rng.bit_generator.state

    def scalar(bit_generator, ranked, pairs, cards, threshold):
        rng = np.random.Generator(bit_generator)
        return _scalar_breed(rng, ranked, 2 * pairs, cards, threshold)

    for seed in range(3):
        got = run(seed)
        with monkeypatch.context() as patch:
            patch.setattr(genetic, "_breed", scalar)
            assert got == run(seed), seed


def test_budget_of_one_stops_before_breeding():
    """A budget spent by the first generation ends the run: a lone
    individual is never bred from (its top-half CDF has two slots)."""
    for seed in range(20):
        objective = make_sim_objective(1, seed=seed, kernel="add")
        result = GeneticAlgorithmTuner().tune(
            objective, np.random.default_rng(seed)
        )
        assert result.samples_used == 1


# -- histories and the initial population -----------------------------------
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
            0, [p.cardinality for p in space.parameters],
            size=(n, space.dimensions),
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
