"""Genetic Algorithm tuner, mirroring Kernel Tuner's implementation.

"To make our study as comparable as possible we based our Genetic
Algorithm implementation on the implementation that van Werkhoven used in
their study [Kernel Tuner].  We have thus only made minor changes to make
the implementation compatible with our experimental framework"
(Section VI-B).  We follow the same structure:

* a generational GA with population 20,
* rank-weighted parent selection,
* uniform crossover producing two complementary children,
* per-gene mutation with probability ``1 / mutation_chance``
  (Kernel Tuner's ``mutation_chance = 10``),
* an evaluation cache so re-visited configurations do not burn budget
  (Kernel Tuner caches measurements the same way).

The five-step loop matches Section III-B2's description exactly: random
population -> evaluate -> keep the best -> crossover + mutate -> repeat.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .base import BudgetExhausted, Objective, SequentialTuner, TuningResult

__all__ = ["GeneticAlgorithmTuner"]


@lru_cache(maxsize=None)
def _rank_cdf(survivors: int) -> Tuple[float, ...]:
    """The CDF ``Generator.choice(survivors, p=w)`` bisects, built the
    same way (``p = w / w.sum()``, ``cdf = p.cumsum()``,
    ``cdf /= cdf[-1]``), so a right-side bisection of one ``random()``
    draw picks the same index from the same stream position."""
    weights = np.arange(survivors, 0, -1, dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


class GeneticAlgorithmTuner(SequentialTuner):
    """Kernel-Tuner-style generational GA.

    Parameters
    ----------
    pop_size:
        Individuals per generation (Kernel Tuner default 20).
    mutation_chance:
        Reciprocal per-gene mutation probability (Kernel Tuner default 10,
        i.e. each gene mutates with probability 0.1).
    respect_constraints:
        Whether random individuals/mutations stay inside the constrained
        space (Kernel Tuner GAs respect restrictions; the BO libraries in
        the paper could not — see Section V-C).
    """

    name = "genetic_algorithm"
    label = "GA"

    def __init__(
        self,
        pop_size: int = 20,
        mutation_chance: int = 10,
        respect_constraints: bool = True,
    ) -> None:
        if pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if mutation_chance < 1:
            raise ValueError("mutation_chance must be >= 1")
        self.pop_size = pop_size
        self.mutation_chance = mutation_chance
        self.respect_constraints = respect_constraints

    # -- GA operators ---------------------------------------------------------
    def _random_individual(
        self, objective: Objective, rng: np.random.Generator
    ) -> Tuple[int, ...]:
        row = objective.space.sample_indices(
            rng, 1, feasible_only=self.respect_constraints
        )[0]
        return tuple(row.tolist())

    @staticmethod
    def _uniform_crossover(
        a: Tuple[int, ...],
        b: Tuple[int, ...],
        random: Callable[[int], np.ndarray],
    ) -> List[Tuple[int, ...]]:
        """Two complementary children: each gene from one parent or the
        other, chosen by a fair coin (Kernel Tuner's ``uniform`` method).
        ``random`` is the bound ``Generator.random``."""
        mask = (random(len(a)) < 0.5).tolist()
        child1 = tuple(x if m else y for x, y, m in zip(a, b, mask))
        child2 = tuple(y if m else x for x, y, m in zip(a, b, mask))
        return [child1, child2]

    @staticmethod
    def _mutate(
        genes: Tuple[int, ...],
        cards: Sequence[int],
        threshold: float,
        random: Callable[[], float],
        integers: Callable[[int], int],
    ) -> Tuple[int, ...]:
        """Per-gene uniform re-draw with probability ``threshold``
        (``1 / mutation_chance``); ``random`` and ``integers`` are the
        bound ``Generator`` methods."""
        out = list(genes)
        for i, card in enumerate(cards):
            if random() < threshold:
                out[i] = int(integers(card))
        return tuple(out)

    @staticmethod
    def _rank_weighted_choice(
        ranked: List[Tuple[Tuple[int, ...], float]], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Pick a parent with linearly rank-weighted probability.

        Selection happens among the *surviving* top half (Section III-B2
        step 3: "The best chromosomes are kept, the rest discarded"), with
        weights ``s, s-1, ..., 1`` from the best of the ``s`` survivors
        down.  Draws exactly as ``rng.choice(s, p=weights)`` would.
        """
        cdf = _rank_cdf(max(2, len(ranked) // 2))
        return ranked[bisect.bisect_right(cdf, rng.random())][0]

    # -- main loop -----------------------------------------------------------
    def tune(self, objective: Objective, rng: np.random.Generator) -> TuningResult:
        space = objective.space
        cache: Dict[Tuple[int, ...], float] = {}
        random, integers = rng.random, rng.integers
        cards = [p.cardinality for p in space.parameters]
        threshold = 1.0 / self.mutation_chance

        def score_generation(
            population: List[Tuple[int, ...]],
        ) -> List[Tuple[Tuple[int, ...], float]]:
            """Fitness of every individual, through the cache.

            Uncached individuals are evaluated as *one* batch in
            first-occurrence order — the exact order (and therefore the
            exact RNG stream and history) a per-individual loop through
            the cache would produce, but with a single table
            fancy-index per generation.  A mid-batch budget exhaustion
            propagates after the affordable prefix is recorded, just
            like the per-individual loop's overflowing call.
            """
            pending: List[Tuple[int, ...]] = []
            seen = set()
            for genes in population:
                if genes not in cache and genes not in seen:
                    pending.append(genes)
                    seen.add(genes)
            if pending:
                flats = space.index_matrix_to_flats(
                    np.array(pending, dtype=np.int64)
                )
                runtimes = objective.evaluate_flats(flats)
                cache.update(zip(pending, runtimes))
            return [(genes, cache[genes]) for genes in population]

        # One draw for the whole initial population: rejected rows are
        # replaced in stream order, so the rows and the generator state
        # equal those of one ``_random_individual`` call per individual.
        population = [
            tuple(row)
            for row in space.sample_indices(
                rng,
                min(self.pop_size, objective.budget),
                feasible_only=self.respect_constraints,
            ).tolist()
        ]
        try:
            while True:
                before = objective.evaluations
                scored = score_generation(population)
                # Rank best-first; launch failures (inf) sink to the back.
                scored.sort(key=lambda t: (not math.isfinite(t[1]), t[1]))

                children: List[Tuple[int, ...]] = []
                while len(children) < self.pop_size:
                    p1 = self._rank_weighted_choice(scored, rng)
                    p2 = self._rank_weighted_choice(scored, rng)
                    for child in self._uniform_crossover(p1, p2, random):
                        children.append(
                            self._mutate(
                                child, cards, threshold, random, integers
                            )
                        )
                population = children[: self.pop_size]
                if objective.evaluations == before:
                    # Fully converged generation (every individual cached):
                    # inject a random immigrant so remaining budget is
                    # spent exploring rather than spinning.
                    population[-1] = self._random_individual(objective, rng)
                if objective.remaining <= 0:
                    break
        except BudgetExhausted:
            pass

        return self._result_from(objective)
