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

from bisect import bisect_left, bisect_right
import math
from functools import lru_cache
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .base import Objective, Stepper, Tuner

__all__ = ["GeneticAlgorithmTuner"]

#: ``Generator.random()`` on a PCG64 word ``w`` is ``(w >> 11) * 2**-53``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


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


def _breed(
    bit_generator: np.random.PCG64,
    ranked: Sequence[Tuple[int, ...]],
    pairs: int,
    cards: Sequence[int],
    threshold: float,
) -> List[Tuple[int, ...]]:
    """``2 * pairs`` children of ``ranked`` (best first), read from the
    PCG64 words the per-child ``Generator`` calls would consume.

    Each pair draws, in order: two parents (one ``random()`` each,
    right-bisected in the :func:`_rank_cdf` of the top half of
    ``ranked``), a ``random(d)`` uniform-crossover mask (the first child
    takes the first parent's gene where the draw is below 0.5, the
    second child the other gene) and then, for each child and each gene,
    one ``random()`` mutation check followed, below ``threshold``, by
    ``integers(card)``.

    The ``pairs * (2 + 3d)`` doubles are the fewest words a generation
    can use, so one ``random_raw`` call reads them up front.  A word an
    integer draw takes pushes every later double one word on, so one
    more word is read then; the step never reads past where the
    per-call loop stops.  A double is ``(w >> 11) * 2**-53``.
    ``integers(card)`` is Lemire's bounded method with its rejection
    loop over PCG64's buffered ``next_uint32``, which hands out a word's
    low half and keeps the high half in ``has_uint32``/``uinteger``;
    ``integers(1)`` draws nothing.  That buffer is written back through
    ``bit_generator.state`` when it changed, so children and generator
    state equal the per-call loop's.  Cards are at most ``2**32``: a
    ``SearchSpace`` lists every value of every parameter.
    """
    raw = bit_generator.random_raw
    dims = len(cards)
    block = raw(pairs * (2 + 3 * dims))
    size = block.size
    uniforms = (block >> 11) * _DOUBLE_SCALE
    # ``doubles[k]`` is word ``k`` as a double; ``hits`` lists, in order,
    # every ``k`` whose double would pass a mutation check.
    doubles = uniforms.tolist()
    hits = np.flatnonzero(uniforms < threshold).tolist()
    late: List[int] = []  # words read after ``block``
    state = bit_generator.state
    has_half = has_half0 = state["has_uint32"]
    half = half0 = state["uinteger"]
    # Lemire keeps ``m = next_uint32 * card`` once its low 32 bits reach
    # ``2**32 % card``; the value is the high bits.
    rejects = [(1 << 32) % card for card in cards]
    cdf = _rank_cdf(max(2, len(ranked) // 2))
    children: List[Tuple[int, ...]] = []
    pos = 0
    for _ in range(pairs):
        a = ranked[bisect_right(cdf, doubles[pos])]
        b = ranked[bisect_right(cdf, doubles[pos + 1])]
        mask = doubles[pos + 2 : pos + 2 + dims]
        pos += 2 + dims
        for child in (
            [x if m < 0.5 else y for x, y, m in zip(a, b, mask)],
            [y if m < 0.5 else x for x, y, m in zip(a, b, mask)],
        ):
            # Gene ``i``'s check is word ``first + i`` until an integer
            # draw takes words and moves the checks after it.
            first = pos
            end = pos + dims
            k = bisect_left(hits, pos)
            while k < len(hits) and hits[k] < end:
                i = hits[k] - first
                pos = hits[k] + 1
                card = cards[i]
                if card == 1:
                    k += 1
                    continue
                taken = pos
                while True:
                    if has_half:
                        has_half = 0
                        bits = half
                    else:
                        extra = raw()
                        late.append(extra)
                        doubles.append((extra >> 11) * _DOUBLE_SCALE)
                        if doubles[-1] < threshold:
                            hits.append(len(doubles) - 1)
                        word = (
                            block.item(pos) if pos < size else late[pos - size]
                        )
                        pos += 1
                        has_half, half = 1, word >> 32
                        bits = word & 0xFFFFFFFF
                    m = bits * card
                    if m & 0xFFFFFFFF >= rejects[i]:
                        break
                child[i] = m >> 32
                first += pos - taken
                end += pos - taken
                k = bisect_left(hits, pos)
            pos = end
            children.append(tuple(child))
    if (has_half, half) != (has_half0, half0):
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bit_generator.state = state
    return children


class GeneticAlgorithmTuner(Tuner):
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

    # -- main loop -----------------------------------------------------------
    def steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Stepper:
        """The generation loop as a :data:`~repro.search.base.Stepper`.

        Each generation yields the flat indices of its uncached
        individuals, in first-occurrence order — the order (and so the
        noise stream and history) of a per-individual loop through the
        evaluation cache — and takes their runtimes back.  A generation
        whose individuals are all cached yields nothing.  The stepper
        returns once a generation has spent the budget, so a spent run
        breeds no last generation; a request the budget cannot cover is
        measured as its affordable prefix and never answered.
        """
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                "GeneticAlgorithmTuner breeds from raw PCG64 words; got a "
                f"{type(bit_generator).__name__}-backed generator"
            )
        space = objective.space
        # Fitness by flat index: the genes are in range by construction,
        # so a flat is a plain-int radix sum.
        cache: Dict[int, float] = {}
        cards = [p.cardinality for p in space.parameters]
        places = space.places()
        threshold = 1.0 / self.mutation_chance
        pairs = (self.pop_size + 1) // 2

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
        while True:
            before = objective.evaluations
            flats = [sum(map(mul, genes, places)) for genes in population]
            pending = [f for f in dict.fromkeys(flats) if f not in cache]
            if pending:
                runtimes = yield pending
                cache.update(zip(pending, runtimes))
            if objective.remaining <= 0:
                return
            # Rank best-first (a stable sort, so ties keep population
            # order); launch failures (inf) sink to the back.
            fitness = [cache[flat] for flat in flats]
            ranked = sorted(
                range(len(population)),
                key=lambda i: (not math.isfinite(fitness[i]), fitness[i]),
            )
            population = _breed(
                bit_generator,
                [population[i] for i in ranked],
                pairs,
                cards,
                threshold,
            )[: self.pop_size]
            if objective.evaluations == before:
                # Fully converged generation (every individual cached):
                # inject a random immigrant so remaining budget is
                # spent exploring rather than spinning.
                population[-1] = self._random_individual(objective, rng)
