#!/usr/bin/env python
"""The paper's future work, runnable today: SA and PSO.

Section VIII of the paper asks for comparisons against a wider range of
search algorithms.  This example runs the two extension metaheuristics
this library adds, Simulated Annealing and Particle Swarm Optimization,
next to three of the paper's algorithms under the paper's
fixed-sample-budget rules.

Run:  python examples/future_work_extensions.py
"""

import numpy as np

from repro import SimulatedDevice, TITAN_V, get_kernel
from repro.search import Objective, make_tuner

BUDGET = 50          # measurements per search
REPEATS = 5
KERNEL = "harris"


def final_eval(config, profile, seed):
    device = SimulatedDevice(
        TITAN_V, profile, rng=np.random.default_rng(9000 + seed)
    )
    return float(np.mean(
        [m.runtime_ms for m in device.measure_repeated(config, 10)]
    ))


def main() -> None:
    kernel = get_kernel(KERNEL)
    space = kernel.space()
    profile = kernel.profile()

    rows = {}

    for name in ("random_search", "genetic_algorithm", "bo_tpe",
                 "simulated_annealing", "particle_swarm"):
        finals = []
        for seed in range(REPEATS):
            device = SimulatedDevice(
                TITAN_V, profile, rng=np.random.default_rng(seed)
            )
            objective = Objective(
                space, lambda c: device.measure(c).runtime_ms, BUDGET
            )
            result = make_tuner(name).tune(
                objective, np.random.default_rng(100 + seed)
            )
            finals.append(final_eval(result.best_config, profile, seed))
        rows[name] = float(np.median(finals))

    print(
        f"\n{KERNEL}/titan_v at a budget of {BUDGET} measurements "
        f"(median of {REPEATS} repeats, 10x-re-evaluated finals):"
    )
    for name, med in sorted(rows.items(), key=lambda t: t[1]):
        print(f"  {name:20s} {med:8.3f} ms")


if __name__ == "__main__":
    main()
