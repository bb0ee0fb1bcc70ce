"""Multi-fidelity tuning: HyperBand and BOHB (the paper's future work).

Section VIII names "HyperBand (HB) and Bayesian Optimization HyperBand
(BOHB) [Falkner et al. 2018]" as the comparison the authors want next.
This module provides both, plus the budget model they need.

**Fidelity for autotuning.**  Hyperparameter optimizers get cheap
approximations by training for fewer epochs; the autotuning analogue used
here is *smaller problem sizes*: a kernel timed on a quarter-area image
costs roughly a quarter of a full measurement and its runtime ranks
configurations almost — but not exactly — like the full-size run (launch
overheads, cache footprints and wave quantization shift with size, so low
fidelity is realistically biased).  A fidelity ``f`` is the fraction of
the full image area.

**Budget model.**  The paper's fixed-sample-size comparison charges every
measurement equally; a multi-fidelity method's whole point is that cheap
measurements cost less.  :class:`MultiFidelityObjective` therefore counts
budget in *full-evaluation equivalents*: an evaluation at fidelity ``f``
costs ``f`` units, and HB/BOHB compete against the paper's algorithms at
equal units (see ``benchmarks/test_ext_hyperband.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ml import AdaptiveParzenEstimator1D
from ..searchspace import SearchSpace
from .base import BudgetExhausted, Tuner, TuningResult

__all__ = ["MultiFidelityObjective", "HyperbandTuner", "BohbTuner"]

Configuration = Dict[str, int]


class MultiFidelityObjective:
    """A measurement source with fidelity-proportional budget accounting.

    Parameters
    ----------
    space:
        The search space.
    measure:
        ``(config, fidelity) -> runtime_ms`` callable; fidelity in
        ``(0, 1]`` is the fraction of the full problem area.
    budget_units:
        Total budget in full-evaluation equivalents.
    """

    def __init__(
        self,
        space: SearchSpace,
        measure: Callable[[Configuration, float], float],
        budget_units: float,
    ) -> None:
        if budget_units <= 0:
            raise ValueError("budget_units must be > 0")
        self.space = space
        self._measure = measure
        self.budget_units = float(budget_units)
        self.spent = 0.0
        self.configs: List[Configuration] = []
        self.fidelities: List[float] = []
        self.runtimes: List[float] = []

    @property
    def remaining(self) -> float:
        return self.budget_units - self.spent

    def can_afford(self, fidelity: float) -> bool:
        return self.spent + fidelity <= self.budget_units + 1e-9

    def evaluate(self, config: Configuration, fidelity: float = 1.0) -> float:
        if not 0.0 < fidelity <= 1.0:
            raise ValueError("fidelity must be in (0, 1]")
        if not self.can_afford(fidelity):
            raise BudgetExhausted(
                f"budget of {self.budget_units} units exhausted "
                f"(spent {self.spent:.3f}, requested {fidelity:.3f})"
            )
        runtime = float(self._measure(dict(config), fidelity))
        self.spent += fidelity
        self.configs.append(dict(config))
        self.fidelities.append(fidelity)
        self.runtimes.append(runtime)
        return runtime

    def best_at_highest_fidelity(self) -> Tuple[Configuration, float]:
        """Best (config, runtime) among the highest-fidelity evaluations."""
        if not self.runtimes:
            raise RuntimeError("no evaluations performed yet")
        fids = np.asarray(self.fidelities)
        rts = np.asarray(self.runtimes)
        finite = np.isfinite(rts)
        if not finite.any():
            return self.configs[0], float("inf")
        top = fids[finite].max()
        mask = finite & (fids >= top - 1e-12)
        idx = int(np.flatnonzero(mask)[np.argmin(rts[mask])])
        return self.configs[idx], float(rts[idx])


class HyperbandTuner(Tuner):
    """HyperBand (Li et al. 2018) over problem-size fidelities.

    Runs the standard bracket schedule with halving rate ``eta``:
    bracket ``s`` starts ``n_s`` configurations at fidelity
    ``eta**-s`` and successively promotes the best ``1/eta`` of each rung,
    multiplying fidelity by ``eta``, until full fidelity.  Brackets repeat
    until the budget is spent.
    """

    name = "hyperband"
    label = "HB"
    requires_live_objective = True

    def __init__(
        self,
        eta: int = 3,
        s_max: int = 3,
        respect_constraints: bool = True,
    ) -> None:
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if s_max < 0:
            raise ValueError("s_max must be >= 0")
        self.eta = eta
        self.s_max = s_max
        self.respect_constraints = respect_constraints

    # -- configuration proposals (overridden by BOHB) ----------------------
    def _propose(
        self,
        n: int,
        objective: MultiFidelityObjective,
        rng: np.random.Generator,
    ) -> List[Configuration]:
        return objective.space.sample(
            rng, n, feasible_only=self.respect_constraints
        )

    # -- the bracket schedule ------------------------------------------------
    def _run_bracket(
        self,
        s: int,
        objective: MultiFidelityObjective,
        rng: np.random.Generator,
    ) -> None:
        eta = self.eta
        n = math.ceil((self.s_max + 1) / (s + 1) * eta**s)
        fidelity = eta**-s
        candidates = self._propose(n, objective, rng)
        while candidates and fidelity <= 1.0 + 1e-12:
            fidelity = min(fidelity, 1.0)
            scored = []
            for cfg in candidates:
                if not objective.can_afford(fidelity):
                    raise BudgetExhausted("bracket ran out of budget")
                runtime = objective.evaluate(cfg, fidelity)
                scored.append((runtime if np.isfinite(runtime) else np.inf,
                               cfg))
            scored.sort(key=lambda t: t[0])
            keep = max(1, len(scored) // eta)
            if fidelity >= 1.0:
                break
            candidates = [cfg for _, cfg in scored[:keep]]
            fidelity *= eta

    def tune_mf(
        self,
        objective: MultiFidelityObjective,
        rng: np.random.Generator,
    ) -> TuningResult:
        """Run brackets until the unit budget is exhausted."""
        try:
            while True:
                for s in range(self.s_max, -1, -1):
                    self._run_bracket(s, objective, rng)
        except BudgetExhausted:
            pass

        best_config, best_runtime = objective.best_at_highest_fidelity()
        return TuningResult(
            best_config=best_config,
            best_runtime_ms=best_runtime,
            history_configs=list(objective.configs),
            history_runtimes=list(objective.runtimes),
            samples_used=len(objective.runtimes),
        )

    def tune(self, objective, rng):  # pragma: no cover - contract guard
        raise TypeError(
            f"{self.name} needs a MultiFidelityObjective; use tune_mf()"
        )


class BohbTuner(HyperbandTuner):
    """BOHB (Falkner et al. 2018): HyperBand with TPE-guided proposals.

    Instead of sampling bracket candidates uniformly, BOHB fits per-
    dimension adaptive Parzen estimators to the observations at the
    highest fidelity that has at least ``min_points`` of them, and draws
    candidates from the good-density ``l(x)``, ranked by ``l/g`` — the
    same machinery as :class:`~repro.search.bo_tpe.BayesianTpeTuner`.
    """

    name = "bohb"
    label = "BOHB"

    def __init__(
        self,
        eta: int = 3,
        s_max: int = 3,
        gamma: float = 0.25,
        min_points: int = 8,
        n_ei_candidates: int = 24,
        respect_constraints: bool = True,
    ) -> None:
        super().__init__(eta=eta, s_max=s_max,
                         respect_constraints=respect_constraints)
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if min_points < 2:
            raise ValueError("min_points must be >= 2")
        self.gamma = gamma
        self.min_points = min_points
        self.n_ei_candidates = n_ei_candidates

    def _model_observations(
        self, objective: MultiFidelityObjective
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(index-matrix, losses) at the best modelable fidelity."""
        fids = np.asarray(objective.fidelities)
        rts = np.asarray(objective.runtimes)
        finite = np.isfinite(rts)
        for fid in sorted(set(fids[finite]), reverse=True):
            mask = finite & (fids == fid)
            if mask.sum() >= self.min_points:
                obs = np.stack(
                    [
                        objective.space.config_to_indices(
                            objective.configs[i]
                        )
                        for i in np.flatnonzero(mask)
                    ]
                )
                return obs, np.log(rts[mask])
        return None

    def _propose(
        self,
        n: int,
        objective: MultiFidelityObjective,
        rng: np.random.Generator,
    ) -> List[Configuration]:
        data = self._model_observations(objective)
        if data is None:
            return super()._propose(n, objective, rng)
        obs, losses = data
        space = objective.space
        n_good = max(2, int(np.ceil(self.gamma * np.sqrt(losses.size))))
        order = np.argsort(losses, kind="stable")
        good, bad = obs[order[:n_good]], obs[order[n_good:]]

        # The densities read no randomness: fit once, draw per proposal.
        highs = np.array([p.cardinality - 1 for p in space.parameters])
        l_est = AdaptiveParzenEstimator1D(0, highs).fit(good)
        g_est = AdaptiveParzenEstimator1D(0, highs).fit(bad)
        out: List[Configuration] = []
        for _ in range(n):
            draws = l_est.sample(rng, self.n_ei_candidates)
            ratio = l_est.log_prob(draws) - g_est.log_prob(draws)
            # Summed dimension by dimension, left to right.
            best = int(np.argmax(np.cumsum(ratio, axis=1)[:, -1]))
            out.append(space.indices_to_config(draws[best].tolist()))
        return out
