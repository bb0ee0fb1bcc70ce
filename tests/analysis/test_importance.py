"""Tests for forest-based parameter importance."""

import numpy as np
import pytest

from repro.analysis import parameter_importance
from repro.gpu import TITAN_V, WorkloadProfile
from repro.kernels import get_kernel
from repro.searchspace import paper_search_space


class TestParameterImportance:
    def test_importances_normalized(self):
        kernel = get_kernel("add", 2048, 2048)
        imp = parameter_importance(
            kernel.profile(), TITAN_V, kernel.space(),
            n_samples=1024, n_estimators=15,
            rng=np.random.default_rng(0),
        )
        assert sum(imp.impurity.values()) == pytest.approx(1.0)
        assert sum(imp.permutation.values()) == pytest.approx(1.0)
        assert set(imp.impurity) == set(kernel.space().names)

    def test_thread_z_dead_on_2d_kernels(self):
        """thread_z has no effect on a 2-D image (the loop body never
        unrolls) — both attributions must rank it last or near-last."""
        kernel = get_kernel("harris", 2048, 2048)
        imp = parameter_importance(
            kernel.profile(), TITAN_V, kernel.space(),
            n_samples=2048, n_estimators=20,
            rng=np.random.default_rng(0),
        )
        assert imp.permutation["thread_z"] < 0.05
        ranking = imp.ranking()
        assert ranking.index("thread_z") >= len(ranking) - 2

    def test_z_parameters_alive_on_3d_kernel(self):
        """On a deep grid, the z-axis parameters carry real variance."""
        stencil_3d = WorkloadProfile(
            name="stencil3d", x_size=256, y_size=256, z_size=256,
            stencil_radius=1, flops_per_element=8.0, divergence_cv=0.0,
            base_registers=30.0, registers_per_element=5.0,
        )
        imp = parameter_importance(
            stencil_3d, TITAN_V, paper_search_space(),
            n_samples=2048, n_estimators=20,
            rng=np.random.default_rng(0),
        )
        z_weight = (
            imp.permutation["thread_z"] + imp.permutation["wg_z"]
        )
        assert z_weight > 0.05

    def test_ranking_and_describe(self):
        kernel = get_kernel("add", 2048, 2048)
        imp = parameter_importance(
            kernel.profile(), TITAN_V, kernel.space(),
            n_samples=512, n_estimators=10,
            rng=np.random.default_rng(0),
        )
        ranking = imp.ranking()
        assert len(ranking) == 6
        weights = [imp.permutation[n] for n in ranking]
        assert weights == sorted(weights, reverse=True)
        assert ">" in imp.describe()
