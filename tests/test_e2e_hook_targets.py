"""Every ``src/`` name the end-to-end benchmark patches still exists.

``benchmarks/e2e/layers.py`` times a study by wrapping ``src/``
functions by name (``STUDY_HOOKS``, ``WORKER_HOOKS``, ``WIRE_HOOKS``,
plus the ``LandscapeTable.__init__`` counter), and ``harness.py`` wraps
the experiments dispatch the same way.  A rename or deletion in
``src/`` would only surface as a crash of ``run.py --trace 1``; this
test resolves every target the way ``layers.Patches.wrap`` does
(``vars(owner)[attr]``), reading those files without changing them.
"""

import importlib.util
import re
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: A ``module:attr`` or ``module:Class.attr`` string literal.
TARGET = re.compile(r"""["'](repro(?:\.\w+)+:\w+(?:\.\w+)*)["']""")


def _layers():
    spec = importlib.util.spec_from_file_location(
        "e2e_layers_under_test", E2E / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()


def _hook_targets():
    targets = [hook[0] for hook in LAYERS.STUDY_HOOKS + LAYERS.WORKER_HOOKS]
    targets += [hook[0] for hook in LAYERS.WIRE_HOOKS]
    # Literal targets patched outside the hook tables: the table counter
    # in layers.py and the dispatch clock in harness.py.
    for name in ("layers.py", "harness.py"):
        targets += TARGET.findall((E2E / name).read_text())
    return sorted(set(targets))


def test_named_targets_are_scanned():
    targets = _hook_targets()
    assert "repro.gpu.landscape:LandscapeTable.__init__" in targets
    assert "repro.parallel.pool:ParallelMap.run" in targets
    assert len(targets) > len(LAYERS.STUDY_HOOKS)


@pytest.mark.parametrize("target", _hook_targets())
def test_hook_target_resolves(target):
    owner, attr = LAYERS._resolve(target)
    assert attr in vars(owner), f"{target} is gone from {owner!r}"
    assert callable(vars(owner)[attr])
