"""Every function the perfbench span tracer wraps must still exist.

``perfbench/tracing.py`` patches the functions listed in its ``TARGETS`` by
module and attribute path (``SGSelect.solve``, ``ShardMap.partition``,
...).  A rename or move in ``src/`` would otherwise surface only as a crash
of a traced benchmark run (``perfbench/run.py --trace 1``).  This check
resolves each path the way the tracer does, without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


def test_tracer_has_targets():
    assert TARGETS


@pytest.mark.parametrize(
    "module_name,path", [(target[0], target[1]) for target in TARGETS], ids=lambda x: x
)
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The tracer replaces the attribute in the class's own namespace.
        assert parts[-1] in owner.__dict__
    assert callable(getattr(owner, parts[-1]))
