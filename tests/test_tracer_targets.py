"""Every function the benchmark tracer wraps still exists.

`verifybench/layers.py` names its targets by module and attribute and
looks each one up when the tracer installs, so renaming or removing one
of them breaks `verifybench/run.py --trace 1`.  The file is loaded by
path and left as it is.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "verifybench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("verifybench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_every_tracer_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    for module_name, attr, _layer in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
