"""The perfbench span tracer finds every callable it is told to trace.

``perfbench/spans.py`` looks each ``TARGETS`` entry up by name in its
``g2lab`` module (or, for "Class.method", in the class namespace); a renamed
function would silently drop its per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves_to_a_callable():
    missing = []
    for layer, targets in _targets().items():
        module = importlib.import_module("g2lab." + layer)
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append("%s.%s" % (layer, target))
    assert not missing
