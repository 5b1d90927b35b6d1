"""The traced benchmark runs wrap detsing functions by name.

``perfbench/tracing.py`` looks each name in ``TARGETS`` up with
``getattr``, so deleting or renaming one of them would break every traced
run; this checks them all from the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    targets = _tracing_module().TARGETS
    missing = [
        f"detsing.{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"detsing.{module}"), name, None))
    ]
    assert missing == []
    from detsing.groebner import Ideal

    assert callable(Ideal.groebner_basis)
