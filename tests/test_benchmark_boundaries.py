"""The benchmark traces package functions by name; those names must stay bound.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` of its
``boundaries()`` list in place.  Deleting or renaming one of them breaks
the benchmark run, so this test fails first, naming every missing one.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is created
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_boundary_is_bound():
    boundaries = _load_tracing().boundaries()
    assert boundaries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in boundaries if attr not in vars(owner)]
    assert missing == []
