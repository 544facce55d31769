"""The benchmark's tracer wraps package names from outside; each must exist."""

import importlib.util
from pathlib import Path

from shapley_lg import permutations

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.PATCH_POINTS
               if not hasattr(owner, attr)]
    assert missing == []
    assert callable(permutations._chain_update)
