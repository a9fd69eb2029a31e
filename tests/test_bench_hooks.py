"""The traced benchmark's hook targets exist in the package.

bench/spans.py replaces package functions by (module, attribute) name for a
traced run; a rename in src/ would break that run without failing any test
under tests/.  spans.py imports only the standard library, so it is loaded
here by file path.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_hook_resolves():
    hooks = _load_spans().HOOKS
    assert hooks
    missing = [f"{h.module}.{h.attr}" for h in hooks
               if not callable(getattr(importlib.import_module(h.module),
                                       h.attr, None))]
    assert missing == []
