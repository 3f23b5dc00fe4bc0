"""The benchmark's per-layer trace wraps named qlam functions at run time.
A rename or an inlined function would silently drop its layer metrics, so
every hook it names must exist and be patched."""

import importlib.util
import sys

import qlam  # noqa: F401  (loads every submodule)

from conftest import REPO


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_exist_and_are_patched():
    tracing = _tracing()
    hooks = tracing.SPANNED + tracing.LEAVES + tracing.COUNTED
    originals = {}
    for module, func in hooks:
        mod = sys.modules[f"qlam.{module}"]
        assert hasattr(mod, func), f"qlam.{module}.{func} is gone"
        originals[module, func] = getattr(mod, func)
    with tracing.Tracer():
        for (module, func), original in originals.items():
            patched = getattr(sys.modules[f"qlam.{module}"], func)
            assert patched is not original, f"qlam.{module}.{func} was not patched"
            assert patched.__wrapped__ is original
    for (module, func), original in originals.items():
        assert getattr(sys.modules[f"qlam.{module}"], func) is original
