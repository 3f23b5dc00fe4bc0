"""The benchmark's interface to qlam.  Its per-layer trace wraps named qlam
functions at run time: a rename or an inlined function would silently drop
its layer metrics, so every hook it names must exist and be patched.  Its
ops call qlam through ``perfbench/workloads.py``, so a few of each must run
and pass their reference checks."""

import importlib.util
import sys

import qlam  # noqa: F401  (loads every submodule)
from qlam.confluence import regression_seeds

from conftest import REPO


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


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


def test_bench_ops_run_and_pass_their_references():
    """Seed 0: the bundled programs, one teleport, one let-chain and two
    wide programs pass their checks, and the diamond checks of the
    regression seeds run under every pair, T:T and S:T without a failure."""
    wl = _load("workloads")
    programs = wl.programs_inputs(0)
    cases = wl.bundled_cases()
    assert len(cases) == 7
    cases += [next(c for c in programs if c.kind == kind) for kind in ("teleport", "dense")]
    cases += wl.wide_inputs(0)[:2]
    for case in cases:
        assert wl.check_program(case, wl.run_program(case)) is None, case.name
    for pair in wl.CONFLUENCE_PAIRS:
        for term in regression_seeds():
            report = wl.check_pair(term, pair)
            if pair in wl.GATED_PAIRS:
                assert report is not None and report.ok, (pair, term)
