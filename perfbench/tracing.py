"""Spans around the public functions of each ``qlam`` module.

``Tracer.install`` replaces each traced function on the module that defines
it and on every ``qlam`` module that imported the name (so
``reduction.measure`` and ``ensemble.alpha_eq`` are wrapped too); nothing
under ``src/`` is edited, and ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, op id).  Spans are kept in memory
in flat arrays and written out once at the end.  Self time is a span's
duration minus the time covered by its direct children; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs that get a span, in layer order.
SPANNED = (
    ("parser", "parse_program"),
    ("wellformed", "check"),
    ("reduction", "strategy_redex"),
    ("reduction", "enumerate_redexes"),
    ("reduction", "step_at"),
    ("syntax", "substitute"),
    ("quantum", "apply_gate"),
    ("quantum", "measure"),
    ("quantum", "factor_split"),
    ("ensemble", "min_ensemble"),
    ("ensemble", "equivalent"),
    ("ensemble", "evaluate"),
    ("confluence", "generate"),
    ("confluence", "check_diamond"),
)
# Timed and counted per call, but no span is stored: alpha_eq is a leaf
# called millions of times by a confluence suite.  Its time still counts as
# child time of the span that called it.
LEAVES = (("syntax", "alpha_eq"),)
# Counted only: head_rule runs at every node of every redex walk, and only
# its call count is a layer metric.
COUNTED = (("reduction", "head_rule"),)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.op_id = -1
        # span records
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def spanned(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                dur = end - start
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            self.calls[nid] += 1
            self.total_s[nid] += dur
            self.self_s[nid] += dur
            if stack:
                stack[-1][1] += dur
            if after is not None:
                after(self, -1, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import qlam  # noqa: F401  (loads every submodule)

        for module, func in SPANNED + LEAVES + COUNTED:
            mod = sys.modules[f"qlam.{module}"]
            original = getattr(mod, func)
            name = f"{module}.{func}"
            if (module, func) in COUNTED:
                replacement = self.counted(name, original)
            elif (module, func) in LEAVES:
                replacement = self.leaf(name, original, _AFTER.get(name))
            else:
                replacement = self.spanned(name, original, _AFTER.get(name))
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("qlam"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patched.append((other, attr, original))
                        setattr(other, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        i = self.names.index(name)
        return self.calls[i], self.total_s[i], self.self_s[i]

    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans: a JSON index plus one raw array file per field."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {
            "name": self.span_name, "parent": self.span_parent, "op": self.span_op,
            "start": self.span_start, "end": self.span_end,
        }
        for key, arr in fields.items():
            with open(directory / f"{stem}.{key}.bin", "wb") as handle:
                arr.tofile(handle)
        index = {
            "names": self.names,
            "count": self.span_count(),
            "fields": {key: {"file": f"{stem}.{key}.bin", "typecode": arr.typecode,
                             "itemsize": arr.itemsize}
                       for key, arr in fields.items()},
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
        return path


# Per-call extras recorded after a traced call returns: work counts and the
# numerators of the useful-outcome ratios.

def _after_parse_program(tr: Tracer, index: int, args, result) -> None:
    tr.count("parser.source_bytes", len(args[0].encode()))


def _after_apply_gate(tr: Tracer, index: int, args, result) -> None:
    tr.count("quantum.apply_gate.amps_in", len(args[1].amps))


def _after_measure(tr: Tracer, index: int, args, result) -> None:
    tr.count("quantum.measure.branches", len(result))


def _after_factor_split(tr: Tracer, index: int, args, result) -> None:
    if result is not None:
        tr.count("quantum.factor_split.ok", 1)


def _after_alpha_eq(tr: Tracer, index: int, args, result) -> None:
    if result:
        tr.count("syntax.alpha_eq.true", 1)


def _after_min_ensemble(tr: Tracer, index: int, args, result) -> None:
    tr.count("ensemble.min_ensemble.entries_in", len(args[0]))
    tr.count("ensemble.min_ensemble.entries_out", len(result))
    tr.peak("ensemble.peak_entries", len(args[0]))


def _after_equivalent(tr: Tracer, index: int, args, result) -> None:
    if result:
        tr.count("ensemble.equivalent.true", 1)


def _after_check_diamond(tr: Tracer, index: int, args, result) -> None:
    tr.count("confluence.check_diamond.pairs", result.pairs_checked)


def _after_check(tr: Tracer, index: int, args, result) -> None:
    parent = tr.span_parent[index]
    if parent >= 0 and tr.names[tr.span_name[parent]] == "confluence.generate":
        tr.count("confluence.generate.checks", 1)
        if result.verdict:
            tr.count("confluence.generate.accepted", 1)


_AFTER = {
    "parser.parse_program": _after_parse_program,
    "quantum.apply_gate": _after_apply_gate,
    "quantum.measure": _after_measure,
    "quantum.factor_split": _after_factor_split,
    "syntax.alpha_eq": _after_alpha_eq,
    "ensemble.min_ensemble": _after_min_ensemble,
    "ensemble.equivalent": _after_equivalent,
    "confluence.check_diamond": _after_check_diamond,
    "wellformed.check": _after_check,
}
