#!/usr/bin/env python3
"""qlam benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload programs --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists and which layer
metrics should move on it):

* ``programs``     parse, check, evaluate and print bundled programs,
                   teleport variants and let-chains;
* ``wide_measure`` the same op on wide measure-then-split programs;
* ``confluence``   generate a corpus and check every one-step diamond
                   under T:T, S:T and S:S, as `qlam confluence` does.

Load model: one process, one thread, a closed loop with one client; each op
starts when the previous one returned.  Whole passes over the seeded inputs
(for ``confluence``, whole suites) run until ``--seconds`` have gone by.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate
run: one untraced pass, then the same pass twice with spans around every
layer; it reports the per-layer metrics, checks that both traced passes
count exactly the same work, and reports the tracing overhead.  The second
traced pass is left out when the run would otherwise overrun its time
limit (see TRACE_CAP_S).

Every op's output is checked against an independent reference.  The full
report (every metric with its unit and sample count, the environment, the
input digest) is printed first; the last line is the summary object
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
check passed, 1 when one failed, 2 on bad usage or a checkout without the
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "qlam" / "__init__.py", ROOT / "programs", ROOT / "tests" / "golden")
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("programs", "wide_measure", "confluence")
# The seed for confirming a claim made on another seed.
CONFIRM_SEED = 1
# Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_PROBES = 7
# No further pass starts once the next one would probably end after this.
MEASURE_CAP_S = 100.0
# The second traced pass, which checks that the counts repeat, is left out
# when it would probably end after this (a confluence seed whose corpus
# holds a term that takes tens of seconds).
TRACE_CAP_S = 120.0

# The end-to-end metrics of the summary line, in BENCHMARK.json order.
GATED = ("setup_s", "op_ms.geomean", "op_ms.p90", "peak_rss_mb")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set-up only: import qlam, build the inputs, print their digest")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up


def _load(workload: str, seed: int):
    """Import qlam and build the inputs: everything before the first op."""
    sys.path.insert(0, str(SRC))
    import workloads

    inputs = workloads.build_inputs(workload, seed)
    return workloads, inputs


def probe_setup(args: argparse.Namespace) -> list[tuple[float, str]]:
    """Time fresh interpreters from spawn to inputs built; each prints the
    digest of the inputs it built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with {code}")
        out.append((elapsed, line.strip()))
    return out


# ---------------------------------------------------------------------------
# Ops


class Recorder:
    """Latencies and outputs of the ops of a run."""

    def __init__(self, tracer=None) -> None:
        self.latencies: list[float] = []
        self.outputs: dict[int, dict[str, int]] = {}
        self.errors: list[str] = []
        self.skipped = 0
        self.failed = 0
        self.ss_failures = 0
        self.suites: list[float] = []
        self.corpus_digests: list[str] = []
        self.pass_times: list[float] = []
        self.tracer = tracer

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def start_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)


def programs_pass(wl, inputs, rec: Recorder) -> None:
    clock = time.perf_counter
    for index, case in enumerate(inputs):
        rec.start_op()
        start = clock()
        try:
            text = wl.run_program(case)
        except Exception as exc:  # an op that raises is a failed op
            rec.latencies.append(clock() - start)
            rec.errors.append(f"{case.name}: {type(exc).__name__}: {exc}")
            rec.failed += 1
            continue
        rec.latencies.append(clock() - start)
        seen = rec.outputs.setdefault(index, {})
        seen[text] = seen.get(text, 0) + 1


def confluence_pass(wl, config: dict, rec: Recorder):
    """One suite; returns its corpus."""
    clock = time.perf_counter
    suite_start = clock()
    if rec.tracer is not None:
        rec.tracer.op_id = -1
    corpus = wl.confluence_corpus(config)
    for pair in wl.CONFLUENCE_PAIRS:
        for index, term in enumerate(corpus):
            rec.start_op()
            start = clock()
            try:
                report = wl.check_pair(term, pair)
            except Exception as exc:  # an op that raises is a failed op
                rec.latencies.append(clock() - start)
                rec.errors.append(f"{pair} term #{index}: {type(exc).__name__}: {exc}")
                rec.failed += 1
                continue
            rec.latencies.append(clock() - start)
            if report is None:
                rec.skipped += 1
            elif report.failures:
                if pair in wl.GATED_PAIRS:
                    rec.failed += 1
                    rec.errors.append(f"{pair[0]}:{pair[1]} diamond fails on term #{index}")
                else:
                    rec.ss_failures += 1
    rec.suites.append(clock() - suite_start)
    return corpus


def one_pass(workload: str, wl, inputs, rec: Recorder) -> float:
    start = time.perf_counter()
    corpus = None
    if workload == "confluence":
        corpus = confluence_pass(wl, inputs, rec)
    else:
        programs_pass(wl, inputs, rec)
    elapsed = time.perf_counter() - start
    rec.pass_times.append(elapsed)
    if corpus is not None:
        # digested outside the timed pass and then dropped, so memory does
        # not grow with the number of suites
        rec.corpus_digests.append(wl.corpus_digest(corpus))
    return elapsed


def verify(wl, inputs, rec: Recorder) -> None:
    """Check every output against its reference; a wrong output fails every
    op that produced it."""
    for index, seen in sorted(rec.outputs.items()):
        for text, count in seen.items():
            why = wl.check_program(inputs[index], text)
            if why is not None:
                rec.failed += count
                rec.errors.append(f"{inputs[index].name}: {why}")


# ---------------------------------------------------------------------------
# Metrics


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, rec: Recorder, setup: list[float], peak_mb: float) -> dict:
    lat_ms = [x * 1e3 for x in rec.latencies]
    n = len(lat_ms)
    busy = sum(rec.pass_times)
    out = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "op_ms.p50": _metric(_quantile(lat_ms, 50), "ms", n),
        "op_ms.geomean": _metric(statistics.geometric_mean(lat_ms), "ms", n),
        "op_ms.p90": _metric(_quantile(lat_ms, 90), "ms", n),
    }
    # a percentile is reported only with at least ten samples beyond it
    if n >= 1000:
        out["op_ms.p99"] = _metric(_quantile(lat_ms, 99), "ms", n)
    out["ops_per_s"] = _metric(n / busy, "1/s", n)
    if workload == "confluence":
        out["suite_s"] = _metric(statistics.median(rec.suites), "s", len(rec.suites))
    out["failed_share"] = _metric(rec.failed / n, "ratio", n)
    if workload == "confluence":
        out["decided_share"] = _metric((n - rec.skipped) / n, "ratio", n)
    out["peak_rss_mb"] = _metric(peak_mb, "MB", 1)
    return out


def per_layer(tracer, rec: Recorder, overhead: float) -> dict:
    """Per-layer metrics of one traced pass."""
    def calls(name):
        return tracer.stat(name)[0]

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def layer(name, with_self=True):
        n, _, self_s = tracer.stat(name)
        put(f"{name}.calls", n, "count")
        if with_self:
            put(f"{name}.self_s", self_s, "s")

    layer("parser.parse_program")
    put("parser.source_kb_per_s",
        ratio(c.get("parser.source_bytes", 0) / 1024, tracer.stat("parser.parse_program")[1]),
        "KB/s")
    layer("wellformed.check")
    for name in ("reduction.strategy_redex", "reduction.enumerate_redexes", "reduction.step_at"):
        layer(name)
    layer("reduction.head_rule", with_self=False)
    put("reduction.head_rule_per_step",
        ratio(calls("reduction.head_rule"), calls("reduction.step_at")), "ratio")
    layer("syntax.substitute")
    layer("quantum.apply_gate")
    put("quantum.apply_gate.amps_in", c.get("quantum.apply_gate.amps_in", 0), "count")
    layer("quantum.measure")
    put("quantum.measure.branches", c.get("quantum.measure.branches", 0), "count")
    layer("quantum.factor_split")
    put("quantum.factor_split.ok_ratio",
        ratio(c.get("quantum.factor_split.ok", 0), calls("quantum.factor_split")), "ratio")
    layer("syntax.alpha_eq")
    put("syntax.alpha_eq.true_ratio",
        ratio(c.get("syntax.alpha_eq.true", 0), calls("syntax.alpha_eq")), "ratio")
    layer("ensemble.min_ensemble")
    put("ensemble.min_ensemble.merge_ratio",
        ratio(c.get("ensemble.min_ensemble.entries_out", 0),
              c.get("ensemble.min_ensemble.entries_in", 0)), "ratio")
    layer("ensemble.equivalent")
    put("ensemble.equivalent.true_ratio",
        ratio(c.get("ensemble.equivalent.true", 0), calls("ensemble.equivalent")), "ratio")
    put("ensemble.peak_entries", tracer.peaks.get("ensemble.peak_entries", 0), "count")
    layer("ensemble.evaluate")
    put("confluence.generate.self_s", tracer.stat("confluence.generate")[2], "s")
    put("confluence.generate.accept_ratio",
        ratio(c.get("confluence.generate.accepted", 0), c.get("confluence.generate.checks", 0)),
        "ratio")
    layer("confluence.check_diamond")
    put("confluence.check_diamond.pairs", c.get("confluence.check_diamond.pairs", 0), "count")
    put("confluence.skipped", rec.skipped, "count")
    put("trace.ops", rec.attempted, "count")
    put("trace.spans", tracer.span_count(), "count")
    put("trace.overhead", overhead, "ratio")
    return out


def _counts(layer: dict) -> dict:
    """The metrics that must repeat exactly between traced passes."""
    return {k: v["value"] for k, v in layer.items()
            if v["unit"] in ("count", "ratio") and k != "trace.overhead"}


# ---------------------------------------------------------------------------
# Environment


def environment(load: tuple[float, float, float], repeats: dict) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "repeats": repeats,
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        return _fail_usage(f"run from a qlam checkout; missing {', '.join(missing)}")
    if args.probe:
        wl, inputs = _load(args.workload, args.seed)
        print(wl.inputs_digest(inputs), flush=True)
        return 0
    if args.seconds <= 0:
        return _fail_usage("--seconds must be positive")

    load = os.getloadavg()
    setup = []
    digests = set()
    if not args.trace:
        for elapsed, digest in probe_setup(args):
            setup.append(elapsed)
            digests.add(digest)
    wl, inputs = _load(args.workload, args.seed)
    digest = wl.inputs_digest(inputs)
    checks = {}
    if digests:
        checks["inputs_digest_repeats"] = digests == {digest}

    report: dict = {"workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
                    "trace": args.trace, "inputs_digest": digest}
    if args.trace:
        import tracing

        rec = Recorder()
        start = time.perf_counter()
        untraced = one_pass(args.workload, wl, inputs, rec)
        verify(wl, inputs, rec)
        layers = []
        while True:
            traced_rec = Recorder(tracing.Tracer())
            with traced_rec.tracer:
                traced = one_pass(args.workload, wl, inputs, traced_rec)
            verify(wl, inputs, traced_rec)
            rec.failed += traced_rec.failed
            rec.errors += traced_rec.errors
            rec.corpus_digests += traced_rec.corpus_digests
            layers.append(per_layer(traced_rec.tracer, traced_rec, traced / untraced))
            tracer = traced_rec.tracer
            spent = time.perf_counter() - start
            if len(layers) == 2 or spent + traced > TRACE_CAP_S:
                break
        if len(layers) == 2:
            checks["counts_repeat"] = _counts(layers[0]) == _counts(layers[1])
        spans = tracer.write(OUT_DIR, f"spans-{args.workload}-seed{args.seed}")
        report["per_layer"] = layers[0]
        report["spans_file"] = str(spans.relative_to(ROOT))
        summary = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers[0].items()}
        repeats = {"untraced_passes": 1, "traced_passes": len(layers)}
        attempted = rec.attempted + len(layers) * traced_rec.attempted
    else:
        rec = Recorder()
        start = time.perf_counter()
        while True:
            last = one_pass(args.workload, wl, inputs, rec)
            spent = time.perf_counter() - start
            if spent >= args.seconds or spent + last > MEASURE_CAP_S:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verify(wl, inputs, rec)
        e2e = end_to_end(args.workload, rec, setup, peak_mb)
        report["end_to_end"] = e2e
        summary = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in GATED}
        repeats = {"setup_probes": len(setup), "passes": len(rec.pass_times)}
        attempted = rec.attempted

    if args.workload == "confluence":
        # every suite of the run generated the same corpus
        checks["corpus_repeats"] = len(set(rec.corpus_digests)) == 1
        report["ss_failures"] = rec.ss_failures
        report["corpus_sha256"] = rec.corpus_digests[0]
    report["environment"] = environment(load, repeats)
    report["checks"] = checks
    report["errors"] = rec.errors[:20]
    correct = rec.failed == 0 and all(checks.values())
    print(json.dumps(report, indent=2))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": rec.failed,
                      "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
