"""Seeded inputs, the op of each workload, and the independent references
the ops are checked against.

Input generation uses no ``qlam`` code: a workload's inputs are program
sources (or, for ``confluence``, a generator config) built from the seed
alone, so the program under test only ever receives generated text.

References never go through the code under test:

* bundled programs are compared byte for byte with ``tests/golden``;
* teleport variants must give four branches at p = 1/4, each the register
  |b1 b2> (x) payload;
* let-chains and wide-register programs are replayed on a dense state
  vector (numpy, own gate matrices) and measured by the ``densesim``
  oracle, then compared within ``AMP_TOL``;
* confluence checks must report no failing diamond on T:T and S:T.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from qlam import cli, confluence, densesim, ensemble, parser, reduction, syntax, wellformed

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS_DIR = ROOT / "programs"
GOLDEN_DIR = ROOT / "tests" / "golden"

# Amplitude tolerance of the reference comparison.  Output amplitudes are
# printed with 12 significant digits, so 1e-9 leaves three digits of slack.
AMP_TOL = 1e-9
PROB_TOL = 1e-9

CONFLUENCE_CONFIG = {"count": 1000, "max_size": 12, "max_width": 3}
# T:T and S:T diamonds are theorems of the calculus; S:S is informational,
# exactly as in `qlam confluence`.
CONFLUENCE_PAIRS = (("T", "T"), ("S", "T"), ("S", "S"))
GATED_PAIRS = {("T", "T"), ("S", "T")}

N_TELEPORT = 8
N_CHAINS = 48
CHAIN_DEPTHS = (20, 150)
WIDE_WIDTHS = range(8, 13)
WIDE_MEASURED = range(1, 9)
# Programs per (width, measured count) cell; two keep the latency
# percentiles from resting on a single program's cost.
WIDE_VARIANTS = 2


# ---------------------------------------------------------------------------
# Inputs


@dataclass(frozen=True)
class ProgramCase:
    """One program op: its source and what its output is checked against.

    ``kind`` is "golden" (``expect`` is the golden text), "teleport"
    (``expect`` is the payload as two (re, im) pairs) or "dense" (``expect``
    describes the circuit for the dense replay)."""

    name: str
    source: str
    kind: str
    expect: object = field(compare=False)


def _fmt_c(z: complex) -> str:
    return f"({z.real:.17g},{z.imag:.17g})"


def _bits(u: int, width: int) -> str:
    return format(u, f"0{width}b")


TELEPORT_TEMPLATE = """
bit1 s = let a * u = s in a;
bit2 s = let a * u = s in (let b * r = u in b);
ex  b !t = if b then t else (I*I*X) t;
zed b !t = if b then t else (I*I*Z) t;

sender q = (H*I*I) ((cnot*I) q);
pair  q = (I*cnot) ((I*H*I) q);

main =
  let !s = M{{1,2}} (sender (pair ({init}))) in
  zed (bit1 s) !(ex (bit2 s) !s);
"""


def teleport_case(rng: random.Random, name: str) -> ProgramCase:
    """Teleport of a random one-wire payload; wires 2 and 3 start at |0>."""
    raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    payload = [z / norm for z in raw]
    init = " + ".join(f"{_fmt_c(a)}!|{u}00>" for u, a in enumerate(payload))
    return ProgramCase(name, TELEPORT_TEMPLATE.format(init=init), "teleport",
                       tuple((z.real, z.imag) for z in payload))


def _random_layer(rng: random.Random, width: int, singles: tuple[str, ...]) -> list[str]:
    """A tensor layer of builtin gates covering ``width`` wires."""
    atoms: list[str] = []
    left = width
    while left > 0:
        if left >= 2 and rng.random() < 0.3:
            atoms.append("cnot")
            left -= 2
        else:
            atoms.append(rng.choice(singles))
            left -= 1
    return atoms


def _gate_text(atoms: list[str]) -> str:
    return atoms[0] if len(atoms) == 1 else "(" + "*".join(atoms) + ")"


def chain_case(rng: random.Random, name: str, depth: int, width: int) -> ProgramCase:
    """A let-chain of ``depth`` gate applications on a ``width``-wire
    register that ends in a measurement of one or two wires."""
    start = rng.randrange(1 << width)
    layers = [_random_layer(rng, width, ("H", "X", "Z", "I")) for _ in range(depth)]
    measured = sorted(rng.sample(range(1, width + 1), rng.randint(1, min(2, width))))
    lines = [f"  let x1 = {_gate_text(layers[0])} !|{_bits(start, width)}> in"]
    for i, layer in enumerate(layers[1:], start=2):
        lines.append(f"  let x{i} = {_gate_text(layer)} x{i - 1} in")
    lines.append(f"  M{{{','.join(map(str, measured))}}} x{depth};")
    source = "main =\n" + "\n".join(lines) + "\n"
    return ProgramCase(name, source, "dense",
                       {"width": width, "start": start, "layers": layers,
                        "measured": measured, "drop_first": False})


def wide_case(rng: random.Random, name: str, width: int, k: int) -> ProgramCase:
    """Measure-then-split on a ``width``-wire register: a Hadamard layer on a
    basis state, a seeded X/Z/I/cnot layer, then M over ``k`` wires that
    always include wire 1, which the split takes off.

    After the two layers every amplitude is +-2**(-width/2) with sign
    (-1)**(c . u) for a phase vector c.  The start bits are solved so that c
    is 1 on every measured wire; then the branches always canonicalize to
    the same number of classes, so a seed changes which wires and gates a
    program has but not how much merging its evaluation does."""
    layer = _random_layer(rng, width, ("X", "Z", "I"))
    measured = sorted([1] + rng.sample(range(2, width + 1), k - 1))
    # Z on wire j flips c_j; cnot on (j, j+1) adds c_{j+1} into c_j.
    flip = [0] * (width + 2)
    control = [False] * (width + 2)
    wire = 1
    for atom in layer:
        if atom == "Z":
            flip[wire] = 1
        control[wire] = atom == "cnot"
        wire += 2 if atom == "cnot" else 1
    bits = [0] * (width + 2)
    for j in range(width, 0, -1):
        want = 1 if j in measured else rng.randint(0, 1)
        bits[j] = want ^ flip[j] ^ (bits[j + 1] if control[j] else 0)
    start = int("".join(map(str, bits[1:width + 1])), 2)
    hadamards = "*".join(["H"] * width)
    source = (f"main = let a * r = M{{{','.join(map(str, measured))}}} "
              f"(({'*'.join(layer)}) (({hadamards}) !|{_bits(start, width)}>)) "
              f"in if a then r else r;\n")
    return ProgramCase(name, source, "dense",
                       {"width": width, "start": start, "layers": [["H"] * width, layer],
                        "measured": measured, "drop_first": True})


def bundled_cases() -> list[ProgramCase]:
    """The bundled corpus with its golden outputs."""
    cases = []
    for path in sorted(PROGRAMS_DIR.glob("*.qlam")):
        golden = GOLDEN_DIR / f"{path.stem}.ensemble.json"
        if not golden.exists():
            golden = GOLDEN_DIR / f"{path.stem}.check.json"
        cases.append(ProgramCase(path.stem, path.read_text(encoding="utf-8"), "golden",
                                 golden.read_text(encoding="utf-8")))
    return cases


def programs_inputs(seed: int) -> list[ProgramCase]:
    """Bundled programs, teleport variants and let-chains.  The mix is the
    same for every seed (counts, chain depths spread evenly over 20..150,
    widths); the seed picks the payloads, gates, start states and measured
    wires."""
    cases = bundled_cases()
    for i in range(N_TELEPORT):
        cases.append(teleport_case(random.Random(f"teleport:{seed}:{i}"), f"teleport-{i}"))
    lo, hi = CHAIN_DEPTHS
    for i in range(N_CHAINS):
        rng = random.Random(f"chain:{seed}:{i}")
        depth = lo + round(i * (hi - lo) / (N_CHAINS - 1))
        width = 1 + i % 3
        cases.append(chain_case(rng, f"chain-{i}-d{depth}-w{width}", depth, width))
    return cases


def wide_inputs(seed: int) -> list[ProgramCase]:
    """WIDE_VARIANTS programs per (width, measured count) on the fixed grid;
    the seed picks the gate layer, the measured wires and the phases off
    the measured wires."""
    cases = []
    for width in WIDE_WIDTHS:
        for k in WIDE_MEASURED:
            for v in range(WIDE_VARIANTS):
                rng = random.Random(f"wide:{seed}:{width}:{k}:{v}")
                cases.append(wide_case(rng, f"wide-n{width}-k{k}-v{v}", width, k))
    return cases


def confluence_inputs(seed: int) -> dict:
    """The generator config of `qlam confluence --seed SEED`; every suite of
    a run generates the same corpus from it."""
    return {**CONFLUENCE_CONFIG, "seed": seed}


def build_inputs(workload: str, seed: int):
    if workload == "programs":
        return programs_inputs(seed)
    if workload == "wide_measure":
        return wide_inputs(seed)
    return confluence_inputs(seed)


def inputs_digest(inputs) -> str:
    if isinstance(inputs, dict):
        text = json.dumps(inputs, sort_keys=True)
    else:
        text = json.dumps([[c.name, c.source] for c in inputs])
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Ops


def run_program(case: ProgramCase) -> str:
    """What `qlam run --ensemble --json` prints for the source, or what
    `qlam check --json` prints when the program is rejected."""
    program = parser.parse_program(case.source)
    report = wellformed.check(program.main)
    if not report.verdict:
        return json.dumps(cli._report_json(report), indent=2) + "\n"
    chooser = ensemble.strategy_chooser(reduction.RULESET_ST)
    result = ensemble.evaluate(program.main, max_steps=10_000, chooser=chooser)
    return json.dumps(result.ensemble.to_json(result.status), indent=2) + "\n"


# ---------------------------------------------------------------------------
# References

_S2 = 1 / math.sqrt(2)
_MATRICES = {
    "H": [[_S2, _S2], [_S2, -_S2]],
    "X": [[0, 1], [1, 0]],
    "Z": [[1, 0], [0, -1]],
    "I": [[1, 0], [0, 1]],
    "cnot": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
}

_KET = re.compile(r"\s*(?:\(([^,()]+),([^,()]+)\))?!\|([01]+)>\s*(?:\+|$)")


def parse_register(text: str) -> tuple[int, dict[int, complex]]:
    """Read a printed register constant ``(re,im)!|bits> + ...`` (a bare
    ``!|bits>`` has amplitude 1) into its width and amplitudes."""
    amps: dict[int, complex] = {}
    width = None
    pos = 0
    while pos < len(text):
        m = _KET.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"not a register constant: {text!r}")
        re_part, im_part, bits = m.groups()
        amp = complex(float(re_part), float(im_part)) if re_part is not None else 1 + 0j
        if width is not None and len(bits) != width:
            raise ValueError(f"mixed register widths in {text!r}")
        width = len(bits)
        amps[int(bits, 2)] = amps.get(int(bits, 2), 0j) + amp
        pos = m.end()
    if width is None:
        raise ValueError("empty register constant")
    return width, amps


def _output_entries(text: str) -> list[tuple[int, dict[int, complex], float]]:
    doc = json.loads(text)
    if doc.get("status") != "Converged":
        raise ValueError(f"status {doc.get('status')!r}")
    return [(*parse_register(e["term"]), e["p"]) for e in doc["entries"]]


def _dense_final(spec: dict):
    """Replay the circuit on a dense vector and measure it with the
    densesim oracle: [(probability, post-state vector)] per outcome."""
    width = spec["width"]
    vec = np.zeros(1 << width, dtype=complex)
    vec[spec["start"]] = 1.0
    for layer in spec["layers"]:
        left = 0
        for atom in layer:
            mat = np.array(_MATRICES[atom], dtype=complex)
            arity = 1 if atom != "cnot" else 2
            block = vec.reshape(1 << left, 1 << arity, -1)
            vec = np.einsum("ij,ajb->aib", mat, block).reshape(-1)
            left += arity
    branches = densesim.dense_measure(densesim.DenseState(width, vec), spec["measured"])
    out = []
    k = len(spec["measured"])
    for word, p, post in branches:
        state = post.vector
        if spec["drop_first"]:
            # the measured wire 1 is a basis bit; the split keeps the rest
            state = state.reshape(2, -1)[word >> (k - 1)]
        out.append((p, state))
    return out


def _close(vec, amps: dict[int, complex]) -> bool:
    other = np.zeros(len(vec), dtype=complex)
    for u, a in amps.items():
        other[u] = a
    return bool(np.max(np.abs(vec - other)) <= AMP_TOL)


def _merge(branches):
    """Sum the probabilities of branches with equal post-states."""
    merged: list[list] = []
    buckets: dict[bytes, list[int]] = {}
    for p, vec in branches:
        key = np.round(vec, 6).tobytes()
        for i in buckets.get(key, ()):
            if np.max(np.abs(merged[i][1] - vec)) <= AMP_TOL:
                merged[i][0] += p
                break
        else:
            buckets.setdefault(key, []).append(len(merged))
            merged.append([p, vec])
    return merged


def check_dense(spec: dict, text: str) -> str | None:
    expected = _merge(_dense_final(spec))
    got = _output_entries(text)
    if len(got) != len(expected):
        return f"{len(got)} entries, dense oracle has {len(expected)}"
    width = spec["width"] - (1 if spec["drop_first"] else 0)
    unmatched = list(range(len(got)))
    for p, vec in expected:
        for j in unmatched:
            w, amps, q = got[j]
            if w == width and abs(p - q) <= PROB_TOL and _close(vec, amps):
                unmatched.remove(j)
                break
        else:
            return f"no output entry matches the oracle branch with p={p:.12g}"
    return None


def check_teleport(payload, text: str) -> str | None:
    """Four entries at p = 1/4, each the register |b1 b2> (x) payload."""
    z = [complex(re, im) for re, im in payload]
    got = _output_entries(text)
    words = set()
    for width, amps, p in got:
        if width != 3 or abs(p - 0.25) > PROB_TOL:
            return f"entry of width {width} at p={p}"
        word = min(amps) >> 1
        want = np.zeros(8, dtype=complex)
        want[2 * word:2 * word + 2] = z
        if not _close(want, amps):
            return f"branch |{word:02b}> does not carry the payload"
        words.add(word)
    if len(got) != 4 or words != {0, 1, 2, 3}:
        return f"outcome words {sorted(words)} in {len(got)} entries"
    return None


def check_program(case: ProgramCase, text: str) -> str | None:
    """None when ``text`` is the correct output for ``case``, else why not."""
    try:
        if case.kind == "golden":
            return None if text == case.expect else "differs from the golden file"
        if case.kind == "teleport":
            return check_teleport(case.expect, text)
        return check_dense(case.expect, text)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"


# ---------------------------------------------------------------------------
# Confluence


def confluence_corpus(inputs: dict):
    """What `qlam confluence` generates (timed: users pay it on every run)."""
    return confluence.generate(confluence.GenConfig(**inputs))


def check_pair(term, pair: tuple[str, str]):
    """One op of the confluence workload: the diamond check of one term
    under one rule-set pair, with the budgets `qlam confluence` uses.
    Returns the report, or None when the check outgrew its budget and was
    skipped."""
    try:
        return confluence.check_diamond(term, reduction.RULESETS[pair[0]],
                                        reduction.RULESETS[pair[1]])
    except confluence.BudgetExceededError:
        return None


def corpus_digest(corpus) -> str:
    return hashlib.sha256("\n".join(map(syntax.pretty, corpus)).encode()).hexdigest()
