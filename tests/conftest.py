import math
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from qlam.confluence import GenConfig, generate, regression_seeds
from qlam.parser import MAX_NESTING
from qlam.quantum import KEY_AMP_THRESHOLD, QubitValue, ket, tensor
from qlam.syntax import (
    BangLam,
    Lam,
    LetTensor,
    QubitConst,
    Var,
    children,
    substitute,
    with_children,
)

# The package walks terms of any depth without Python recursion, but the
# reference oracles (term_height and rename_binders below, and those in
# tests/*_oracles.py) and the dataclass ==, hash and repr that assertions
# use recurse once or twice per level.  Raise the limit for this test
# process only, to cover them on every term the parser accepts.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 8 * MAX_NESTING))

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

REPO = Path(__file__).resolve().parent.parent
PROGRAMS = REPO / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"

N_SEEDS = len(regression_seeds())


def random_terms(seed: int, n: int, max_size: int = 12, max_width: int = 3):
    """n freshly generated terms (regression seeds excluded)."""
    cfg = GenConfig(max_size=max_size, max_width=max_width, seed=seed, count=N_SEEDS + n)
    return generate(cfg)[N_SEEDS:]


@st.composite
def generated_term(draw, max_size: int = 12, max_width: int = 3):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_terms(seed, 1, max_size, max_width)[0]


@st.composite
def random_register(draw, max_width: int = 4):
    width = draw(st.integers(1, max_width))
    dim = 1 << width
    support = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=min(4, dim)))
    raw = [
        complex(draw(st.floats(-1, 1, allow_nan=False)), draw(st.floats(-1, 1, allow_nan=False)))
        for _ in support
    ]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    if norm < 1e-3:
        return ket("0" * width)
    return QubitValue(width, tuple((u, a / norm) for u, a in zip(sorted(support), raw)))


def _fmt_c(z: complex) -> str:
    return f"({z.real:.17g},{z.imag:.17g})"


def let_chain(depth: int) -> str:
    """A program whose main is ``depth`` nested lets, each applying H to the
    previous one, measured at the end.  Its term nests 2 * depth + 2
    levels: each let builds an application and an abstraction, and the
    final measurement is an application over a variable."""
    lines = ["main =", "  let x1 = H !|0> in"]
    lines += [f"  let x{i} = H x{i - 1} in" for i in range(2, depth + 1)]
    lines.append(f"  M{{1}} x{depth};")
    return "\n".join(lines) + "\n"


def _lets(depth: int) -> str:
    # an odd depth measures H x rather than x, one level more
    n = (depth - 2) // 2
    program = let_chain(n)
    return program if depth % 2 == 0 else program.replace(f"M{{1}} x{n};", f"M{{1}} (H x{n});")


def _definition_chain(depth: int) -> str:
    # f nests 2n + 1 + tail levels (its parameter, n lets, the tail); main
    # adds the application of f and the measurement over it
    tail = 1 + depth % 2
    n = (depth - 3 - tail) // 2
    lets = "".join(f"let a{i} = H a{i - 1} in " for i in range(1, n + 1))
    return f"f a0 = {lets}{'H ' * (tail - 1)}a{n};\nmain = M{{1}} (f !|0>);"


def _deep_spine_head(depth: int) -> str:
    # the head nests 2n + 2 levels (n lets, an abstraction, its variable),
    # and each of the m arguments adds one
    n = depth // 4
    m = depth - 2 - 2 * n
    lets = "".join(f"let !x{i} = !|0> in " for i in range(n))
    return f"main = ({lets}\\!y. y) " + "!|0> " * m + ";"


# Programs whose main term nests exactly ``depth`` levels (nodes on its
# longest root-to-leaf path), one shape each.
NESTED = {
    "lets": _lets,
    "applications": lambda depth: "main = " + r"(\x. x) " * (depth - 2) + "!|0>;",
    "arguments": lambda depth: ("main = " + r"(\x. x) (" * (depth - 2) + "!|0>"
                                + ")" * (depth - 2) + ";"),
    "lambdas": lambda depth: "main = " + "".join(f"\\!x{i}. " for i in range(depth - 1)) + "!|0>;",
    "bangs": lambda depth: "main = " + "!" * (depth - 1) + "M{1};",
    "conditionals": lambda depth: ("main = " + "if !|0> then " * (depth - 1) + "!|0>"
                                   + " else !|1>" * (depth - 1) + ";"),
    "conditions": lambda depth: ("main = " + "if (" * (depth - 1) + "!|0>"
                                 + ") then !|0> else !|1>" * (depth - 1) + ";"),
    "split-names": lambda depth: ("main = \\!v. let " + "*".join(f"a{i}" for i in range(depth - 1))
                                  + " = v in a0;"),
    "spine-head": _deep_spine_head,
    "definitions": _definition_chain,
}

# Programs whose source opens ``count`` constructs one inside the next but
# whose term is one constant.
OPEN = {
    "parentheses": lambda count: "main = " + "(" * count + "!|0>" + ")" * count + ";",
    "scalars": lambda count: "main = " + "(1,0)" * count + "!|0>;",
}


def term_height(t) -> int:
    """Nodes on the longest root-to-leaf path of t."""
    return 1 + max((term_height(c) for c in children(t)), default=0)


def rename_binders(t, prefix, counter=None):
    """t with every binder renamed to a fresh ``prefix<n>``: an
    alpha-equivalent copy with different bound names."""
    if counter is None:
        counter = [0]
    match t:
        case Lam(x, body) | BangLam(x, body):
            counter[0] += 1
            fresh = f"{prefix}{counter[0]}"
            body = substitute(body, {x: Var(fresh)})
            return type(t)(fresh, rename_binders(body, prefix, counter))
        case LetTensor(x, y, value, body):
            counter[0] += 2
            fx, fy = f"{prefix}{counter[0] - 1}", f"{prefix}{counter[0]}"
            body = substitute(body, {x: Var(fx), y: Var(fy)})
            return LetTensor(fx, fy, rename_binders(value, prefix, counter),
                             rename_binders(body, prefix, counter))
        case _:
            kids = tuple(rename_binders(c, prefix, counter) for c in children(t))
            return with_children(t, kids)


def perturb_registers(t, rng, scale):
    """t with each register amplitude moved by a random complex offset whose
    real and imaginary parts are at most ``scale`` in magnitude."""
    if isinstance(t, QubitConst):
        q = t.value
        return QubitConst(QubitValue(q.width, tuple(
            (u, a + complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
            for u, a in q.amps)))
    return with_children(t, tuple(perturb_registers(c, rng, scale) for c in children(t)))


def near_threshold_register(offset: float) -> QubitValue:
    """A two-wire register with one amplitude of modulus
    KEY_AMP_THRESHOLD + offset and the rest of the mass on |00>."""
    small = KEY_AMP_THRESHOLD + offset
    return QubitValue(2, ((0, complex(math.sqrt(1 - small * small))), (3, complex(small))))


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


def teleport_source(psi: QubitValue) -> str:
    """The teleport program with an arbitrary one-wire payload spliced in."""
    assert psi.width == 1
    init = tensor(tensor(psi, ket("0")), ket("0"))
    literal = " + ".join(f"{_fmt_c(a)}!|{format(u, '03b')}>" for u, a in init.amps)
    return TELEPORT_TEMPLATE.format(init=literal)


def coincidence_brute(w: int, m: int, indices) -> set[int]:
    """Independent oracle: filter all m-bit words through string comparison."""
    idx = sorted(indices)
    wbits = format(w, f"0{len(idx)}b")
    out = set()
    for u in range(1 << m):
        ubits = format(u, f"0{m}b")
        if all(ubits[i - 1] == wbits[j] for j, i in enumerate(idx)):
            out.add(u)
    return out
