import math
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from qlam.confluence import GenConfig, generate, regression_seeds
from qlam.quantum import QubitValue, ket, tensor
from qlam.syntax import (
    KEY_AMP_THRESHOLD,
    BangLam,
    Lam,
    LetTensor,
    QubitConst,
    Var,
    children,
    substitute,
    with_children,
)

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


def rename_binders(t, prefix, counter=None):
    """t with every binder renamed to a fresh ``prefix<n>``: an
    alpha-equivalent copy with different bound names."""
    if counter is None:
        counter = [0]
    match t:
        case Lam(x, body) | BangLam(x, body):
            counter[0] += 1
            fresh = f"{prefix}{counter[0]}"
            body = substitute(body, x, Var(fresh))
            return type(t)(fresh, rename_binders(body, prefix, counter))
        case LetTensor(x, y, value, body):
            counter[0] += 2
            fx, fy = f"{prefix}{counter[0] - 1}", f"{prefix}{counter[0]}"
            body = substitute(substitute(body, x, Var(fx)), y, Var(fy))
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
