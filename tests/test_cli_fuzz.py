"""The command line under fuzzed input: whatever it is given, ``qlam`` exits
0, 1 or 2, no exception escapes ``main``, and what ``fmt`` prints parses
back to the same declarations, each definition alpha-equivalent to the one
read, and formats again with exit 0.

Three kinds of input: random token streams, corpus programs with a few
tokens deleted, inserted, replaced or duplicated or a number changed to one
at the edge of the float range, and flags the CLI rejects
before any work.  Runs are bounded by ``--max-steps`` of at most 200, and no
flag asks for a long run.  The examples are derandomized, so a failure
replays.
"""

import contextlib
import io
import os
import re
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qlam.cli import main
from qlam.parser import parse_program
from qlam.syntax import alpha_eq

from conftest import PROGRAMS

# One token of program text, or a comment (dropped).
_TOKEN = re.compile(r"#[^\n]*|(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\|[01]+>|[A-Za-z_][A-Za-z0-9_']*|\S)")


def _tokens(source: str) -> list[str]:
    return [m[1] for m in _TOKEN.finditer(source) if m[1]]


CORPUS = {path.stem: _tokens(path.read_text()) for path in sorted(PROGRAMS.glob("*.qlam"))}
# Numbers at and past the edges of the float range, and the small integers
# that wire indices and matrix entries take.
NUMBERS = ["0", "-0", "-1", "7", "0.5", "1e-13", "1e308", "-1e308", "1e999", "-1e999", "1e-999"]
# Tokens no corpus program holds: wide kets, every keyword and symbol, and
# characters that start no token.
EXTRA = ["|0000000>", "|1>", "|10>", "M", "{", "}", "[", "]", "let", "in", "if", "then",
         "else", "gate", "main", "=", ";", "!", "\\", ".", "(", ")", ",", "*", "+", "$", "é"]
POOL = sorted({token for tokens in CORPUS.values() for token in tokens} | {*NUMBERS, *EXTRA})

FUZZ = settings(derandomize=True, database=None, deadline=None)

token_stream = st.lists(st.sampled_from(POOL), max_size=40).map(" ".join)


@st.composite
def mutated_program(draw) -> str:
    tokens = list(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(("delete", "insert", "replace", "duplicate", "renumber")))
        numbers = [k for k, token in enumerate(tokens) if token[0] in "-0123456789"]
        if op == "renumber" and numbers:
            tokens[draw(st.sampled_from(numbers))] = draw(st.sampled_from(NUMBERS))
        elif op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "insert":
            tokens.insert(i, draw(st.sampled_from(POOL)))
        else:
            tokens[i] = draw(st.sampled_from(POOL))
    return " ".join(tokens)


@pytest.fixture(scope="module")
def source_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.qlam"


def run(argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str]:
    """Exit code and stdout of ``qlam argv``; an exception escaping main
    fails the test."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    return code, out.getvalue()


def run_every_command(path, source: str, max_steps: int) -> None:
    path.write_text(source, encoding="utf-8")
    steps = ["--max-steps", str(max_steps)]
    run(["check", str(path)])
    run(["run", str(path), *steps])
    run(["run", str(path), "--sample", "--seed", "1", *steps])
    code, formatted = run(["fmt", str(path)])
    if code == 0:
        original, again = parse_program(source), parse_program(formatted)
        assert [name for name, _ in again.declarations] == \
            [name for name, _ in original.declarations], (source, formatted)
        for (name, a), (_, b) in zip(original.defs, again.defs):
            assert alpha_eq(a, b), (source, formatted, name)
        path.write_text(formatted, encoding="utf-8")
        assert run(["fmt", str(path)])[0] == 0, (source, formatted)


@settings(FUZZ, max_examples=100)
@given(source=st.one_of(token_stream, token_stream.map(lambda s: f"main = {s};")),
       max_steps=st.integers(1, 200))
def test_token_streams(source_path, source, max_steps):
    run_every_command(source_path, source, max_steps)


@settings(FUZZ, max_examples=200)
@given(source=mutated_program(), max_steps=st.integers(1, 200))
def test_mutated_corpus_programs(source_path, source, max_steps):
    run_every_command(source_path, source, max_steps)


BAD_CONFLUENCE = {
    "--count": ["-1", "-7"],
    "--max-width": ["0", "13", "-2"],
    "--pairs": ["S:X", "T", "S:T,", "x:y", "S:S:T"],
}


@settings(FUZZ, max_examples=40)
@given(bad=st.sets(st.sampled_from(sorted(BAD_CONFLUENCE)), min_size=1), data=st.data())
def test_rejected_confluence_flags(bad, data):
    argv = ["confluence", "--count", "2", "--max-size", "3"]
    for flag in sorted(bad):
        argv += [flag, data.draw(st.sampled_from(BAD_CONFLUENCE[flag]))]
    assert run(argv)[0] == 2


@settings(FUZZ, max_examples=40)
@given(program=st.sampled_from(sorted(CORPUS)),
       max_steps=st.integers(-3, 0),
       seed=st.sampled_from(["", "x", "1.5", "0x10", "1e3"]),
       sample=st.booleans())
def test_rejected_run_flags(program, max_steps, seed, sample):
    """A step budget below 1, and a QLAM_SEED that is not an integer when
    --sample has no --seed, exit 2."""
    path = str(PROGRAMS / f"{program}.qlam")
    assert run(["run", path, "--max-steps", str(max_steps)])[0] == 2
    mode = ["--sample"] if sample else []
    assert run(["run", path, *mode, "--max-steps", str(max_steps)], {"QLAM_SEED": "1"})[0] == 2
    assert run(["run", path, "--sample"], {"QLAM_SEED": seed})[0] == 2
