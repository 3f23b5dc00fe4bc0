"""Term walks take no Python frame per level of a term, and the package
sets no interpreter-wide state.

Each depth test runs in a fresh interpreter whose recursion limit is
lowered to 120, far below the depth of its terms, and checks that the
limit is still 120 at the end.  The guard test shows that nothing in the
package calls the generated (recursive) ``==``, ``hash`` or ``repr`` of a
term.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from qlam import syntax
from qlam.cli import main
from qlam.parser import MAX_NESTING

from conftest import NESTED, PROGRAMS, REPO

LOW_LIMIT = 120
COMMANDS = [["check"], ["run"], ["run", "--sample", "--seed", "0"], ["fmt"]]

# Runs every command of COMMANDS on the file argv[1] under the low limit and
# prints, as JSON, each exit code, whether stdout was written, stderr, and
# the limit at the end.
_CLI_AT_LOW_LIMIT = f"""
import contextlib, io, json, sys
from qlam.cli import main
path = sys.argv[1]
sys.setrecursionlimit({LOW_LIMIT})
runs = []
for command in {COMMANDS!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, path])
    runs.append([code, bool(out.getvalue()), err.getvalue()])
print(json.dumps([runs, sys.getrecursionlimit()]))
"""

# Builds 20,000-level chains with the constructors, then walks each one
# under the low limit.
_CHAINS_AT_LOW_LIMIT = f"""
import sys
from qlam.ensemble import evaluate
from qlam.quantum import BUILTIN_GATES, GateExpr, ket
from qlam.syntax import (App, Bang, BangLam, GateConst, If, Lam, LetTensor, MeasConst,
                         QubitConst, Var, free_vars, height, pretty, substitute)
from qlam.wellformed import check

N = 20_000
identity = Lam("z", Var("z"))
lambdas = App(identity, Var("y"))
for i in range(N):
    lambdas = BangLam(f"x{{i % 7}}", lambdas)
bangs = Var("y")
for _ in range(N):
    bangs = Bang(bangs)
gates = Var("y")
hadamard = GateConst(GateExpr((BUILTIN_GATES["H"],)))
for _ in range(N):
    gates = App(hadamard, gates)
measure = MeasConst(frozenset({{1}}))
# y in a split's value and body, and a in both arms of a conditional, at
# every level: substitute finds two live children at each.
splits = Var("y")
for _ in range(N):
    splits = LetTensor("a", "b", Var("y"), splits)
ifs = Var("a")
for _ in range(N):
    ifs = If(QubitConst(ket("0")), ifs, Var("a"))

sys.setrecursionlimit({LOW_LIMIT})
for name, chain in (("lambdas", lambdas), ("bangs", bangs), ("gates", gates)):
    assert free_vars(chain) == {{"y"}}, name
    closed = substitute(chain, {{"y": measure}})
    assert free_vars(closed) == frozenset(), name
    assert height(chain) == height(closed) > N, name
    assert check(chain).verdict and check(closed).verdict, name
    if name != "gates":
        result = evaluate(closed)
        assert result.status == "Converged", name
        closed = result.ensemble.entries[0][0]
    assert pretty(closed).count("M{{1}}") == 1, name
assert pretty(bangs) == "!" * N + "y"
for name, chain, free in (("splits", splits, "y"), ("ifs", ifs, "a")):
    assert free_vars(chain) == {{free}}, name
    closed = substitute(chain, {{free: measure}})
    assert free_vars(closed) == frozenset(), name
    assert height(chain) == height(closed) == N + 1, name
    assert check(chain).violations == [
        ((), "linear", f"free variable {{free!r}} used {{N + 1}} times")], name
    assert check(closed).verdict, name
    assert pretty(closed).count("M{{1}}") == N + 1, name
print(sys.getrecursionlimit())
"""

# Substitutes z for y in the body of the file argv[1]'s inner abstraction,
# then runs the file, under the low limit, and prints as JSON the printed
# substitution, the run's exit code, stdout and stderr, and the limit at
# the end.
_RENAMES_AT_LOW_LIMIT = f"""
import contextlib, io, json, sys
from qlam.cli import main
from qlam.parser import parse_program
from qlam.syntax import Var, pretty, substitute

path = sys.argv[1]
with open(path) as f:
    body = parse_program(f.read()).main.body.fun.body
sys.setrecursionlimit({LOW_LIMIT})
substituted = pretty(substitute(body, {{"y": Var("z")}}))
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["run", path])
print(json.dumps([substituted, code, out.getvalue(), err.getvalue(), sys.getrecursionlimit()]))
"""


def _python(*argv) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=REPO, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_limit_runs_under_a_low_recursion_limit(tmp_path, shape):
    path = tmp_path / f"{shape}.qlam"
    path.write_text(NESTED[shape](MAX_NESTING))
    proc = _python("-c", _CLI_AT_LOW_LIMIT, str(path))
    assert proc.returncode == 0, proc.stderr
    runs, limit = json.loads(proc.stdout)
    assert runs == [[0, True, ""]] * len(COMMANDS)
    assert limit == LOW_LIMIT


def test_constructed_chains_walk_under_a_low_recursion_limit():
    proc = _python("-c", _CHAINS_AT_LOW_LIMIT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{LOW_LIMIT}\n"


def test_binders_renamed_at_every_level_run_under_a_low_recursion_limit(tmp_path):
    """Substituting z for y in a chain of binders z, z', z'', ... renames z
    to z', which renames z' to z'', and so on: one rename inside the last,
    at every level of the chain."""
    names = ["z" + "'" * k for k in range(400)]
    chain = "".join(f"\\!{x}. " for x in names) + "y " + " ".join(names)
    path = tmp_path / "renames.qlam"
    path.write_text(f"main = \\z. (\\y. {chain}) z;\n")
    proc = _python("-c", _RENAMES_AT_LOW_LIMIT, str(path))
    assert proc.returncode == 0, proc.stderr
    substituted, code, out, err, limit = json.loads(proc.stdout)
    renamed = [x + "'" for x in names]
    expected = "".join(f"\\!{x}. " for x in renamed) + " ".join(["z", *renamed])
    assert substituted == expected
    assert (code, err) == (0, "")
    assert f"p=1  \\z. {expected}\n" in out
    assert limit == LOW_LIMIT


TERM_CLASSES = [syntax.Var, syntax.Lam, syntax.BangLam, syntax.App, syntax.Bang,
                syntax.GateConst, syntax.QubitConst, syntax.MeasConst, syntax.If,
                syntax.LetTensor]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _without_elapsed(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [_without_elapsed(v) for v in doc]
    return doc


def test_no_command_compares_hashes_or_prints_a_term_by_its_dataclass_methods(monkeypatch):
    """Every command gives the same exit code and output with ==, hash and
    repr of every term class made to raise."""
    runs = [[*command, str(path)] for path in sorted(PROGRAMS.glob("*.qlam"))
            for command in COMMANDS]
    runs.append(["confluence", "--count", "50", "--json"])
    expected = [_cli(argv) for argv in runs]

    def forbidden(*args):
        raise AssertionError("a term's generated ==, hash or repr was called")

    for cls in TERM_CLASSES:
        for method in ("__eq__", "__hash__", "__repr__"):
            monkeypatch.setattr(cls, method, forbidden)
    for argv, (code, out, err) in zip(runs, expected):
        got_code, got_out, got_err = _cli(argv)
        assert (got_code, got_err) == (code, err), argv
        if argv[0] == "confluence":
            assert _without_elapsed(json.loads(got_out)) == _without_elapsed(json.loads(out))
        else:
            assert got_out == out, argv
