import json
import os
import resource
import subprocess
import sys

import pytest

from qlam.cli import main
from qlam.parser import _MAX_OPEN, MAX_NESTING, parse_program
from qlam.quantum import MAX_AMPLITUDES
from qlam.syntax import alpha_eq
from qlam.wellformed import check

from conftest import GOLDEN, NESTED, OPEN, PROGRAMS, REPO, let_chain

CORPUS = ["teleport", "teleport_deferred", "epr", "measure_demo", "stuck_if", "promotion"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs


@pytest.mark.parametrize("name", CORPUS)
def test_ensemble_golden(capsys, name):
    code, out, _ = run_cli(capsys, "run", str(PROGRAMS / f"{name}.qlam"),
                           "--ensemble", "--json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.ensemble.json").read_text()


def test_cloning_check_golden(capsys):
    code, out, _ = run_cli(capsys, "check", str(PROGRAMS / "cloning_rejected.qlam"), "--json")
    assert code == 1
    assert out == (GOLDEN / "cloning_rejected.check.json").read_text()
    doc = json.loads(out)
    assert not doc["verdict"]
    assert "'x'" in doc["violations"][0]["message"]


# ---------------------------------------------------------------------------
# exit codes


def test_check_ok_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", str(PROGRAMS / "teleport.qlam"))
    assert code == 0
    assert "well-formed" in out


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.qlam"
    bad.write_text("main = let x = in x;\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err and "1:" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_file.qlam")
    assert code == 2


@pytest.mark.parametrize("command", ["check", "run", "fmt"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_program_exit_two(tmp_path, capsys, command, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "latin1.qlam"
        path.write_bytes(b"main = \xff;\n")
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert str(path) in err
    if kind == "not-utf8":
        assert "not valid UTF-8 (byte 0xff at offset 7)" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_program_newlines_read_as_text_mode(tmp_path, capsys, newline):
    """Line numbers count CRLF and CR line ends as one newline each."""
    path = tmp_path / "newlines.qlam"
    path.write_bytes(f"main ={newline}  (\\x. x) ?;{newline}".encode())
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert err == "parse error: 2:11: unexpected character '?'\n"


def test_ensemble_cap_exits_one_before_building_branches(tmp_path, capsys):
    """An 18-wire full measurement has 2**18 branches, past the 2**16 cap:
    the run stops with the cap error instead of building them."""
    wires = range(1, 19)
    path = tmp_path / "wide.qlam"
    path.write_text(f"main = M{{{','.join(map(str, wires))}}} "
                    f"(({'*'.join('H' for _ in wires)}) !|{'0' * len(wires)}>);\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: ensemble exceeded 65536 entries\n"


@pytest.mark.parametrize("command", ["check", "run", "fmt"])
def test_overwide_register_exit_two(tmp_path, capsys, command):
    path = tmp_path / "overwide.qlam"
    path.write_text(f"main = M{{1}} (!|{'0' * 40}> * !|{'0' * 30}>);\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: register width 70 exceeds the maximum of 63 wires\n"


def test_bad_usage_exit_two(capsys):
    assert main(["run"]) == 2
    assert main(["frobnicate"]) == 2


def test_run_max_steps_zero_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", str(PROGRAMS / "epr.qlam"), "--max-steps", "0")
    assert code == 2
    assert err == "error: max_steps must be >= 1\n"


@pytest.mark.parametrize("flags", [
    ("--max-width", "0"),
    ("--max-width", "13"),
    ("--count", "-1"),
    ("--max-size", "0"),
])
def test_confluence_bad_sizes_exit_two(capsys, flags):
    code, out, err = run_cli(capsys, "confluence", *flags)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_confluence_bad_pair_exit_two(capsys):
    code, out, err = run_cli(capsys, "confluence", "--count", "5", "--pairs", "T:X")
    assert code == 2
    assert out == ""
    assert err == "error: bad rule-set pair 'T:X' (use S:T etc.)\n"


def test_check_gates_only_file_exit_one(tmp_path, capsys):
    f = tmp_path / "gates.qlam"
    f.write_text("gate G = [[0,1],[1,0]];\n")
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "[root] program: no definitions in file" in out


@pytest.mark.parametrize("source, note", [
    ("let a * b = !|0> in a", "split of a single-wire register"),
    ("M{3} !|0>", "measured wire 3 beyond width 1"),
])
def test_run_reports_stuck_root(tmp_path, capsys, source, note):
    f = tmp_path / "stuck.qlam"
    f.write_text(f"main = {source};\n")
    code, out, _ = run_cli(capsys, "run", str(f))
    assert code == 0
    assert f"note: stuck at root: {note}" in out


def test_run_requires_main(tmp_path, capsys):
    f = tmp_path / "nomain.qlam"
    f.write_text("helper = !|0>;\n")
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "main" in err


# ---------------------------------------------------------------------------
# sampling


def test_sample_json(capsys):
    code, out, _ = run_cli(capsys, "run", str(PROGRAMS / "epr.qlam"),
                           "--sample", "--seed", "3", "--json")
    assert code == 0
    assert out == json.dumps({"term": "(0.707106781187,0)!|00> + (0.707106781187,0)!|11>",
                              "seed": 3}, indent=2) + "\n"


def test_sample_deterministic(capsys):
    path = str(PROGRAMS / "measure_demo.qlam")
    code, out1, _ = run_cli(capsys, "run", path, "--sample", "--seed", "5")
    _, out2, _ = run_cli(capsys, "run", path, "--sample", "--seed", "5")
    assert code == 0 and out1 == out2
    assert out1.strip() in ("!|0>", "!|1>")


@pytest.mark.parametrize("mode", [("--ensemble",), ("--sample", "--seed", "0")])
def test_run_step_budget_is_exact(capsys, mode):
    """epr.qlam needs exactly two steps in either mode."""
    path = str(PROGRAMS / "epr.qlam")
    code, _, err = run_cli(capsys, "run", path, "--max-steps", "2", *mode)
    assert code == 0 and err == ""
    code, _, _ = run_cli(capsys, "run", path, "--max-steps", "1", *mode)
    assert code == 1


def test_sample_env_seed(monkeypatch, capsys):
    path = str(PROGRAMS / "measure_demo.qlam")
    monkeypatch.setenv("QLAM_SEED", "9")
    code, out_env, _ = run_cli(capsys, "run", path, "--sample")
    _, out_flag, _ = run_cli(capsys, "run", path, "--sample", "--seed", "9")
    assert code == 0 and out_env == out_flag


@pytest.mark.parametrize("mode, expected", [("--sample", 2), ("--ensemble", 0)])
def test_bad_env_seed_only_matters_when_sampling(monkeypatch, capsys, mode, expected):
    monkeypatch.setenv("QLAM_SEED", "abc")
    code, _, err = run_cli(capsys, "run", str(PROGRAMS / "measure_demo.qlam"), mode)
    assert code == expected
    if expected:
        assert err == "error: QLAM_SEED must be an integer, not 'abc'\n"


def test_sample_without_seed_fails(monkeypatch, capsys):
    monkeypatch.delenv("QLAM_SEED", raising=False)
    code, _, err = run_cli(capsys, "run", str(PROGRAMS / "measure_demo.qlam"), "--sample")
    assert code == 2 and "seed" in err


# ---------------------------------------------------------------------------
# trace, fmt, strict mode, confluence


def test_trace_lines_on_stderr(capsys):
    code, _, err = run_cli(capsys, "run", str(PROGRAMS / "measure_demo.qlam"), "--trace")
    assert code == 0
    assert "M @root" in err


def test_trace_golden(capsys):
    code, _, err = run_cli(capsys, "run", str(PROGRAMS / "teleport.qlam"), "--trace")
    assert code == 0
    assert err == (GOLDEN / "teleport.trace.stderr").read_text()


@pytest.mark.parametrize("seed", range(4))
def test_sample_trace_golden(capsys, seed):
    code, out, err = run_cli(capsys, "run", str(PROGRAMS / "teleport.qlam"),
                             "--sample", "--seed", str(seed), "--trace")
    assert code == 0
    assert out == (GOLDEN / f"teleport.sample_seed{seed}.stdout").read_text()
    assert err == (GOLDEN / f"teleport.sample_seed{seed}.stderr").read_text()


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.qlam")))
@pytest.mark.parametrize("mode,argv", [("trace", ()), ("sample_seed0", ("--sample", "--seed", "0"))])
def test_every_program_trace_golden(capsys, name, mode, argv):
    """The trace of every bundled program, ensemble and sampled, byte for
    byte."""
    _, _, err = run_cli(capsys, "run", str(PROGRAMS / f"{name}.qlam"), *argv, "--trace")
    assert err == (GOLDEN / f"{name}.{mode}.stderr").read_text()


def test_fmt_output_reparses(capsys):
    for name in CORPUS + ["cloning_rejected"]:
        code, out, _ = run_cli(capsys, "fmt", str(PROGRAMS / f"{name}.qlam"))
        assert code == 0
        reparsed = parse_program(out)
        assert reparsed.defs


@pytest.mark.parametrize("source", ["(0,0)!|0>", "(1e-7,0)(1e-7,0)!|0>"])
def test_fmt_empty_register_reparses(tmp_path, capsys, source):
    f = tmp_path / "empty.qlam"
    f.write_text(f"main = {source};\n")
    code, out, _ = run_cli(capsys, "fmt", str(f))
    assert code == 0
    assert out == "main = (0,0)!|0>;\n"
    assert parse_program(out).main == parse_program(f.read_text()).main
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "squared mass 0" in out


FMT_CASES = {
    # a free name that a later definition names stays free
    "free-name": ("a = z;\nz = !|0>;\nmain = a;\n",
                  "a = z;\n\nz = !|0>;\n\nmain = a;\n"),
    # a gate declared after a use stays after it, so the use stays free
    "gate-after-use": ("main = G !|0>;\ngate G = [[0,1],[1,0]];\n",
                       "main = G !|0>;\n\ngate G = [[(0,0), (1,0)],\n"
                       "             [(1,0), (0,0)]];\n"),
    # a split's fresh remainder is not named like a definition
    "rest-defined": ("rest = !|0>;\nmain = \\!v. let a * b * c = v in a;\n",
                     "rest = !|0>;\n\nmain = \\!v. let a * rest' = v in let b * c = rest' in a;\n"),
    # a body that is an earlier definition's prints as its name, the root
    # too; a gate constant does not
    "aliases": ("a = \\x. x;\nb = a;\ng = H;\nmain = b (g !|0>);\n",
                "a = \\x. x;\n\nb = a;\n\ng = H;\n\nmain = b (H !|0>);\n"),
}


@pytest.mark.parametrize("case", sorted(FMT_CASES))
def test_fmt_prints_the_program_it_read(tmp_path, capsys, case):
    source, expected = FMT_CASES[case]
    path = tmp_path / f"{case}.qlam"
    path.write_text(source)
    code, out, _ = run_cli(capsys, "fmt", str(path))
    assert (code, out) == (0, expected)
    before, after = parse_program(source), parse_program(out)
    assert [name for name, _ in after.declarations] == [name for name, _ in before.declarations]
    assert all(alpha_eq(a, b) for (_, a), (_, b) in zip(before.defs, after.defs))
    ran = run_cli(capsys, "run", str(path))
    path.write_text(out)
    assert run_cli(capsys, "run", str(path)) == ran


def test_fmt_prints_a_doubling_chain_by_name(tmp_path, capsys):
    """main unfolds to 2**24 copies of d0, and fmt prints each definition
    once, as written."""
    lines = ["d0 = \\x. x;", *(f"d{i} = d{i - 1} d{i - 1};" for i in range(1, 25)),
             "main = d24 !|0>;"]
    path = tmp_path / "doubling.qlam"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "fmt", str(path))
    assert (code, out) == (0, "\n\n".join(lines) + "\n")


def test_strict_wf_rejects_sugared_registers(tmp_path, capsys):
    f = tmp_path / "sugar.qlam"
    f.write_text("main = !|0> * ((0.6,0)!|0> + (0.8,0)!|1>);\n")
    code, out, _ = run_cli(capsys, "check", str(f))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(f), "--strict-wf")
    assert code == 1
    assert "strict-surface" in out


def test_strict_wf_accepts_normal_form(tmp_path, capsys):
    f = tmp_path / "canon.qlam"
    f.write_text("main = (0.6,0)(!|0>*!|0>) + (0.8,0)(!|0>*!|1>);\n")
    code, _, _ = run_cli(capsys, "check", str(f), "--strict-wf")
    assert code == 0


def test_confluence_subcommand(capsys):
    code, out, _ = run_cli(capsys, "confluence", "--count", "40", "--seed", "7")
    assert code == 0
    assert "T:T" in out and "S:T" in out


def test_confluence_json_and_pairs(capsys):
    code, out, _ = run_cli(capsys, "confluence", "--count", "25", "--seed", "3",
                           "--pairs", "T:T", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["pair"] == "T:T"
    assert doc["results"][0]["failures"] == []


def test_confluence_json_golden(capsys):
    """`qlam confluence --count 200 --seed 0 --json` is pinned, timings aside."""
    code, out, _ = run_cli(capsys, "confluence", "--count", "200", "--seed", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    for result in doc["results"]:
        del result["elapsed"]
    golden = (GOLDEN / "confluence_seed0_count200.json").read_text()
    assert json.dumps(doc, indent=2) + "\n" == golden


def test_run_step_limit_exit_one(tmp_path, capsys):
    f = tmp_path / "omega.qlam"
    f.write_text(r"main = (\!x. x !x) !(\!x. x !x);" + "\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--max-steps", "40")
    assert code == 1
    assert "StepLimit" in out


def test_run_named_strategy(capsys):
    path = str(PROGRAMS / "teleport.qlam")
    _, default_out, _ = run_cli(capsys, "run", path, "--json")
    code, rightmost_out, _ = run_cli(capsys, "run", path, "--json",
                                     "--strategy", "rightmost")
    assert code == 0
    # chooser invariance: converged results agree (entry order may differ)
    assert sorted(default_out.splitlines()) == sorted(rightmost_out.splitlines())


def test_both_teleport_programs_deliver_the_payload():
    """The measured and the deferred-correction teleport programs both leave
    the payload on the receiving wire."""
    from qlam.ensemble import evaluate
    from qlam.quantum import QubitValue, amps_close
    from kernel_oracles import factor_split_dense, uniform_state

    psi = QubitValue(1, {0: 0.6, 1: 0.8})

    measured = parse_program((PROGRAMS / "teleport.qlam").read_text())
    res = evaluate(measured.main)
    assert res.status == "Converged" and len(res.ensemble) == 4
    for term, _ in res.ensemble.entries:
        _, payload = factor_split_dense(term.value, 2)
        assert amps_close(payload, psi, 1e-7)

    deferred = parse_program((PROGRAMS / "teleport_deferred.qlam").read_text())
    res = evaluate(deferred.main)
    assert res.status == "Converged" and len(res.ensemble) == 1
    final = res.ensemble.entries[0][0].value
    bits, payload = factor_split_dense(final, 2)
    assert amps_close(bits, uniform_state(2), 1e-7)
    assert amps_close(payload, psi, 1e-7)


# ---------------------------------------------------------------------------
# deep nesting


def _stacked_definitions(count: int, lets: int) -> str:
    """``count`` definitions of ``lets`` lets each, every one ending in a
    use of the one before, so inlining stacks their depths."""
    defs = []
    for k in range(count):
        body = "".join(f"let d{k}x{i} = H d{k}x{i - 1} in " for i in range(1, lets + 1))
        tail = f"d{k - 1} d{k}x{lets}" if k else f"d{k}x{lets}"
        defs.append(f"d{k} d{k}x0 = {body}{tail};")
    return "\n".join(defs) + f"\nmain = M{{1}} (d{count - 1} !|0>);\n"


HOSTILE = {
    "lets": let_chain(600),
    "parentheses": OPEN["parentheses"](2000),
    "applications": "main = " + r"(\x. x) " * 3000 + "!|0>;\n",
    "definitions": _stacked_definitions(3, 200),
}


@pytest.mark.parametrize("command", ["check", "run", "fmt"])
@pytest.mark.parametrize("shape", sorted(HOSTILE))
def test_too_deep_nesting_exits_two(tmp_path, capsys, shape, command):
    path = tmp_path / f"{shape}.qlam"
    path.write_text(HOSTILE[shape])
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")
    if shape == "parentheses":
        assert f"source nested deeper than {_MAX_OPEN} levels" in err
    else:
        assert f"term nested deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [("check",), ("run",), ("run", "--sample", "--seed", "0"),
                                     ("fmt",)])
@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_the_limit_exits_zero(tmp_path, capsys, shape, command):
    path = tmp_path / f"{shape}.qlam"
    path.write_text(NESTED[shape](MAX_NESTING))
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_fmt_output_at_the_limit_parses_again(tmp_path, capsys, shape):
    """fmt prints a let as an applied abstraction and adds parentheses,
    but the printed term is the same term, so it is inside the limit too."""
    path = tmp_path / f"{shape}.qlam"
    path.write_text(NESTED[shape](MAX_NESTING))
    code, out, _ = run_cli(capsys, "fmt", str(path))
    assert code == 0
    assert alpha_eq(parse_program(out).main, parse_program(path.read_text()).main)
    path.write_text(out)
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("flags", [[], ["--sample", "--seed", "0"], ["--json"]])
def test_run_prints_a_normal_form_deeper_than_its_source(tmp_path, capsys, flags):
    """Each of the 6 uses of f unfolds to 800 applications of H, so the
    source nests about 800 levels and the normal form 4,800: it prints
    without a traceback."""
    f_chain = "f (" * 5 + "f y" + ")" * 5
    h_chain = "H (" * 799 + "H x" + ")" * 799
    path = tmp_path / "deep.qlam"
    path.write_text(f"main = (\\!f. \\y. {f_chain}) !(\\x. {h_chain});\n")
    code, out, err = run_cli(capsys, "run", *flags, str(path))
    assert code == 0 and err == ""
    normal_form = "\\y. " + "H (" * 4799 + "H y" + ")" * 4799
    assert (json.dumps(normal_form) if "--json" in flags else normal_form) in out


def test_run_400_let_chain(tmp_path, capsys):
    """Substitution recurses only along the path to an occurrence, so a long
    let-chain evaluates without exhausting the stack."""
    path = tmp_path / "lets.qlam"
    path.write_text(let_chain(400))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 0 and err == ""
    assert out.startswith("status: Converged")


# ---------------------------------------------------------------------------
# python -m qlam


def run_module(*argv, address_space=None):
    """``python -m qlam argv`` in a child process, whose address space is
    limited to ``address_space`` bytes if given."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, "-m", "qlam", *argv], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          timeout=120, preexec_fn=limit)


def test_python_m_qlam_runs_the_cli():
    proc = run_module("run", "programs/epr.qlam", "--ensemble", "--json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "epr.ensemble.json").read_bytes()


def test_python_m_qlam_deep_nesting_prints_no_traceback(tmp_path):
    path = tmp_path / "lets.qlam"
    path.write_text(HOSTILE["lets"])
    proc = run_module("run", str(path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"parse error: ") and b"Traceback" not in proc.stderr


SIZE_ERROR = (f"error: register of {1 << 21} amplitudes exceeds "
              f"the maximum of {MAX_AMPLITUDES}\n").encode()


@pytest.mark.parametrize("wires", [21, 24])
def test_register_size_limit_exits_one_while_running(tmp_path, wires):
    """H on each of 21 or more wires would store 2**wires amplitudes: the
    run stops at the first gate factor whose output passes MAX_AMPLITUDES,
    inside a 1 GB address space, with one error line."""
    path = tmp_path / "wide.qlam"
    path.write_text(f"main = ({'*'.join('H' * wires)}) !|{'0' * wires}>;\n")
    proc = run_module("run", str(path), address_space=1 << 30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", SIZE_ERROR)


def test_register_size_limit_exits_two_while_parsing(tmp_path):
    """A tensor of 21 two-amplitude registers stops before the product that
    passes MAX_AMPLITUDES is built."""
    path = tmp_path / "tensor.qlam"
    path.write_text(f"main = {' * '.join(['((0.6,0)!|0> + (0.8,0)!|1>)'] * 21)};\n")
    proc = run_module("run", str(path), address_space=1 << 30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", SIZE_ERROR)


HUGE_AMPLITUDE = "main = (1e308,1.5e308)!|0>;\n"


@pytest.mark.parametrize("command", ["check", "run"])
def test_overflowing_register_mass_exits_one(tmp_path, command):
    """Squared amplitudes, or a modulus, past the float range are a check
    violation (mass inf), not an OverflowError."""
    path = tmp_path / "huge.qlam"
    for source in ("main = (1e300,0)!|0> + (1e300,0)!|1>;\n", HUGE_AMPLITUDE):
        path.write_text(source)
        proc = run_module(command, str(path))
        assert proc.returncode == 1
        assert b"[root] superposition: register amplitudes have squared mass inf, expected 1" \
            in proc.stdout
        assert b"Traceback" not in proc.stderr


def test_overflowing_amplitude_modulus_formats(tmp_path):
    path = tmp_path / "huge.qlam"
    path.write_text(HUGE_AMPLITUDE)
    proc = run_module("fmt", str(path))
    assert proc.returncode == 0
    assert proc.stdout == b"main = (1e+308,1.5e+308)!|0>;\n"
    term = parse_program(proc.stdout.decode()).main
    assert term == parse_program(HUGE_AMPLITUDE).main
    assert not check(term).verdict


@pytest.mark.parametrize("entry, why", [("1e999", "matrix entry is not finite"),
                                         ("1e200", "matrix is not unitary")])
def test_gate_past_the_float_range_prints_one_error_line(tmp_path, entry, why):
    """A gate entry past the float range, or one whose products are, is a
    parse error with no numpy warning before it."""
    path = tmp_path / "gate.qlam"
    path.write_text(f"gate G = [[{entry}, 0], [0, 1]];\nmain = G !|0>;\n")
    proc = run_module("fmt", str(path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"parse error: 1:6: gate G: {why}\n".encode()
