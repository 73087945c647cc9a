import contextlib
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from srtlab.cli import main
from srtlab.experiments import EXPERIMENTS
from srtlab.flowchart import decode, encode
from srtlab.selfint import futamura
from srtlab.sexpr import parse, sexpr_print
from srtlab.srt import DEMO_NAMES, demo_program, moss_fixpoint

from proggen import random_loop_program

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def proj1_file(tmp_path):
    path = tmp_path / "proj1.sexp"
    path.write_text(sexpr_print(encode(demo_program("proj1"))) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_verb(capsys, proj1_file):
    code, out, _ = run_cli(capsys, "run", proj1_file, "(a b)", "c", "--steps")
    assert code == 0
    value, steps = out.splitlines()
    assert value == "(a b)"
    assert steps == "steps 3"


def test_run_quine_file_round_trips(capsys, tmp_path, proj1_file):
    code, out, _ = run_cli(capsys, "fixpoint", proj1_file, "--method", "kleene")
    assert code == 0
    quine_path = tmp_path / "quine.sexp"
    quine_path.write_text(out)
    code, out2, _ = run_cli(capsys, "run", str(quine_path), "()", "--steps")
    assert code == 0
    printed, steps_line = out2.splitlines()
    assert printed == out.strip()
    assert steps_line.startswith("steps ")


def test_demo_self_recognizer_loop(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "demo", "self-recognizer")
    assert code == 0
    demo_path = tmp_path / "sr.sexp"
    demo_path.write_text(out)
    code, fixed, _ = run_cli(capsys, "fixpoint", str(demo_path))
    fixed_path = tmp_path / "srstar.sexp"
    fixed_path.write_text(fixed)
    code, answer, _ = run_cli(capsys, "run", str(fixed_path), fixed.strip())
    assert code == 0
    assert answer.strip() == "1"
    code, answer, _ = run_cli(capsys, "run", str(fixed_path), "(a)")
    assert answer.strip() == "0"


def test_specialize_verb(capsys, proj1_file):
    code, out, _ = run_cli(capsys, "specialize", proj1_file, "s")
    assert code == 0
    assert out.strip() == "((d) (; (:= q (QUOTE s)) (:= out q)) out)"


def test_futamura_verb(capsys, tmp_path):
    ident = tmp_path / "ident.sexp"
    ident.write_text("((x) (:= out x) out)\n")
    code, out, _ = run_cli(capsys, "futamura", "target", str(ident))
    assert code == 0
    target = decode(parse(out.strip()), allow_reserved=True)
    assert target.inputs == ("d",)


def test_trm_lane(capsys, tmp_path):
    empty = tmp_path / "empty.1#"
    empty.write_text("\n")
    code, out, _ = run_cli(capsys, "fixpoint", str(empty), "--lang", "trm",
                           "--method", "moss")
    assert code == 0
    quine = tmp_path / "quine.1#"
    quine.write_text(out)
    code, out2, _ = run_cli(capsys, "run", str(quine), "1#1", "--lang", "trm")
    assert code == 0
    assert out2.strip() == out.strip()


@pytest.mark.parametrize("text, argv, err", [
    ("1####", [], "abnormal_halt after 1 steps\n"),
    ("1###1####", ["--fuel", "50"], "fuel_exhausted after 50 steps\n"),
    ("1#", ["a1"], "error: 1# arguments must be over {1,#}: 'a1'\n"),
], ids=["abnormal-halt", "fuel-exhausted", "bad-argument"])
def test_trm_run_failures_exit_1(capsys, tmp_path, text, argv, err):
    path = tmp_path / "p.1#"
    path.write_text(text + "\n")
    code, out, got = run_cli(capsys, "run", str(path), *argv, "--lang", "trm")
    assert (code, out, got) == (1, "", err)


def test_fixpoint_and_futamura_take_no_fuel(capsys, proj1_file):
    # the constructions are total, so their verbs have no --fuel to give
    for argv in (["fixpoint", proj1_file, "--method", "moss"],
                 ["futamura", "target", proj1_file]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--fuel", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --fuel 5" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "fixpoint", proj1_file, "--method", "moss")
    assert code == 0
    assert out == sexpr_print(encode(moss_fixpoint(demo_program("proj1")))) + "\n"
    code, out, _ = run_cli(capsys, "futamura", "target", proj1_file)
    assert code == 0
    target = futamura("target", demo_program("proj1"))
    assert out == sexpr_print(encode(target)) + "\n"


def test_fast_assign_flag(capsys, tmp_path):
    prog = tmp_path / "mv.1#"
    from srtlab.trm import trm_move
    prog.write_text(trm_move(1, 2).raw + "\n")
    code, out, _ = run_cli(capsys, "run", str(prog), "1#1", "--lang", "trm",
                           "--variant", "fast-assign", "--steps")
    assert code == 0
    assert out.splitlines()[1] == "steps 1"


def test_fuel_exhaustion_exit_code(capsys, proj1_file):
    code, out, _ = run_cli(capsys, "fixpoint", proj1_file)
    quine_text = out
    path = proj1_file.replace("proj1", "q")
    with open(path, "w") as fh:
        fh.write(quine_text)
    code, out, err = run_cli(capsys, "run", path, "()", "--fuel", "5")
    assert code == 1
    assert "fuel_exhausted" in err


def test_unbounded_univ_nesting_exits_on_fuel(capsys, tmp_path):
    path = tmp_path / "self.sexp"
    path.write_text("((d) (:= out (univ * d)) out)\n")
    code, _, err = run_cli(capsys, "run", str(path), "a", "--mode",
                           "reflective", "--fuel", "100000")
    assert code == 1
    assert "fuel_exhausted after 100000 steps" in err


def test_program_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.sexp"
    bad.write_text("((q q) (:= out q) out)\n")
    code, _, err = run_cli(capsys, "run", str(bad), "a", "b")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv,name,text,message", [
    (["futamura", "target"], None, None,
     "stage 'target' needs a source program"),
    (["run", "{path}"], "missing.sexp", None,
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    (["run", "{path}", "--lang", "trm"], "missing.1#", None,
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    (["run", "{path}"], "bad.sexp", "(", "{path}: unbalanced '(' (at offset 0)"),
    (["run", "{path}", "--lang", "trm"], "bad.1#", "#\n",
     "{path}: instruction must start with 1s (at offset 0)"),
    (["run", "{path}"], "bin.sexp", b"\xff\xfe",
     "{path}: 'ascii' codec can't decode byte 0xff in position 0: "
     "ordinal not in range(128)"),
    (["run", "{path}", "--lang", "trm"], "bin.1#", b"\xff\xfe",
     "{path}: 'ascii' codec can't decode byte 0xff in position 0: "
     "ordinal not in range(128)"),
])
def test_program_errors_are_reported_exactly(capsys, tmp_path, argv, name,
                                             text, message):
    path = tmp_path / name if name else None
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(path=path)}\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("fuel", ["0", "-5", "abc", "1.5"])
@pytest.mark.parametrize("argv", [["run", "f.sexp", "a"],
                                  ["run", "f.1#", "--lang", "trm"],
                                  ["experiment", "trm-compare"],
                                  ["experiment", "sizes"]])
def test_bad_fuel_is_a_usage_error(capsys, argv, fuel):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--fuel", fuel])
    assert info.value.code == 2
    assert "--fuel" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", ["0", "-3", "abc"])
def test_bad_n_max_is_a_usage_error(capsys, n_max):
    with pytest.raises(SystemExit) as info:
        main(["experiment", "factorial-curve", "--n-max", n_max])
    assert info.value.code == 2
    assert "--n-max" in capsys.readouterr().err


def test_unwritable_json_path_is_a_program_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "experiment", "sizes", "--json", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_a_quiet_program_error(unbuffered):
    # the reader has gone before the demo prints; buffered, the write
    # fails only when stdout is flushed
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(DEMOS.parent / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "srtlab", "demo", "proj1"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception" not in proc.stderr


def test_unknown_demo_is_a_program_error(capsys):
    code, _, err = run_cli(capsys, "demo", "nope")
    assert code == 1 and "unknown demo" in err


def test_experiment_json_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "experiment", "sizes", "--json", str(path),
                             "--seed", "3")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["experiment"] == "sizes"
    assert {v["claim"] for v in report["verdicts"]} == \
        {"AC12-sharing-strict", "AC12-sharing-additive"}
    assert all(v["status"] == "pass" for v in report["verdicts"])


def test_every_demo_reparses_and_decodes(capsys):
    from srtlab.srt import DEMO_NAMES
    for name in DEMO_NAMES:
        code, out, _ = run_cli(capsys, "demo", name.replace("_", "-"))
        assert code == 0
        reparsed = decode(parse(out.strip()))
        assert reparsed.inputs == ("q", "d")


def test_experiment_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "experiment", "trm-compare")
    assert code == 0
    report = json.loads(out)
    claims = {v["claim"]: v["status"] for v in report["verdicts"]}
    assert claims["AC10-moss-setup-window"] == "pass"
    assert claims["AC10-kleene-moss-ratio"] == "pass"
    assert claims["AC10-fast-assign"] == "pass"


@pytest.mark.parametrize("name,digest", [
    ("sizes", "e129689f53c6"),
    ("trm-compare", "893a02f0e2e0"),
    ("overhead", "1acd12254346"),
    ("factorial-curve", "cc378a8dc3db"),
])
def test_experiment_json_is_pinned(capsys, name, digest):
    # twice in one process: a second run goes through every cache the
    # first one filled, such as the 1# chains of a program's second run
    for _ in range(2):
        code, out, _ = run_cli(capsys, "experiment", name, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


def test_experiment_sizes_ignores_fuel(capsys):
    # it runs no fuel-bounded program: both constructions are total
    code, out, err = run_cli(capsys, "experiment", "sizes", "--fuel", "5")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "experiment", "sizes") == (0, out, "")


def test_trm_compare_on_too_little_fuel_passes_no_verdict(capsys):
    # the fixpoints build, but the proj1 runs stop short of halting, so no
    # AC10 verdict may read their figures
    code, out, err = run_cli(capsys, "experiment", "trm-compare", "--fuel",
                             "20000")
    assert (code, err) == (0, "")
    report = json.loads(out)
    verdicts = report["verdicts"]
    assert [v["claim"] for v in verdicts] == [
        "AC10-moss-setup-window", "AC10-kleene-moss-ratio", "AC10-fast-assign"]
    assert all(v["status"] == "report-only" for v in verdicts)
    # each datapoint says that its standard run stopped at the fuel
    assert all((p["steps"], p["status"]) == (20000, "fuel_exhausted")
               for p in report["datapoints"])
    assert all(p["fast_status"] == "halted" for p in report["datapoints"])


def test_factorial_curve_exhaustion_rules_are_pinned(capsys):
    # the univ curve skips n = 4..7 after two exhaustions in a row; the
    # reflective curve still runs n = 8..10, each of which is exhausted
    code, out, _ = run_cli(capsys, "experiment", "factorial-curve", "--n-max",
                           "10", "--fuel", "100000", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("1b8a80f3efec")


@pytest.mark.parametrize("name,digest", [
    ("futamura_tour", "553a9a623b60"),
    ("quine_tour", "9bb49997ce47"),
    ("trm_tour", "ff8e8d7324fc"),
])
def test_demo_output_is_pinned(capsys, name, digest):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


# ---------------------------------------------------------------------------
# generated command lines

#: Each verb's positional arguments and its own options with candidate
#: values.  FILE, MISSING, DIRECTORY and OUT stand for paths made in the test.
FILE, MISSING, DIRECTORY, OUT = range(4)
VALUES = ["a", "(a b)", "()", "1#1", "#", "(", "a)", ". a", "é"]
VERBS = {
    "run": ([FILE, VALUES], {
        "--lang": ["flow", "trm"], "--mode": ["plain", "reflective"],
        "--variant": ["standard", "fast-assign"], "--steps": None}),
    "specialize": ([FILE, VALUES], {"--eliminate-dead-code": None}),
    "fixpoint": ([FILE], {"--method": ["kleene", "moss"],
                          "--lang": ["flow", "trm"]}),
    "demo": ([[*(n.replace("_", "-") for n in DEMO_NAMES), "nope"]], {}),
    "futamura": ([["target", "compiler", "cogen"], FILE], {}),
    "experiment": ([sorted(EXPERIMENTS)], {
        "--json": ["-", OUT, MISSING, DIRECTORY], "--n-max": ["1", "3", "0"],
        "--seed": ["0", "7", "-1"]}),
}
#: The verbs that take ``--fuel``.
FUELED = {"run", "experiment"}
NOISE = ["--steps", "--lang", "frobnicate", "-", "--", "1.5", "-1", "", MISSING,
         DIRECTORY]
PROGRAM_TEXT = "() ab*1#.;:=QUOTE univ while if cons hd tl atom? \né"
programs = st.one_of(
    st.integers(0, 10**6).map(
        lambda seed: sexpr_print(encode(random_loop_program(random.Random(seed))))),
    st.sampled_from(DEMO_NAMES).map(lambda n: sexpr_print(encode(demo_program(n)))),
    st.text(alphabet="1#", max_size=40),
).map(str.encode)
junk = st.one_of(st.text(alphabet=PROGRAM_TEXT, max_size=40),
                 st.text(alphabet="1# \n2", max_size=20)).map(str.encode)
file_texts = programs | programs | junk | st.binary(max_size=16)


@st.composite
def command_lines(draw):
    """A verb's argv, mostly well formed: positionals may be cut short,
    options are drawn from the verb's own, and a noise entry may be
    inserted anywhere."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    positionals, options = VERBS[verb]
    argv = [verb]
    count = st.integers(0, len(positionals))
    for choices in positionals[:draw(st.just(len(positionals)) | count)]:
        argv.append(FILE if choices == FILE else draw(st.sampled_from(choices)))
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)
                     if options else st.just([])):
        argv.append(name)
        if options[name] is not None:
            argv.append(draw(st.sampled_from(options[name])))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(file_texts, min_size=1, max_size=2), command_lines(),
       st.integers(0, 1), st.integers(1, 3000))
def test_generated_command_lines_keep_the_exit_code_contract(files, argv, which,
                                                             fuel):
    # a --fuel last overrides any other, so every run stays short; a verb
    # without --fuel runs nothing, or only a construction, which halts
    with tempfile.TemporaryDirectory() as tmp:
        paths = {MISSING: os.path.join(tmp, "missing"), DIRECTORY: tmp,
                 OUT: os.path.join(tmp, "out.json")}
        for i, data in enumerate(files):
            with open(os.path.join(tmp, f"f{i}"), "wb") as fh:
                fh.write(data)
        paths[FILE] = os.path.join(tmp, f"f{which % len(files)}")
        argv = [paths.get(arg, arg) if isinstance(arg, int) else arg
                for arg in argv]
        if FUELED.intersection(argv):  # noise may come before the verb
            argv += ["--fuel", str(fuel)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
