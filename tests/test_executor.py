"""Differential tests: ``run`` against the naive per-node reference of
``reference.py``.

The reference charges one step per node exactly as the cost model in
the ``flowchart`` docstring says, with no compilation and no block
charging, so any disagreement in status, steps, value or fault detail
is a bug in the executor.  On small programs every fuel from 1 to
``steps + 1`` is tried, which pins the step count at which a run is
cut off or faults.
"""

import random

import pytest

from srtlab.build import (
    QA, QNIL, V, asg, atomp, cons, eq, hd, iff, prog, seq, tl, univ, wh,
)
from srtlab.flowchart import Quote, RunResult, SelfRef, decode, encode, run
from srtlab.selfint import univ_program
from srtlab.sexpr import NIL, Pair, parse, sexpr_print, to_unary
from srtlab.srt import DEMO_NAMES, demo_program, kleene_fixpoint

from proggen import (
    random_inputs, random_loop_program, random_sexpr, random_tiny_program,
)
from reference import _agree, dec

MODES = ("plain", "reflective")


# ---------------------------------------------------------------------------
# fuel sweeps

def check_every_fuel(p, args, mode, fuel=10**5):
    """Agree at ``fuel``, then at every fuel up to the steps it took + 1."""
    steps = _agree(p, args, fuel, mode).steps
    for f in range(1, min(steps, fuel) + 2):
        _agree(p, args, f, mode)


def check_some_fuels(p, args, mode, fuel=10**6, count=12):
    steps = _agree(p, args, fuel, mode).steps
    for f in {1, 2, steps - 1, steps, steps + 1,
              *range(1, steps, max(1, steps // count))}:
        if f > 0:
            _agree(p, args, f, mode)


# ---------------------------------------------------------------------------
# programs

def _reflective_program(rng, callees, depth=3):
    """A random two-input program whose expressions use ``*`` and univ
    on the given encoded callees (some good, some not)."""
    pool = ("q", "d", "x", "out")

    def expr(k):
        r = rng.random()
        if k <= 0 or r < 0.25:
            return V(rng.choice(pool)) if rng.random() < 0.7 else \
                QA(rng.choice("ab1"))
        if r < 0.35:
            return univ(rng.choice(callees), expr(k - 1))
        if r < 0.4:
            return SelfRef()
        op = rng.choice((hd, tl, atomp, cons, eq))
        return op(expr(k - 1), expr(k - 1)) if op in (cons, eq) else op(expr(k - 1))

    cmds = [asg(rng.choice(pool), expr(depth)) for _ in range(rng.randint(1, 3))]
    cmds.append(iff(expr(2), asg("out", expr(2)), asg("x", expr(2))))
    cmds.append(asg("x", V("d")))
    # the test's value is x, which shrinks, so the loop ends
    cmds.append(wh(hd(cons(V("x"), expr(1))),
                   seq(asg("out", expr(2)), asg("x", tl(V("x"))))))
    return prog(("q", "d"), seq(*cmds), "out")


def _callees(rng):
    good = [Quote(encode(random_tiny_program(rng, inputs=("d",))))
            for _ in range(3)]
    two_inputs = Quote(encode(random_tiny_program(rng)))
    garbage = Quote(parse("(not a program)"))
    return good + [two_inputs, garbage, V("q")]


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("mode", MODES)
def test_tiny_programs_agree_at_every_fuel(mode):
    rng = random.Random(101)
    for _ in range(25):
        p = random_tiny_program(rng)
        for d in random_inputs(rng, 2):
            check_every_fuel(p, [d, random_sexpr(rng)], mode)


def test_many_constants_agree():
    # one straight-line block of 300 quoted constants, charged at its end
    rng = random.Random(111)
    body = seq(*[asg(rng.choice("xyz"), cons(QA(str(i)), V(rng.choice("dxyz"))))
                 for i in range(300)], asg("out", eq(V("x"), QA("7"))))
    for mode in MODES:
        check_some_fuels(prog(("d",), body, "out"), [parse("(a)")], mode)


@pytest.mark.parametrize("mode", MODES)
def test_loop_programs_agree_at_every_fuel(mode):
    rng = random.Random(202)
    for _ in range(12):
        p = random_loop_program(rng)
        for d in random_inputs(rng, 2, max_nodes=9):
            check_every_fuel(p, [d], mode)


@pytest.mark.parametrize("mode", MODES)
def test_reflective_forms_agree_at_every_fuel(mode):
    rng = random.Random(303)
    callees = _callees(rng)
    for _ in range(150):
        p = _reflective_program(rng, callees)
        q = encode(random_tiny_program(rng, inputs=("d",)))
        check_every_fuel(p, [q, random_sexpr(rng, 9)], mode, fuel=3000)


@pytest.mark.parametrize("name", DEMO_NAMES)
@pytest.mark.parametrize("mode", MODES)
def test_demos_agree(name, mode):
    p = demo_program(name)
    ident = encode(decode(parse("((x) (:= out x) out)")))
    for q, d in ((ident, to_unary(2)), (parse("a"), parse("(b c)"))):
        check_some_fuels(p, [q, d], mode, fuel=2 * 10**4)
    check_some_fuels(kleene_fixpoint(p), [to_unary(2)], mode, fuel=2 * 10**4)


@pytest.mark.parametrize("mode", MODES)
def test_univ_program_agrees_on_loop_programs(mode):
    rng = random.Random(404)
    u = univ_program()
    for _ in range(3):
        p = random_loop_program(rng)
        for d in random_inputs(rng, 2, max_nodes=7):
            check_some_fuels(u, [encode(p), d], mode, fuel=10**7)


#: ``hd``, ``tl`` and ``=`` on the values that tell their compiled forms
#: apart: atoms and pairs on either side of ``=``, a quoted atom in either
#: order, distinct atoms of one name (every parsed token is a fresh atom),
#: and equal pairs that share no node.  ``=`` is both a value and a test.
OPERATOR_CASES = [
    ("((d) (:= out (cons (hd d) (tl d))) out)", ["()", "a", "(a b)"]),
    ("((d) (if (= d (QUOTE a)) (:= out (= (QUOTE a) d)) "
     "(:= out (cons (= (QUOTE a) d) d))) out)", ["(a)", "a"]),
    ("((d) (if (= (hd d) (tl d)) (:= out d) (:= out (= (tl d) (hd d)))) out)",
     ["(a . a)", "((a b) a b)", "((a b) a c)", "((a) . a)"]),
]


@pytest.mark.parametrize("text, args", OPERATOR_CASES,
                         ids=["hd-tl", "quoted-atom", "generic"])
@pytest.mark.parametrize("mode", MODES)
def test_operators_agree_at_every_fuel(text, args, mode):
    p = dec(text)
    for arg in args:
        check_every_fuel(p, [parse(arg)], mode)
        check_every_fuel(univ_program(), [encode(p), parse(arg)], mode)


@pytest.mark.parametrize("text, args, status", [
    ("((q d) (:= out (cons q (cons d *))) out)", ["a", "b"], None),
    ("((q d) (; (:= x (cons q d)) (:= out (univ q (hd x)))) out)",
     ["((x) (:= out (cons x x)) out)", "b"], None),
    ("((q d) (:= out (cons d (univ q d))) out)", ["(not a program)", "b"],
     RunResult.ERROR),
    ("((q d) (:= out (cons d (univ q d))) out)",
     ["((x y) (:= out x) out)", "b"], RunResult.ERROR),
    ("((q d) (while (univ q d) (:= d (tl d))) d)",
     ["((x) (:= out (tl x)) out)", "(1 1 1)"], None),
    ("((q d) (if (= (univ q d) *) (:= out q) (:= out d)) out)",
     ["((x) (:= out x) out)", "(1)"], None),
])
@pytest.mark.parametrize("mode", MODES)
def test_faults_agree_at_every_fuel(text, args, status, mode):
    p = decode(parse(text))
    values = [parse(a) for a in args]
    check_every_fuel(p, values, mode)
    got = run(p, values, 10**5, mode)
    if mode == "plain":
        assert got.status == RunResult.ERROR
    elif status is not None:
        assert got.status == status


# ---------------------------------------------------------------------------
# univ on the running program's own text

def _countdown():
    return prog(("d",), iff(V("d"),
                            asg("out", cons(QA("1"), univ(SelfRef(), tl(V("d"))))),
                            asg("out", QNIL())), "out")


def _factorial():
    """Unary n!: n times the factorial of n - 1, through univ on ``*``."""
    return prog(("d",), iff(
        V("d"),
        seq(asg("r", univ(SelfRef(), tl(V("d")))),
            asg("i", V("d")),
            wh(V("i"),
               asg("j", V("r")),
               wh(V("j"), asg("out", cons(QA("1"), V("out"))),
                  asg("j", tl(V("j")))),
               asg("i", tl(V("i"))))),
        asg("out", cons(QA("1"), QNIL()))), "out")


def _fixpoint_factorial():
    return kleene_fixpoint(demo_program("factorial_reflective"))


@pytest.mark.parametrize("build", [_countdown, _factorial, _fixpoint_factorial])
@pytest.mark.parametrize("source", ["parsed", "built"])
def test_self_recursion_agrees(build, source):
    p = build()
    if source == "parsed":  # its own text is a parsed value, not encode's
        p = decode(parse(sexpr_print(encode(p))), allow_reserved=True)
    for n in range(4):
        check_some_fuels(p, [to_unary(n)], "reflective")


@pytest.mark.parametrize("n", [14, 15, 16, 17, 31, 32, 33])
def test_self_recursion_across_chain_ends_agrees_at_every_fuel(n):
    # univ calls nest in chains of 16 generators, the running program's
    # first: the 16th call and every 16th after it starts a new chain
    check_every_fuel(_countdown(), [to_unary(n)], "reflective")


def _ping(tag):
    """On ``(own text, other text . n)``, ``tag`` consed onto the other
    program's result on ``(other text, own text . n - 1)``, and ``()``
    when n is 0: mutual recursion by univ on text, not on ``*``."""
    own, other, n = hd(V("d")), hd(tl(V("d"))), tl(tl(V("d")))
    return prog(("d",), iff(n, asg("out", cons(QA(tag), univ(
        other, cons(other, cons(own, tl(n)))))), asg("out", QNIL())), "out")


def test_mutual_recursion_through_quoted_texts_agrees():
    ping, pong = _ping("ping"), _ping("pong")
    n = 45
    args = [Pair(encode(ping), Pair(encode(pong), to_unary(n)))]
    check_some_fuels(ping, args, "reflective", count=50)
    got = run(ping, args, 10**5, "reflective")
    tags = " ".join(("ping", "pong")[i % 2] for i in range(n))
    assert got.halted and sexpr_print(got.value) == f"({tags})"


def test_a_fault_deep_in_a_univ_nest_keeps_its_steps():
    p = prog(("d",), iff(V("d"), asg("out", univ(SelfRef(), tl(V("d")))),
                         asg("out", univ(QA("junk"), V("d")))), "out")
    args = [to_unary(40)]
    got = run(p, args, 10**5, "reflective")
    # 6 steps a level down to the 40th univ call, then (QUOTE junk), d
    # and the failing dispatch after the last if test's 2
    assert (got.status, got.steps, got.detail) == (
        RunResult.ERROR, 6 * 40 + 5, "univ on a non-program: expected program: junk")
    check_every_fuel(p, args, "reflective")


def _with_name(name):
    """Countdown that also assigns ``name``, read on the way down."""
    return prog(("d",), iff(V("d"),
                            seq(asg(name, tl(V("d"))),
                                asg("out", cons(QA("1"), univ(SelfRef(), V(name))))),
                            asg("out", QNIL())), "out")


# programs whose text does not decode back to them: ``univ *`` must decode
# that text and end as it says, not run the caller again
@pytest.mark.parametrize("p, status, steps, detail", [
    (prog(("d",), seq(asg("*", QA("a")),
                      asg("out", univ(SelfRef(), tl(V("d"))))), "out"),
     RunResult.ERROR, 6,
     "univ on a non-program: '*' is not a legal assigned variable: *"),
    (prog(("d",), seq(asg("()", QA("a")),
                      asg("out", univ(SelfRef(), tl(V("d"))))), "out"),
     RunResult.ERROR, 6,
     "univ on a non-program: assigned variable must be a non-() atom: ()"),
    (_with_name("*"), RunResult.ERROR, 9,
     "univ on a non-program: '*' is not a legal assigned variable: *"),
    (_with_name("()"), RunResult.ERROR, 9,
     "univ on a non-program: assigned variable must be a non-() atom: ()"),
    # decoded, the read of the variable * becomes a read of the text
    (prog(("d",), iff(V("d"),
                      asg("out", cons(V("*"), univ(SelfRef(), tl(V("d"))))),
                      asg("out", QNIL())), "out"),
     RunResult.HALTED, 25, None),
    (prog(("d",), iff(V("d"),
                      asg("out", cons(V("()"), univ(SelfRef(), tl(V("d"))))),
                      asg("out", QNIL())), "out"),
     RunResult.ERROR, 7,
     "univ on a non-program: variable must be a non-() atom: ()"),
    (prog(("*",), asg("out", univ(SelfRef(), tl(V("*")))), "out"),
     RunResult.ERROR, 4,
     "univ on a non-program: '*' is not a legal input variable: *"),
    (prog(("d",), asg("()", univ(SelfRef(), tl(V("d")))), "()"),
     RunResult.ERROR, 4,
     "univ on a non-program: assigned variable must be a non-() atom: ()"),
    (prog(("q", "d"), asg("out", univ(SelfRef(), tl(V("d")))), "out"),
     RunResult.ERROR, 4, "univ needs a one-input program"),
])
def test_univ_on_own_text_that_decodes_otherwise(p, status, steps, detail):
    d = parse("(1 1)")
    args = [d] if len(p.inputs) == 1 else [NIL, d]
    check_every_fuel(p, args, "reflective")
    got = run(p, args, 10**5, "reflective")
    assert (got.status, got.steps, got.detail) == (status, steps, detail)
