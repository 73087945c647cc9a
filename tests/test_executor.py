"""Differential tests: ``run`` against a naive per-node reference.

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
    QA, V, asg, atomp, cons, eq, hd, iff, prog, seq, tl, univ, wh,
)
from srtlab.flowchart import (
    Assign, Cons, DecodeError, Eq, Hd, IsAtom, Quote, RunResult, SelfRef,
    Seq, Tl, UnivCall, Var, While, decode, encode, run,
)
from srtlab.proggen import (
    random_inputs, random_loop_program, random_sexpr, random_tiny_program,
)
from srtlab.selfint import univ_program
from srtlab.sexpr import NIL, ONE, Atom, Pair, equal, is_nil, parse, to_unary
from srtlab.srt import DEMO_NAMES, demo_program, kleene_fixpoint

MODES = ("plain", "reflective")


# ---------------------------------------------------------------------------
# the reference evaluator

class _Stop(Exception):
    def __init__(self, status, detail=None):
        self.status = status
        self.detail = detail


class Reference:
    def __init__(self, fuel, reflective):
        self.steps, self.fuel, self.reflective = 0, fuel, reflective

    def tick(self):
        self.steps += 1
        if self.steps > self.fuel:
            self.steps = self.fuel
            raise _Stop(RunResult.FUEL)

    def program(self, p, args):
        env = dict(zip(p.inputs, args))
        self.command(p.body, env, p)
        self.tick()
        return env.get(p.output, NIL)

    def command(self, c, env, p):
        if type(c) is Assign:
            value = self.expr(c.expr, env, p)
            self.tick()
            env[c.var] = value
        elif type(c) is Seq:
            self.command(c.first, env, p)
            self.command(c.second, env, p)
        elif type(c) is While:
            while True:
                self.tick()
                if is_nil(self.expr(c.test, env, p)):
                    break
                self.command(c.body, env, p)
        else:
            self.tick()
            test = self.expr(c.test, env, p)
            self.command(c.orelse if is_nil(test) else c.then, env, p)

    def expr(self, e, env, p):
        if type(e) is SelfRef and not self.reflective:
            raise _Stop(RunResult.ERROR, "'*' outside reflective mode")
        if type(e) is UnivCall and not self.reflective:
            raise _Stop(RunResult.ERROR, "'univ' call outside reflective mode")
        fields = {Hd: ("arg",), Tl: ("arg",), IsAtom: ("arg",),
                  Cons: ("left", "right"), Eq: ("left", "right"),
                  UnivCall: ("prog", "arg")}.get(type(e), ())
        args = [self.expr(getattr(e, f), env, p) for f in fields]
        self.tick()
        if type(e) is Var:
            return env.get(e.name, NIL)
        if type(e) is Quote:
            return e.value
        if type(e) is SelfRef:
            return encode(p)
        if type(e) in (Hd, Tl):
            v = args[0]
            return NIL if type(v) is not Pair else v.head if type(e) is Hd else v.tail
        if type(e) is Cons:
            return Pair(*args)
        if type(e) is Eq:
            return ONE if equal(*args) else NIL
        if type(e) is IsAtom:
            return ONE if type(args[0]) is Atom else NIL
        try:
            q = decode(args[0], allow_reserved=True)
        except DecodeError as exc:
            raise _Stop(RunResult.ERROR, f"univ on a non-program: {exc}") from None
        if len(q.inputs) != 1:
            raise _Stop(RunResult.ERROR, "univ needs a one-input program")
        return self.program(q, [args[1]])


def _agree(p, args, fuel, mode):
    ref = Reference(fuel, mode == "reflective")
    try:
        value = ref.program(p, args)
        want = (RunResult.HALTED, ref.steps, None)
    except _Stop as stop:
        value, want = None, (stop.status, ref.steps, stop.detail)
    got = run(p, args, fuel, mode)
    assert (got.status, got.steps, got.detail) == want, (mode, fuel)
    assert (value is None and got.value is None) or equal(got.value, value)
    return got


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
