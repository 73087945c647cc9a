"""The shape cache: programs that differ only in variable names and in
the values of quoted constants share one compiled function, and each of
them still runs as the reference evaluator says, whichever was compiled
first."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from srtlab import flowchart
from srtlab.build import QA, V, asg, cons, eq, hd, iff, prog, seq, tl, univ, wh
from srtlab.flowchart import (
    Assign, Program, Quote, SelfRef, _SHAPES, _SHAPES_MAX, _Emitter,
    _instance, _shape, command_vars, rename_command, run,
)
from srtlab.sexpr import Atom, parse, to_unary

from proggen import random_inputs, random_loop_program, random_sexpr, \
    random_tiny_program
from reference import _agree, dec

FUELS = (1, 2, 5, 13, 40, 10**5)
MODES = ("plain", "reflective")


def _agrees_in_both_orders(build, build_twin, arg_lists, modes=MODES):
    """Compile the twin and then the program, and the other way round,
    each into an empty shape cache, and check every run of each against
    the reference.  ``build`` and ``build_twin`` make fresh programs."""
    for order in ((build_twin, build), (build, build_twin)):
        _SHAPES.clear()
        for make in order:
            program = make()
            for mode in modes:
                for fuel in FUELS:
                    for args in arg_lists:
                        _agree(program, args, fuel, mode)


def _shared_quote():
    q = QA("x")
    return prog(("d",), asg("out", cons(q, q)), "out")


def _two_quotes():
    return prog(("d",), asg("out", cons(QA("x"), QA("y"))), "out")


def test_a_shared_quote_is_a_back_reference_in_the_shape():
    for reflective in (False, True):
        shared = _shape(_shared_quote(), reflective)
        two = _shape(_two_quotes(), reflective)
        assert shared[0] != two[0]
        assert len(shared[3]) == 1 and len(two[3]) == 2
    _agrees_in_both_orders(_shared_quote, _two_quotes, [[parse("a")]])


LOOP = ("((x y) (; (:= out (QUOTE ())) (while x (; (if (= (hd x) (QUOTE a))"
        " (:= out (cons (QUOTE (b . c)) out)) (:= y (cons (hd x) y)))"
        " (:= x (tl x))))) out)")
RENAMED = ("((p q) (; (:= r (QUOTE ())) (while p (; (if (= (hd p) (QUOTE a))"
           " (:= r (cons (QUOTE (b . c)) r)) (:= q (cons (hd p) q)))"
           " (:= p (tl p))))) r)")
REVALUED = ("((x y) (; (:= out (QUOTE z)) (while x (; (if (= (hd x) (QUOTE ()))"
            " (:= out (cons (QUOTE ((a) . a)) out)) (:= y (cons (hd x) y)))"
            " (:= x (tl x))))) out)")


@pytest.mark.parametrize("twin", [RENAMED, REVALUED], ids=["renamed", "revalued"])
def test_a_twin_shares_the_shape_and_each_runs_as_itself(twin):
    for reflective in (False, True):
        assert _shape(dec(LOOP), reflective)[0] == _shape(dec(twin), reflective)[0]
    _agrees_in_both_orders(lambda: dec(LOOP), lambda: dec(twin), [
        [parse(text), parse("(y)")] for text in ("(a b a)", "(() a (c))", "a")])
    assert len(_SHAPES) == 2  # one shape in each mode


def _recursive(name):
    """Count down ``d`` by univ on ``*``, with a variable named ``name``."""
    return lambda: prog(("d",), seq(asg(name, V("d")), iff(
        V(name), asg("out", cons(QA("1"), univ(SelfRef(), tl(V(name))))),
        asg("out", V(name)))), "out")


@pytest.mark.parametrize("name", ["*", "()"])
def test_a_name_that_does_not_decode_is_not_taken_from_the_shape(name):
    # the twin's text decodes back to it, so its univ on * calls P; the
    # program's text does not, so its univ on * decodes it, and fails
    build, build_twin = _recursive(name), _recursive("x")
    assert _shape(build(), True)[0] == _shape(build_twin(), True)[0]
    _SHAPES.clear()
    assert _instance(build_twin(), True)[1] is not None
    assert _instance(build(), True)[1] is None
    r = run(build(), [to_unary(2)], 1000, mode="reflective")
    assert r.status == r.ERROR and r.detail.startswith("univ on a non-program")
    _agrees_in_both_orders(build, build_twin,
                           [[to_unary(0)], [to_unary(3)]], ["reflective"])


def _same_kind(value, rng):
    """A random constant of the kind of ``value``: atom or pair."""
    while True:
        other = random_sexpr(rng)
        if type(other) is type(value):
            return other


def _twin(program, rng):
    """``program`` with its variables renamed consistently and each
    quoted constant replaced by a random one of the same kind."""
    names = sorted({*program.inputs, program.output, *command_vars(program.body)})
    mapping = dict(zip(names, rng.sample([f"{n}'" for n in names], len(names))))
    body = rename_command(program.body, mapping)
    for node in flowchart._nodes(body):
        for field in flowchart._CHILDREN[type(node)]:
            child = getattr(node, field)
            if type(child) is Quote:
                setattr(node, field, Quote(_same_kind(child.value, rng)))
    return Program([mapping[v] for v in program.inputs], body,
                   mapping[program.output])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.booleans())
def test_generated_programs_and_their_twins_agree_with_reference(seed, loop):
    def build():
        rng = random.Random(seed)
        return random_loop_program(rng) if loop else random_tiny_program(rng)

    def build_twin():
        return _twin(build(), random.Random(seed + 1))

    for reflective in (False, True):
        assert _shape(build(), reflective)[0] == _shape(build_twin(), reflective)[0]
    values = random_inputs(random.Random(seed), 2)
    _agrees_in_both_orders(build, build_twin,
                           [[v] for v in values] if loop else [values])


def _tails(k):
    body = V("x")
    for _ in range(k):
        body = tl(body)
    return prog(("x",), asg("out", body), "out")


def test_the_shape_cache_keeps_the_most_recently_used_shapes(monkeypatch):
    emitted = []
    source = _Emitter.source
    monkeypatch.setattr(_Emitter, "source",
                        lambda self: emitted.append(self) or source(self))
    _SHAPES.clear()
    first = _shape(_tails(1), False)[0]
    for k in range(1, 301):
        _instance(_tails(k), False)
        _instance(_tails(1), False)  # a hit makes it the most recent
    assert len(emitted) == 300 and len(_SHAPES) == _SHAPES_MAX
    assert first in _SHAPES
    assert _shape(_tails(2), False)[0] not in _SHAPES
    assert _shape(_tails(300), False)[0] in _SHAPES


#: Programs with one value in question, each as (id, the program around
#: a value, a value where no node of its kind belongs, a value that
#: belongs there, and the TypeError that the first raises).
MALFORMED = [
    ("command-as-expression", lambda v: asg("out", v),
     lambda: asg("y", V("x")), lambda: V("x"),
     "Assign.expr must be an expression, not Assign"),
    ("expression-as-command", lambda v: seq(asg("out", V("x")), v),
     lambda: V("x"), lambda: asg("y", V("x")),
     "Seq.second must be a command, not Var"),
    ("int-as-operand", lambda v: asg("out", cons(V("x"), v)),
     lambda: 5, lambda: QA("a"), "Cons.right must be an expression, not int"),
    ("str-as-command", lambda v: wh(V("x"), asg("x", tl(V("x"))), v),
     lambda: "junk", lambda: asg("y", V("x")),
     "Seq.second must be a command, not str"),
    ("none-as-branch",
     lambda v: iff(eq(hd(V("x")), QA("a")), asg("out", V("x")), v),
     lambda: None, lambda: asg("out", QA("b")),
     "If.orelse must be a command, not NoneType"),
    ("quoted-int", lambda v: asg("out", hd(Quote(v))), lambda: 5,
     lambda: parse("(a b)"), "Quote.value must be an Atom or a Pair, not int"),
]


@pytest.mark.parametrize("case", MALFORMED, ids=[case[0] for case in MALFORMED])
@pytest.mark.parametrize("mode", MODES)
def test_a_malformed_program_fails_before_any_step_and_caches_nothing(case, mode):
    # it fails to build, so it never reaches run; the well-formed program
    # runs as the reference says
    _, body, bad, good, message = case
    before = list(_SHAPES)
    with pytest.raises(TypeError) as info:
        prog(("x",), body(bad()), "out")
    assert str(info.value) == message
    assert list(_SHAPES) == before
    _agree(prog(("x",), body(good()), "out"), [parse("(a b)")], 100, mode)


def test_a_univ_call_in_plain_mode_is_checked_but_not_run():
    # its operands are checked when it is built, as any node's are; plain
    # mode fails before running them, as the reference does
    with pytest.raises(TypeError) as info:
        univ(Assign("y", V("x")), 5)
    assert str(info.value) == "UnivCall.prog must be an expression, not Assign"
    with pytest.raises(TypeError) as info:
        univ(V("x"), 5)
    assert str(info.value) == "UnivCall.arg must be an expression, not int"
    program = prog(("x",), asg("out", univ(V("x"), hd(V("x")))), "out")
    r = run(program, [Atom("a")], 100)
    assert (r.status, r.steps, r.detail) == (
        r.ERROR, 0, "'univ' call outside reflective mode")
