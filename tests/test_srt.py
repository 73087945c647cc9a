import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from srtlab.flowchart import (
    Assign, Cons, DecodeError, Program, Seq, SelfRef, Var, _nodes, decode,
    encode, is_tiny, run,
)
from srtlab.selfint import futamura, univ_program
from srtlab.sexpr import (
    Atom, Pair, dag_size, equal, from_unary, measure, parse, sexpr_print,
    to_unary, tree_size,
)
from srtlab.specializer import s11_program
from srtlab.srt import (
    DEMO_NAMES, compose, demo_program, diag_program, kleene_fixpoint,
    kleene_intermediate, moss_fixpoint, moss_qhat, write_program,
)

from proggen import random_inputs, random_loop_program, random_tiny_program
from reference import dec, ref_measure

FUEL = 10**6


def assert_srt_equation(p, pstar, data, fuel=FUEL, mode="plain"):
    enc = encode(pstar)
    for d in data:
        lhs = run(pstar, [d], fuel, mode)
        rhs = run(p, [enc, d], fuel, mode)
        assert lhs.status == rhs.status
        if lhs.halted:
            assert equal(lhs.value, rhs.value)


BOTH = [("kleene", kleene_fixpoint), ("moss", moss_fixpoint)]


@pytest.mark.parametrize("method,fix", BOTH)
@pytest.mark.parametrize("name", ["proj1", "proj2", "self_recognizer"])
def test_srt_equation_on_demos(method, fix, name):
    p = demo_program(name)
    data = [parse(t) for t in ("a", "()", "(a b)", "((x) y)", "1")]
    assert_srt_equation(p, fix(p), data)


@pytest.mark.parametrize("method,fix", BOTH)
def test_srt_equation_on_random_straight_line_programs(method, fix):
    rng = random.Random(43)
    for _ in range(6):
        p = random_tiny_program(rng)
        assert_srt_equation(p, fix(p), random_inputs(rng, 3))


def test_quine_prints_its_own_text():
    pstar = kleene_fixpoint(demo_program("proj1"))
    own = encode(pstar)
    for text in ("a", "(b c)", "()"):
        r = run(pstar, [parse(text)], FUEL)
        assert r.halted and equal(r.value, own)


def test_moss_quine_too():
    pstar = moss_fixpoint(demo_program("proj1"))
    r = run(pstar, [parse("whatever")], FUEL)
    assert equal(r.value, encode(pstar))


def test_self_recognizer():
    pstar = kleene_fixpoint(demo_program("self_recognizer"))
    own = encode(pstar)
    assert sexpr_print(run(pstar, [own], FUEL).value) == "1"
    for text in ("a", "()", "(q d)"):
        assert sexpr_print(run(pstar, [parse(text)], FUEL).value) == "0"


def test_fixpoints_of_straight_line_programs_are_straight_line():
    for name in ("proj1", "proj2"):
        p = demo_program(name)
        assert is_tiny(kleene_fixpoint(p))
        assert is_tiny(moss_fixpoint(p))


def test_looping_demos_are_not_straight_line():
    for name in ("factorial_univ", "factorial_reflective", "univ_corner"):
        assert not is_tiny(demo_program(name))


def test_the_programs_the_constructions_run_are_straight_line():
    # so each run halts in a number of steps fixed by the program's text,
    # and moss_fixpoint and futamura need no fuel and cannot fail
    assert is_tiny(s11_program())
    for name in DEMO_NAMES:
        assert is_tiny(moss_qhat(demo_program(name)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), shape=st.sampled_from(
    ["straight-line", "loops on the datum", "loops on the self-text"]))
def test_the_laws_hold_on_generated_programs(seed, shape):
    # for both constructions: p* agrees with p on its own text, and the
    # set-up costs one constant per p
    rng = random.Random(seed)
    if shape == "straight-line":
        p = random_tiny_program(rng)
    else:
        body = random_loop_program(rng)     # reads x; loops always halt
        inputs = ("q", "x") if shape == "loops on the datum" else ("x", "d")
        p = Program(inputs, body.body, body.output)
    data = random_inputs(rng, 3)
    for fix in (kleene_fixpoint, moss_fixpoint):
        pstar = fix(p)
        text = encode(pstar)
        offsets = set()
        for d in data:
            lhs, rhs = run(pstar, [d], FUEL), run(p, [text, d], FUEL)
            assert lhs.halted and rhs.halted
            assert equal(lhs.value, rhs.value)
            offsets.add(lhs.steps - rhs.steps)
        assert len(offsets) == 1


# --------------------------------------------------------------------------
# what the generated programs share

def assert_same_tree(got, want):
    """Node for node, in prefix order: the same kinds and names, quoted
    values and encodings by identity."""
    for a, b in zip(_nodes(got), _nodes(want), strict=True):
        assert type(a) is type(b) and a._enc is b._enc
        for field in type(a).__slots__:
            x, y = getattr(a, field), getattr(b, field)
            if type(x) is str:
                assert x == y
            elif type(x) is Atom or type(x) is Pair:
                assert x is y


def assert_decodes_as_its_text(program):
    # a full decode of the text the generator emitted, which is the
    # result's encoding, gives the same tree, text and sizes
    full = decode(encode(program), allow_reserved=True)
    assert (program.inputs, program.output) == (full.inputs, full.output)
    assert_same_tree(program.body, full.body)
    again = [encode(Program(q.inputs, q.body, q.output)) for q in (program, full)]
    assert sexpr_print(again[0]) == sexpr_print(again[1])
    assert measure(again[0]) == measure(again[1])


def shares(program, node):
    return any(n is node for n in _nodes(program.body))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32),
       kind=st.sampled_from(["straight-line", "loops"] + list(DEMO_NAMES)))
def test_constructions_equal_a_full_decode_of_their_text(seed, kind):
    rng = random.Random(seed)
    if kind == "straight-line":
        p = random_tiny_program(rng)
    elif kind == "loops":
        body = random_loop_program(rng)
        p = Program(("q", "x"), body.body, body.output)
    else:
        p = demo_program(kind)
    pstar = moss_fixpoint(p)
    assert shares(pstar, p.body)
    for program in (pstar, futamura("target", p), futamura("compiler"),
                    futamura("cogen")):
        assert_decodes_as_its_text(program)


#: Bases whose body does not decode back to itself: an atom * decodes as
#: SelfRef, and () is no variable.  The digests and sizes are those the
#: Moss fixpoint had when it decoded the whole text.
READS_STAR = Program(("q", "d"), Assign("out", Cons(Var("*"), Var("d"))), "out")
ASSIGNS_NIL = Program(("q", "d"), Seq(Assign("()", Var("d")),
                                      Assign("out", Var("()"))), "out")


def test_moss_decodes_a_base_body_that_does_not_round_trip():
    pstar = moss_fixpoint(READS_STAR)
    text = sexpr_print(encode(pstar))
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "4988e83239b4"
    assert measure(encode(pstar)) == (1007, 399)
    assert_decodes_as_its_text(pstar)
    assert not any(shares(pstar, n) for n in _nodes(READS_STAR.body))
    assert sum(type(n) is SelfRef for n in _nodes(pstar.body)) == 1
    with pytest.raises(DecodeError) as info:
        moss_fixpoint(ASSIGNS_NIL)
    assert str(info.value) == "assigned variable must be a non-() atom: ()"


def test_constructions_share_their_fixed_parts():
    assert diag_program() is diag_program()
    assert futamura("target", demo_program("proj1")).body.second is univ_program().body
    for stage in ("compiler", "cogen"):
        assert futamura(stage).body.second is s11_program().body
    first, second = (kleene_intermediate(demo_program(name)).body.second.second
                     for name in ("proj1", "interchange"))
    assert first.first is second.first
    p = demo_program("proj2")
    assert shares(kleene_fixpoint(p), p.body)
    assert shares(moss_fixpoint(p), moss_qhat(p).body.first)


@pytest.mark.parametrize("method,fix", BOTH)
def test_setup_cost_is_a_positive_input_independent_constant(method, fix):
    p = demo_program("proj2")
    pstar = fix(p)
    enc = encode(pstar)
    deltas = set()
    for d in [parse("a"), to_unary(100), to_unary(10**4)]:
        deltas.add(run(pstar, [d], FUEL).steps - run(p, [enc, d], FUEL).steps)
    assert len(deltas) == 1
    assert deltas.pop() > 0


def test_reserved_variables_rejected_in_base_programs():
    bad = decode(parse("((q d) (:= %t q) %t)"), allow_reserved=True)
    with pytest.raises(ValueError):
        kleene_fixpoint(bad)
    with pytest.raises(ValueError):
        moss_qhat(bad)


def test_moss_rejects_builder_variable_collisions():
    p = dec("((q d) (:= outpgm q) outpgm)")
    with pytest.raises(ValueError):
        moss_qhat(p)


# --------------------------------------------------------------------------
# write / diag / compose

def test_write_program_output_shape():
    r = run(write_program(), [parse("x")], FUEL)
    assert sexpr_print(r.value) == "(() (:= out (QUOTE x)) out)"


def test_write_program_generates_generators():
    rng = random.Random(47)
    W = write_program()
    for x in random_inputs(rng, 10):
        w_x = decode(run(W, [x], FUEL).value)
        assert equal(run(w_x, [], FUEL).value, x)


def test_diag_output_shape():
    r = dec("((x) (:= out (cons x x)) out)")
    d_r = run(diag_program(), [encode(r)], FUEL).value
    expected = ("(() (; (:= x (QUOTE ((x) (:= out (cons x x)) out))) "
                "(:= out (cons x x))) out)")
    assert sexpr_print(d_r) == expected


def test_diag_runs_programs_on_their_own_text():
    G = diag_program()
    for text in ["((x) (:= out (cons x x)) out)", "((x) (:= out (QUOTE k)) out)"]:
        r = dec(text)
        d_r = decode(run(G, [encode(r)], FUEL).value, allow_reserved=True)
        assert equal(run(d_r, [], FUEL).value, run(r, [encode(r)], FUEL).value)


def test_diag_of_itself_is_a_self_reproducer():
    G = diag_program()
    self_enc = run(G, [encode(G)], FUEL).value
    self_prog = decode(self_enc, allow_reserved=True)
    assert equal(run(self_prog, [], FUEL).value, self_enc)


def test_compose_identity():
    ident = dec("((x) (:= out x) out)")
    c = compose(ident, ident)
    for d in [parse("a"), parse("(a b)")]:
        assert equal(run(c, [d], FUEL).value, d)


def test_compose_matches_sequential_runs():
    rng = random.Random(53)
    for _ in range(12):
        p = random_tiny_program(rng, inputs=("x",))
        q = random_tiny_program(rng, inputs=("x",))
        c = compose(p, q)
        for d in random_inputs(rng, 3):
            mid = run(p, [d], FUEL).value
            expected = run(q, [mid], FUEL).value
            assert equal(run(c, [d], FUEL).value, expected)


def test_compose_renames_apart():
    # q reads a variable p also uses; after composition it must still
    # see the empty value, exactly as in a fresh run of q
    p = dec("((x) (; (:= t (QUOTE junk)) (:= y x)) y)")
    q = dec("((y) (:= out (cons y t)) out)")
    c = compose(p, q)
    r = run(c, [parse("a")], FUEL)
    assert sexpr_print(r.value) == "(a)"  # t reads as (), not junk


def test_chained_generators():
    # write | write : generates a generator of a generator; write | diag
    # likewise chains, whatever the intermediate value means downstream
    W, G = write_program(), diag_program()
    for first, second in [(W, W), (W, G)]:
        c = compose(first, second)
        for x in [parse("a"), parse("(a b)"), parse("((x) y)")]:
            step1 = run(first, [x], FUEL).value
            expected = run(second, [step1], FUEL).value
            assert equal(run(c, [x], FUEL).value, expected)


# --------------------------------------------------------------------------
# the remaining demos

def test_factorial_reflective_fixpoint():
    pstar = kleene_fixpoint(demo_program("factorial_reflective"))
    for n, expected in [(0, 1), (1, 1), (3, 6), (5, 120)]:
        r = run(pstar, [to_unary(n)], 10**6, mode="reflective")
        assert r.halted and from_unary(r.value) == expected


def test_factorial_univ_fixpoint_small_values():
    # each recursion level pays the full interpretation overhead, so
    # only the first few points are affordable here
    pstar = kleene_fixpoint(demo_program("factorial_univ"))
    for n, expected in [(0, 1), (1, 1), (2, 2)]:
        r = run(pstar, [to_unary(n)], 10**6)
        assert r.halted and from_unary(r.value) == expected


def test_univ_corner_fixpoint_never_halts():
    pstar = kleene_fixpoint(demo_program("univ_corner"))
    for fuel in (10**4, 10**5):
        r = run(pstar, [parse("(a)")], fuel)
        assert r.status == "fuel_exhausted"


def test_interchange_swaps_program_and_data():
    pstar = kleene_fixpoint(demo_program("interchange"))
    ident = dec("((x) (:= out x) out)")
    r = run(pstar, [encode(ident)], 10**7)
    assert r.halted and equal(r.value, encode(pstar))
    # and against a non-identity argument program
    dup = dec("((x) (:= out (cons x x)) out)")
    r2 = run(pstar, [encode(dup)], 10**7)
    expected = run(dup, [encode(pstar)], 10**7).value
    assert equal(r2.value, expected)


def test_unknown_demo_name():
    with pytest.raises(ValueError):
        demo_program("fibonacci")


# --------------------------------------------------------------------------
# sharing

@pytest.mark.parametrize("method,fix", BOTH)
def test_printed_fixpoints_are_dags_not_trees(method, fix):
    for name in ("proj1", "self_recognizer"):
        enc = encode(fix(demo_program(name)))
        ts, ds = tree_size(enc), dag_size(enc)
        assert ts > ds
        assert (ts, ds) == ref_measure(enc)


def test_quine_size_pins():
    # frozen reference counts for the canonical quine's printed form
    enc = encode(kleene_fixpoint(demo_program("proj1")))
    assert (tree_size(enc), dag_size(enc)) == (523, 222)


@pytest.mark.parametrize("build,digest,sizes", [
    (univ_program, "3a2d9ce01798", (3123, 2350)),
    (s11_program, "695e7926e508", (207, 161)),
    (diag_program, "1f93a2f14139", (205, 162)),
    (write_program, "e5c93eb1d68e", (95, 73)),
])
def test_built_programs_are_pinned(build, digest, sizes):
    # frozen printed text and (tree, DAG) size of each hand-built program
    enc = encode(build())
    text = sexpr_print(enc)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest
    assert measure(enc) == sizes


def test_fixpoint_dag_growth_is_additive():
    deltas = set()
    for name in ("proj1", "proj2", "self_recognizer", "interchange"):
        p = demo_program(name)
        tilde = kleene_intermediate(p)
        pstar = kleene_fixpoint(p)
        deltas.add(dag_size(encode(pstar)) - dag_size(encode(tilde)))
    assert len(deltas) == 1
    assert deltas.pop() < 30
