import random

import pytest
from hypothesis import given, settings, strategies as st

from srtlab.build import QA, QNIL, V, asg, cons, prog, seq, tl, wh
from srtlab.flowchart import decode, encode, run
from srtlab.selfint import (
    futamura, interpreter_wrapped, measure_overhead, univ_program,
    wrap_nullary,
)
from srtlab.sexpr import equal, from_unary, parse, sexpr_print, to_unary

from proggen import random_inputs, random_loop_program, random_tiny_program
from reference import dec

FUEL = 10**7


def closed_factorial():
    return prog(("d",), seq(
        asg("out", cons(QA("1"), QNIL())),
        asg("i", V("d")),
        wh(V("i"),
           asg("acc", QNIL()),
           asg("k", V("i")),
           wh(V("k"),
              asg("j", V("out")),
              wh(V("j"),
                 asg("acc", cons(QA("1"), V("acc"))),
                 asg("j", tl(V("j")))),
              asg("k", tl(V("k")))),
           asg("out", V("acc")),
           asg("i", tl(V("i")))),
    ), "out")


def test_interprets_identity():
    u = univ_program()
    r = run(u, [encode(dec("((x) (:= out x) out)")), parse("(a b c)")], FUEL)
    assert r.halted and sexpr_print(r.value) == "(a b c)"


def test_interprets_wrapped_generator_output():
    from srtlab.srt import write_program
    W = write_program()
    w_x = decode(run(W, [parse("(deep (value))")], FUEL).value)
    wrapped = wrap_nullary(w_x)
    r = run(univ_program(), [encode(wrapped), parse("ignored")], FUEL)
    assert sexpr_print(r.value) == "(deep (value))"


def test_interprets_closed_factorial():
    r = run(univ_program(), [encode(closed_factorial()), to_unary(4)], FUEL)
    assert r.halted and from_unary(r.value) == 24


def test_agreement_on_generated_programs():
    rng = random.Random(59)
    u = univ_program()
    for _ in range(10):
        p = random_loop_program(rng)
        for d in random_inputs(rng, 2):
            direct = run(p, [d], FUEL)
            interp = run(u, [encode(p), d], FUEL)
            assert direct.status == interp.status
            if direct.halted:
                assert equal(direct.value, interp.value)


def test_divergence_agreement():
    looper = dec("((x) (while (QUOTE 1) (:= x x)) x)")
    direct = run(looper, [parse("a")], 10**4)
    interp = run(univ_program(), [encode(looper), parse("a")], 10**6)
    assert direct.status == interp.status == "fuel_exhausted"


def test_overhead_is_stable_per_program():
    length = prog(("x",), seq(
        asg("t", V("x")),
        asg("out", QNIL()),
        wh(V("t"), asg("out", cons(QA("1"), V("out"))), asg("t", tl(V("t")))),
    ), "out")
    rows, verdict = measure_overhead(
        length, [to_unary(n) for n in (1, 60, 2000)], FUEL)
    assert not verdict.startswith("partial")
    assert verdict == "program-dependent (class 2) consistent"
    ratios = [row[3] for row in rows]
    assert max(ratios) / min(ratios) <= 1.2
    assert all(row[2] >= row[1] for row in rows)


def test_overhead_exactly_constant_for_straight_line_programs():
    p = dec("((x) (:= out (cons x x)) out)")
    rows, _ = measure_overhead(p, [to_unary(n) for n in (0, 50, 5000)], FUEL)
    counts = {row[2] for row in rows}
    assert len(counts) == 1


def test_nested_interpretation_compounds_the_overhead():
    ident = dec("((x) (:= out x) out)")
    u = univ_program()
    d = parse("(a b)")
    direct = run(ident, [d], FUEL).steps
    once = run(u, [encode(ident), d], FUEL).steps
    wrapped = interpreter_wrapped(ident)
    twice = run(u, [encode(wrapped), d], FUEL).steps
    assert twice / once >= once / direct


def test_wrap_nullary_rejects_programs_with_inputs():
    with pytest.raises(ValueError):
        wrap_nullary(dec("((x) (:= out x) out)"))


# --------------------------------------------------------------------------
# Futamura projections

SOURCES = [
    "((x) (:= out x) out)",
    "((x) (:= out (cons x x)) out)",
    "((x) (while x (; (:= out (cons (QUOTE 1) out)) (:= x (tl x)))) out)",
]


def test_target_behaves_like_source():
    for text in SOURCES:
        source = dec(text)
        target = futamura("target", source)
        for d in [parse("a"), parse("(a b)"), parse("()")]:
            assert equal(run(target, [d], FUEL).value,
                         run(source, [d], FUEL).value)


def test_compiler_compiles():
    compiler = futamura("compiler")
    for text in SOURCES:
        source = dec(text)
        target = futamura("target", source)
        got = run(compiler, [encode(source)], FUEL)
        assert got.halted
        assert equal(got.value, encode(target))


def test_cogen_generates_the_compiler():
    cogen = futamura("cogen")
    compiler = futamura("compiler")
    got = run(cogen, [encode(univ_program())], FUEL)
    assert got.halted
    assert equal(got.value, encode(compiler))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), loops=st.booleans())
def test_the_first_two_projections_hold_on_generated_programs(seed, loops):
    # the target agrees with its source, and the compiler builds the target
    rng = random.Random(seed)
    source = (random_loop_program(rng) if loops
              else random_tiny_program(rng, inputs=("d",)))
    target = futamura("target", source)
    for d in random_inputs(rng, 2):
        lhs, rhs = run(target, [d], FUEL), run(source, [d], FUEL)
        assert lhs.halted and rhs.halted
        assert equal(lhs.value, rhs.value)
    got = run(futamura("compiler"), [encode(source)], FUEL)
    assert got.halted and equal(got.value, encode(target))


def test_futamura_is_deterministic():
    a = encode(futamura("cogen"))
    b = encode(futamura("cogen"))
    assert equal(a, b)


def test_target_stage_requires_a_source():
    with pytest.raises(ValueError):
        futamura("target")
