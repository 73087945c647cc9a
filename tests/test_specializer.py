import random

import pytest

from srtlab.build import V, asg, hd, iff, prog, seq, wh
from srtlab.flowchart import decode, encode, is_tiny, run
from srtlab.sexpr import dag_size, equal, parse, sexpr_print, to_unary
from srtlab.specializer import eliminate_dead_code, s11_program, specialize
from srtlab.srt import demo_program, kleene_fixpoint

from proggen import random_inputs, random_loop_program, random_tiny_program
from reference import dec

FUEL = 10**6


def test_specialized_program_shape():
    p = dec("((q d) (:= out q) out)")
    p1 = specialize(p, parse("s"))
    assert sexpr_print(encode(p1)) == "((d) (; (:= q (QUOTE s)) (:= out q)) out)"


def test_specialization_agrees_with_direct_run():
    p = dec("((q d) (:= out q) out)")
    p1 = specialize(p, parse("a"))
    assert sexpr_print(run(p1, [parse("b")], FUEL).value) == "a"


def test_specialization_costs_two_extra_steps_on_tiny_programs():
    rng = random.Random(23)
    programs = [dec("((q d) (:= out q) out)"),
                dec("((q d) (:= out (cons q d)) out)"),
                random_tiny_program(rng)]
    s, d = parse("(a b)"), parse("c")
    for p in programs:
        direct = run(p, [s, d], FUEL)
        special = run(specialize(p, s), [d], FUEL)
        assert equal(direct.value, special.value)
        assert special.steps == direct.steps + 2


def test_specializing_a_nullary_program_is_an_error():
    with pytest.raises(ValueError):
        specialize(dec("(() (:= out (QUOTE x)) out)"), parse("s"))


def test_quoted_value_is_referenced_not_copied():
    p = dec("((q d) (:= out q) out)")
    s = parse("(a b c)")
    p1 = specialize(p, s)
    assert p1.body.second is p.body          # inserted around, never rewritten
    assert p1.body.first.expr.value is s     # the value itself, not a copy
    base = dag_size(encode(p))
    assert dag_size(encode(p1)) <= base + dag_size(s) + 16


def test_s11_program_is_straight_line():
    assert is_tiny(s11_program())


def test_s11_program_matches_the_meta_operation():
    rng = random.Random(29)
    s11 = s11_program()
    for _ in range(15):
        p = random_tiny_program(rng)
        s = random_inputs(rng, 1)[0]
        got = run(s11, [encode(p), s], FUEL)
        assert got.halted
        assert equal(got.value, encode(specialize(p, s)))


def test_s11_equation_all_three_routes():
    s11 = s11_program()
    rng = random.Random(31)
    for _ in range(10):
        p = random_tiny_program(rng)
        s, d = random_inputs(rng, 2)
        direct = run(p, [s, d], FUEL)
        via_meta = run(specialize(p, s), [d], FUEL)
        residual = decode(run(s11, [encode(p), s], FUEL).value,
                          allow_reserved=True)
        via_s11 = run(residual, [d], FUEL)
        assert equal(direct.value, via_meta.value)
        assert equal(direct.value, via_s11.value)


def test_s11_handles_extended_programs_too():
    # the specialiser is straight-line but its *input* may use loops
    p = dec("((q d) (while q (; (:= out (cons (hd q) out)) (:= q (tl q)))) out)")
    s, d = parse("(a b c)"), parse("ignored")
    s11 = s11_program()
    residual = decode(run(s11, [encode(p), s], FUEL).value,
                      allow_reserved=True)
    assert equal(encode(residual), encode(specialize(p, s)))
    assert equal(run(residual, [d], FUEL).value, run(p, [s, d], FUEL).value)


def test_s11_step_count_ignores_argument_size():
    s11 = s11_program()
    p_enc = encode(dec("((q d) (:= out q) out)"))
    small = run(s11, [p_enc, parse("s")], FUEL).steps
    huge = run(s11, [p_enc, to_unary(5 * 10**4)], FUEL).steps
    assert small == huge


# --------------------------------------------------------------------------
# dead code elimination

def test_dce_drops_an_unused_assignment():
    p = dec("((d) (; (:= x (QUOTE a)) (:= out d)) out)")
    opt = eliminate_dead_code(p)
    assert sexpr_print(encode(opt)) == "((d) (:= out d) out)"


@pytest.mark.parametrize("text,args,mode", [
    ("((q d) (; (:= x (univ q d)) (:= out d)) out)", ["junk", "a"], "reflective"),
    ("((d) (; (:= x *) (:= out d)) out)", ["a"], "plain"),
])
def test_dce_keeps_a_dead_assignment_that_can_fault(text, args, mode):
    p = dec(text)
    opt = eliminate_dead_code(p)
    assert sexpr_print(encode(opt)) == text
    values = [parse(a) for a in args]
    want, got = run(p, values, FUEL, mode), run(opt, values, FUEL, mode)
    assert want.status == "runtime_error"
    assert (got.status, got.steps, got.detail) == \
        (want.status, want.steps, want.detail)


def test_dce_on_the_slow_identity_fixpoint():
    pstar = kleene_fixpoint(demo_program("proj2"))
    opt = eliminate_dead_code(pstar)
    for text in ["a", "(a b)", "()", "(x (y z))", "1"]:
        d = parse(text)
        assert equal(run(pstar, [d], FUEL).value, run(opt, [d], FUEL).value)
    assert run(opt, [parse("(a b c)")], FUEL).steps <= 10


def test_dce_preserves_semantics_on_random_programs():
    rng = random.Random(37)
    for _ in range(25):
        p = random_tiny_program(rng)
        opt = eliminate_dead_code(p)
        for d in random_inputs(rng, 3):
            assert equal(run(p, [d, d], FUEL).value,
                         run(opt, [d, d], FUEL).value)


def test_dce_is_idempotent():
    rng = random.Random(41)
    programs = [random_tiny_program(rng) for _ in range(10)]
    programs.append(kleene_fixpoint(demo_program("proj2")))
    programs.append(dec("((x) (while x (; (:= dead (QUOTE a)) (:= x (tl x)))) x)"))
    for p in programs:
        once = eliminate_dead_code(p)
        twice = eliminate_dead_code(once)
        assert equal(encode(once), encode(twice))


def test_dce_keeps_loops_conservatively():
    p = dec("((x) (; (:= n (QUOTE ())) (while x (; (:= n (cons 1 n)) (:= x (tl x))))) n)")
    opt = eliminate_dead_code(p)
    d = to_unary(5)
    assert equal(run(p, [d], FUEL).value, run(opt, [d], FUEL).value)


def test_dce_shrinks_a_dead_branch_arm():
    p = dec("((x) (if (atom? x) (:= y (hd x)) (:= out x)) out)")
    opt = eliminate_dead_code(p)
    assert sexpr_print(encode(opt)) == \
        "((x) (if (atom? x) (:= %dead (QUOTE ())) (:= out x)) out)"
    for text in ["a", "(a b)", "()"]:
        d = parse(text)
        assert equal(run(p, [d], FUEL).value, run(opt, [d], FUEL).value)


@pytest.mark.parametrize("text, want", [
    # an assignment overwritten before any read is dead
    ("((x) (; (:= y x) (; (:= y (hd x)) (:= out y))) out)",
     "((x) (; (:= y (hd x)) (:= out y)) out)"),
    # a loop or branch arm that may not run keeps the value before it live
    ("((x) (; (:= y x) (; (while x (; (:= y (hd x)) (:= x (tl x)))) (:= out y))) out)",
     None),
    ("((x) (; (:= y x) (; (if x (:= y (hd x)) (:= z x)) (:= out y))) out)",
     "((x) (; (:= y x) (; (if x (:= y (hd x)) (:= %dead (QUOTE ()))) (:= out y))) out)"),
    ("((x) (; (:= y x) (; (if x (:= z x) (:= y (hd x))) (:= out y))) out)",
     "((x) (; (:= y x) (; (if x (:= %dead (QUOTE ())) (:= y (hd x))) (:= out y))) out)"),
])
def test_dce_liveness_pins(text, want):
    opt = eliminate_dead_code(dec(text))
    assert sexpr_print(encode(opt)) == (text if want is None else want)


@pytest.mark.parametrize("body", [
    lambda: V("d"),
    lambda: seq(asg("x", V("d")), V("d")),
    lambda: wh(V("d"), hd(V("d"))),
    lambda: iff(V("d"), asg("x", V("d")), V("d")),
], ids=["body", "in-sequence", "while-body", "if-arm"])
def test_dce_rejects_an_expression_in_command_position(body):
    with pytest.raises(TypeError, match="^cannot sweep "):
        eliminate_dead_code(prog(("d",), body(), "x"))


def test_dce_preserves_semantics_on_random_loop_programs():
    # these nest if in while, so the sweep joins branches inside loops
    rng = random.Random(43)
    branching = 0
    for _ in range(500):
        p = random_loop_program(rng)
        branching += "(if " in sexpr_print(encode(p))
        opt = eliminate_dead_code(p)
        for d in random_inputs(rng, 3):
            want = run(p, [d], FUEL)
            got = run(opt, [d], FUEL)
            if want.halted:
                assert got.halted and equal(got.value, want.value)
    assert branching > 100


def test_dce_quine_stays_semantically_the_quine_of_the_original():
    pstar = kleene_fixpoint(demo_program("proj1"))
    opt = eliminate_dead_code(pstar)
    expected = run(pstar, [parse("a")], FUEL).value
    for text in ["a", "(b)", "()", "(c d)", "1"]:
        got = run(opt, [parse(text)], FUEL)
        assert equal(got.value, expected)
