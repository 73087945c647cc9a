import random
import sys

import pytest

from srtlab import flowchart
from srtlab.build import QA, QNIL, V, asg, cons, hd, iff, prog, seq, tl, univ, wh
from srtlab.flowchart import (
    Assign, Cons, DecodeError, Eq, Hd, If, IsAtom, Program, Quote, RunResult,
    SelfRef, Seq, Tl, UnivCall, Var, While, command_vars, decode, encode,
    expr_vars, _Emitter, _SHAPES, is_tiny, rename_command, run,
)
from srtlab.selfint import (
    futamura, interpreter_wrapped, measure_overhead, wrap_nullary,
)
from srtlab.sexpr import NIL, equal, parse, sexpr_print, to_unary
from srtlab.specializer import eliminate_dead_code, specialize
from srtlab.srt import (
    compose, kleene_fixpoint, kleene_intermediate, moss_fixpoint, moss_qhat,
)
from srtlab.trm import trm_parse, trm_run

from proggen import random_inputs, random_tiny_program
from reference import _agree, dec

FUEL = 10**6


#: The kind of each field of each node class, in field order.
FIELD_KINDS = {
    Assign: ("name", "expression"), Seq: ("command", "command"),
    While: ("expression", "command"), If: ("expression", "command", "command"),
    Var: ("name",), SelfRef: (), Quote: ("datum",), Hd: ("expression",),
    Tl: ("expression",), Cons: ("expression", "expression"),
    Eq: ("expression", "expression"), IsAtom: ("expression",),
    UnivCall: ("expression", "expression"),
}
#: A fresh value of each field kind, and how a TypeError names the kind.
OF_KIND = {"command": (lambda: asg("y", V("d")), "a command"),
           "expression": (lambda: V("d"), "an expression"),
           "name": (lambda: "x", "a str"),
           "datum": (lambda: parse("(a b)"), "an Atom or a Pair")}


@pytest.mark.parametrize("cls", list(FIELD_KINDS))
def test_node_classes_take_their_fields_positionally(cls):
    fields, kinds = cls.__slots__, FIELD_KINDS[cls]
    values = [OF_KIND[kind][0]() for kind in kinds]
    node = cls(*values)
    assert all(getattr(node, f) is v for f, v in zip(fields, values, strict=True))
    assert node._enc is None
    for wrong in (len(fields) - 1, len(fields) + 1):
        if wrong >= 0:
            with pytest.raises(TypeError) as info:
                cls(*range(wrong))
            assert str(info.value) == \
                f"{cls.__name__} takes {len(fields)} fields, got {wrong}"
    # each field rejects a value of every other kind, and a non-node
    for i, (field, kind) in enumerate(zip(fields, kinds)):
        others = [make() for other, (make, _) in OF_KIND.items() if other != kind]
        for bad in [*others, 5, None, b"x"]:
            with pytest.raises(TypeError) as info:
                cls(*values[:i], bad, *values[i + 1:])
            assert str(info.value) == (f"{cls.__name__}.{field} must be "
                                       f"{OF_KIND[kind][1]}, not {type(bad).__name__}")


def test_a_node_shows_its_kind_and_fields_and_its_children_by_kind():
    assert repr(asg("x", cons(V("d"), QA("a")))) == "Assign(var='x', expr=Cons)"
    assert repr(V("d")) == "Var(name='d')"
    assert repr(Quote(parse("(a b)"))) == "Quote(value=<sexpr (a b)>)"
    assert repr(SelfRef()) == "SelfRef()"
    assert repr(_deep(asg("x", V("d")))) == "While(test=Var, body=While)"
    with pytest.raises(TypeError, match="^While.body must be a command, not Var$"):
        _deep(V("d"))


def test_decode_projection():
    p = dec("((q d) (:= out q) out)")
    assert p.inputs == ("q", "d")
    assert p.output == "out"
    assert type(p.body) is Assign
    assert type(p.body.expr) is Var


def test_decode_specialized_shape():
    p = dec("((d) (; (:= q (QUOTE s)) (:= out q)) out)")
    assert p.inputs == ("d",)
    assert type(p.body) is Seq


def test_decode_while_form():
    p = dec("((x) (while x (:= x (tl x))) x)")
    assert not is_tiny(p)


@pytest.mark.parametrize("text", [
    "((q d) (:= out q))",             # wrong arity at program level
    "((q q) (:= out q) out)",         # duplicate inputs
    "((q) (bogus q) out)",            # unknown command tag
    "((q) (:= out (frob q)) out)",    # unknown expression tag
    "((q) (:= (a b) q) out)",         # non-atom assignment target
    "((q) (:= out q) ())",            # () as a variable
    "((q) (while x) x)",              # wrong while arity
    "((q) (:= * q) out)",             # '*' as a variable
])
def test_decode_rejects_malformed(text):
    with pytest.raises(DecodeError):
        dec(text)


LONG_TAG = "(bogus " + " ".join(["abcdefgh"] * 12) + ")"


@pytest.mark.parametrize("text,message", [
    ("a", "expected program: a"),
    ("((q) (:= out q) . out)", "improper list in program: ((q) (:= out q) . out)"),
    ("((q d) (:= out q))", "wrong arity for program: ((q d) (:= out q))"),
    ("((q . r) (:= out q) out)", "input list is improper: (q . r)"),
    ("((q q) (:= out q) out)", "input variables must be pairwise distinct: (q q)"),
    ("(((a)) (:= out q) out)", "input variable must be a non-() atom: (a)"),
    ("((*) (:= out q) out)", "'*' is not a legal input variable: *"),
    ("((%q) (:= out %q) out)", "input variable uses the reserved '%' prefix: %q"),
    ("((q) (:= out q) ())", "output variable must be a non-() atom: ()"),
    ("((q) (:= out q) *)", "'*' is not a legal output variable: *"),
    ("((q) (:= out q) %o)", "output variable uses the reserved '%' prefix: %o"),
    ("((q) x out)", "expected a command: x"),
    ("((q) (:= out ((a) q)) out)",
     "expression head must be an operator atom: ((a) q)"),
    ("((q) (bogus q) out)", "unknown command tag: (bogus q)"),
    ("((q) (:= out (frob q)) out)", "unknown expression tag: (frob q)"),
    ("((q) (while q . x) out)", "improper list in while: (while q . x)"),
    ("((q) (while q x . y) out)", "improper list in while: (while q x . y)"),
    ("((q) (while x) x)", "wrong arity for while: (while x)"),
    ("((q) (:= out ()) out)", "variable must be a non-() atom: ()"),
    ("((q) (:= out %x) out)", "variable uses the reserved '%' prefix: %x"),
    ("((q) (:= (a b) q) out)", "assigned variable must be a non-() atom: (a b)"),
    ("((q) (:= * q) out)", "'*' is not a legal assigned variable: *"),
    ("((q) (:= %x q) out)", "assigned variable uses the reserved '%' prefix: %x"),
    # a subtree printed longer than 80 characters is cut to 77 and "..."
    (f"((q) {LONG_TAG} out)", f"unknown command tag: {LONG_TAG[:77]}..."),
])
def test_decode_error_messages(text, message):
    with pytest.raises(DecodeError) as caught:
        dec(text)
    assert str(caught.value) == message


def test_decode_rejects_reserved_names_in_user_source():
    with pytest.raises(DecodeError):
        dec("((%x) (:= out %x) out)")
    p = decode(parse("((%x) (:= out %x) out)"), allow_reserved=True)
    assert p.inputs == ("%x",)


def test_encode_decode_round_trip_is_identity():
    for text in [
        "((q d) (:= out q) out)",
        "((d) (; (:= q (QUOTE s)) (:= out q)) out)",
        "((x) (while x (:= x (tl x))) x)",
        "((x) (if (atom? x) (:= out (QUOTE 1)) (:= out (cons x x))) out)",
        "((p d) (:= out (univ p d)) out)",
        "((q d) (:= out *) out)",
        "((x) (:= out (= (hd x) x)) out)",
    ]:
        s = parse(text)
        assert encode(decode(s)) is s  # decode caches its source encoding
        assert sexpr_print(encode(decode(s))) == text


def _deep_program(shape, n=10**5):
    if shape == "hd-chain":
        expr = V("d")
        for _ in range(n):
            expr = hd(expr)
        return prog(("q", "d"), asg("out", expr), "out")
    return prog(("q", "d"),
                seq(asg("out", V("d")),
                    *[asg("out", V("out")) for _ in range(n - 1)]),
                "out")


@pytest.mark.parametrize("shape", ["hd-chain", "seq-chain"])
def test_walkers_handle_any_depth(shape):
    n = 10**5
    p = _deep_program(shape, n)
    r = run(p, [parse("a"), parse("(b)")], FUEL)
    assert r.halted and r.steps == (n + 3 if shape == "hd-chain" else 2 * n + 1)
    s = encode(p)
    assert encode(decode(s)) is s
    text = sexpr_print(s)
    assert sexpr_print(parse(text)) == text
    assert command_vars(p.body) == {"d", "out"}
    assert command_vars(rename_command(p.body, {"out": "o"})) == {"d", "o"}
    assert is_tiny(p)
    assert command_vars(eliminate_dead_code(p).body) == {"d", "out"}
    for fixpoint in (kleene_fixpoint(p), moss_fixpoint(p)):
        again = decode(encode(fixpoint), allow_reserved=True)
        assert encode(again) is encode(fixpoint)


def test_dead_code_elimination_handles_any_while_nesting():
    n = 10**4
    body = seq(asg("y", V("x")), asg("x", tl(V("x"))))  # y is dead
    for _ in range(n):
        body = wh(V("x"), body)
    node = eliminate_dead_code(prog(("x",), body, "x")).body
    for _ in range(n):
        assert type(node) is While and sexpr_print(encode(node.test)) == "x"
        node = node.body
    assert sexpr_print(encode(node)) == "(:= x (tl x))"


def test_dead_code_elimination_handles_any_straight_line_width():
    # every x<i> stays live to the start, so the live set grows to n + 1
    n = 2 * 10**4
    kept = [asg("out", cons(V(f"x{i}"), V("out"))) for i in range(n)]
    dead = [asg(f"z{i}", V("out")) for i in range(n)]
    p = prog(("x0",), seq(*[c for pair in zip(dead, kept) for c in pair]), "out")
    want = prog(("x0",), seq(*kept), "out")
    assert sexpr_print(encode(eliminate_dead_code(p))) == sexpr_print(encode(want))


def test_run_first_projection():
    r = run(dec("((q d) (:= out q) out)"), [parse("a"), parse("b")], 100)
    assert r.halted and sexpr_print(r.value) == "a"
    assert r.steps == 3  # assignment + variable read + final output read


def test_run_write_program_step_pin():
    # assignment, quoted-constant access, final output read
    r = run(dec("(() (:= out (QUOTE x)) out)"), [], 100)
    assert (sexpr_print(r.value), r.steps) == ("x", 3)


def test_while_loop_step_accounting():
    # setup 2; per iteration: test event + test read, cons-assign with two
    # reads, tl-assign with one; final failed test 2; output read 1
    p = dec("((x) (; (:= n (QUOTE ())) (while x (; (:= n (cons n n)) (:= x (tl x))))) n)")
    r = run(p, [to_unary(4)], FUEL)
    assert r.halted
    assert r.steps == 2 + 4 * (2 + 4 + 3) + 2 + 1


def test_uninitialized_variables_read_as_nil():
    r = run(dec("((x) (:= out nothere) out)"), [parse("a")], 100)
    assert sexpr_print(r.value) == "()"


def test_hd_tl_total_on_atoms():
    r = run(dec("((x) (:= out (hd (tl x))) out)"), [parse("a")], 100)
    assert sexpr_print(r.value) == "()"


def test_truthiness_is_non_nil():
    p = dec("((x) (if x (:= out (QUOTE y)) (:= out (QUOTE n))) out)")
    assert sexpr_print(run(p, [parse("(a)")], 100).value) == "y"
    assert sexpr_print(run(p, [parse("a")], 100).value) == "y"  # atoms are true
    assert sexpr_print(run(p, [parse("()")], 100).value) == "n"


def test_tiny_programs_run_in_constant_time():
    rng = random.Random(11)
    sizes = [parse("a"), to_unary(500), to_unary(5 * 10**5)]
    for _ in range(10):
        p = random_tiny_program(rng)
        assert is_tiny(p)
        counts = {run(p, [x, x], FUEL).steps for x in sizes}
        assert len(counts) == 1


def test_determinism():
    rng = random.Random(13)
    p = random_tiny_program(rng)
    args = [parse("(a b)"), parse("c")]
    first = run(p, args, FUEL)
    again = run(p, args, FUEL)
    assert first.steps == again.steps and equal(first.value, again.value)


def test_fuel_monotonicity():
    p = dec("((x) (while x (:= x (tl x))) x)")
    base = run(p, [to_unary(10)], FUEL)
    assert base.halted
    k = base.steps
    for fuel in (k, k + 1, k + 100, FUEL * 10):
        r = run(p, [to_unary(10)], fuel)
        assert r.halted and r.steps == k and equal(r.value, base.value)
    short = run(p, [to_unary(10)], k - 1)
    assert short.status == RunResult.FUEL and short.steps == k - 1


def test_exhaustion_reports_fuel_spent():
    p = dec("((x) (while (QUOTE 1) (:= x x)) x)")
    r = run(p, [parse("a")], 5000)
    assert r.status == RunResult.FUEL
    assert r.steps == 5000
    assert r.value is None


def test_tiny_totality_no_runtime_errors():
    rng = random.Random(17)
    for _ in range(40):
        p = random_tiny_program(rng)
        for d in random_inputs(rng, 2):
            assert run(p, [d, d], FUEL).status == RunResult.HALTED


def test_reflective_forms_error_in_plain_mode():
    p = dec("((q d) (:= out (univ q d)) out)")
    r = run(p, [encode(dec("((x) (:= out x) out)")), parse("a")], 100)
    assert r.status == RunResult.ERROR
    p2 = dec("((q d) (:= out *) out)")
    assert run(p2, [parse("a"), parse("b")], 100).status == RunResult.ERROR


def test_selfref_evaluates_to_own_text():
    p = dec("((q d) (:= out *) out)")
    r = run(p, [parse("a"), parse("b")], 100, mode="reflective")
    assert equal(r.value, encode(p))


def test_univ_call_runs_encoded_program():
    ident = dec("((x) (:= out x) out)")
    p = prog(("q", "d"), asg("out", univ(V("q"), V("d"))), "out")
    r = run(p, [encode(ident), parse("(a b)")], 1000, mode="reflective")
    assert sexpr_print(r.value) == "(a b)"
    direct = run(ident, [parse("(a b)")], 1000)
    # dispatch + inner run's steps are charged to the shared budget
    assert r.steps > direct.steps


def test_univ_call_shares_one_fuel_budget():
    looper = prog(("x",), wh(QA("1"), asg("x", V("x"))), "x")
    p = prog(("q", "d"), asg("out", univ(V("q"), V("d"))), "out")
    r = run(p, [encode(looper), parse("a")], 20000, mode="reflective")
    assert r.status == RunResult.FUEL
    assert r.steps == 20000


def test_univ_call_on_garbage_is_a_runtime_error():
    p = prog(("q", "d"), asg("out", univ(V("q"), V("d"))), "out")
    r = run(p, [parse("(not a program)"), parse("a")], 1000, mode="reflective")
    assert r.status == RunResult.ERROR


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        run(dec("((q d) (:= out q) out)"), [parse("a")], 100)


def _deep(body):
    """``body`` in 20 nested whiles, past the outlining depth."""
    for _ in range(20):
        body = wh(V("d"), body)
    return body


@pytest.fixture
def scratch_shapes(monkeypatch):
    """An empty shape cache for one test.  A shape run a few times runs
    on warmed code that takes one frame less of the stack, so a test that
    warmed the shapes of the stack tests below would shift their margins."""
    monkeypatch.setattr(flowchart, "_SHAPES", {})
    return flowchart._SHAPES


#: Programs with one value in question, each as (id, the program around
#: a value, a value where no node of its kind belongs, a value that
#: belongs there, and the TypeError that the first raises).
MISPLACED = [
    ("command-as-operand", lambda v: prog(("d",), Assign("x", v), "x"),
     lambda: Assign("y", V("d")), lambda: V("d"),
     "Assign.expr must be an expression, not Assign"),
    ("command-under-hd", lambda v: prog(("d",), asg("x", Hd(v)), "x"),
     lambda: seq(asg("y", V("d")), asg("z", V("d"))), lambda: V("d"),
     "Hd.arg must be an expression, not Seq"),
    ("expression-as-body", lambda v: prog(("d",), v, "x"),
     lambda: V("d"), lambda: asg("x", V("d")),
     "Program.body must be a command, not Var"),
    ("deep-expression-as-body", lambda v: prog(("d",), _deep(v), "x"),
     lambda: V("d"), lambda: asg("x", V("d")),
     "While.body must be a command, not Var"),
    ("deep-non-node", lambda v: prog(("d",), _deep(Assign("x", v)), "x"),
     lambda: "junk", lambda: V("d"),
     "Assign.expr must be an expression, not str"),
    ("command-as-univ-operand",
     lambda v: prog(("d",), asg("x", univ(v, V("d"))), "x"),
     lambda: Assign("y", V("d")), lambda: V("d"),
     "UnivCall.prog must be an expression, not Assign"),
]


@pytest.mark.parametrize("case", MISPLACED, ids=[case[0] for case in MISPLACED])
@pytest.mark.parametrize("mode", ["plain", "reflective"])
def test_misplaced_node_is_rejected_before_running(case, mode, scratch_shapes):
    # the value in its place runs; the misplaced one fails to build, so
    # no such program reaches run, and nothing is compiled for it
    _, build, misplaced, placed, message = case
    assert type(run(build(placed()), [parse("a")], 100, mode)) is RunResult
    before = list(scratch_shapes)
    with pytest.raises(TypeError) as info:
        build(misplaced())
    assert str(info.value) == message
    assert list(scratch_shapes) == before


@pytest.mark.parametrize("call, message", [
    (lambda: run(dec("((d) (:= out d) out)"), [NIL], 0), "fuel must be positive"),
    (lambda: run(dec("((d) (:= out d) out)"), [NIL], 10, "weird"),
     "unknown mode 'weird'"),
    (lambda: trm_run(trm_parse("1#"), [], 0), "fuel must be positive"),
    (lambda: trm_run(trm_parse("1#"), [], 10, "fast"), "unknown variant 'fast'"),
], ids=["run-fuel", "run-mode", "trm_run-fuel", "trm_run-variant"])
def test_entry_points_reject_bad_settings(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: run(dec("((d) (:= out d) out)"), [NIL], 1.5),
     "fuel must be an int, not float"),
    (lambda: run(dec("((d) (:= out d) out)"), [NIL], True),
     "fuel must be an int, not bool"),
    (lambda: trm_run(trm_parse("1#1#1#"), [], 2.0),
     "fuel must be an int, not float"),
    (lambda: trm_run(trm_parse("1#"), [], True), "fuel must be an int, not bool"),
    (lambda: run(dec("((x) (while x (:= x (tl x))) x)"), ["abc"], 100),
     "argument 'abc' is not an s-expression"),
    (lambda: run(dec("((q d) (:= out d) out)"), [NIL, None], 100, "reflective"),
     "argument None is not an s-expression"),
], ids=["run-float-fuel", "run-bool-fuel", "trm_run-float-fuel",
        "trm_run-bool-fuel", "run-str-argument", "run-none-argument"])
def test_entry_points_reject_values_of_the_wrong_type(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: run(5, []),
    lambda: run("x", []),
    lambda: is_tiny(5),
    lambda: specialize(5, NIL),
    lambda: eliminate_dead_code(5),
    lambda: kleene_intermediate(5),
    lambda: kleene_fixpoint(5),
    lambda: moss_qhat(5),
    lambda: moss_fixpoint(5),
    lambda: compose(5, 5),
    lambda: compose(dec("((d) (:= out d) out)"), 5),
    lambda: measure_overhead(5, [NIL]),
    lambda: wrap_nullary(5),
    lambda: interpreter_wrapped(5),
    lambda: futamura("target", 5),
], ids=["run", "run-str", "is_tiny", "specialize", "eliminate_dead_code",
        "kleene_intermediate", "kleene_fixpoint", "moss_qhat", "moss_fixpoint",
        "compose", "compose-q", "measure_overhead", "wrap_nullary",
        "interpreter_wrapped", "futamura"])
def test_a_non_program_is_rejected_with_type_error(call):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) in ("expected a Program, not int",
                               "expected a Program, not str")


@pytest.mark.parametrize("build, good, bad, message", [
    (lambda n: Program(["x"], Assign(n, Var("x")), "out"), "y", 5,
     "Assign.var must be a str, not int"),
    (lambda n: Program(["x"], Assign("out", Var(n)), "out"), "x", None,
     "Var.name must be a str, not NoneType"),
    (lambda n: Program(["x"], Assign("out", Var("x")), n), "out", 7,
     "Program.output must be a str, not int"),
    (lambda n: Program([n], Assign("out", Var("x")), "out"), "x", 3,
     "each of Program.inputs must be a str, not int"),
], ids=["assigned", "read", "output", "input"])
@pytest.mark.parametrize("mode", ["plain", "reflective"])
def test_run_rejects_a_name_that_is_not_a_str(build, good, bad, message, mode,
                                              scratch_shapes):
    # a program with the name runs; with a non-str name it fails to build
    assert run(build(good), [NIL], 100, mode).halted
    with pytest.raises(TypeError) as info:
        build(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("walk, message, takes_expression", [
    (is_tiny, "expected a Program, not {}", False),
    (command_vars, "command_vars's argument must be a command, not {}", False),
    (lambda v: rename_command(v, {"d": "e"}),
     "rename_command's argument must be a command, not {}", False),
    (eliminate_dead_code, "expected a Program, not {}", False),
    (encode, "encode's argument must be a Program or a node, not {}", True),
], ids=["is_tiny", "command_vars", "rename_command", "eliminate_dead_code",
        "encode"])
def test_walkers_reject_a_value_that_is_no_node(walk, message, takes_expression):
    # a walk checks only its root: no malformed tree can be built, so the
    # walk never meets one under a node or a program
    cases = [("non-node", lambda v: seq(asg("y", V("d")), Assign("x", v)),
              lambda: "junk", "Assign.expr must be an expression, not str"),
             ("quoted-non-sexpr", lambda v: asg("x", hd(Quote(v))), lambda: 5,
              "Quote.value must be an Atom or a Pair, not int"),
             *[(name, build, bad, why) for name, build, bad, _, why in MISPLACED]]
    for name, build, bad, why in cases:
        with pytest.raises(TypeError) as info:
            build(bad())
        assert str(info.value) == why, name
    roots = ["junk", 5, None, NIL, *(() if takes_expression else (V("d"),))]
    for root in roots:
        with pytest.raises(TypeError) as info:
            walk(root)
        assert str(info.value) == message.format(type(root).__name__)
    with pytest.raises(TypeError, match="^Hd.arg must be an expression, not str$"):
        Hd("junk")
    with pytest.raises(TypeError,
                       match="^expr_vars's argument must be an expression, not Assign$"):
        expr_vars(asg("x", V("d")))


def test_rename_command_rejects_a_renaming_to_a_non_name():
    # a renaming is outside input: a non-str name would build a tree that
    # no constructor admits
    for mapping, message in [({"x": 5}, "a renamed variable must be a str, not int"),
                             ({"y": None}, "a renamed variable must be a str, not NoneType"),
                             ([("x", "y")], "a renaming must be a dict, not list")]:
        with pytest.raises(TypeError) as info:
            rename_command(asg("x", V("d")), mapping)
        assert str(info.value) == message
    renamed = rename_command(asg("x", V("d")), {"x": "y"})
    assert sexpr_print(encode(renamed)) == "(:= y d)"


def test_run_handles_any_control_nesting():
    # 10^4 nested whiles and ifs: past CPython's limits of 20 nested
    # loops and 100 indentation levels in one function
    n, m = 10**4, 3
    body = wh(V("x"), asg("x", tl(V("x"))))
    for i in range(n - 1):
        body = (iff(V("x"), body, asg("y", V("x"))) if i % 2 == 0
                else wh(V("x"), body))
    whiles = (n - 1) // 2
    r = run(prog(("x",), body, "x"), [to_unary(m)], FUEL)
    # each level's first test, the inner loop, each outer while's last
    # test, the final read
    assert r.halted and sexpr_print(r.value) == "()"
    assert r.steps == 2 * (n - 1) + (5 * m + 2) + 2 * whiles + 1


#: The reflective countdown: one native univ call on its own text per level.
COUNTDOWN = ("((d) (if d (:= out (cons (QUOTE 1) (univ * (tl d)))) "
             "(:= out (QUOTE ()))) out)")


@pytest.mark.parametrize("n", [250, 5000])
def test_univ_nesting_is_bounded_by_fuel_not_the_python_stack(n):
    r = run(dec(COUNTDOWN), [to_unary(n)], 10**7, mode="reflective")
    assert r.halted and r.steps == 10 * n + 5
    assert equal(r.value, to_unary(n))


def _near_the_recursion_limit(margin, call):
    """``call()`` from ``margin`` frames below Python's recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(k):
        return call() if k <= 0 else down(k - 1)

    return down(sys.getrecursionlimit() - margin - depth)


def test_univ_nesting_needs_a_bounded_python_stack():
    # a chain of univ calls nested by yield from runs on the Python
    # stack, so its length bounds the stack a run needs at any depth
    p = dec(COUNTDOWN)
    r = _near_the_recursion_limit(
        40, lambda: run(p, [to_unary(5000)], 10**7, mode="reflective"))
    assert r.halted and r.steps == 10 * 5000 + 5


def _least_margin(call):
    """The fewest frames below the recursion limit that ``call()`` needs."""
    margin = 0
    while True:
        try:
            _near_the_recursion_limit(margin, call)
            return margin
        except RecursionError:
            margin += 1


def test_univ_nesting_fits_any_stack_that_run_itself_fits(monkeypatch):
    # run raises the recursion limit by one budget for the whole run, so
    # its chains of 16 generators fit wherever a run without univ calls
    # can be called, and each run executes its program once
    trivial = dec("((d) (:= out d) out)")
    entry = _least_margin(lambda: run(trivial, [NIL], 10))
    executed = []
    execute = flowchart._execute
    monkeypatch.setattr(flowchart, "_execute",
                        lambda *args: executed.append(args) or execute(*args))
    for margin in range(40, entry - 1, -1):
        p = dec(COUNTDOWN)
        executed.clear()
        r = _near_the_recursion_limit(
            margin, lambda: run(p, [to_unary(5000)], 10**7, mode="reflective"))
        assert r.halted and r.steps == 10 * 5000 + 5, margin
        assert equal(r.value, to_unary(5000))
        assert len(executed) == 1, margin


@pytest.mark.parametrize("fuel, mode, status", [
    (10**7, "reflective", RunResult.HALTED),
    (100, "reflective", RunResult.FUEL),
    (10**7, "plain", RunResult.ERROR),
], ids=["halted", "fuel-exhausted", "runtime-error"])
def test_run_restores_the_recursion_limit(fuel, mode, status, scratch_shapes):
    # at the top of the stack, and as near its limit as the run fits
    limit = sys.getrecursionlimit()
    p = dec(COUNTDOWN)

    def call():
        return run(p, [to_unary(300)], fuel, mode)

    for r in (call(), _near_the_recursion_limit(_least_margin(call), call)):
        assert r.status == status and sys.getrecursionlimit() == limit


def _ifs(depth):
    """``depth`` ifs nested in their then arms, past the outlining depth."""
    body = asg("out", V("d"))
    for _ in range(depth):
        body = iff(V("d"), body, asg("out", QNIL()))
    return prog(("d",), body, "out")


def test_a_new_shape_compiles_at_any_stack_a_compiled_one_runs_at(monkeypatch):
    # emitting and compiling a new shape take more stack than running a
    # compiled one, and the run's budget of frames holds them
    compiled = _ifs(120)
    want = run(compiled, [parse("(a)")], FUEL)
    assert want.halted and want.steps == 2 * 120 + 3
    least = _least_margin(lambda: run(compiled, [parse("(a)")], FUEL))
    for margin in range(40, least - 1, -1):
        monkeypatch.setattr(flowchart, "_SHAPES", {})
        p = _ifs(120)
        r = _near_the_recursion_limit(margin, lambda: run(p, [parse("(a)")], FUEL))
        assert (r.status, r.steps) == (want.status, want.steps), margin
        assert flowchart._SHAPES, margin  # the shape was compiled afresh


def test_a_new_shape_compiles_at_the_end_of_a_chain_wherever_run_fits(monkeypatch):
    # the deepest point of a run: a univ call at the end of a chain of 16
    # compiles 40 nested whiles, as deep as emitted source gets
    deep = sexpr_print(encode(prog(("d",), _deep(_deep(asg("d", tl(V("d"))))), "d")))
    text = f"((d) (if d (:= d (univ * (tl d))) (:= d (univ (QUOTE {deep}) d))) d)"
    want = run(dec(text), [to_unary(15)], FUEL, mode="reflective")
    assert want.halted and want.steps == 15 * 8 + 7 + 3  # levels, bottom, callee
    trivial = dec("((d) (:= out d) out)")
    for margin in range(40, _least_margin(lambda: run(trivial, [NIL], 10)) - 1, -1):
        monkeypatch.setattr(flowchart, "_SHAPES", {})
        p = dec(text)
        r = _near_the_recursion_limit(
            margin, lambda: run(p, [to_unary(15)], FUEL, mode="reflective"))
        assert (r.status, r.steps) == (want.status, want.steps), margin


def test_outlined_commands_start_at_their_callers_chain_position():
    # a block outlined past _MAX_NEST runs the countdown by univ, and so
    # starts a chain of univ calls: near the recursion limit it runs
    # wherever its twin without the whiles, where nothing is outlined, does
    body = seq(asg("out", univ(Quote(parse(COUNTDOWN)), V("d"))),
               asg("d", QNIL()))
    p, twin = prog(("d",), _deep(body), "out"), prog(("d",), body, "out")
    assert "yield B1(" in _Emitter(p).source()
    assert "yield B" not in _Emitter(twin).source()

    def runs(program):
        return lambda: run(program, [to_unary(300)], 10**7, mode="reflective")

    want = runs(p)()
    assert want.halted and equal(want.value, to_unary(300))
    for _ in range(10):     # code run a few times takes a frame less
        runs(p)()
        runs(twin)()
    for margin in range(40, _least_margin(runs(twin)) - 1, -1):
        r = _near_the_recursion_limit(margin, runs(p))
        assert (r.status, r.steps) == (want.status, want.steps), margin
        assert equal(r.value, want.value)


def test_univ_calls_nest_by_yield_from_and_outlined_commands_by_yield():
    body = asg("x", univ(V("q"), V("x")))
    for _ in range(20):  # past the outlining depth
        body = wh(V("x"), body)
    source = _Emitter(prog(("q", "x"), body, "x")).source()
    assert "= yield from U(v0, v1, s, D)" in source
    assert "= yield B1(" in source and "yield from B" not in source
    source = _Emitter(dec(COUNTDOWN)).source()
    assert "= yield from (P(t2, s, F, U, D + 1) if OWN and D < 15 " \
           "else U(SELF, t2, s, D))" in source


def test_unbounded_univ_nesting_exhausts_fuel():
    p = dec("((d) (:= out (univ * d)) out)")
    r = run(p, [parse("a")], 10**5, mode="reflective")
    assert r.status == RunResult.FUEL and r.steps == 10**5


def test_a_loop_test_ending_in_univ_is_not_checked_twice():
    # the callee's final read has just checked the steps against the fuel
    p = dec("((d) (while (univ * (tl d)) (:= d (tl d))) d)")
    assert "s += 0" not in _Emitter(p).source()
    for text in ("a", "(a b c)"):
        for fuel in range(1, 201):
            _agree(p, [parse(text)], fuel, "reflective")


def _compare_with(name):
    return prog(("x",), asg("out", Eq(V("x"), QA(name))), "out")


def test_quoted_atom_names_share_one_compiled_shape(monkeypatch):
    first, second = _compare_with("apple"), _compare_with("pear")
    source = _Emitter(first).source()
    assert source == _Emitter(second).source()
    assert "apple" not in source and "equal(" not in source
    assert "K0 = C[0].name" in source and "v0._nm == K0" in source
    args = [parse("pear")]
    run(first, args, 100)
    entries = len(_SHAPES)

    def emit(self):
        raise AssertionError("a known shape emitted its source")

    monkeypatch.setattr(_Emitter, "source", emit)
    r = run(second, args, 100)
    assert len(_SHAPES) == entries
    assert sexpr_print(r.value) == "1"


def test_a_quoted_pair_keeps_the_general_equality():
    source = _Emitter(dec("((x) (:= out (= x (QUOTE (a b)))) out)")).source()
    assert "equal(" in source and "K0" not in source
    assert source != _Emitter(_compare_with("a")).source()


NAMES = ["apple", "pear", "a'b", 'say"hi"', "back\\slash", "\\'\"", "()"]


@pytest.mark.parametrize("text", [
    "((x) (:= out (= x (QUOTE {k}))) out)",
    "((x) (:= out (= (QUOTE {k}) x)) out)",
    "((x) (if (= x (QUOTE {k})) (:= out (QUOTE yes)) (:= out x)) out)",
    "((x) (while (= (hd x) (QUOTE {k})) (:= x (tl x))) x)",
    "((x) (; (:= out (= (QUOTE {k}) (QUOTE apple))) "
    "(:= out (cons out (= (QUOTE {k}) (QUOTE {k}))))) out)",
])
@pytest.mark.parametrize("k", NAMES)
def test_equality_with_a_quoted_atom_agrees_with_reference(text, k):
    p = dec(text.format(k=k))
    if k != "()":
        assert k not in _Emitter(p).source()
    for x in [*NAMES, "(apple)", "(pear pear)"]:
        for mode in ("plain", "reflective"):
            for fuel in (1, 4, 7, 100):
                _agree(p, [parse(x)], fuel, mode)


@pytest.mark.parametrize("text", [
    "((x) (:= x (cons x x)) x)",
    "((x) (; (:= y (QUOTE b)) (; (:= x (cons y x)) (:= x (cons x y)))) x)",
    "((x) (:= x (cons (hd x) (cons x (tl x)))) x)",
    "((x) (while (atom? (hd x)) (:= x (cons x x))) x)",
])
def test_cons_into_one_of_its_operands_agrees_with_reference(text):
    p = dec(text)
    assert "Pair(" not in _Emitter(p).source().replace("new(Pair)", "")
    for x in ("a", "(a b)", "((a) b)"):
        for fuel in (3, 5, 100):
            _agree(p, [parse(x)], fuel, "plain")
