"""Property tests: the s-expression codec round-trips on generated values
and on generated canonical texts, the program codec on generated
programs of every node kind, and ``run`` agrees with the reference
evaluator on generated reflective programs."""

from hypothesis import given, settings, strategies as st

from srtlab.flowchart import (
    Assign, Cons, Eq, Hd, If, IsAtom, Program, Quote, SelfRef, Seq, Tl,
    UnivCall, Var, While, decode, encode, rename_command,
)
from srtlab.sexpr import Atom, Pair, equal, parse, sexpr_print, tree_size

from reference import _agree

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# atom names are tokens: no whitespace or parentheses, and not a lone dot
names = st.text(alphabet="ab1.*=:é", min_size=1, max_size=4).filter(
    lambda name: name != ".")
atoms = st.one_of(names, st.just("()")).map(Atom)

values = st.recursive(
    atoms, lambda inner: st.builds(Pair, inner, inner), max_leaves=40)


def canonical(children):
    """Canonical list texts: elements joined by one space, an optional
    dotted atom tail that is not ()."""
    return st.builds(
        lambda items, tail: "(" + " ".join(items)
        + ("" if tail is None else " . " + tail) + ")",
        st.lists(children, min_size=1, max_size=5),
        st.none() | names)


texts = st.recursive(names | st.just("()"), canonical, max_leaves=40)


@PROPERTY
@given(values)
def test_parse_inverts_print(s):
    back = parse(sexpr_print(s))
    assert equal(back, s)
    assert tree_size(back) == tree_size(s)


@PROPERTY
@given(texts)
def test_print_inverts_parse_on_canonical_texts(text):
    assert sexpr_print(parse(text)) == text


# variable names: any token but (), * and a lone dot; '%' admits reserved ones
variables = st.text(alphabet="ax1=:%", min_size=1, max_size=3)
expressions = st.recursive(
    variables.map(Var) | st.builds(SelfRef) | values.map(Quote),
    lambda inner: st.one_of(
        *(st.builds(op, inner) for op in (Hd, Tl, IsAtom)),
        *(st.builds(op, inner, inner) for op in (Cons, Eq, UnivCall))),
    max_leaves=8)
commands = st.recursive(
    st.builds(Assign, variables, expressions),
    lambda inner: st.one_of(st.builds(Seq, inner, inner),
                            st.builds(While, expressions, inner),
                            st.builds(If, expressions, inner, inner)),
    max_leaves=8)
programs = st.builds(Program, st.lists(variables, max_size=3, unique=True),
                     commands, variables)


@PROPERTY
@given(programs)
def test_decode_inverts_encode(p):
    text = sexpr_print(encode(p))
    s = parse(text)
    q = decode(s, allow_reserved=True)
    assert encode(q) is s
    # a copy of every node but Quote and SelfRef re-encodes from scratch
    fresh = Program(q.inputs, rename_command(q.body, {}), q.output)
    assert equal(encode(fresh), encode(p))
    assert sexpr_print(encode(fresh)) == text


# callees for univ: one-input programs (one recursing through *), a
# two-input program and garbage
CALLEES = [parse(text) for text in (
    "((x) (:= out (cons x x)) out)",
    "((d) (if d (:= out (univ * (tl d))) (:= out d)) out)",
    "((x y) (:= out x) out)",
    "(not a program)")]

# a program's variable names are slots, filled from three drawn names and
# then *: decode rejects * as a variable and reads an atom * in an
# expression as SelfRef, so a program using it is not its text's decoding
slots = st.integers(0, 3).map(str)
run_expressions = st.recursive(
    slots.map(Var) | st.builds(SelfRef) | atoms.map(Quote)
    | st.sampled_from(CALLEES).map(Quote),
    lambda inner: st.one_of(
        *(st.builds(op, inner) for op in (Hd, Tl, IsAtom)),
        *(st.builds(op, inner, inner) for op in (Cons, Eq, UnivCall)),
        st.builds(UnivCall, st.builds(SelfRef), inner)),
    max_leaves=6)
run_commands = st.recursive(
    st.builds(Assign, slots, run_expressions),
    lambda inner: st.one_of(st.builds(Seq, inner, inner),
                            st.builds(While, run_expressions, inner),
                            st.builds(If, run_expressions, inner, inner)),
    max_leaves=5)


def _filled(pool, arity, body, output, args):
    """The program with inputs ``pool[:arity]``, its slots filled."""
    fill = dict(zip("0123", [*pool, "*"]))
    return (Program(pool[:arity], rename_command(body, fill), fill[output]),
            args[:arity])


runs = st.builds(_filled, st.lists(names, min_size=3, max_size=3, unique=True),
                 st.integers(1, 2), run_commands, slots,
                 st.lists(values, min_size=2, max_size=2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(runs, st.sampled_from(("plain", "reflective")), st.integers(1, 60))
def test_run_agrees_with_reference(case, mode, fuel):
    # fuels this small let runs halt, run out of fuel and fault alike
    program, args = case
    _agree(program, args, fuel, mode)
