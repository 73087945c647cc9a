"""Property tests: the s-expression codec round-trips on generated values
and on generated canonical texts, and the program codec on generated
programs of every node kind."""

from hypothesis import given, settings, strategies as st

from srtlab.flowchart import (
    Assign, Cons, Eq, Hd, If, IsAtom, Program, Quote, SelfRef, Seq, Tl,
    UnivCall, Var, While, decode, encode, rename_command,
)
from srtlab.sexpr import Atom, Pair, equal, parse, sexpr_print, tree_size

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
