"""Property tests: the s-expression codec round-trips on generated values
and on generated canonical texts."""

from hypothesis import given, settings, strategies as st

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
