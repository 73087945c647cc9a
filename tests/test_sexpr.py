import random
import re

import pytest

from srtlab.sexpr import (
    NIL, Atom, Pair, ParseError, dag_size, equal, from_unary, is_nil,
    measure, parse, sexpr_print, to_unary, tree_size,
)

from proggen import random_sexpr
from reference import ref_measure, ref_parse, ref_print


def test_parse_empty_list_is_the_nil_atom():
    s = parse("()")
    assert is_nil(s)
    assert type(s) is Atom


def test_parse_list_notation_expands_to_pairs():
    s = parse("(a b)")
    assert type(s) is Pair
    assert s.head.name == "a"
    assert s.tail.head.name == "b"
    assert is_nil(s.tail.tail)


def test_parse_program_shape():
    s = parse("((q d) C out)")
    first = s.head
    assert type(first) is Pair
    assert [a.name for a in (first.head, first.tail.head)] == ["q", "d"]
    assert s.tail.head.name == "C"
    assert s.tail.tail.head.name == "out"


def test_print_examples():
    assert sexpr_print(Atom("x")) == "x"
    assert sexpr_print(Pair(Atom("a"), NIL)) == "(a)"
    assert sexpr_print(parse("(a . b)")) == "(a . b)"
    assert sexpr_print(parse("(a b . c)")) == "(a b . c)"


def test_whitespace_insensitive_input():
    assert equal(parse("  ( a\n\tb )  "), parse("(a b)"))


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("(a", "unbalanced"),
    ("a)", "stray"),
    (")", "unbalanced"),
    ("(a) b", "stray"),
    ("(. a)", "misplaced"),
    ("(a . b c)", "more than one"),
    ("(a .)", "missing value"),
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert fragment in str(info.value)
    assert info.value.position >= 0


def test_round_trip_on_random_values():
    rng = random.Random(7)
    for _ in range(200):
        s = random_sexpr(rng, rng.randint(1, 25))
        assert equal(parse(sexpr_print(s)), s)


def test_measure_atom():
    assert measure(Atom("a")) == (1, 1)


def test_measure_shared_pair():
    t = Pair(Atom("a"), Atom("b"))
    assert measure(Pair(t, t)) == (7, 4)


def test_pair_construction_shares_not_copies():
    rng = random.Random(1)
    for _ in range(50):
        s = random_sexpr(rng, rng.randint(1, 15))
        assert dag_size(Pair(s, s)) == dag_size(s) + 1


def test_dag_never_exceeds_tree():
    rng = random.Random(2)
    for _ in range(100):
        s = random_sexpr(rng, rng.randint(1, 20))
        ts, ds = measure(s)
        assert ds <= ts
        # parsed values are pure trees: equality holds
        assert measure(parse(sexpr_print(s)))[0] == ts


def test_deep_measure_is_cheap_under_sharing():
    # doubling chain: tree size is astronomical, dag stays linear
    s = Atom("a")
    for _ in range(64):
        s = Pair(s, s)
    ts, ds = measure(s)
    assert ds == 65
    assert ts == 2 ** 65 - 1


def test_equal_ignores_sharing():
    t = Pair(Atom("a"), Atom("b"))
    shared = Pair(t, t)
    flat = parse("((a . b) . (a . b))")
    assert equal(shared, flat)


def test_equal_is_an_equivalence():
    rng = random.Random(3)
    values = [random_sexpr(rng, rng.randint(1, 10)) for _ in range(12)]
    for a in values:
        assert equal(a, a)
        for b in values:
            assert equal(a, b) == equal(b, a)
            for c in values:
                if equal(a, b) and equal(b, c):
                    assert equal(a, c)


def test_eq_and_ne_operators_agree_with_equal():
    a = Atom("a")
    shared = Pair(a, a)
    cases = [(a, a), (a, Atom("a")), (a, Atom("b")), (NIL, Atom("()")),
             (shared, shared), (shared, Pair(Atom("a"), Atom("a"))),
             (shared, Pair(a, Atom("b"))), (Pair(shared, NIL), Pair(shared, a)),
             (a, shared)]
    for x, y in cases:
        assert (x == y) is equal(x, y) and (y == x) is equal(x, y)
        assert (x != y) is (not equal(x, y)) and (y != x) is (not equal(x, y))
    for other in ("a", None, 0, ("a",)):
        assert a.__eq__(other) is NotImplemented
        assert a.__ne__(other) is NotImplemented
        assert not (a == other) and not (other == shared)
        assert a != other and other != shared


def test_atoms_differ_by_name():
    assert not equal(Atom("a"), Atom("b"))
    assert equal(Atom("a"), Atom("a"))


def test_unary_numerals():
    assert is_nil(to_unary(0))
    assert from_unary(to_unary(17)) == 17
    assert sexpr_print(to_unary(3)) == "(1 1 1)"


def test_deep_values_do_not_overflow():
    n = 10**5
    s = to_unary(n)
    assert tree_size(s) == 2 * n + 1
    assert from_unary(parse(sexpr_print(s))) == n


def test_deep_head_nesting_does_not_overflow():
    n = 10**5
    s = NIL
    for _ in range(n):
        s = Pair(s, NIL)
    text = sexpr_print(s)
    assert text == "(" * n + "()" + ")" * n
    assert measure(s) == (2 * n + 1, n + 1)     # every tail is the one NIL
    # parsing gives the innermost () its own atom; every list ends in NIL
    assert measure(parse(text)) == (2 * n + 1, n + 2)


# ---------------------------------------------------------------------------
# the parser against ``ref_parse``: the character-at-a-time tokeniser and
# the parse loop over (token, offset) pairs that the regex tokeniser replaced

def parse_outcome(parser, text):
    """The printed value and its measure, or the error message and offset;
    measure tells a fresh () atom from the shared NIL."""
    try:
        value = parser(text)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "value", ref_print(value), ref_measure(value)


PIECES = ["(", ")", ".", "a", "bc", " ", "\t", "\n", "\u00a0", "\u2003"]


def random_text(rng):
    """Half free strings of PIECES, half balanced ones (mostly one list)
    with up to two random edits, so that most of them parse."""
    if rng.random() < 0.5:
        weights = [rng.randint(0, 4) for _ in PIECES]
        weights[0] += 1
        return "".join(rng.choices(PIECES, weights, k=rng.randint(0, 30)))
    pieces, depth = [], 0
    for piece in rng.choices(PIECES, k=rng.randint(0, 30)):
        if piece == ")" and not depth:
            continue
        depth += (piece == "(") - (piece == ")")
        pieces.append(piece)
    pieces += [")"] * depth
    if rng.random() < 0.7:
        pieces = ["("] + pieces + [")"]
    for _ in range(rng.choice([0, 0, 1, 2])):
        k = rng.randint(0, len(pieces))
        if pieces and rng.random() < 0.5:
            del pieces[min(k, len(pieces) - 1)]
        else:
            pieces.insert(k, rng.choice(PIECES))
    return "".join(pieces)


def test_parser_matches_the_reference_parser():
    rng = random.Random(811)
    errors = set()
    lists = 0
    for _ in range(4000):
        text = random_text(rng)
        expected = parse_outcome(ref_parse, text)
        assert parse_outcome(parse, text) == expected, text
        if expected[0] == "error":
            errors.add(expected[1].split(" (at")[0])
        else:
            lists += expected[1].startswith("(")
    assert len(errors) == 8   # every ParseError message was reached
    assert lists > 500


def test_regex_whitespace_is_str_isspace():
    text = "".join(map(chr, range(0x110000)))
    assert "".join(re.findall(r"\s", text)) == "".join(filter(str.isspace, text))


# ---------------------------------------------------------------------------
# the printer and measure against ``ref_print`` and ``ref_measure``, on
# random DAGs

def random_dag(rng, steps):
    """Pairs built over a pool that keeps every node made, so later pairs
    share earlier ones; atoms include NIL, fresh () atoms and dotted tails."""
    pool = [NIL, Atom("()"), Atom("a"), Atom("bc")]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            pool.append(rng.choice([Atom("()"), Atom("x"), NIL]))
        elif roll < 0.35:   # a list of recent nodes, maybe dotted
            tail = rng.choice([NIL, Atom("()"), Atom("z"), rng.choice(pool)])
            for _ in range(rng.randint(1, 4)):
                tail = Pair(rng.choice(pool[-6:]), tail)
            pool.append(tail)
        else:
            pool.append(Pair(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def test_printer_and_measure_match_the_references():
    rng = random.Random(509)
    shared = 0
    for _ in range(1500):
        s = random_dag(rng, rng.randint(0, 14))
        tree, dag = ref_measure(s)
        if tree > 20000:
            continue
        shared += dag < tree
        assert measure(s) == (tree, dag)
        assert tree_size(s) == tree
        assert dag_size(s) == dag
        text = sexpr_print(s)
        assert text == ref_print(s)
        assert sexpr_print(parse(text)) == text
        assert measure(parse(text))[0] == tree
    assert shared > 500


@pytest.mark.parametrize("s,text", [
    (Pair(NIL, NIL), "(())"),
    (Pair(Atom("()"), Atom("()")), "(())"),
    (Pair(Pair(NIL, NIL), Pair(NIL, Atom("b"))), "((()) () . b)"),
    (Pair(Pair(Pair(NIL, NIL), NIL), NIL), "(((())))"),
])
def test_empty_lists_in_head_and_tail_position(s, text):
    assert sexpr_print(s) == ref_print(s) == text
    assert measure(s) == ref_measure(s)
