"""Symbolic tree values: the universal data domain.

Values are immutable atoms and pairs.  Pair construction reuses its
arguments by reference, so substructures may be shared; sharing is
invisible to structural equality and only observable through
``measure`` (tree size counts shared nodes once per visit, DAG size
once per distinct node).

Concrete text format: ``(a b c)`` abbreviates right-nested pairs ending
in the empty-list atom ``()``; improper tails are written with a dot,
``(a . b)``.

The codec is iterative, so depth is bounded by memory alone.  ``parse``
tokenises with C string methods and builds its nodes without calling
``__init__``; character offsets are computed only for a ``ParseError``.
``sexpr_print`` and ``measure`` walk each list's tail chain in a loop,
keeping a stack only for nested list heads.

``Atom`` takes only a ``str`` and ``Pair`` only atoms and pairs, so a
value is closed at construction and no walk meets anything else; the
walks check only their top-level argument.

Every value also answers three private attributes with no type test,
for the compiled flowchart executor: ``_hd`` and ``_tl`` (a pair's
``head`` and ``tail`` slots under a second name, ``()`` on an atom) and
``_nm`` (an atom's ``name`` slot; on a pair, a sentinel that equals no
name).  They are private so that code telling pairs from atoms by
``hasattr(value, "head")`` still can.
"""

import re
from itertools import islice

__all__ = [
    "SExpr", "Atom", "Pair", "NIL", "ONE",
    "ParseError", "parse", "sexpr_print", "measure", "tree_size",
    "dag_size", "equal", "is_nil", "from_list", "from_unary", "to_unary",
]


class SExpr:
    """Base class for symbolic tree values."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, SExpr):
            return NotImplemented
        return equal(self, other)

    __hash__ = None  # structural equality; keep these out of sets/dicts

    def __repr__(self):
        text = sexpr_print(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<sexpr {text}>"


class Atom(SExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        if not isinstance(name, str):
            raise TypeError("an atom's name must be a str, "
                            f"not {type(name).__name__}")
        self.name = name


class Pair(SExpr):
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        if (type(head) is not Atom and type(head) is not Pair
                or type(tail) is not Atom and type(tail) is not Pair):
            _check_value(head, "a pair's head")
            _check_value(tail, "a pair's tail")
        self.head = head
        self.tail = tail


def _check_value(s, what):
    """``TypeError`` unless ``s`` is an ``Atom`` or a ``Pair``.  Both are
    closed at construction, so a value's top node vouches for all of it."""
    if type(s) is not Atom and type(s) is not Pair:
        raise TypeError(f"{what} must be an Atom or a Pair, "
                        f"not {type(s).__name__}")


#: The empty list, a distinguished atom.  Equal-named atoms are equal, so
#: fresh Atom("()") nodes compare equal to NIL; this constant is just a
#: convenience.
NIL = Atom("()")
ONE = Atom("1")

# The private aliases of the module docstring; the sentinel is a fresh
# object, so it equals no atom's name, None included.
Pair._hd, Pair._tl, Pair._nm = Pair.head, Pair.tail, object()
Atom._hd = Atom._tl = NIL
Atom._nm = Atom.name


def is_nil(s):
    return type(s) is Atom and s.name == "()"


class ParseError(ValueError):
    """Malformed s-expression text; carries the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


#: The tokens that ``parse`` splits out, as a regular expression.  Only
#: ``_error`` uses it, to find a token's character offset; ``\s`` and
#: ``str.split()`` both split on exactly the ``str.isspace`` characters.
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _error(text, message, index):
    """ParseError at token ``index``: offsets are found only on this path."""
    match = next(islice(_TOKEN.finditer(text), index, None))
    return ParseError(message, match.start())


def parse(text):
    """Parse one s-expression; reject leftover tokens.

    The tokens are the parentheses and the maximal runs of other
    non-whitespace characters: the text split on whitespace once each
    parenthesis is padded with spaces.  Iterative: ``values``, ``dot``
    (the index of a dotted tail) and ``start`` (the token index of its
    '(') describe the innermost open list, ``outer`` the others.  Every
    token becomes a fresh atom (a literal ``()`` too); every list ends
    in the shared ``NIL``.  Raises ``TypeError`` if ``text`` is not a
    ``str``.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse expects a str, not {type(text).__name__}")
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("empty input", 0)
    new = object.__new__
    last = len(tokens) - 1
    outer = []
    values = dot = start = None  # values is None outside every list
    for pos, tok in enumerate(tokens):
        if tok == "(" or (tok != ")" and tok != "."):
            if dot is not None and dot < len(values):
                raise _error(text, "more than one value after '.'", pos)
            if tok == "(":
                outer.append((values, dot, start))
                values, dot, start = [], None, pos
                continue
            value = new(Atom)
            value.name = tok
        elif values is None:
            raise _error(text, "unbalanced ')'" if tok == ")" else "unexpected '.'",
                         pos)
        elif tok == ".":
            if not values or dot is not None:
                raise _error(text, "misplaced '.'", pos)
            if pos == last or tokens[pos + 1] in (")", "."):
                raise _error(text, "missing value after '.'", pos)
            dot = len(values)
            continue
        else:
            if not values:
                value = new(Atom)
                value.name = "()"
            else:
                value = NIL if dot is None else values.pop()
                for element in reversed(values):
                    pair = new(Pair)
                    pair.head = element
                    pair.tail = value
                    value = pair
            values, dot, start = outer.pop()
        if values is None:
            if pos != last:
                raise _error(text, "stray tokens after expression", pos + 1)
            return value
        values.append(value)
    raise _error(text, "unbalanced '('", start)


def sexpr_print(s):
    """Canonical text: list notation where the tail chain ends in ().

    Iterative (values may be deeply nested): each list's tail chain is
    walked in a loop with atom heads written inline; a nested list head
    pushes the rest of its enclosing list.  A () in tail position closes
    the list, any other atom there prints dotted.
    """
    if type(s) is Atom:
        return s.name
    _check_value(s, "sexpr_print's argument")
    out = ["("]
    rests = []
    node = s  # a pair whose head is the next element to print
    while True:
        head = node.head
        if type(head) is not Atom:
            rests.append(node.tail)
            out.append("(")
            node = head
            continue
        out.append(head.name)
        rest = node.tail
        while type(rest) is Atom:  # the list ends: close it, resume its parent
            if rest.name != "()":
                out.append(" . ")
                out.append(rest.name)
            out.append(")")
            if not rests:
                return "".join(out)
            rest = rests.pop()
        out.append(" ")
        node = rest


def measure(s):
    """Return (tree_size, dag_size) in one post-order pass.

    Tree size counts shared nodes once per visit, DAG size once per
    distinct node.  ``sizes`` maps the id of every node reached to its
    tree size, so counts astronomically larger than the DAG stay cheap.
    Each list's tail chain (its spine) is walked down to a sized node,
    then sized back from its end; an unsized pair head suspends the
    spine in ``frames``.  The pairs still unsized are then all ancestors
    of the node being sized, so no node is met again half-done.
    """
    _check_value(s, "measure's argument")
    sizes = {}
    get = sizes.get
    frames = []  # suspended spines, each with the size of what follows it
    node = s
    while True:
        spine = []
        rest = get(id(node))
        while rest is None:
            if type(node) is Atom:
                rest = sizes[id(node)] = 1
            else:
                spine.append(node)
                node = node.tail
                rest = get(id(node))
        while True:
            if not spine:
                if not frames:
                    return rest, len(sizes)
                spine, rest = frames.pop()
            pair = spine.pop()
            head = pair.head
            key = id(head)
            size = get(key)
            if size is None:
                if type(head) is not Atom:
                    spine.append(pair)
                    frames.append((spine, rest))
                    node = head
                    break
                size = sizes[key] = 1
            rest = sizes[id(pair)] = 1 + size + rest


def tree_size(s):
    """Node count with shared nodes counted once per visit."""
    return measure(s)[0]


def dag_size(s):
    """Number of distinct nodes reachable (by node identity)."""
    return measure(s)[1]


def equal(a, b):
    """Structural equality; identical nodes compare equal without descent.
    ``TypeError`` if an argument is not a value, except where an atom
    or identity already decides."""
    if a is b:
        return True
    if type(a) is Atom:
        return type(b) is Atom and a.name == b.name
    if type(b) is Atom:
        return False
    if type(a) is not Pair or type(b) is not Pair:
        _check_value(a, "equal's first argument")
        _check_value(b, "equal's second argument")
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        key = (id(x), id(y))
        if key in seen:
            continue
        seen.add(key)
        xa = type(x) is Atom
        ya = type(y) is Atom
        if xa != ya:
            return False
        if xa:
            if x.name != y.name:
                return False
            continue
        stack.append((x.head, y.head))
        stack.append((x.tail, y.tail))
    return True


def from_list(items):
    """Build the right-nested pair chain, ending in (), for a python
    sequence of values."""
    result = NIL
    for item in reversed(items):
        result = Pair(item, result)
    return result


def to_unary(n):
    """Natural number as a unary list: 0 = (), n+1 = (1 . n)."""
    if n < 0:
        raise ValueError("unary encoding is for naturals")
    result = NIL
    for _ in range(n):
        result = Pair(Atom("1"), result)
    return result


def from_unary(s):
    n = 0
    while type(s) is Pair:
        n += 1
        s = s.tail
    if not is_nil(s):
        raise ValueError("not a unary numeral")
    return n
