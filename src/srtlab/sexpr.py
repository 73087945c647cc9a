"""Symbolic tree values: the universal data domain.

Values are immutable atoms and pairs.  Pair construction reuses its
arguments by reference, so substructures may be shared; sharing is
invisible to structural equality and only observable through
``measure`` (tree size counts shared nodes once per visit, DAG size
once per distinct node).

Concrete text format: ``(a b c)`` abbreviates right-nested pairs ending
in the empty-list atom ``()``; improper tails are written with a dot,
``(a . b)``.
"""

__all__ = [
    "SExpr", "Atom", "Pair", "NIL", "ONE",
    "ParseError", "parse", "sexpr_print", "measure", "tree_size",
    "dag_size", "equal", "is_nil", "truthy", "from_list", "to_list",
    "from_unary", "to_unary",
]


class SExpr:
    """Base class for symbolic tree values."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, SExpr):
            return NotImplemented
        return equal(self, other)

    def __ne__(self, other):
        if not isinstance(other, SExpr):
            return NotImplemented
        return not equal(self, other)

    __hash__ = None  # structural equality; keep these out of sets/dicts

    def __repr__(self):
        text = sexpr_print(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"<sexpr {text}>"


class Atom(SExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Pair(SExpr):
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


#: The empty list, a distinguished atom.  Equal-named atoms are equal, so
#: fresh Atom("()") nodes compare equal to NIL; this constant is just a
#: convenience.
NIL = Atom("()")
ONE = Atom("1")


def is_nil(s):
    return type(s) is Atom and s.name == "()"


def truthy(s):
    """Boolean convention of the flowchart language: () is false."""
    return not is_nil(s)


class ParseError(ValueError):
    """Malformed s-expression text; carries the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_DELIMS = "()"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DELIMS:
            tokens.append((ch, i))
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in _DELIMS:
            i += 1
        tokens.append((text[start:i], start))
    return tokens


def parse(text):
    """Parse one s-expression; reject leftover tokens.

    Iterative: ``values``, ``dot`` (the index of a dotted tail) and
    ``start`` describe the innermost open list, ``outer`` the others.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    outer = []
    values = dot = start = None  # values is None outside every list
    for pos, (tok, offset) in enumerate(tokens):
        if tok == "(" or (tok != ")" and tok != "."):
            if dot is not None and dot < len(values):
                raise ParseError("more than one value after '.'", offset)
            if tok == "(":
                outer.append((values, dot, start))
                values, dot, start = [], None, offset
                continue
            value = Atom(tok)
        elif values is None:
            raise ParseError("unbalanced ')'" if tok == ")" else "unexpected '.'",
                             offset)
        elif tok == ".":
            if not values or dot is not None:
                raise ParseError("misplaced '.'", offset)
            if pos + 1 == len(tokens) or tokens[pos + 1][0] in (")", "."):
                raise ParseError("missing value after '.'", offset)
            dot = len(values)
            continue
        else:
            if not values:
                value = Atom("()")
            else:
                value = NIL if dot is None else values.pop()
                for element in reversed(values):
                    value = Pair(element, value)
            values, dot, start = outer.pop()
        if values is None:
            if pos + 1 != len(tokens):
                raise ParseError("stray tokens after expression",
                                 tokens[pos + 1][1])
            return value
        values.append(value)
    raise ParseError("unbalanced '('", start)


def sexpr_print(s):
    """Canonical text: list notation where the tail chain ends in ().

    Iterative (values may be deeply nested); a () in tail position closes
    the list, any other atom there prints dotted.
    """
    out = []
    stack = [(s, False)]
    while stack:
        entry = stack.pop()
        if entry is None:  # close-paren marker
            out.append(")")
            continue
        node, in_tail = entry
        if type(node) is Atom:
            if in_tail:
                if node.name != "()":
                    out.append(" . ")
                    out.append(node.name)
            else:
                out.append(node.name)
            continue
        if in_tail:
            out.append(" ")
            stack.append((node.tail, True))
            stack.append((node.head, False))
            continue
        out.append("(")
        stack.append(None)
        stack.append((node.tail, True))
        stack.append((node.head, False))
    return "".join(out)


def tree_size(s):
    """Node count with shared nodes counted once per visit.

    Memoised per distinct node, so heavily shared values are still cheap
    to measure (counts can be astronomically larger than the DAG).
    """
    sizes = {}
    stack = [(s, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if ready:
            sizes[key] = 1 + sizes[id(node.head)] + sizes[id(node.tail)]
            continue
        if key in sizes:
            continue
        if type(node) is Atom:
            sizes[key] = 1
        else:
            stack.append((node, True))
            stack.append((node.tail, False))
            stack.append((node.head, False))
    return sizes[id(s)]


def dag_size(s):
    """Number of distinct nodes reachable (by node identity)."""
    seen = set()
    stack = [s]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        if type(node) is Pair:
            stack.append(node.head)
            stack.append(node.tail)
    return len(seen)


def measure(s):
    """Return (tree_size, dag_size)."""
    return tree_size(s), dag_size(s)


def equal(a, b):
    """Structural equality; identical nodes compare equal without descent."""
    if a is b:
        return True
    if type(a) is Atom:
        return type(b) is Atom and a.name == b.name
    if type(b) is Atom:
        return False
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


def from_list(items, tail=NIL):
    """Build the right-nested pair chain for a python sequence."""
    result = tail
    for item in reversed(items):
        result = Pair(item, result)
    return result


def to_list(s):
    """Flatten a ()-terminated chain to a python list; error on improper."""
    items = []
    while type(s) is Pair:
        items.append(s.head)
        s = s.tail
    if not is_nil(s):
        raise ValueError("improper list")
    return items


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
