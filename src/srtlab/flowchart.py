"""Flowchart programs over symbolic trees, and their interpreter.

The straight-line core has assignment and sequencing only ("tiny"
programs: constant running time).  The Turing-complete extension adds
``while`` and ``if``; the reflective extension adds the constant ``*``
(the running program's own text) and a native ``univ`` call form,
executed by a recursive invocation of the running interpreter.

Programs have a bijective s-expression concrete syntax, so programs are
ordinary data:

    ((x1 ... xn) command outvar)

with commands/exprs in prefix form: ``(:= x e)``, ``(; c1 c2)``,
``(while e c)``, ``(if e c1 c2)``, ``(QUOTE d)``, ``(hd e)``, ``(tl e)``,
``(cons e1 e2)``, ``(= e1 e2)``, ``(atom? e)``, ``*``, ``(univ e1 e2)``.

Cost model: 1 step per executed assignment, per operator application,
per variable/constant/self access, and per while/if test event; the
final read of the output variable is a variable access.  Execution
aborts with ``fuel_exhausted`` the moment the count would pass the fuel
bound, which makes "runs within t steps" decidable.
"""

from .sexpr import (
    NIL, ONE, Atom, Pair, equal, from_list, is_nil, sexpr_print, to_list,
)

__all__ = [
    "Program", "Assign", "Seq", "While", "If",
    "Var", "Quote", "Hd", "Tl", "Cons", "Eq", "IsAtom", "SelfRef", "UnivCall",
    "RunResult", "DecodeError", "decode", "encode", "run", "is_tiny",
    "command_vars", "expr_vars", "rename_command", "RESERVED_PREFIX",
]

#: Prefix reserved for variables inserted by program constructions.
RESERVED_PREFIX = "%"


# ---------------------------------------------------------------------------
# abstract syntax

class Program:
    __slots__ = ("inputs", "body", "output", "_enc", "_compiled")

    def __init__(self, inputs, body, output):
        inputs = tuple(inputs)
        if len(set(inputs)) != len(inputs):
            raise ValueError("input variables must be pairwise distinct")
        self.inputs = inputs
        self.body = body
        self.output = output
        self._enc = None
        self._compiled = None

    def __repr__(self):
        return f"<program ({' '.join(self.inputs)}) -> {self.output}>"


class _Node:
    __slots__ = ("_enc",)

    def __init__(self):
        self._enc = None


class Assign(_Node):
    __slots__ = ("var", "expr")

    def __init__(self, var, expr):
        super().__init__()
        self.var = var
        self.expr = expr


class Seq(_Node):
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        super().__init__()
        self.first = first
        self.second = second


class While(_Node):
    __slots__ = ("test", "body")

    def __init__(self, test, body):
        super().__init__()
        self.test = test
        self.body = body


class If(_Node):
    __slots__ = ("test", "then", "orelse")

    def __init__(self, test, then, orelse):
        super().__init__()
        self.test = test
        self.then = then
        self.orelse = orelse


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = name


class Quote(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value


class Hd(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        super().__init__()
        self.arg = arg


class Tl(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        super().__init__()
        self.arg = arg


class Cons(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right


class Eq(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right


class IsAtom(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        super().__init__()
        self.arg = arg


class SelfRef(_Node):
    __slots__ = ()


class UnivCall(_Node):
    __slots__ = ("prog", "arg")

    def __init__(self, prog, arg):
        super().__init__()
        self.prog = prog
        self.arg = arg


_CMD, _EXPR, _NAME, _DATUM = "command", "expression", "name", "datum"

#: One row per node kind: class, tag, name in DecodeError messages and
#: ordered fields (command, expression, assigned variable name or datum).
#: It decides each kind's encoding, ``(tag field ...)`` or one atom for
#: Var and SelfRef, and which fields the walkers below visit and rename.
_SYNTAX = {
    _CMD: (
        (Assign, ":=", "assignment", (("var", _NAME), ("expr", _EXPR))),
        (Seq, ";", "sequence", (("first", _CMD), ("second", _CMD))),
        (While, "while", "while", (("test", _EXPR), ("body", _CMD))),
        (If, "if", "if", (("test", _EXPR), ("then", _CMD), ("orelse", _CMD))),
    ),
    _EXPR: (
        (Var, None, "variable", (("name", _NAME),)),
        (SelfRef, "*", None, ()),
        (Quote, "QUOTE", "QUOTE", (("value", _DATUM),)),
        (Hd, "hd", "hd", (("arg", _EXPR),)),
        (Tl, "tl", "tl", (("arg", _EXPR),)),
        (Cons, "cons", "cons", (("left", _EXPR), ("right", _EXPR))),
        (Eq, "=", "=", (("left", _EXPR), ("right", _EXPR))),
        (IsAtom, "atom?", "atom?", (("arg", _EXPR),)),
        (UnivCall, "univ", "univ", (("prog", _EXPR), ("arg", _EXPR))),
    ),
}
_ROWS = {row[0]: row for rows in _SYNTAX.values() for row in rows}
_CHILDREN = {cls: tuple(f for f, kind in fields if kind in (_CMD, _EXPR))
             for cls, _, _, fields in _ROWS.values()}
#: Compound kinds by category and tag; fields numbered, last one first.
_TAGGED = {category: {tag: (cls, what, len(fields) + 1, tuple(reversed(
                          [(i, f, k) for i, (f, k) in enumerate(fields, 1)])))
                      for cls, tag, what, fields in rows if cls not in (Var, SelfRef)}
           for category, rows in _SYNTAX.items()}


# ---------------------------------------------------------------------------
# program <-> s-expression codec

class DecodeError(ValueError):
    """Raised on malformed encoded programs; names the offending subtree."""

    def __init__(self, message, subtree=None):
        if subtree is not None:
            text = sexpr_print(subtree)
            if len(text) > 80:
                text = text[:77] + "..."
            message = f"{message}: {text}"
        super().__init__(message)


def _expect_list(s, length, what):
    if type(s) is not Pair:
        raise DecodeError(f"expected {what}", s)
    try:
        items = to_list(s)
    except ValueError:
        raise DecodeError(f"improper list in {what}", s) from None
    if len(items) != length:
        raise DecodeError(f"wrong arity for {what}", s)
    return items


def _decode_varname(s, allow_reserved, what):
    if type(s) is not Atom or s.name == "()":
        raise DecodeError(f"{what} must be a non-() atom", s)
    if s.name == "*":
        raise DecodeError(f"'*' is not a legal {what}", s)
    if not allow_reserved and s.name.startswith(RESERVED_PREFIX):
        raise DecodeError(
            f"{what} uses the reserved '{RESERVED_PREFIX}' prefix", s)
    return s.name


def decode(s, allow_reserved=False):
    """Decode an encoded program ``(inputvars body outputvar)``.

    ``allow_reserved`` admits '%'-prefixed variables, which only appear
    in machine-generated programs; hand-written source is rejected.
    Every node, and the program, keeps its source as its encoding.
    """
    inputs_s, body_s, output_s = _expect_list(s, 3, "program")
    inputs = []
    rest = inputs_s
    while type(rest) is Pair:
        inputs.append(_decode_varname(rest.head, allow_reserved, "input variable"))
        rest = rest.tail
    if not is_nil(rest):
        raise DecodeError("input list is improper", inputs_s)
    body = _decode_body(body_s, allow_reserved)
    output = _decode_varname(output_s, allow_reserved, "output variable")
    try:
        program = Program(inputs, body, output)
    except ValueError as exc:
        raise DecodeError(str(exc), inputs_s) from None
    program._enc = s
    return program


def _decode_body(s, allow_reserved):
    """Decode a command top-down, each node before its children, so the
    first malformed subtree in left-to-right order is the one reported."""
    new = object.__new__
    top = new(Seq)  # a scratch parent: its first field receives the root
    todo = [(s, _CMD, top, "first")]
    while todo:
        s, category, parent, slot = todo.pop()
        if type(s) is Atom and category is _EXPR:
            node = new(SelfRef if s.name == "*" else Var)
            if type(node) is Var:
                node.name = _decode_varname(s, allow_reserved, _ROWS[Var][2])
        elif type(s) is not Pair or type(s.head) is not Atom:
            raise DecodeError("expected a command" if category is _CMD else
                              "expression head must be an operator atom", s)
        elif s.head.name not in _TAGGED[category]:
            raise DecodeError(f"unknown {category} tag", s)
        else:
            cls, what, arity, fields = _TAGGED[category][s.head.name]
            items = []  # _expect_list, inlined: univ decodes on every call
            rest = s
            while type(rest) is Pair:
                items.append(rest.head)
                rest = rest.tail
            if rest.name != "()":
                raise DecodeError(f"improper list in {what}", s)
            if len(items) != arity:
                raise DecodeError(f"wrong arity for {what}", s)
            node = new(cls)
            for i, field, kind in fields:
                if kind is _NAME:
                    setattr(node, field, _decode_varname(
                        items[i], allow_reserved, "assigned variable"))
                elif kind is _DATUM:
                    setattr(node, field, items[i])
                else:
                    todo.append((items[i], kind, node, field))
        node._enc = s
        setattr(parent, slot, node)
    return top.first


def encode(node):
    """Encode a program or AST node as an s-expression.

    Encodings are cached per node, so a subtree shared between two
    programs is encoded as one shared value; specialisation and the
    fixpoint constructions rely on this to keep the printed program a
    DAG rather than a tree.
    """
    if node._enc is not None:
        return node._enc
    if type(node) is Program:
        node._enc = from_list([from_list([Atom(v) for v in node.inputs]),
                               encode(node.body), Atom(node.output)])
        return node._enc
    todo = [(node, False)]  # (node, children encoded?), children first
    while todo:
        top, ready = todo.pop()
        cls = type(top)
        if top._enc is not None:  # a node queued twice is encoded once
            continue
        if cls is Var:
            top._enc = Atom(top.name)
        elif cls is SelfRef:
            top._enc = Atom("*")
        elif not ready:
            todo.append((top, True))
            for field in _CHILDREN[cls]:
                todo.append((getattr(top, field), False))
        else:
            enc = NIL
            for field, kind in reversed(_ROWS[cls][3]):
                value = getattr(top, field)
                enc = Pair(value._enc if kind is _CMD or kind is _EXPR else
                           Atom(value) if kind is _NAME else value, enc)
            top._enc = Pair(Atom(_ROWS[cls][1]), enc)
    return node._enc


# ---------------------------------------------------------------------------
# AST utilities

def _nodes(root):
    """Every AST node under ``root``, itself included.  A node's children
    are read after it is yielded, so the caller may replace them."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        for field in _CHILDREN[type(node)]:
            todo.append(getattr(node, field))


def expr_vars(node, acc=None):
    """Set of variable names read by an expression or a command."""
    if acc is None:
        acc = set()
    acc.update(n.name for n in _nodes(node) if type(n) is Var)
    return acc


def command_vars(cmd):
    """All variable names occurring in a command (read or assigned)."""
    return {getattr(node, field) for node in _nodes(cmd)
            for field, kind in _ROWS[type(node)][3] if kind is _NAME}


def rename_command(cmd, mapping):
    """Alpha-rename variables (quoted constants are untouched data).

    Every node is rebuilt except Quote and SelfRef nodes, which hold no
    variable and are shared with ``cmd``.
    """
    if type(cmd) not in (Assign, Seq, While, If):
        raise TypeError(f"cannot rename {cmd!r}")
    root = _renamed(cmd, mapping)
    for node in _nodes(root):
        for field in _CHILDREN[type(node)]:
            setattr(node, field, _renamed(getattr(node, field), mapping))
    return root


def _renamed(node, mapping):
    """Copy of ``node`` with its names renamed and the same children."""
    cls = type(node)
    if cls is Quote or cls is SelfRef:
        return node
    copy = object.__new__(cls)
    copy._enc = None
    for field, kind in _ROWS[cls][3]:
        value = getattr(node, field)
        setattr(copy, field, mapping.get(value, value) if kind is _NAME else value)
    return copy


def is_tiny(program):
    """True iff the body is straight-line: assignment and sequencing only."""
    return all(type(node) not in (While, If, SelfRef, UnivCall)
               for node in _nodes(program.body))


# ---------------------------------------------------------------------------
# interpreter

class RunResult:
    """Outcome of a fuel-bounded run.

    ``steps`` is the time measure; ``value`` is present iff halted.
    """

    __slots__ = ("value", "steps", "status", "detail")

    HALTED = "halted"
    FUEL = "fuel_exhausted"
    ERROR = "runtime_error"

    def __init__(self, value, steps, status, detail=None):
        self.value = value
        self.steps = steps
        self.status = status
        self.detail = detail

    @property
    def halted(self):
        return self.status == RunResult.HALTED

    def __repr__(self):
        if self.halted:
            return f"<run halted steps={self.steps} value={sexpr_print(self.value)[:60]}>"
        return f"<run {self.status} steps={self.steps} {self.detail or ''}>"


class _Exhausted(Exception):
    pass


class _Fault(Exception):
    def __init__(self, detail):
        self.detail = detail


class _Budget:
    __slots__ = ("steps", "fuel")

    def __init__(self, fuel):
        self.steps = 0
        self.fuel = fuel


class _Frame:
    __slots__ = ("env", "budget", "reflective", "self_enc")

    def __init__(self, env, budget, reflective, self_enc):
        self.env = env
        self.budget = budget
        self.reflective = reflective
        self.self_enc = self_enc


def _compile_expr(expr):
    t = type(expr)
    if t is Var:
        name = expr.name

        def run_var(fr):
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return fr.env.get(name, NIL)
        return run_var
    if t is Quote:
        value = expr.value

        def run_quote(fr):
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return value
        return run_quote
    if t is Hd:
        arg = _compile_expr(expr.arg)

        def run_hd(fr):
            v = arg(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return v.head if type(v) is Pair else NIL
        return run_hd
    if t is Tl:
        arg = _compile_expr(expr.arg)

        def run_tl(fr):
            v = arg(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return v.tail if type(v) is Pair else NIL
        return run_tl
    if t is Cons:
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)

        def run_cons(fr):
            a = left(fr)
            b_ = right(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return Pair(a, b_)
        return run_cons
    if t is Eq:
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)

        def run_eq(fr):
            a = left(fr)
            b_ = right(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return ONE if equal(a, b_) else NIL
        return run_eq
    if t is IsAtom:
        arg = _compile_expr(expr.arg)

        def run_isatom(fr):
            v = arg(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return ONE if type(v) is Atom else NIL
        return run_isatom
    if t is SelfRef:
        def run_self(fr):
            if not fr.reflective:
                raise _Fault("'*' outside reflective mode")
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            return fr.self_enc
        return run_self
    if t is UnivCall:
        prog = _compile_expr(expr.prog)
        arg = _compile_expr(expr.arg)

        def run_univ(fr):
            if not fr.reflective:
                raise _Fault("'univ' call outside reflective mode")
            q_enc = prog(fr)
            d = arg(fr)
            b = fr.budget
            b.steps += 1  # dispatch
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            try:
                q = decode(q_enc, allow_reserved=True)
            except DecodeError as exc:
                raise _Fault(f"univ on a non-program: {exc}") from None
            if len(q.inputs) != 1:
                raise _Fault("univ needs a one-input program")
            return _exec(q, [d], fr.budget, True)
        return run_univ
    raise TypeError(f"cannot compile {expr!r}")


def _compile_command(cmd):
    t = type(cmd)
    if t is Assign:
        name = cmd.var
        expr = _compile_expr(cmd.expr)

        def run_assign(fr):
            v = expr(fr)
            b = fr.budget
            b.steps += 1
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            fr.env[name] = v
        return run_assign
    if t is Seq:
        first = _compile_command(cmd.first)
        second = _compile_command(cmd.second)

        def run_seq(fr):
            first(fr)
            second(fr)
        return run_seq
    if t is While:
        test = _compile_expr(cmd.test)
        body = _compile_command(cmd.body)

        def run_while(fr):
            b = fr.budget
            while True:
                b.steps += 1  # test event
                if b.steps > b.fuel:
                    b.steps = b.fuel
                    raise _Exhausted()
                v = test(fr)
                if type(v) is Atom and v.name == "()":
                    return
                body(fr)
        return run_while
    if t is If:
        test = _compile_expr(cmd.test)
        then = _compile_command(cmd.then)
        orelse = _compile_command(cmd.orelse)

        def run_if(fr):
            b = fr.budget
            b.steps += 1  # test event
            if b.steps > b.fuel:
                b.steps = b.fuel
                raise _Exhausted()
            v = test(fr)
            if type(v) is Atom and v.name == "()":
                orelse(fr)
            else:
                then(fr)
        return run_if
    raise TypeError(f"cannot compile {cmd!r}")


def _compiled(program):
    fn = program._compiled
    if fn is None:
        fn = _compile_command(program.body)
        program._compiled = fn
    return fn


def _exec(program, args, budget, reflective):
    """Run under an existing budget; returns the output value."""
    env = dict(zip(program.inputs, args))
    self_enc = encode(program) if reflective else None
    frame = _Frame(env, budget, reflective, self_enc)
    _compiled(program)(frame)
    budget.steps += 1  # final read of the output variable
    if budget.steps > budget.fuel:
        budget.steps = budget.fuel
        raise _Exhausted()
    return env.get(program.output, NIL)


def run(program, args, fuel=10**7, mode="plain"):
    """Run a program on argument values under a fuel bound.

    Variables other than the inputs start as ``()``; ``hd``/``tl`` of an
    atom are ``()`` (all operators are total).  In reflective mode ``*``
    denotes the running program's text and ``(univ p d)`` runs the
    encoded program ``p`` on ``d`` within the same fuel budget.
    """
    if len(args) != len(program.inputs):
        raise ValueError(
            f"program expects {len(program.inputs)} arguments, got {len(args)}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if mode not in ("plain", "reflective"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = _Budget(fuel)
    try:
        value = _exec(program, args, budget, mode == "reflective")
    except _Exhausted:
        return RunResult(None, budget.steps, RunResult.FUEL)
    except _Fault as f:
        return RunResult(None, budget.steps, RunResult.ERROR, f.detail)
    return RunResult(value, budget.steps, RunResult.HALTED)
