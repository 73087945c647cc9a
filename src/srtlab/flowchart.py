"""Flowchart programs over symbolic trees, and their executor.

The straight-line core has assignment and sequencing only ("tiny"
programs: constant running time).  The Turing-complete extension adds
``while`` and ``if``; the reflective extension adds the constant ``*``
(the running program's own text) and a native ``univ`` call form,
which runs the encoded program inside the same run and fuel budget.

``run`` compiles each program to one Python function (cached on the
program) and charges each straight-line block of steps with one fuel
check.  The mode is an argument of that function, so one function
serves both, and programs of one shape share it.  A shape is the AST
up to a consistent renaming of its variables and the values of its
quoted constants, of which only the kind, atom or pair, counts; one
walk of the AST finds it, and the constants.  So a program of a known
shape costs that walk, not an emission of source and a ``compile()``.

The function is a generator.  It runs a native univ call's generator
by ``yield from``, so nested univ calls form a chain that Python runs
on its own stack, with no trampoline; every 16th call in a nest starts
a new chain instead, and yields it.  It also yields the generator of
each deeply nested control construct.  ``_walk`` runs the chains and
the yielded generators on one explicit stack, so fuel and memory bound
the depth of univ nesting, not the Python stack.  ``run`` raises the
recursion limit by one budget of frames for the whole run, enough for
a chain and a new shape compiled at its end, so a run that can be
entered at all runs once, in chains of 16 at any stack depth.  A univ call
on ``*`` calls the running program's function directly: the text is
never decoded, as long as decoding it would give the program back (one
input, and no variable named ``*`` or ``()``).

Programs have a bijective s-expression concrete syntax, so programs are
ordinary data:

    ((x1 ... xn) command outvar)

with commands/exprs in prefix form: ``(:= x e)``, ``(; c1 c2)``,
``(while e c)``, ``(if e c1 c2)``, ``(QUOTE d)``, ``(hd e)``, ``(tl e)``,
``(cons e1 e2)``, ``(= e1 e2)``, ``(atom? e)``, ``*``, ``(univ e1 e2)``.

ASTs are closed at construction, as s-expression values are: a node
raises ``TypeError`` unless each field holds a value of its kind (a
command, an expression, a ``str`` name, or an ``Atom`` or ``Pair``
datum), and ``Program`` unless its names are ``str`` and its body a
command.  ``decode`` builds only well-formed trees.  So no walk checks
a tree again; a walk given a bare node checks only that node's kind.
A field assigned after construction is not checked, as with ``Pair``.

Cost model: 1 step per executed assignment, per operator application,
per variable/constant/self access, and per while/if test event; the
final read of the output variable is a variable access.  Operands are
evaluated left to right before their operator; a test event is charged
before its test.  Execution aborts with ``fuel_exhausted`` and
``steps == fuel`` the moment the count would pass the fuel bound, which
makes "runs within t steps" decidable.  A ``runtime_error`` keeps the
steps charged before it: ``*`` or ``univ`` in plain mode fails before
its own step (and ``univ`` before its operands); ``univ`` on a
non-program or on a program without exactly one input fails after its
operands and its dispatch step.
"""

import sys

from .sexpr import (NIL, ONE, Atom, Pair, _check_value, equal, from_list,
                    is_nil, sexpr_print)

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
        # tested in line, so that a univ call's decode takes no frame more
        for name in inputs:
            if type(name) is not str:
                _check_kind(name, _NAME, "each of Program.inputs")
        if type(body) not in _HOLDS[_CMD][0] or type(output) is not str:
            _check_kind(body, _CMD, "Program.body")
            _check_kind(output, _NAME, "Program.output")
        if len(set(inputs)) != len(inputs):
            raise ValueError("input variables must be pairwise distinct")
        self.inputs = inputs
        self.body = body
        self.output = output
        self._enc = None
        self._compiled = None

    def __repr__(self):
        inputs = " ".join(map(str, self.inputs))
        return f"<program ({inputs}) -> {self.output}>"


def _checked(program):
    """``program``, if it is a ``Program``; else ``TypeError``."""
    if not isinstance(program, Program):
        raise TypeError(f"expected a Program, not {type(program).__name__}")
    return program


class _Node:
    """An AST node.  Each kind's ``__slots__`` is its only field list:
    ``Kind(value, ...)`` takes one value per field, in slot order, and
    ``_enc`` caches the node's encoding.  Each value must be of its
    field's kind in ``_SYNTAX``, else ``TypeError``; so a node vouches
    for the tree under it, and no walk checks it again.  A field set
    after construction is not checked."""

    __slots__ = ("_enc",)

    def __init__(self, *values):
        cls = type(self)
        fields = _ROWS[cls][3]
        if len(values) != len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} "
                            f"fields, got {len(values)}")
        self._enc = None
        for (field, kind), value in zip(fields, values):
            if type(value) not in _HOLDS[kind][0]:  # name it only to raise
                _check_kind(value, kind, f"{cls.__name__}.{field}")
            setattr(self, field, value)

    def __repr__(self):
        """The kind and its fields, with each child node shown by its
        kind only, so the text stays short at any depth."""
        fields = []
        for field in type(self).__slots__:
            value = getattr(self, field)
            shown = type(value).__name__ if isinstance(value, _Node) else repr(value)
            fields.append(f"{field}={shown}")
        return f"{type(self).__name__}({', '.join(fields)})"


class Assign(_Node):
    __slots__ = ("var", "expr")


class Seq(_Node):
    __slots__ = ("first", "second")


class While(_Node):
    __slots__ = ("test", "body")


class If(_Node):
    __slots__ = ("test", "then", "orelse")


class Var(_Node):
    __slots__ = ("name",)


class Quote(_Node):
    __slots__ = ("value",)


class Hd(_Node):
    __slots__ = ("arg",)


class Tl(_Node):
    __slots__ = ("arg",)


class Cons(_Node):
    __slots__ = ("left", "right")


class Eq(_Node):
    __slots__ = ("left", "right")


class IsAtom(_Node):
    __slots__ = ("arg",)


class SelfRef(_Node):
    __slots__ = ()


class UnivCall(_Node):
    __slots__ = ("prog", "arg")


_CMD, _EXPR, _NAME, _DATUM = "command", "expression", "name", "datum"

#: One row per node kind: class, tag, name in DecodeError messages and
#: the kind of each field in ``__slots__`` order (command, expression,
#: variable name or datum).  It decides what each field takes at
#: construction, each kind's encoding, ``(tag field ...)`` or one atom
#: for Var and SelfRef, and which fields the walkers below visit and
#: rename.
_SYNTAX = {
    _CMD: (
        (Assign, ":=", "assignment", (_NAME, _EXPR)),
        (Seq, ";", "sequence", (_CMD, _CMD)),
        (While, "while", "while", (_EXPR, _CMD)),
        (If, "if", "if", (_EXPR, _CMD, _CMD)),
    ),
    _EXPR: (
        (Var, None, "variable", (_NAME,)),
        (SelfRef, "*", None, ()),
        (Quote, "QUOTE", "QUOTE", (_DATUM,)),
        (Hd, "hd", "hd", (_EXPR,)),
        (Tl, "tl", "tl", (_EXPR,)),
        (Cons, "cons", "cons", (_EXPR, _EXPR)),
        (Eq, "=", "=", (_EXPR, _EXPR)),
        (IsAtom, "atom?", "atom?", (_EXPR,)),
        (UnivCall, "univ", "univ", (_EXPR, _EXPR)),
    ),
}
#: Each kind's row with its fields as (name, kind) pairs.
_ROWS = {cls: (cls, tag, what, tuple(zip(cls.__slots__, kinds, strict=True)))
         for rows in _SYNTAX.values() for cls, tag, what, kinds in rows}
#: Each kind's child nodes, by field, last child first: all a walk visits.
_CHILDREN = {cls: tuple(f for f, k in reversed(fields) if k is _CMD or k is _EXPR)
             for cls, _, _, fields in _ROWS.values()}
#: The value types a Quote may hold, each with its part of a shape key.
_DATA = {Atom: "atom", Pair: "pair"}
#: The types each kind of field holds, and how a ``TypeError`` says so.
_HOLDS = {_CMD: ({cls for cls, *_ in _SYNTAX[_CMD]}, "a command"),
          _EXPR: ({cls for cls, *_ in _SYNTAX[_EXPR]}, "an expression"),
          _NAME: ({str}, "a str"),
          _DATUM: (_DATA, "an Atom or a Pair")}
#: Compound kinds by category and tag; fields numbered, last one first.
_TAGGED = {category: {tag: (cls, what, len(kinds) + 1, tuple(reversed(
                          [(i, f, k) for i, (f, k) in enumerate(_ROWS[cls][3], 1)])))
                      for cls, tag, what, kinds in rows if cls not in (Var, SelfRef)}
           for category, rows in _SYNTAX.items()}


def _check_kind(value, kind, what):
    """``TypeError``, naming ``value`` as ``what``, unless it is of
    ``kind``: a command, an expression, a name or a datum.  The node
    classes and ``Program`` check each field with it, so the walks below
    check only their root, if that."""
    types, shown = _HOLDS[kind]
    if type(value) not in types:
        raise TypeError(f"{what} must be {shown}, not {type(value).__name__}")


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
    items = []
    rest = s
    while type(rest) is Pair:
        items.append(rest.head)
        rest = rest.tail
    if type(rest) is not Atom or rest.name != "()":
        raise DecodeError(f"improper list in {what}", s)
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
    Every node, and the program, keeps its source as its encoding.  The
    result shares no node with any other program.  A ``TypeError`` if
    ``s`` is not an ``Atom`` or a ``Pair``.
    """
    _check_value(s, "decode's argument")
    return _decode(s, (), allow_reserved)


def _decode(s, reuse, allow_reserved):
    """``decode``, except that a command whose source is, by identity,
    the encoding of one of the command nodes ``reuse`` is that node,
    shared and not decoded again.  That is exact only for nodes whose
    encoding decodes back to them: no variable named ``*`` (decoded as
    ``SelfRef``) or ``()`` (rejected) under them.  The constructions
    pass the bodies their generators copy into the text they emit."""
    inputs_s, body_s, output_s = _expect_list(s, 3, "program")
    inputs = []
    rest = inputs_s
    while type(rest) is Pair:
        inputs.append(_decode_varname(rest.head, allow_reserved, "input variable"))
        rest = rest.tail
    if not is_nil(rest):
        raise DecodeError("input list is improper", inputs_s)
    # each node holds its encoding, so no id here is reused during the decode
    known = {id(encode(node)): node for node in reuse}
    body = _decode_body(body_s, known, allow_reserved)
    output = _decode_varname(output_s, allow_reserved, "output variable")
    try:
        program = Program(inputs, body, output)
    except ValueError as exc:
        raise DecodeError(str(exc), inputs_s) from None
    program._enc = s
    return program


def _decode_body(s, known, allow_reserved):
    """Decode a command top-down, each node before its children, so the
    first malformed subtree in left-to-right order is the one reported.
    A command whose source is a key of ``known``, an ``id`` of the
    encoding of a node held there, is that node: the result shares it.
    Every other node is new and keeps its source as its encoding.  Each
    node takes one ``_TAGGED`` lookup; variables and lists are read in
    line, and ``_decode_varname`` (for them) and ``_expect_list`` are
    called only to raise their errors."""
    new = object.__new__
    top = new(Seq)  # a scratch parent: its first field receives the root
    todo = [(s, _CMD, top, "first")]
    while todo:
        s, category, parent, slot = todo.pop()
        if type(s) is Atom:
            if category is _CMD:
                raise DecodeError("expected a command", s)
            name = s.name
            if name == "*":
                node = new(SelfRef)
            elif name != "()" and (allow_reserved
                                   or not name.startswith(RESERVED_PREFIX)):
                node = new(Var)
                node.name = name
            else:
                _decode_varname(s, allow_reserved, "variable")  # raises
        elif category is _CMD and id(s) in known:
            setattr(parent, slot, known[id(s)])
            continue
        else:
            head = s.head
            if type(head) is not Atom:
                raise DecodeError("expected a command" if category is _CMD else
                                  "expression head must be an operator atom", s)
            row = _TAGGED[category].get(head.name)
            if row is None:
                raise DecodeError(f"unknown {category} tag", s)
            cls, what, arity, fields = row
            items = []
            rest = s
            while type(rest) is Pair:
                items.append(rest.head)
                rest = rest.tail
            if len(items) != arity or rest.name != "()":
                _expect_list(s, arity, what)  # raises
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
    DAG rather than a tree.  Anything but a program or a node raises
    ``TypeError``.
    """
    if type(node) is Program:
        if node._enc is None:
            node._enc = from_list([from_list([Atom(v) for v in node.inputs]),
                                   _encode(node.body),
                                   Atom(node.output)])
        return node._enc
    if type(node) not in _ROWS:
        raise TypeError("encode's argument must be a Program or a node, "
                        f"not {type(node).__name__}")
    return _encode(node)


def _encode(root):
    """``encode`` of the node ``root``; children first."""
    todo = [(root, False)]  # (node, children encoded?)
    while todo:
        top, ready = todo.pop()
        if top._enc is not None:  # a node queued twice is encoded once
            continue
        cls = type(top)
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
    return root._enc


# ---------------------------------------------------------------------------
# AST utilities

def _nodes(root):
    """Every AST node under ``root``, itself included, in prefix order.
    A node's children are read after it is yielded, so the caller may
    replace them."""
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        for field in _CHILDREN[type(node)]:
            todo.append(getattr(node, field))


def expr_vars(node):
    """Set of variable names read by an expression.  ``TypeError`` if
    ``node`` is not an expression."""
    _check_kind(node, _EXPR, "expr_vars's argument")
    return {n.name for n in _nodes(node) if type(n) is Var}


def command_vars(cmd):
    """All variable names occurring in a command (read or assigned).
    ``TypeError`` if ``cmd`` is not a command."""
    _check_kind(cmd, _CMD, "command_vars's argument")
    return {getattr(node, field) for node in _nodes(cmd)
            for field, kind in _ROWS[type(node)][3] if kind is _NAME}


def rename_command(cmd, mapping):
    """Alpha-rename variables (quoted constants are untouched data).

    Every node is rebuilt except Quote and SelfRef nodes, which hold no
    variable and are shared with ``cmd``.  ``TypeError`` if ``cmd`` is
    not a command, or ``mapping`` not a dict whose values are ``str``.
    """
    _check_kind(cmd, _CMD, "rename_command's argument")
    if type(mapping) is not dict:
        raise TypeError(f"a renaming must be a dict, not {type(mapping).__name__}")
    for name in mapping.values():
        _check_kind(name, _NAME, "a renamed variable")
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
    kinds = {type(node) for node in _nodes(_checked(program).body)}
    return kinds.isdisjoint((While, If, SelfRef, UnivCall))


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
    def __init__(self, detail, steps):
        self.detail = detail
        self.steps = steps


def _fault(steps, fuel, detail):
    """Fail with ``detail`` after ``steps`` steps, unless fuel ran out first."""
    if steps > fuel:
        raise _Exhausted()
    raise _Fault(detail, steps)


#: The names generated code reads besides its own.
_GLOBALS = {"Atom": Atom, "Pair": Pair, "NIL": NIL, "ONE": ONE,
            "equal": equal, "new": object.__new__, "EX": _Exhausted,
            "fault": _fault}
#: Control nesting at which a while or if moves to a function of its
#: own: CPython compiles at most 20 nested loops and 100 indent levels.
#: A while takes two levels (``if``, ``while True``): 2 * 16 + 2 at most.
_MAX_NEST = 16
#: ``_Emitter._expr`` destination of a value that is only branched on.
_TEST = object()
#: ``_Emitter._command`` work items other than commands.
_ELSE, _END, _AGAIN = "else", "end", "again"
_CHARGE = "{0}s += {1}\n{0}if s > F: raise EX"
#: Position of the last generator in a chain of univ calls nested by
#: ``yield from``; the next call leaves its chain for ``_walk``.  Python
#: runs a chain on its own stack, so this bounds the stack a run takes.
_LAST = 15


class _Emitter:
    """Python source for one program shape, in either mode.

    ``make(C, SELF, OWN)`` binds the quoted constants (read as ``C[i]``),
    the self text and ``OWN``, true if that text decodes back to the
    program, and returns the generator function ``P(inputs..., s, F, U,
    D)``, which runs the body from ``s`` steps under fuel ``F`` and
    returns ``(output value, steps)``.  ``D``, from 0 to ``_LAST``, is
    the position of the generator in its chain of univ calls.
    ``U(q_enc, d, s, D)`` is the run's univ: it returns the generator of
    the encoded program ``q_enc`` on ``d``, or raises ``_Fault``.  In
    plain mode ``U`` is None: each ``*`` faults on that before its step,
    and each univ call before its operands.  Code with neither has no
    test of the mode.
    Variables are locals ``v<i>`` and constants ``C[i]``, numbered by
    the ``_shape`` walk, so the source is a function of the shape key;
    expressions become three-address code on temporaries ``t<i>``.
    Operators read the private aliases that ``sexpr`` gives every value,
    with no type test: ``hd`` and ``tl`` are one load of ``_hd`` or
    ``_tl`` (``()`` on an atom), and an ``=`` with a quoted atom ``C[i]``
    as an operand is one load of ``_nm`` compared with ``K<i>``, which
    ``make`` binds to ``C[i].name``, so no atom's name is written into
    the source.  Any other ``=`` compares the ``_nm`` of both operands
    (one sentinel on every pair) and calls ``equal`` only for two pairs.
    The truth test and ``atom?`` keep their type tests: a loop variable
    is mostly a pair, and CPython 3.11 does not specialise reading a
    class attribute such as ``Pair._nm`` off an instance.  A ``cons``
    allocates its pair with ``new(Pair)`` and sets both fields, without
    ``Pair.__init__``.
    Code without a fault or a loop has a static cost, so its steps
    gather in ``pending`` and reach ``s`` in one addition per branch.
    Every fault, univ call, loop test and the final read checks ``s``
    against ``F`` first, so a fault reports its exact step count and an
    exhausted run reports ``steps == fuel``.  A ``while`` is the inverted
    loop ``if test: while True: body; if not (test): break``, each copy
    of its test charged and checked with the steps before it.

    ``P`` runs each univ call by ``t, s = yield from U(a, b, s, D)``; a
    univ call on ``*`` calls ``P`` itself at position ``D + 1`` while
    ``OWN`` holds and the chain has room, and ``U`` otherwise.  ``P``
    yields the generator ``B<i>(locals..., s, F, U, D)`` of each command
    outlined past control depth ``_MAX_NEST``, and ``_walk`` runs it and
    sends back its return value.
    """

    def __init__(self, program, shape=None):
        _, names, self.quotes, _, _ = shape or _shape(program)
        self.program = program
        self.locals = {name: f"v{i}" for name, i in names.items()}
        self.atoms = {}       # C[i] of a quoted atom -> K<i>, its name
        self.tested = {}      # each K<i> that the source reads -> C[i]
        self.lines = []
        self.pending = 0      # steps emitted but not yet added to s
        self.outlined = []    # (function name, command)

    def source(self):
        program, lines = self.program, self.lines
        params = [self.locals[v] for v in program.inputs]
        lines.append(f"    def P({', '.join(params + ['s', 'F', 'U', 'D'])}):")
        init = len(lines)
        lines.append("")
        self._command(program.body, " " * 8)
        self.pending += 1  # the final read
        self._check(" " * 8)
        lines.append(f"        return {self.locals[program.output]}, s")
        lines.append("        yield")  # unreached: makes a generator
        rest = list(self.locals.values())[len(params):]
        if rest:
            lines[init] = f"        {' = '.join(rest)} = NIL"
        names = ", ".join(self.locals.values())
        for name, cmd in self.outlined:  # grows while it is walked
            lines.append(f"    def {name}({names}, s, F, U, D):")
            self._command(cmd, " " * 8)
            lines.append(f"        return {names}, s + {self.pending}")
            lines.append("        yield")  # unreached: makes a generator
            self.pending = 0
        names = "".join(f"    {k} = {c}.name\n" for k, c in self.tested.items())
        return "def make(C, SELF, OWN):\n" + names + "\n".join(lines) + "\n    return P\n"

    def _check(self, ind):
        self.lines.append(_CHARGE.format(ind, self.pending))
        self.pending = 0

    def _fail(self, ind, detail):
        """Fault with ``detail`` here in plain mode."""
        self.lines.append(f"{ind}if U is None: fault(s + {self.pending}, F, {detail!r})")

    def _flush(self, ind):
        if self.pending:
            self.lines.append(f"{ind}s += {self.pending}")
            self.pending = 0

    def _command(self, root, ind):
        """Emit ``root`` at indent ``ind``, with no Python recursion."""
        todo = [(root, None, ind, 0)]
        while todo:
            cmd, arg, ind, depth = todo.pop()
            cls = type(cmd)
            if cmd is _ELSE:  # the else branch starts with the test's steps
                self.lines.append(f"{ind}else:")
                self.pending = arg
            elif cmd is _END:  # of an if branch
                self._flush(ind)
            elif cmd is _AGAIN:  # of a loop body: the loop's next test
                self.lines.append(f"{ind}if not ({self._test(arg, ind)}): break")
            elif cls is Seq:
                todo.append((cmd.second, None, ind, depth))
                todo.append((cmd.first, None, ind, depth))
            elif cls is Assign:
                target = self.locals[cmd.var]
                value = self._expr(cmd.expr, ind, target)
                if value != target:
                    self.lines.append(f"{ind}{target} = {value}")
                self.pending += 1
            elif depth >= _MAX_NEST:
                self._outline(cmd, ind)
            elif cls is While:
                inner, body = ind + "    ", ind + " " * 8
                test = self._test(cmd.test, ind)
                self.lines += [f"{ind}if {test}:", f"{inner}while True:"]
                todo.append((_AGAIN, cmd.test, body, depth))
                todo.append((cmd.body, None, body, depth + 1))
            else:  # If
                inner = ind + "    "
                self.pending += 1  # the test event
                test = self._expr(cmd.test, ind, _TEST)
                self.lines.append(f"{ind}if {test}:")
                todo += [(_END, None, inner, depth),
                         (cmd.orelse, None, inner, depth + 1),
                         (_ELSE, self.pending, ind, depth),
                         (_END, None, inner, depth),
                         (cmd.then, None, inner, depth + 1)]

    def _test(self, test, ind):
        """Emit a loop test, charge and check it, return its condition.
        A test that ends in a univ call was checked by that call."""
        self.pending += 1  # the test event
        test = self._expr(test, ind, _TEST)
        if self.pending:
            self._check(ind)
        return test

    def _outline(self, cmd, ind):
        """Run ``cmd`` as a generator function of its own, ``B<i>``, which
        takes and returns every variable, and yield its generator.  It
        starts at the caller's chain position: it runs on ``_walk``'s
        stack, no deeper than the caller, so its chain fits where the
        caller's did."""
        name = f"B{len(self.outlined) + 1}"
        self.outlined.append((name, cmd))
        names = ", ".join(self.locals.values())
        self.lines.append(
            f"{ind}{names}, s = yield {name}({names}, s + {self.pending}, F, U, D)")
        self.pending = 0

    def _const(self, quote):
        """``C[i]``, with ``i`` the shape walk's index of the Quote node."""
        i = self.quotes[id(quote)]
        if type(quote.value) is Atom:
            self.atoms[f"C[{i}]"] = f"K{i}"
        return f"C[{i}]"

    def _name_test(self, x, atom):
        """Condition for ``equal(x, atom)`` with ``atom`` a quoted atom."""
        k = self.atoms[atom]
        self.tested[k] = atom
        return f"{x}._nm == {k}"

    def _expr(self, root, ind, dest=None):
        """Emit code that evaluates ``root`` in the cost model's order
        (operands left to right, then the operator) and return the
        operand holding its value.  The root's value goes to the local
        ``dest`` if one is given; with ``dest`` ``_TEST`` the operand is
        a Python condition, true iff the value is not ``()``."""
        lines = self.lines
        values = []
        todo = [(root, 0, False)]  # (expression, temporary, operands done?)
        while todo:
            expr, slot, ready = todo.pop()
            cls = type(expr)
            if cls is Var:
                values.append(self.locals[expr.name])
                self.pending += 1
            elif cls is Quote:
                values.append(self._const(expr))
                self.pending += 1
            elif cls is SelfRef:
                self._fail(ind, "'*' outside reflective mode")
                values.append("SELF")
                self.pending += 1
            elif not ready:
                todo.append((expr, slot, True))
                if cls is UnivCall:
                    self._fail(ind, "'univ' call outside reflective mode")
                if cls is Cons or cls is Eq or cls is UnivCall:
                    left, right = (expr.prog, expr.arg) if cls is UnivCall \
                        else (expr.left, expr.right)
                    todo.append((right, slot + 1, False))
                    todo.append((left, slot, False))
                else:  # Hd, Tl or IsAtom
                    todo.append((expr.arg, slot, False))
            else:
                self.pending += 1
                b = values.pop() if cls is Cons or cls is Eq or cls is UnivCall \
                    else None
                a = values.pop()
                t = dest if not todo and dest is not None and dest is not _TEST \
                    else f"t{slot}"
                if cls is Eq or cls is IsAtom:
                    if cls is IsAtom:
                        test = f"type({a}) is Atom"
                    elif b in self.atoms:
                        test = self._name_test(a, b)
                    elif a in self.atoms:
                        test = self._name_test(b, a)
                    else:  # sexpr.equal, with its fast paths inlined
                        test = (f"{a} is {b} or {a}._nm == {b}._nm and "
                                f"(type({a}) is Atom or equal({a}, {b}))")
                    if not todo and dest is _TEST:
                        return test
                    lines.append(f"{ind}{t} = ONE if {test} else NIL")
                elif cls is Hd or cls is Tl:
                    lines.append(f"{ind}{t} = {a}.{'_hd' if cls is Hd else '_tl'}")
                elif cls is Cons:  # built apart when t is also an operand
                    p = "pair" if t == a or t == b else t
                    line = f"{ind}{p} = new(Pair); {p}.head = {a}; {p}.tail = {b}"
                    lines.append(line if p == t else f"{line}; {t} = {p}")
                else:  # UnivCall
                    self._check(ind)
                    call = f"U({a}, {b}, s, D)"
                    if a == "SELF":  # the operand is *
                        call = (f"(P({b}, s, F, U, D + 1) if OWN and D < {_LAST}"
                                f" else {call})")
                    lines.append(f"{ind}{t}, s = yield from {call}")
                values.append(t)
        value = values.pop()
        if dest is _TEST:
            return f'type({value}) is not Atom or {value}.name != "()"'
        return value


def _shape(program):
    """Walk ``program`` once, in prefix order and with no recursion, and
    return ``(key, names, quotes, consts, uses_self)``.

    ``key`` is the program's shape: the number of inputs, each
    node's kind, each variable as the index of its first occurrence
    (inputs first, the output last) and each quoted constant only as
    ``"atom"`` or ``"pair"``.  Renaming variables consistently or
    changing the values of constants leaves it as it is.  A Quote node
    met again (ASTs may share subtrees) is the index of its constant.
    ``names`` maps each variable to its index, ``quotes`` each Quote
    node's id to the index of its constant in ``consts``, and
    ``uses_self`` is true if the program has a ``*``.
    """
    names = {}
    for name in program.inputs:
        names[name] = len(names)
    quotes, consts = {}, []
    key = [len(names)]
    uses_self = False
    todo = [program.body]
    while todo:
        node = todo.pop()
        cls = type(node)
        key.append(cls)
        if cls is Var or cls is Assign:
            name = node.name if cls is Var else node.var
            i = names.get(name)
            if i is None:
                i = names[name] = len(names)
            key.append(i)
        elif cls is Quote:
            i = quotes.get(id(node))
            if i is None:
                quotes[id(node)] = len(consts)
                consts.append(node.value)
                key.append(_DATA[type(node.value)])
            else:
                key.append(i)
        elif cls is SelfRef:
            uses_self = True
        for field in _CHILDREN[cls]:
            todo.append(getattr(node, field))
    key.append(names.setdefault(program.output, len(names)))
    return tuple(key), names, quotes, consts, uses_self


#: The ``make`` function of each compiled shape, least recently used
#: first; at most ``_SHAPES_MAX`` of them.
_SHAPES = {}
_SHAPES_MAX = 256
#: Frames added to the recursion limit for the whole of a run.  Its
#: deepest point is a new shape compiled by a univ call at the end of a
#: chain: ``_execute``, ``_walk``, the chain's ``_LAST + 1`` generators,
#: ``U`` and ``_instance``, and 50 frames to emit and compile the shape.
_FRAMES = _LAST + 5 + 50


def _instance(program):
    """The compiled function of ``program``, made once, and the
    program's own text if a univ call on that text may run this
    function instead of decoding it (else None).

    Constants and the self text are arguments of ``make``, so programs
    of one shape share one ``make``.  A program of a known shape costs
    one ``_shape`` walk and a call of ``make``; only a new shape pays
    for emitting its source and ``compile()``, which outweighs the
    faster execution on runs of less than a few thousand steps.
    """
    entry = program._compiled
    if entry is None:
        shape = key, names, _, consts, uses_self = _shape(program)
        make = _SHAPES.pop(key, None)
        if make is None:
            namespace = dict(_GLOBALS)
            exec(compile(_Emitter(program, shape).source(), "<flowchart>", "exec"),
                 namespace)
            make = namespace["make"]
            if len(_SHAPES) >= _SHAPES_MAX:
                del _SHAPES[next(iter(_SHAPES))]
        _SHAPES[key] = make
        own = encode(program) if uses_self else None
        # decode rejects * and () as names and reads an atom * in an
        # expression as SelfRef, so with either the text is some other
        # program or none; this holds per program, not per shape
        decodes = len(program.inputs) == 1 and "*" not in names and "()" not in names
        entry = program._compiled = (make(tuple(consts), own, decodes),
                                     own if decodes else None)
    return entry


def _walk(gen):
    """Run ``gen`` and every generator it yields on one explicit stack,
    and return what ``gen`` returns.  A generator that yields another
    is resumed with the other's return value.  So memory, not Python's
    recursion limit, bounds how deep the yields nest."""
    callers = []
    reply = None
    while True:
        try:
            call = gen.send(reply)
        except StopIteration as stop:
            if not callers:
                return stop.value
            gen = callers.pop()
            reply = stop.value
        else:
            callers.append(gen)
            gen = call
            reply = None


def _out(fn, d, steps, fuel, U):
    """Start ``fn`` on ``d`` as the first of a new chain and hand it to
    ``_walk`` to run.  The generator is not kept here: a chain must not
    hold the next one, or freeing a deep nest would recurse in C."""
    return (yield fn(d, steps, fuel, U, 0))


def run(program, args, fuel=10**7, mode="plain"):
    """Run a program on argument values under a fuel bound.

    Variables other than the inputs start as ``()``; ``hd``/``tl`` of an
    atom are ``()`` (all operators are total).  In reflective mode ``*``
    denotes the running program's text and ``(univ p d)`` runs the
    encoded program ``p`` on ``d`` within the same fuel budget.  A
    univ call on ``*`` runs the program's own compiled function without
    decoding its text, if that text decodes back to the program: it has
    one input and no variable named ``*`` or ``()``.  Otherwise it is
    decoded like any other text, and fails or runs just as the decoded
    program says.

    Each program is compiled once, for both modes, and programs of one
    shape (the same AST up to consistent renaming of variables and the
    values of quoted constants) share one compiled function: a freshly
    built or decoded program of a known shape costs one walk of its
    AST, not an emission of source and a ``compile()``.

    ``program`` must be a ``Program``, ``fuel`` an ``int`` and each
    argument an ``Atom`` or a ``Pair``; anything else raises
    ``TypeError`` before any step runs.  A program is well formed by
    construction: its node classes and ``Program`` raise ``TypeError``
    for a command where an expression belongs, an expression where a
    command belongs, a name that is not a ``str`` or a quoted value that
    is not an ``Atom`` or a ``Pair``, and ``decode`` builds no such tree.
    So ``run`` checks none of this again, nor does any other walk; a
    field set after construction is not checked at all.

    Memory grows with univ nesting: each pending univ call holds one
    generator frame of about 360 bytes plus 8 per variable of the
    called program, and costs at least 3 steps.  So
    ``((d) (:= out (univ * d)) out)`` peaks at about 1.2 GB before it
    exhausts the default fuel.  A chain of univ calls takes up to 16
    Python frames, and a new shape compiled at its end some more: the
    run compiles and executes with the recursion limit raised by
    ``_FRAMES`` for those, and restores it on return.
    """
    if len(args) != len(_checked(program).inputs):
        raise ValueError(
            f"program expects {len(program.inputs)} arguments, got {len(args)}")
    if type(fuel) is not int:  # a bool is no fuel either
        raise TypeError(f"fuel must be an int, not {type(fuel).__name__}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if mode not in ("plain", "reflective"):
        raise ValueError(f"unknown mode {mode!r}")
    for arg in args:
        if type(arg) is not Atom and type(arg) is not Pair:
            raise TypeError(f"argument {arg!r} is not an s-expression")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _FRAMES)
    try:
        fn, own = _instance(program)
        return _execute(fn, own, args, fuel, mode == "reflective")
    finally:
        sys.setrecursionlimit(limit)


def _execute(fn, own, args, fuel, reflective):
    """Run the compiled function ``fn`` of ``run`` on ``args``, with
    this run's univ in reflective mode and None in plain mode."""
    # id(q_enc) -> (q_enc, compiled function): holding q_enc pins its id
    programs = {} if own is None else {id(own): (own, fn)}

    def U(q_enc, d, steps, depth):
        """This run's univ, called at chain position ``depth``: the
        generator of ``q_enc`` run on ``d`` from ``steps``, next in the
        chain or, past its end, through ``_out``.  Each distinct text is
        decoded and compiled once."""
        known = programs.get(id(q_enc))
        if known is None:
            try:
                q = decode(q_enc, allow_reserved=True)
            except DecodeError as exc:
                raise _Fault(f"univ on a non-program: {exc}", steps) from None
            if len(q.inputs) != 1:
                raise _Fault("univ needs a one-input program", steps)
            known = programs[id(q_enc)] = (q_enc, _instance(q)[0])
        if depth < _LAST:
            return known[1](d, steps, fuel, U, depth + 1)
        return _out(known[1], d, steps, fuel, U)

    try:
        value, steps = _walk(fn(*args, 0, fuel, U if reflective else None, 0))
    except _Exhausted:
        return RunResult(None, fuel, RunResult.FUEL)
    except _Fault as f:
        return RunResult(None, f.steps, RunResult.ERROR, f.detail)
    return RunResult(value, steps, RunResult.HALTED)
