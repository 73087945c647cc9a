"""Naive references that the tests check srtlab against, one per
semantics.

* ``Reference`` is a per-node evaluator for flowchart programs.  It
  charges one step per node exactly as the cost model in the
  ``flowchart`` docstring says, with no compilation and no block
  charging; ``_agree`` runs a program both ways and asserts that
  status, steps, value and fault detail are the same.
* ``ref_measure`` is the tree and DAG size of a value by memoised
  recursion; ``ref_print`` prints a value by recursion.
* ``ref_parse`` parses s-expression text from the (token, offset) pairs
  of ``ref_tokenize``, a character-at-a-time scanner.
* ``ref_scan`` tokenises 1# text one character at a time; ``ref_run``
  runs it one instruction at a time, with ``ref_move_at`` spotting the
  move blocks that ``fast_assign`` runs as one step.

``dec`` is the tests' shorthand for decoding program text.
"""

from srtlab.flowchart import (
    Assign, Cons, DecodeError, Eq, Hd, IsAtom, Quote, RunResult, SelfRef,
    Seq, Tl, UnivCall, Var, While, decode, encode, run,
)
from srtlab.sexpr import NIL, ONE, Atom, Pair, ParseError, equal, is_nil, parse


def dec(text):
    return decode(parse(text))


class _Stop(Exception):
    def __init__(self, status, detail=None):
        self.status = status
        self.detail = detail


class Reference:
    def __init__(self, fuel, reflective):
        self.steps, self.fuel, self.reflective = 0, fuel, reflective

    def tick(self):
        self.steps += 1
        if self.steps > self.fuel:
            self.steps = self.fuel
            raise _Stop(RunResult.FUEL)

    def program(self, p, args):
        env = dict(zip(p.inputs, args))
        self.command(p.body, env, p)
        self.tick()
        return env.get(p.output, NIL)

    def command(self, c, env, p):
        if type(c) is Assign:
            value = self.expr(c.expr, env, p)
            self.tick()
            env[c.var] = value
        elif type(c) is Seq:
            self.command(c.first, env, p)
            self.command(c.second, env, p)
        elif type(c) is While:
            while True:
                self.tick()
                if is_nil(self.expr(c.test, env, p)):
                    break
                self.command(c.body, env, p)
        else:
            self.tick()
            test = self.expr(c.test, env, p)
            self.command(c.orelse if is_nil(test) else c.then, env, p)

    def expr(self, e, env, p):
        if type(e) is SelfRef and not self.reflective:
            raise _Stop(RunResult.ERROR, "'*' outside reflective mode")
        if type(e) is UnivCall and not self.reflective:
            raise _Stop(RunResult.ERROR, "'univ' call outside reflective mode")
        fields = {Hd: ("arg",), Tl: ("arg",), IsAtom: ("arg",),
                  Cons: ("left", "right"), Eq: ("left", "right"),
                  UnivCall: ("prog", "arg")}.get(type(e), ())
        args = [self.expr(getattr(e, f), env, p) for f in fields]
        self.tick()
        if type(e) is Var:
            return env.get(e.name, NIL)
        if type(e) is Quote:
            return e.value
        if type(e) is SelfRef:
            return encode(p)
        if type(e) in (Hd, Tl):
            v = args[0]
            return NIL if type(v) is not Pair else v.head if type(e) is Hd else v.tail
        if type(e) is Cons:
            return Pair(*args)
        if type(e) is Eq:
            return ONE if equal(*args) else NIL
        if type(e) is IsAtom:
            return ONE if type(args[0]) is Atom else NIL
        try:
            q = decode(args[0], allow_reserved=True)
        except DecodeError as exc:
            raise _Stop(RunResult.ERROR, f"univ on a non-program: {exc}") from None
        if len(q.inputs) != 1:
            raise _Stop(RunResult.ERROR, "univ needs a one-input program")
        return self.program(q, [args[1]])


def _agree(p, args, fuel, mode):
    ref = Reference(fuel, mode == "reflective")
    try:
        value = ref.program(p, args)
        want = (RunResult.HALTED, ref.steps, None)
    except _Stop as stop:
        value, want = None, (stop.status, ref.steps, stop.detail)
    got = run(p, args, fuel, mode)
    assert (got.status, got.steps, got.detail) == want, (mode, fuel)
    assert (value is None and got.value is None) or equal(got.value, value)
    return got


def ref_measure(s):
    """``(tree size, DAG size)`` of ``s``: the DAG size counts distinct
    nodes by identity."""
    trees = {}

    def tree(node):
        if id(node) not in trees:
            trees[id(node)] = 1 if type(node) is Atom else (
                1 + tree(node.head) + tree(node.tail))
        return trees[id(node)]

    return tree(s), len(trees)


def ref_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append((ch, i))
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in "()":
            i += 1
        tokens.append((text[start:i], start))
    return tokens


def ref_parse(text):
    tokens = ref_tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    outer = []
    values = dot = start = None
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


def ref_print(s):
    if type(s) is Atom:
        return s.name
    items = []
    while type(s) is Pair:
        items.append(ref_print(s.head))
        s = s.tail
    dotted = "" if s.name == "()" else " . " + s.name
    return "(" + " ".join(items) + dotted + ")"


def ref_scan(raw):
    """(k, n) pairs of ``raw``, or the (message, offset) of its first error."""
    for k, ch in enumerate(raw):
        if ch not in "1#":
            return f"illegal character {ch!r}", k
    instrs = []
    i, n = 0, len(raw)
    while i < n:
        start = i
        while i < n and raw[i] == "1":
            i += 1
        if i == start:
            return "instruction must start with 1s", i
        hstart = i
        while i < n and raw[i] == "#":
            i += 1
        if i == hstart:
            return "instruction lacks #s", start
        if i - hstart > 5:
            return "too many #s in one instruction", hstart
        instrs.append((i - hstart, hstart - start))
    return tuple(instrs)


def ref_move_at(instrs, pc):
    """(i, j) when a move block between registers 1-8 starts at pc."""
    block = instrs[pc - 1:pc + 6]
    if len(block) != 7:
        return None
    i, j = block[0][1], block[3][1]
    shape = ((5, i), (3, 6), (3, 3), (2, j), (4, 4), (1, j), (4, 6))
    if block == shape and i != j and i <= 8 and j <= 8:
        return i, j
    return None


def ref_run(raw, inputs, fuel, variant="standard", boundary=None):
    """(status, steps, setup_steps, registers), computed naively."""
    instrs = ref_scan(raw)
    regs = {k: list(text) for k, text in enumerate(inputs, start=1)}
    pc, steps, setup = 1, 0, None
    while True:
        if boundary is not None and setup is None and pc >= boundary:
            setup = steps
        if not 1 <= pc <= len(instrs):
            status = "halted" if pc == len(instrs) + 1 else "abnormal_halt"
            break
        if steps == fuel:
            status = "fuel_exhausted"
            break
        steps += 1
        move = ref_move_at(instrs, pc) if variant == "fast_assign" else None
        if move is not None:
            regs.setdefault(move[1], []).extend(regs.pop(move[0], []))
            pc += 7
            continue
        op, n = instrs[pc - 1]
        if op in (1, 2):
            regs.setdefault(n, []).append("1#"[op - 1])
            pc += 1
        elif op == 3:
            pc += n
        elif op == 4:
            pc -= n
        elif not regs.get(n):
            pc += 1
        else:
            pc += 2 if regs[n].pop(0) == "1" else 3
    registers = {k: "".join(v) for k, v in regs.items() if v}
    return status, steps, setup, registers
