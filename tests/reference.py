"""Naive references that the tests check srtlab against.

``Reference`` is a per-node evaluator for flowchart programs.  It
charges one step per node exactly as the cost model in the
``flowchart`` docstring says, with no compilation and no block
charging; ``_agree`` runs a program both ways and asserts that status,
steps, value and fault detail are the same.  ``ref_measure`` is the
tree and DAG size of a value by memoised recursion.
"""

from srtlab.flowchart import (
    Assign, Cons, DecodeError, Eq, Hd, IsAtom, Quote, RunResult, SelfRef,
    Seq, Tl, UnivCall, Var, While, decode, encode, run,
)
from srtlab.sexpr import NIL, ONE, Atom, Pair, equal, is_nil


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
