"""Shorthand constructors for flowchart ASTs.

Program constructions in this package build a fair amount of abstract
syntax by hand; these helpers keep those listings readable.
"""

from .flowchart import (
    Assign, Cons, Eq, Hd, If, IsAtom, Program, Quote, SelfRef, Seq, Tl,
    UnivCall, Var, While,
)
from .sexpr import NIL, Atom

__all__ = [
    "V", "Q", "QA", "QNIL", "hd", "tl", "cons", "eq", "atomp", "univ",
    "selfref", "lst", "asg", "seq", "wh", "iff", "prog",
]


def V(name):
    return Var(name)


def Q(value):
    return Quote(value)


def QA(name):
    return Quote(Atom(name))


def QNIL():
    return Quote(NIL)


def hd(e):
    return Hd(e)


def tl(e):
    return Tl(e)


def cons(a, b):
    return Cons(a, b)


def eq(a, b):
    return Eq(a, b)


def atomp(e):
    return IsAtom(e)


def univ(p, d):
    return UnivCall(p, d)


def selfref():
    return SelfRef()


def lst(*exprs):
    """Expression that builds the list of the given element expressions."""
    out = QNIL()
    for e in reversed(exprs):
        out = Cons(e, out)
    return out


def asg(name, expr):
    return Assign(name, expr)


def seq(*cmds):
    if not cmds:
        raise ValueError("empty sequence")
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def wh(test, *body):
    return While(test, seq(*body))


def iff(test, then, orelse):
    return If(test, then, orelse)


def prog(inputs, body, output):
    return Program(inputs, body, output)
