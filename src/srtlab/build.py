"""Short names for building flowchart ASTs by hand.

``V``, ``hd``, ``tl``, ``cons``, ``eq``, ``atomp``, ``univ``, ``asg``,
``iff`` and ``prog`` are the node classes of ``flowchart`` themselves,
so the program constructions read as prefix terms.  ``QA``, ``QNIL``,
``lst``, ``seq`` and ``wh`` build more than one node.
"""

from .flowchart import (
    Assign, Cons, Eq, Hd, If, IsAtom, Program, Quote, Seq, Tl, UnivCall,
    Var, While,
)
from .sexpr import NIL, Atom

__all__ = [
    "V", "QA", "QNIL", "hd", "tl", "cons", "eq", "atomp", "univ",
    "lst", "asg", "seq", "wh", "iff", "prog",
]

V = Var
hd = Hd
tl = Tl
cons = Cons
eq = Eq
atomp = IsAtom
univ = UnivCall
asg = Assign
iff = If
prog = Program


def QA(name):
    return Quote(Atom(name))


def QNIL():
    return Quote(NIL)


def lst(*exprs):
    """Expression that builds the list of the given element expressions."""
    out = QNIL()
    for e in reversed(exprs):
        out = Cons(e, out)
    return out


def seq(*cmds):
    if not cmds:
        raise ValueError("empty sequence")
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def wh(test, *body):
    return While(test, seq(*body))
