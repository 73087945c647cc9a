"""Seeded random program generators for the property suites.

Straight-line generator: bounded expression depth, variables from a
four-name pool, quoted constants of bounded size.  The loop generator
assembles one-input programs from structurally descending loop
templates, so every generated program halts on every input.
"""

from srtlab.build import QA, V, asg, atomp, cons, hd, iff, prog, seq, tl, wh
from srtlab.flowchart import Quote
from srtlab.sexpr import Atom, Pair

__all__ = [
    "random_sexpr", "random_tiny_program", "random_loop_program",
    "random_inputs",
]

_POOL = ("q", "d", "out", "tmp")
_ATOM_NAMES = ("a", "b", "1", "x")

MAX_EXPR_DEPTH = 5
MAX_CONST_SIZE = 7


def random_sexpr(rng, max_nodes=MAX_CONST_SIZE):
    if max_nodes <= 1 or rng.random() < 0.4:
        return Atom(rng.choice(_ATOM_NAMES))
    left = rng.randint(1, max_nodes - 2) if max_nodes > 2 else 1
    return Pair(random_sexpr(rng, left),
                random_sexpr(rng, max_nodes - 1 - left))


def _random_expr(rng, depth, pool):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return V(rng.choice(pool))
        return Quote(random_sexpr(rng))
    kind = rng.choice(("hd", "tl", "cons"))
    if kind == "hd":
        return hd(_random_expr(rng, depth - 1, pool))
    if kind == "tl":
        return tl(_random_expr(rng, depth - 1, pool))
    return cons(_random_expr(rng, depth - 1, pool),
                _random_expr(rng, depth - 1, pool))


def random_tiny_program(rng, inputs=("q", "d"), output="out"):
    """Straight-line two-input program over the fixed name pool."""
    pool = _POOL
    count = rng.randint(2, 6)
    cmds = [asg(rng.choice(pool), _random_expr(rng, MAX_EXPR_DEPTH, pool))
            for _ in range(count)]
    return prog(inputs, seq(*cmds), output)


def random_loop_program(rng):
    """One-input program with loops; halts on every input.

    Loop bodies are fixed descending templates (the control variable
    strictly shrinks), with randomised straight-line code around them.
    """
    pool = ("x", "t", "out", "u")
    pieces = [asg("t", _random_expr(rng, 2, ("x",)))]
    for _ in range(rng.randint(1, 2)):
        template = rng.randrange(3)
        if template == 0:  # reverse-ish fold
            pieces.append(wh(V("t"),
                             asg("out", cons(hd(V("t")), V("out"))),
                             asg("t", tl(V("t")))))
        elif template == 1:  # length count
            pieces.append(wh(V("t"),
                             asg("out", cons(QA("1"), V("out"))),
                             asg("t", tl(V("t")))))
        else:  # drain with a branch on the element shape
            pieces.append(wh(V("t"),
                             iff(atomp(hd(V("t"))),
                                 asg("out", cons(hd(V("t")), V("out"))),
                                 asg("u", cons(V("u"), V("out")))),
                             asg("t", tl(V("t")))))
        pieces.append(asg("t", _random_expr(rng, 2, ("x", "out", "u"))))
    pieces.append(asg("out", _random_expr(rng, 3, pool)))
    return prog(("x",), seq(*pieces), "out")


def random_inputs(rng, count, max_nodes=15):
    return [random_sexpr(rng, rng.randint(1, max_nodes)) for _ in range(count)]
