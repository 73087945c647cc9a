"""First-argument specialisation (the S-1-1 function) and a dead-code pass.

``specialize`` is the meta-level operation: freeze a program's first
input to a constant.  ``s11_program`` is the same operation written as a
straight-line flowchart program operating on encoded programs, so it can
be run, specialised and self-applied like any other data.
"""

import functools

from .build import QA, V, asg, hd, lst, prog, seq, tl
from .flowchart import (
    Assign, If, Program, Quote, SelfRef, Seq, UnivCall, Var, While, _nodes,
    expr_vars,
)
from .sexpr import NIL

__all__ = ["specialize", "s11_program", "eliminate_dead_code"]


def specialize(program, value):
    """Freeze the first input of ``program`` to ``value``.

    The result reads one argument fewer and starts by assigning the
    quoted value to the removed input variable.  Both the value and the
    original body are referenced, not copied.
    """
    if not program.inputs:
        raise ValueError("cannot specialize a program with no inputs")
    frozen = program.inputs[0]
    return Program(
        program.inputs[1:],
        Seq(Assign(frozen, Quote(value)), program.body),
        program.output,
    )


@functools.cache
def s11_program():
    """The specialiser as a two-input straight-line program.

    Reads an encoded program and a value; writes the encoded
    specialised program.  No validation: garbage in, garbage out.
    Built once per process; every caller shares the one ``Program``.
    """
    pgm = V("pgm")
    body = seq(
        asg("inputvar", hd(hd(pgm))),
        asg("C", hd(tl(pgm))),
        asg("outputvar", hd(tl(tl(pgm)))),
        asg("initialise",
            lst(QA(":="), V("inputvar"), lst(QA("QUOTE"), V("s")))),
        asg("body", lst(QA(";"), V("initialise"), V("C"))),
        asg("outpgm", lst(tl(hd(pgm)), V("body"), V("outputvar"))),
    )
    return prog(("pgm", "s"), body, "outpgm")


# ---------------------------------------------------------------------------
# dead code elimination

def eliminate_dead_code(program):
    """Drop assignments whose targets never flow into the output.

    Backward liveness from the output variable.  Loops and branches are
    handled conservatively: every variable read anywhere inside them is
    treated as live throughout the construct, and the constructs
    themselves are always kept.  So is an assignment that calls univ or
    reads ``*``, even when dead: either can fault, and univ can also
    run forever.
    """
    body = _sweep(program.body, {program.output})
    if body is None:
        body = Assign(program.output, Var(program.output))
    return Program(program.inputs, body, program.output)


_CLOSE = object()


def _reads(cmd, reads):
    """Enter in ``reads`` the variables read inside each while and if of
    ``cmd``, by id.

    One pass: a construct's set gathers the reads of its own tests and
    assignments, and each inner construct's set once that is complete.
    Below a construct's arms ``todo`` holds ``_CLOSE``, which ends it
    and adds its set to that of the construct around it on ``frames``.
    """
    acc = set()  # the innermost open construct's set
    todo, frames = [cmd], []
    while todo:
        cmd = todo.pop()
        t = type(cmd)
        if cmd is _CLOSE:
            done, outer = frames.pop()
            reads[id(done)] = acc
            outer |= acc
            acc = outer
        elif t is Assign:
            expr_vars(cmd.expr, acc)
        elif t is Seq:
            todo += (cmd.second, cmd.first)
        elif t is While or t is If:
            frames.append((cmd, acc))
            todo.append(_CLOSE)
            acc = expr_vars(cmd.test)
            todo += (cmd.body,) if t is While else (cmd.then, cmd.orelse)
        else:
            raise TypeError(f"cannot sweep {cmd!r}")


def _sweep(cmd, live):
    """The kept part of ``cmd`` (None if nothing) given ``live`` after it.

    A task (cmd, start, join) on ``todo`` resets ``live`` to ``start``
    unless that is None, then sweeps ``cmd``, or with ``join`` rebuilds
    ``cmd`` from the parts that its sweep left on ``kept``.
    """
    kept = []
    reads = {}  # filled by _reads at each outermost while or if
    todo = [(cmd, None, False)]
    while todo:
        cmd, start, join = todo.pop()
        live = live if start is None else start
        t = type(cmd)
        if join and t is Seq:
            first, second = kept.pop(), kept.pop()
            kept.append(second if first is None else first if second is None
                        else Seq(first, second))
        elif join and t is While:
            body = kept.pop()
            kept.append(cmd if body is cmd.body or body is None
                        else While(cmd.test, body))
        elif join:
            # the construct itself is always kept (its test may loop via univ);
            # fully dead arms shrink to a harmless reserved-variable assignment
            orelse, then = kept.pop() or _noop(), kept.pop() or _noop()
            kept.append(cmd if then is cmd.then and orelse is cmd.orelse
                        else If(cmd.test, then, orelse))
        elif t is Assign and (cmd.var in live or _may_fault(cmd.expr)):
            live = expr_vars(cmd.expr, live - {cmd.var})
            kept.append(cmd)
        elif t is Assign:
            kept.append(None)
        elif t is Seq:
            todo += ((cmd, None, True), (cmd.first, None, False),
                     (cmd.second, None, False))
        elif t is While or t is If:
            # every variable read inside the construct is live throughout it
            if id(cmd) not in reads:
                _reads(cmd, reads)
            inner = live | reads[id(cmd)]
            arms = (cmd.body,) if t is While else (cmd.orelse, cmd.then)
            todo.append((cmd, inner, True))
            todo += ((arm, inner, False) for arm in arms)
        else:
            raise TypeError(f"cannot sweep {cmd!r}")
    return kept.pop()


def _may_fault(expr):
    return any(type(n) is UnivCall or type(n) is SelfRef for n in _nodes(expr))


def _noop():
    return Assign("%dead", Quote(NIL))
