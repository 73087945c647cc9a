"""First-argument specialisation (the S-1-1 function) and a dead-code pass.

``specialize`` is the meta-level operation: freeze a program's first
input to a constant.  ``s11_program`` is the same operation written as a
straight-line flowchart program operating on encoded programs, so it can
be run, specialised and self-applied like any other data.
"""

import functools

from .build import QA, V, asg, hd, lst, prog, seq, tl
from .flowchart import (
    RESERVED_PREFIX, Assign, If, Program, Quote, SelfRef, Seq, UnivCall, Var,
    While, _checked, _nodes, _walk, expr_vars,
)
from .sexpr import NIL

__all__ = ["specialize", "s11_program", "eliminate_dead_code"]


def specialize(program, value):
    """Freeze the first input of ``program`` to ``value``.

    The result reads one argument fewer and starts by assigning the
    quoted value to the removed input variable.  Both the value and the
    original body are referenced, not copied.  ``TypeError`` unless
    ``value`` is an ``Atom`` or a ``Pair``, as for any ``Quote``.
    """
    if not _checked(program).inputs:
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
    run forever.  The program was checked when it was built, so the
    walks check nothing but that it is a ``Program``.
    """
    reads = {}
    _walk(_reads(_checked(program).body, None, reads))
    body = _walk(_sweep(program.body, {program.output}, reads))
    if body is None:
        body = Assign(program.output, Var(program.output))
    return Program(program.inputs, body, program.output)


def _reads(cmd, acc, reads):
    """Add to ``acc`` the variables read inside ``cmd``, and enter in
    ``reads`` the set read inside each while and if of ``cmd``, by id.
    ``acc`` is None outside every while and if, where nothing reads the
    collected set, so nothing is collected there.  A ``;`` chain's
    right-nested spine is walked in a loop, so a long chain holds one
    generator, not one per ``;``."""
    while type(cmd) is Seq:
        first = cmd.first
        if type(first) is not Assign:
            yield _reads(first, acc, reads)
        elif acc is not None:
            acc |= expr_vars(first.expr)
        cmd = cmd.second
    t = type(cmd)
    if t is Assign:
        if acc is not None:
            acc |= expr_vars(cmd.expr)
    else:  # While or If
        inner = reads[id(cmd)] = expr_vars(cmd.test)
        for arm in (cmd.body,) if t is While else (cmd.then, cmd.orelse):
            yield _reads(arm, inner, reads)
        if acc is not None:
            acc |= inner


def _sweep(cmd, live, reads):
    """The kept part of ``cmd`` (None if nothing), given the variables
    ``live`` after it; leaves in ``live`` the variables live before it.
    Every variable read inside a while or if is live throughout it.
    A ``;`` chain's right-nested spine is collected in a list and swept
    back from its end, with a fresh ``;`` wherever both parts are kept."""
    t = type(cmd)
    if t is Assign:
        return _kept(cmd, live)
    if t is Seq:
        spine = []
        while type(cmd) is Seq:
            spine.append(cmd.first)
            cmd = cmd.second
        kept = yield _sweep(cmd, live, reads)
        for part in reversed(spine):
            first = _kept(part, live) if type(part) is Assign \
                else (yield _sweep(part, live, reads))
            kept = kept if first is None else first if kept is None \
                else Seq(first, kept)
        return kept
    live |= reads[id(cmd)]
    if t is While:
        body = yield _sweep(cmd.body, set(live), reads)
        return cmd if body is cmd.body or body is None else While(cmd.test, body)
    # the construct itself is always kept (its test may loop via univ);
    # fully dead arms shrink to a harmless reserved-variable assignment
    then = (yield _sweep(cmd.then, set(live), reads)) or _noop()
    orelse = (yield _sweep(cmd.orelse, set(live), reads)) or _noop()
    return cmd if then is cmd.then and orelse is cmd.orelse \
        else If(cmd.test, then, orelse)


def _kept(cmd, live):
    """An assignment ``cmd`` if it is kept, else None; as ``_sweep``."""
    if cmd.var not in live and not _may_fault(cmd.expr):
        return None
    live.discard(cmd.var)
    live |= expr_vars(cmd.expr)
    return cmd


def _may_fault(expr):
    return any(type(n) is UnivCall or type(n) is SelfRef for n in _nodes(expr))


def _noop():
    return Assign(f"{RESERVED_PREFIX}dead", Quote(NIL))
