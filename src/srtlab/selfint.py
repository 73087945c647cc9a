"""A universal program for the extended flowchart language, in that language.

``univ_program()`` returns a two-input program U with
``run(U, [encode(p), d])`` agreeing with ``run(p, [d])`` for every
one-input, non-reflective program p: same value, and the two runs halt
or diverge together.

U is a classic explicit-state interpreter: the environment is an
association list of (name . value) pairs, control is a work stack of
tagged items, and intermediate results live on a value stack.  Operator
arguments that are plain variables are evaluated in place; anything
nested goes through the work stack.  Environment updates rewrite the
existing binding (rebuilding only the scanned prefix), so the
environment stays one entry per variable and the interpretation
overhead of a fixed program does not grow with its input.

There is no validation inside U: feeding it something that is not a
well-formed encoded program yields garbage (deterministically).
"""

import functools

from .build import QA, QNIL, V, asg, atomp, cons, eq, hd, iff, seq, tl, wh
from .flowchart import (
    RESERVED_PREFIX, Program, Quote, _checked, _decode, encode, run,
)
from .sexpr import NIL, Atom, Pair, tree_size
from .specializer import s11_program

__all__ = [
    "univ_program", "wrap_nullary", "interpreter_wrapped",
    "measure_overhead", "futamura",
]


def _op_item(tag):
    """Constant work item for a pending operator application."""
    return Quote(Pair(Atom(tag), NIL))


def _item(tag, payload):
    return cons(QA(tag), payload)


def _push_code(*items):
    expr = V("code")
    for item in reversed(items):
        expr = cons(item, expr)
    return asg("code", expr)


def _push_val(expr):
    return asg("vals", cons(expr, V("vals")))


def _lookup(namevar, target):
    """Commands: target := value bound to the atom held in ``namevar``."""
    scan = V("scan")
    return seq(
        asg(target, QNIL()),
        asg("scan", V("env")),
        wh(scan,
           iff(eq(hd(hd(scan)), V(namevar)),
               seq(asg(target, tl(hd(scan))),
                   asg("scan", QNIL())),
               asg("scan", tl(scan)))),
    )


def _update(namevar, valuevar):
    """Commands: rebind ``namevar`` to ``valuevar`` in the environment.

    Existing bindings are replaced in place (prefix rebuilt, tail
    shared); unknown names are pushed on the front.
    """
    scan = V("scan")
    entry = cons(V(namevar), V(valuevar))
    return seq(
        asg("hit", QNIL()),
        asg("acc", QNIL()),
        asg("scan", V("env")),
        wh(scan,
           iff(eq(hd(hd(scan)), V(namevar)),
               seq(asg("env", cons(entry, tl(scan))),
                   asg("hit", QA("1")),
                   asg("scan", QNIL())),
               seq(asg("acc", cons(hd(scan), V("acc"))),
                   asg("scan", tl(scan))))),
        iff(V("hit"),
            wh(V("acc"),
               asg("env", cons(hd(V("acc")), V("env"))),
               asg("acc", tl(V("acc")))),
            asg("env", cons(entry, V("env")))),
    )


def _dispatch(var, cases, default):
    """Nested if-cascade comparing ``var`` against quoted tag atoms."""
    node = default
    for tag, command in reversed(cases):
        node = iff(eq(V(var), QA(tag)), command, node)
    return node


def _ev_unary(tag, result_of_v):
    """Evaluate a unary operator: in-place when the argument is a variable."""
    return seq(
        asg("a", hd(tl(V("e")))),
        iff(atomp(V("a")),
            seq(_lookup("a", "v"),
                _push_val(result_of_v)),
            _push_code(_item("ev", V("a")), _op_item(tag))),
    )


def _ev_binary(tag, result_of_vw):
    """Evaluate a binary operator: in-place when both arguments are variables."""
    general = _push_code(_item("ev", V("a")),
                         _item("ev", V("b")),
                         _op_item(tag))
    return seq(
        asg("a", hd(tl(V("e")))),
        asg("b", hd(tl(tl(V("e"))))),
        iff(atomp(V("a")),
            iff(atomp(V("b")),
                seq(_lookup("a", "v"),
                    _lookup("b", "w"),
                    _push_val(result_of_vw)),
                general),
            general),
    )


def _univ_body():
    item, e, c, v = V("item"), V("e"), V("c"), V("v")
    vals = V("vals")

    handle_expr = seq(
        asg("e", tl(item)),
        iff(atomp(e),
            # a variable (or garbage atom): look it up
            seq(_lookup("e", "v"), _push_val(v)),
            seq(asg("t", hd(e)),
                _dispatch("t", [
                    ("QUOTE", _push_val(hd(tl(e)))),
                    ("hd", _ev_unary("hd1", hd(v))),
                    ("tl", _ev_unary("tl1", tl(v))),
                    ("cons", _ev_binary("cons2", cons(V("v"), V("w")))),
                    ("=", _ev_binary("eq2", eq(V("v"), V("w")))),
                    ("atom?", _ev_unary("at1", atomp(v))),
                ], default=_push_val(QNIL())))),
    )

    handle_command = seq(
        asg("c", tl(item)),
        asg("t", hd(c)),
        _dispatch("t", [
            (":=", _push_code(_item("ev", hd(tl(tl(c)))),
                              _item("set", hd(tl(c))))),
            (";", _push_code(_item("do", hd(tl(c))),
                             _item("do", hd(tl(tl(c)))))),
            ("while", _push_code(_item("ev", hd(tl(c))),
                                 _item("wt", c))),
            ("if", _push_code(_item("ev", hd(tl(c))),
                              _item("it", c))),
        ], default=asg("t", V("t"))),
    )

    handle_set = seq(
        asg("v", hd(vals)),
        asg("vals", tl(vals)),
        asg("e", tl(item)),
        _update("e", "v"),
    )

    handle_while_test = seq(
        asg("v", hd(vals)),
        asg("vals", tl(vals)),
        iff(v,
            seq(asg("c", tl(item)),
                _push_code(_item("do", hd(tl(tl(c)))),
                           _item("ev", hd(tl(c))),
                           item)),
            asg("t", V("t"))),
    )

    handle_if_test = seq(
        asg("v", hd(vals)),
        asg("vals", tl(vals)),
        asg("c", tl(item)),
        iff(v,
            _push_code(_item("do", hd(tl(tl(c))))),
            _push_code(_item("do", hd(tl(tl(tl(c))))))),
    )

    return seq(
        asg("x", hd(hd(V("p")))),
        asg("env", cons(cons(V("x"), V("d")), QNIL())),
        asg("code", cons(_item("do", hd(tl(V("p")))), QNIL())),
        asg("vals", QNIL()),
        wh(V("code"),
           asg("item", hd(V("code"))),
           asg("code", tl(V("code"))),
           asg("tag", hd(item)),
           _dispatch("tag", [
               ("ev", handle_expr),
               ("do", handle_command),
               ("set", handle_set),
               ("hd1", asg("vals", cons(hd(hd(vals)), tl(vals)))),
               ("tl1", asg("vals", cons(tl(hd(vals)), tl(vals)))),
               ("cons2", asg("vals", cons(cons(hd(tl(vals)), hd(vals)),
                                          tl(tl(vals))))),
               ("eq2", asg("vals", cons(eq(hd(tl(vals)), hd(vals)),
                                        tl(tl(vals))))),
               ("at1", asg("vals", cons(atomp(hd(vals)), tl(vals)))),
               ("wt", handle_while_test),
               ("it", handle_if_test),
           ], default=asg("tag", V("tag")))),
        asg("e", hd(tl(tl(V("p"))))),
        _lookup("e", "v"),
        asg("out", v),
    )


@functools.cache
def univ_program():
    """The universal program: two inputs (encoded program, datum).

    Built once per process; every caller shares the one ``Program``.
    """
    return Program(("p", "d"), _univ_body(), "out")


def wrap_nullary(program):
    """Lift a zero-input program to one ignored input, for interpretation."""
    if _checked(program).inputs:
        raise ValueError("program already has inputs")
    return Program((f"{RESERVED_PREFIX}ignored",), program.body, program.output)


def interpreter_wrapped(program):
    """One-input program that runs ``program`` through the interpreter.

    Stacking this wrapper multiplies the interpretation overhead once
    per layer, which is how nested self-interpretation blows up.
    """
    if len(_checked(program).inputs) != 1:
        raise ValueError("need a one-input program")
    u = univ_program()
    arg = f"{RESERVED_PREFIX}arg"
    body = seq(
        asg("p", Quote(encode(program))),
        asg("d", V(arg)),
        u.body,
    )
    return Program((arg,), body, u.output)


# ---------------------------------------------------------------------------
# interpretation overhead

#: Ratio drift allowed while still calling the overhead program-dependent
#: (constant per program, independent of the input).
CLASS2_DRIFT = 1.2


def measure_overhead(program, inputs, fuel=10**7):
    """Run directly and through U on each input; compare step counts.

    Returns ``(rows, verdict)``: one row ``(input tree size, time_p,
    time_univ, ratio)`` per input on which both runs halt, and a verdict
    that starts with ``"partial"`` iff some run did not halt.
    """
    if len(_checked(program).inputs) != 1:
        raise ValueError("overhead measurement takes one-input programs")
    u = univ_program()
    p_enc = encode(program)
    rows = []
    partial = False
    for value in inputs:
        direct = run(program, [value], fuel)
        interp = run(u, [p_enc, value], fuel)
        if not (direct.halted and interp.halted):
            partial = True
            continue
        rows.append((tree_size(value), direct.steps, interp.steps,
                     interp.steps / direct.steps))
    if partial:
        verdict = "partial (fuel exhausted on some inputs)"
    elif not rows:
        verdict = "no data"
    else:
        ratios = [r[3] for r in rows]
        stable = max(ratios) / min(ratios) <= CLASS2_DRIFT
        verdict = ("program-dependent (class 2) consistent" if stable
                   else "ratio drifts with input size")
    return rows, verdict


# ---------------------------------------------------------------------------
# Futamura projections

def futamura(stage, source=None):
    """Compile by specialising the interpreter.

    stage ``target``  : specialise U to an encoded source program;
    stage ``compiler``: specialise the specialiser to U;
    stage ``cogen``   : specialise the specialiser to itself.

    Every stage is produced by actually running the specialiser program,
    so repeated calls give structurally identical results.  The
    specialiser is straight-line, so each run halts in a fixed 44 steps,
    far within ``run``'s default fuel: every stage is total.  Its text
    holds the body of the program it specialises as it is, so only the
    code around that body is decoded: the target shares
    ``univ_program()``'s body, and the compiler and cogen share
    ``s11_program()``'s.
    """
    s11 = s11_program()
    u = univ_program()
    if stage == "target":
        if source is None:
            raise ValueError("stage 'target' needs a source program")
        subject, datum = u, _checked(source)
    elif stage == "compiler":
        subject, datum = s11, u
    elif stage == "cogen":
        subject, datum = s11, s11
    else:
        raise ValueError(f"unknown stage {stage!r}")
    text = run(s11, [encode(subject), encode(datum)]).value
    return _decode(text, (subject.body,), True)
