"""Second-recursion-theorem constructions and the demo program library.

Two routes to a program p* with  run(p*, [d]) = run(p, [encode(p*), d]):

* ``kleene_fixpoint``: inline the specialiser body into p to get the
  intermediate program, then specialise that program to its own text.
* ``moss_fixpoint``: build a code generator from the diagonaliser by
  program composition, and run it on its own text.

Both constructions only ever insert code around p's body; if p is
straight-line, so is its fixpoint, and it runs in constant time.
"""

import functools

from .build import (
    QA, QNIL, V, asg, cons, eq, hd, iff, lst, prog, seq, tl, univ, wh,
)
from .flowchart import (
    Program, Quote, RESERVED_PREFIX, Seq, SelfRef, _checked, command_vars,
    _decode, encode, rename_command, run,
)
from .selfint import univ_program
from .sexpr import NIL, Atom, Pair, from_list
from .specializer import s11_program, specialize

__all__ = [
    "kleene_intermediate", "kleene_fixpoint", "moss_qhat", "moss_fixpoint",
    "write_program", "diag_program", "compose",
    "DEMO_NAMES", "demo_program",
]


def _program_vars(program):
    return (command_vars(program.body)
            | set(program.inputs) | {program.output})


def _base_vars(p):
    """The variables of ``p``, which must be a two-input program that
    uses no reserved name (else ``ValueError``): the one walk of a base
    program's variables that each construction makes."""
    if len(_checked(p).inputs) != 2:
        raise ValueError("the construction takes two-input programs")
    names = _program_vars(p)
    bad = sorted(v for v in names if v.startswith(RESERVED_PREFIX))
    if bad:
        raise ValueError(f"the base program must not use "
                         f"'{RESERVED_PREFIX}'-prefixed variables: {bad}")
    return names


#: Every variable of the specialiser program, which the constructions
#: inline into base programs.
_SPEC_VARS = frozenset(_program_vars(s11_program()))


def kleene_intermediate(p):
    """The program p~ with run(p~, [q, d]) = run(p, [s11(q, q), d]).

    Reads (q, d), specialises q to itself using an inlined copy of the
    specialiser body (its working variables moved into the reserved
    namespace), then runs p's body on the result.  That copy is built
    once per process, so every result shares it, and each shares p's
    body with p.
    """
    _base_vars(p)
    q = p.inputs[0]
    return Program(
        p.inputs,
        seq(
            asg(RESERVED_PREFIX + "pgm", V(q)),
            asg(RESERVED_PREFIX + "s", V(q)),
            _reserved_spec_body(),
            asg(q, V(RESERVED_PREFIX + "outpgm")),
            p.body,
        ),
        p.output,
    )


@functools.cache
def _reserved_spec_body():
    """The specialiser body with its working variables moved into the
    reserved namespace, built once per process."""
    renaming = {name: RESERVED_PREFIX + name for name in _SPEC_VARS}
    return rename_command(s11_program().body, renaming)


def kleene_fixpoint(p):
    """Kleene's construction: p* = specialise(p~, encode(p~))."""
    p_tilde = kleene_intermediate(p)
    return specialize(p_tilde, encode(p_tilde))


def write_program():
    """Code generator: on input x, emits a program that outputs x."""
    body = asg("out", lst(QNIL(),
                          lst(QA(":="), QA("out"), lst(QA("QUOTE"), V("x"))),
                          QA("out")))
    return prog(("x",), body, "out")


@functools.cache
def diag_program():
    """Self-application generator: on an encoded one-input program r,
    emits a program that runs r on r's own text.

    This is the specialiser body with both of its inputs identified.
    Built once per process; every caller shares the one ``Program``,
    and every ``moss_qhat`` shares its body.
    """
    body = rename_command(s11_program().body, {"pgm": "r", "s": "r"})
    return prog(("r",), body, "outpgm")


def compose(p, q):
    """Sequential composition of one-input programs.

    q's variables are renamed apart, except its input, which is unified
    with p's output; the result reads p's input and writes q's output.
    """
    if len(_checked(p).inputs) != 1 or len(_checked(q).inputs) != 1:
        raise ValueError("composition takes one-input programs")
    q_vars = _program_vars(q)
    taken = _program_vars(p) | q_vars
    mapping = {}
    counter = 0
    for name in sorted(q_vars - {q.inputs[0]}):
        while True:
            counter += 1
            fresh = f"{RESERVED_PREFIX}c{counter}"
            if fresh not in taken:
                break
        mapping[name] = fresh
        taken.add(fresh)
    mapping[q.inputs[0]] = p.output
    return Program(
        p.inputs,
        Seq(p.body, rename_command(q.body, mapping)),
        mapping[q.output] if q.output in mapping else p.output,
    )


#: Variables used by the generator programs that the Moss construction
#: composes; base programs must not collide with them.
_BUILDER_VARS = _SPEC_VARS | {"r", "g"}

_STASH = RESERVED_PREFIX + "d"


def moss_qhat(p):
    """The Moss code generator for p.

    On an encoded one-input program r, qhat emits a program g_r which:
    stashes its own input, runs r on r's text, hands the result and the
    stashed input to p's body.  Then moss_fixpoint(p) is just qhat run
    on its own text.
    """
    return _qhat(p, _base_vars(p))


def _qhat(p, names):
    """``moss_qhat`` of p, given ``_base_vars(p)``."""
    clashes = sorted(names & _BUILDER_VARS)
    if clashes:
        raise ValueError(f"base program reuses builder variables: {clashes}")
    qv, dv = p.inputs
    g = V("g")
    # transform the diagonaliser's output (() B outr) into
    # ((%d) (; B (; (:= qv outr) (; (:= dv %d) C_p))) out)
    finish = prog(
        ("g",),
        seq(
            asg("B", hd(tl(g))),
            asg("outr", hd(tl(tl(g)))),
            asg("tailc", lst(QA(";"),
                             lst(QA(":="), QA(qv), V("outr")),
                             lst(QA(";"),
                                 lst(QA(":="), QA(dv), QA(_STASH)),
                                 Quote(encode(p.body))))),
            asg("newbody", lst(QA(";"), V("B"), V("tailc"))),
            asg("outp", lst(Quote(from_list([Atom(_STASH)])),
                            V("newbody"),
                            QA(p.output))),
        ),
        "outp",
    )
    return compose(diag_program(), finish)


def moss_fixpoint(p):
    """Moss's construction: run qhat on its own text and decode.

    qhat is straight-line whatever p is (p's body is only quoted), so
    the run halts in a fixed 95 steps, far within ``run``'s default
    fuel: the construction is total.  Its text holds qhat's body and
    p's body as they are, so the result shares qhat's body, and p's
    body unless p has a variable named ``*`` or ``()``, which would
    decode otherwise; only the code around them is decoded.
    """
    names = _base_vars(p)
    qhat = _qhat(p, names)
    reuse = (qhat.body,) if "*" in names or "()" in names else (qhat.body, p.body)
    return _decode(run(qhat, [encode(qhat)]).value, reuse, True)


# ---------------------------------------------------------------------------
# demo programs

DEMO_NAMES = (
    "proj1", "proj2", "self_recognizer", "univ_corner",
    "factorial_univ", "factorial_reflective", "interchange",
)


def _repeated_add(dst, i_var, j_var, m_var):
    """Loop: add the unary numeral in ``m_var`` to ``dst``, ``i_var`` times."""
    return wh(V(i_var),
              asg(j_var, V(m_var)),
              wh(V(j_var),
                 asg(dst, cons(QA("1"), V(dst))),
                 asg(j_var, tl(V(j_var)))),
              asg(i_var, tl(V(i_var))))


def demo_program(name):
    """Two-input demo programs (q d) -> out used across the experiments."""
    u = univ_program()
    one_list = Quote(Pair(Atom("1"), NIL))
    if name == "proj1":
        return prog(("q", "d"), asg("out", V("q")), "out")
    if name == "proj2":
        return prog(("q", "d"), asg("out", V("d")), "out")
    if name == "self_recognizer":
        body = iff(eq(V("d"), V("q")),
                   asg("out", QA("1")),
                   asg("out", QA("0")))
        return prog(("q", "d"), body, "out")
    if name == "univ_corner":
        # behaves as the interpreter itself: run q on d
        body = seq(asg("p", V("q")), u.body)
        return prog(("q", "d"), body, u.output)
    if name == "factorial_univ":
        # d = 0: 1; else d * interpret(q, d - 1), interpreter inlined
        body = iff(
            V("d"),
            seq(
                asg("n", V("d")),
                asg("p", V("q")),
                asg("d", tl(V("d"))),
                u.body,
                asg("sub", V(u.output)),
                asg("out", QNIL()),
                asg("i", V("n")),
                _repeated_add("out", "i", "j", "sub"),
            ),
            asg("out", one_list),
        )
        return prog(("q", "d"), body, "out")
    if name == "factorial_reflective":
        # same recursion through the native univ call on this very text
        body = iff(
            V("d"),
            seq(
                asg("sub", univ(SelfRef(), tl(V("d")))),
                asg("out", QNIL()),
                asg("i", V("d")),
                _repeated_add("out", "i", "j", "sub"),
            ),
            asg("out", one_list),
        )
        return prog(("q", "d"), body, "out")
    if name == "interchange":
        # run the datum as a program on this program's text
        body = seq(asg("p", V("d")), asg("d", V("q")), u.body)
        return prog(("q", "d"), body, u.output)
    raise ValueError(f"unknown demo {name!r}")
