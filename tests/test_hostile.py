"""Hostile inputs.  Every node kind and ``Program`` builds or raises
``TypeError`` whatever its fields hold, and a tree that builds is well
formed.  Every public name of ``sexpr``, ``flowchart``, ``specializer``,
``srt``, ``selfint`` and ``trm``, given such trees, 1# programs and
values of the wrong type for each of its parameters, optional ones
too, returns a result or raises ``TypeError`` or ``ValueError``
(``DecodeError``, ``ParseError`` and ``TrmParseError`` among them):
never ``AttributeError``, ``KeyError``, ``IndexError``,
``RecursionError`` or anything else.  The fixpoint and Futamura
constructions that run a program may also raise ``RuntimeError`` when
that run does not halt within its fuel.

Integers stay small and fuel at most 10^4, so that no call allocates
a register or numeral of gigabytes or runs for minutes."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from srtlab import flowchart, selfint, sexpr, specializer, srt, trm
from srtlab.flowchart import (
    Assign, Cons, Eq, Hd, If, IsAtom, Program, Quote, SelfRef, Seq, Tl,
    UnivCall, Var, While, command_vars, encode, expr_vars,
)
from srtlab.sexpr import Atom, Pair, sexpr_print

HOSTILE = settings(max_examples=40, deadline=None, derandomize=True,
                   database=None)

NODE_KINDS = [kind for kind in vars(flowchart).values()
              if isinstance(kind, type) and issubclass(kind, flowchart._Node)
              and kind is not flowchart._Node]
COMMANDS = (Assign, Seq, While, If)

# names a program may use, more rarely one that decode or the
# constructions reject: *, (), the reserved prefix and a space
names = st.sampled_from(["x", "d", "q", "out", "y"]) \
    | st.sampled_from(["*", "()", "%r", "a b"])
scalars = st.one_of(st.integers(-3, 64), st.none(), st.binary(max_size=2),
                    st.text(max_size=2), names)
sexprs = st.recursive(st.sampled_from(["a", "()", "1"]).map(Atom),
                      lambda inner: st.builds(Pair, inner, inner), max_leaves=4)
expressions = st.recursive(
    st.builds(Var, names) | st.builds(Quote, sexprs) | st.builds(SelfRef),
    lambda inner: st.one_of(
        *(st.builds(op, inner) for op in (Hd, Tl, IsAtom)),
        *(st.builds(op, inner, inner) for op in (Cons, Eq, UnivCall))),
    max_leaves=4)
commands = st.recursive(
    st.builds(Assign, names, expressions),
    lambda inner: st.one_of(st.builds(Seq, inner, inner),
                            st.builds(While, expressions, inner),
                            st.builds(If, expressions, inner, inner)),
    max_leaves=4)
programs = st.builds(Program, st.lists(names, max_size=2, unique=True),
                     commands, names)
leaves = scalars | sexprs | expressions | commands


def _built(kind, values):
    """``kind(*values)`` if it builds, else its first value (or None).
    Any exception but ``TypeError``, or ``ValueError`` for a program
    with an input twice, escapes and fails the test."""
    try:
        return kind(*values)
    except TypeError:
        return values[0] if values else None
    except ValueError as exc:
        assert kind is Program
        assert str(exc) == "input variables must be pairwise distinct"
        return values[0]


def _nodes(children):
    """Nodes of every kind, each field drawn from ``children``."""
    return st.sampled_from(NODE_KINDS).flatmap(lambda kind: st.lists(
        children, min_size=len(kind.__slots__), max_size=len(kind.__slots__),
    ).map(lambda values: _built(kind, values)))


anything = st.recursive(leaves, _nodes, max_leaves=8)
# programs whose inputs, body and output are each drawn like a field
hostile_programs = st.builds(
    lambda *values: _built(Program, values),
    st.lists(names | scalars, max_size=2), commands | anything, names | scalars)


@HOSTILE
@given(st.sampled_from([*NODE_KINDS, Program]), st.lists(anything, max_size=4))
def test_every_construction_builds_or_raises_type_error(kind, values):
    try:
        built = kind(*values)
    except TypeError:
        return
    except ValueError as exc:
        assert kind is Program
        assert str(exc) == "input variables must be pairwise distinct"
        return
    # what builds is well formed: it encodes, and every name is a str
    sexpr_print(encode(built))
    if kind is Program:
        names_used = {*built.inputs, built.output, *command_vars(built.body)}
    elif kind in COMMANDS:
        names_used = command_vars(built)
    else:
        names_used = expr_vars(built)
    assert all(type(name) is str for name in names_used)


def _trm_program(raw):
    """``raw`` as a 1# program if it parses, else the text itself."""
    try:
        return trm.TrmProgram(raw)
    except trm.TrmParseError:
        return raw


# 1# texts: toolkit blocks, a jump past the end, a loop forever, any text
trm_texts = st.sampled_from([
    "", "1#", "1###", "1####", trm.write_code("1#1"), trm.trm_move(1, 2).raw,
    trm.trm_erase(2).raw, trm.trm_write_program().raw]) \
    | st.text("1#", max_size=12)
trm_values = st.one_of(trm_texts.map(_trm_program), trm_texts,
                       st.lists(trm_texts, max_size=3))
renamings = st.dictionaries(names, names | scalars, max_size=2)
values = st.one_of(programs, commands, expressions, sexprs, renamings,
                   hostile_programs, anything, trm_values,
                   st.lists(sexprs | scalars, max_size=3))
#: Values for parameters by name, each drawn as often as ``values``.
HINTS = {
    "fuel": st.integers(-3, 64) | st.just(10**4),
    "mode": st.sampled_from(["plain", "reflective"]),
    "variant": st.sampled_from(["standard", "fast_assign"]),
    "stage": st.sampled_from(["target", "compiler", "cogen"]),
    "node": expressions | commands,
}
#: The constructions that run a program, and fail when it does not halt.
RUNNERS = {srt.moss_fixpoint, selfint.futamura, trm.trm_moss_fixpoint,
           trm.trm_kleene_fixpoint}

PUBLIC = [(module, name)
          for module in (sexpr, flowchart, specializer, srt, selfint, trm)
          for name in module.__all__
          if callable(getattr(module, name)) and getattr(module, name) not in NODE_KINDS]


@pytest.mark.parametrize("module, name", PUBLIC,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in PUBLIC])
@settings(HOSTILE, max_examples=20)
@given(st.data())
def test_every_public_name_returns_or_raises_type_or_value_error(module, name, data):
    function = getattr(module, name)
    args = [data.draw(st.one_of(HINTS.get(p, st.nothing()), values))
            for p in inspect.signature(function).parameters]
    try:
        function(*args)
    except (TypeError, ValueError):
        pass
    except RuntimeError:
        if function not in RUNNERS:
            raise
