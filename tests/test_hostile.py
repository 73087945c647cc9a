"""Hostile inputs on the flowchart side.  Every node kind and ``Program``
builds or raises ``TypeError`` whatever its fields hold, and a tree
that builds is well formed.  Every public name of ``flowchart``,
``specializer``, ``srt`` and ``selfint``, given such trees and values
of the wrong type for its required parameters, returns a result or
raises ``TypeError`` or ``ValueError`` (``DecodeError`` among them):
never ``AttributeError``, ``KeyError``, ``IndexError``,
``RecursionError`` or anything else."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from srtlab import flowchart, selfint, specializer, srt
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
scalars = st.one_of(st.integers(), st.none(), st.binary(max_size=2),
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


def _required(function):
    """The number of parameters of ``function`` without a default."""
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY,
                                                   p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(function).parameters.values())


PUBLIC = [(module, name) for module in (flowchart, specializer, srt, selfint)
          for name in module.__all__
          if callable(getattr(module, name)) and getattr(module, name) not in NODE_KINDS]


@pytest.mark.parametrize("module, name", PUBLIC,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in PUBLIC])
@settings(HOSTILE, max_examples=20)
@given(st.data())
def test_every_public_name_returns_or_raises_type_or_value_error(module, name, data):
    function = getattr(module, name)
    renamings = st.dictionaries(names, names | scalars, max_size=2)
    args = [data.draw(st.one_of(programs, commands, expressions, sexprs,
                                renamings, hostile_programs, anything))
            for _ in range(_required(function))]
    try:
        function(*args)
    except (TypeError, ValueError):
        pass
