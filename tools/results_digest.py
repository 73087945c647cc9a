"""Print sha256 digests of srtlab's observable results, one per section.

A change that must leave every step count, status, value and printed
program as it was is checked by running this file on the tree before
and after the change and comparing the output.  The sections:

* ``flowchart runs``: every ``RunResult`` (status, steps, detail and
  printed value) of seeded ``tests/proggen.py`` programs and of both
  fixpoints of every demo, at a ladder of fuels, in both modes;
* ``1# runs``: every ``TrmResult`` (output, steps, status,
  ``setup_steps`` and registers) of seeded toolkit programs and of both
  fixpoints of the trm-compare bases and of seeded toolkit bases, in
  both variants, with and without the set-up boundary;
* ``texts``: the printed text of every fixpoint above and of every
  Futamura stage, and of both fixpoints and the Futamura target of
  seeded straight-line bases (the ``construct`` benchmark's kind, parsed
  from text) and of two hand-built bases with a variable named ``*`` or
  ``()``, whose runs are in ``flowchart runs`` too; a construction that
  raises is entered as its error;
* ``sizes``: the tree and DAG size, ``measure(encode(...))``, of each
  flowchart construction in ``texts``;
* ``experiment <name>``: each experiment's report at its defaults.

It imports the tree it sits in (its ``src``, ``tests`` and ``bench``), not the
working directory, so copy it into a clone of the commit to compare
with.  It passes the constructions no fuel, so the same file runs on a
tree whose constructions take a fuel argument and on one whose
constructions take none.

    python tools/results_digest.py
"""

import hashlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from srtlab import trm as t
from srtlab.experiments import EXPERIMENTS, _TRM_BASES, _trm_base
from srtlab.flowchart import (
    Assign, Cons, Program, Seq, Var, decode, encode, run,
)
from srtlab.selfint import futamura
from srtlab.sexpr import measure, parse, sexpr_print, to_unary
from srtlab.srt import (
    DEMO_NAMES, demo_program, kleene_fixpoint, moss_fixpoint,
)
from inputs import straight_line
from proggen import (
    random_inputs, random_loop_program, random_tiny_program,
)

SEEDS = range(200)
FLOW_FUELS = (1, 7, 50, 400, 3000, 10**5)
TRM_FUELS = (1, 7, 50, 400, 3000, 25000, 10**5, 10**7)
FLOW_DATA = [parse(text) for text in ("a", "()", "(a b)")] + [to_unary(2)]
TRM_DATA = ("", "1#", "1##1#")


def _flow_runs(program, args, lines):
    for fuel in FLOW_FUELS:
        for mode in ("plain", "reflective"):
            r = run(program, args, fuel, mode)
            value = sexpr_print(r.value) if r.halted else ""
            lines.append(f"{r.status} {r.steps} {r.detail} {value}")


def _trm_runs(program, inputs, boundary, lines):
    for fuel in TRM_FUELS:
        for variant in ("standard", "fast_assign"):
            r = t.trm_run(program, inputs, fuel, variant, boundary)
            lines.append(f"{r.output} {r.steps} {r.status} {r.setup_steps} "
                         f"{sorted(r.registers.items())}")


def _trm_toolkit(rng):
    """A concatenation of one to four toolkit pieces."""
    pieces = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(1, 5), 2)
            pieces.append(t.trm_move(i, j).raw)
        elif kind == 1:
            pieces.append(t.trm_erase(rng.randint(1, 4)).raw)
        else:
            text = "".join(rng.choice("1#") for _ in range(rng.randint(0, 6)))
            pieces.append(t.write_code(text))
    return t.trm_parse("".join(pieces))


#: Bases whose body does not decode back to itself: an atom * decodes
#: as SelfRef, and () is no variable.
ODD_BASES = (
    Program(("q", "d"), Assign("out", Cons(Var("*"), Var("d"))), "out"),
    Program(("q", "d"), Seq(Assign("()", Var("d")), Assign("out", Var("()"))),
            "out"),
)


def _printed(program, texts, sizes):
    encoded = encode(program)
    texts.append(sexpr_print(encoded))
    sizes.append(str(measure(encoded)))


def _constructions(p, lines, texts, sizes):
    """Both fixpoints and the Futamura target of the base ``p``: texts,
    sizes and runs, or the error a construction raises."""
    for build in (kleene_fixpoint, moss_fixpoint,
                  lambda p: futamura("target", p)):
        try:
            program = build(p)
        except ValueError as exc:
            texts.append(f"{type(exc).__name__}: {exc}")
            continue
        _printed(program, texts, sizes)
        for d in FLOW_DATA:
            _flow_runs(program, [d], lines)


def flowchart_runs(texts, sizes):
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        p = random_tiny_program(rng)
        _flow_runs(p, random_inputs(rng, 2), lines)
        p = random_loop_program(rng)
        _flow_runs(p, random_inputs(rng, 1), lines)
        _printed(futamura("target", p), texts, sizes)
    for name in DEMO_NAMES:
        for fix in (kleene_fixpoint, moss_fixpoint):
            pstar = fix(demo_program(name))
            _printed(pstar, texts, sizes)
            for d in FLOW_DATA:
                _flow_runs(pstar, [d], lines)
        _printed(futamura("target", demo_program(name)), texts, sizes)
    for stage in ("compiler", "cogen"):
        _printed(futamura(stage), texts, sizes)
    for seed in SEEDS[:50]:
        base = decode(parse(straight_line(random.Random(f"digest-{seed}"))))
        _constructions(base, lines, texts, sizes)
    for base in ODD_BASES:
        _constructions(base, lines, texts, sizes)
    return lines


def trm_runs(texts):
    lines = []
    bases = [_trm_base(name) for name in _TRM_BASES]
    for seed in SEEDS:
        rng = random.Random(seed)
        program = _trm_toolkit(rng)
        inputs = ["".join(rng.choice("1#") for _ in range(rng.randint(0, 8)))
                  for _ in range(rng.randint(0, 3))]
        for boundary in (None, rng.randint(1, len(program.instrs) + 1)):
            _trm_runs(program, inputs, boundary, lines)
        if seed % 4 == 0:
            bases.append(_trm_toolkit(rng))
    for base in bases:
        for fix in (t.trm_moss_fixpoint, t.trm_kleene_fixpoint):
            pstar = fix(base)
            texts.append(pstar.raw)
            for boundary in (None, t.setup_boundary(pstar, base)):
                for d in TRM_DATA:
                    _trm_runs(pstar, [d], boundary, lines)
    return lines


def main():
    texts, sizes = [], []
    sections = [("flowchart runs", flowchart_runs(texts, sizes)),
                ("1# runs", trm_runs(texts)),
                ("texts", texts),
                ("sizes", sizes)]
    sections += [(f"experiment {name}", [EXPERIMENTS[name]().to_json()])
                 for name in sorted(EXPERIMENTS)]
    for label, lines in sections:
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{label:<28} {digest}  ({len(lines)} results)")


if __name__ == "__main__":
    main()
