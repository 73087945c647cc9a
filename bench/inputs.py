"""Seeded inputs for the benchmark, as program and data text.

Imports nothing from srtlab, so a change to the program under test
cannot change a workload.  Each ``*_round(seed)`` returns one round: the
list of ops a run repeats until its time is up.  The make-up of a round
is fixed; the seed draws sizes and contents.  The size ranges below put
every op of a workload in one cost band (see README.md).
"""

import random

from oracle import COUNTDOWN, REVERSE

LENGTH = ("((x) (; (:= t x) (; (:= out (QUOTE ())) (while t (; (:= out "
          "(cons (QUOTE 1) out)) (:= t (tl t)))))) out)")
DRAIN = ("((x) (; (:= t x) (; (:= out (QUOTE ())) (while t (; (if (atom? "
         "(hd t)) (:= out (cons (hd t) out)) (:= u (cons u out))) "
         "(:= t (tl t)))))) out)")

#: Loop shape -> (program text, smallest and largest list length).  The
#: lengths keep one interpretation through univ_program between about
#: 66k and 78k steps, around the 70.8k steps of a two-level tower.
SHAPES = {
    "reverse": (REVERSE, 90, 106),
    "length": (LENGTH, 95, 112),
    "drain": (DRAIN, 64, 74),
}

_ATOMS = ("a", "b", "c", "1", "x", "y")


def _value(rng, nodes):
    """Random s-expression text with about ``nodes`` nodes."""
    if nodes <= 1 or rng.random() < 0.3:
        return rng.choice(_ATOMS)
    left = rng.randint(1, max(1, nodes - 2))
    return f"({_value(rng, left)} . {_value(rng, nodes - 1 - left)})"


def _list(rng, length):
    """List text, half atoms and half small pairs, in seeded order."""
    elements = [rng.choice(_ATOMS) for _ in range(length // 2)]
    elements += [_value(rng, rng.randint(3, 7))
                 for _ in range(length - length // 2)]
    rng.shuffle(elements)
    return "(" + " ".join(elements) + ")"


def _sizes(rng, lo, hi, count):
    """One size from each of ``count`` equal slices of [lo, hi].

    Stratified, so the cost of a round hardly depends on the seed.
    """
    width = (hi - lo + 1) / count
    sizes = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def interp_round(seed):
    """12 ops: per shape, three univ runs on a list and one tower run."""
    rng = random.Random(f"interp-{seed}")
    ops = []
    for shape, (text, lo, hi) in SHAPES.items():
        for length in _sizes(rng, lo, hi, 3):
            ops.append({"kind": "univ", "shape": shape, "program": text,
                        "data": _list(rng, length)})
        ops.append({"kind": "tower", "shape": shape, "program": text,
                    "data": "()"})
    return ops


def reflective_round(seed):
    """16 seeded ops plus the depth-250 countdown that fails today.

    Factorial at n = 6 and countdowns at depths 60..100 cost about the
    same (3 to 5 ms on the reference machine).
    """
    rng = random.Random(f"reflective-{seed}")
    ops = [{"kind": "factorial", "n": 6} for _ in range(4)]
    ops += [{"kind": "countdown", "program": COUNTDOWN, "n": n}
            for n in _sizes(rng, 60, 100, 12)]
    rng.shuffle(ops)
    # run() lets RecursionError escape at this depth (README.md)
    ops.append({"kind": "countdown", "program": COUNTDOWN, "n": 250,
                "fails": "RecursionError"})
    return ops


#: Demo bases whose text embeds univ_program; each costs about as much
#: as three of the others, so it is an op on its own.
HEAVY_DEMOS = ("univ_corner", "factorial_univ", "interchange")
LIGHT_DEMOS = ("proj1", "proj2", "self_recognizer")
_VARS = ("q", "d", "out", "tmp", "w")


def _expr(rng, depth, names=_VARS):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(names)
        return f"(QUOTE {_value(rng, rng.randint(1, 5))})"
    op = rng.choice(("hd", "tl", "cons", "cons"))
    if op == "cons":
        return (f"(cons {_expr(rng, depth - 1, names)} "
                f"{_expr(rng, depth - 1, names)})")
    return f"({op} {_expr(rng, depth - 1, names)})"


def _seq(commands):
    text = commands[-1]
    for command in reversed(commands[:-1]):
        text = f"(; {command} {text})"
    return text


def straight_line(rng):
    """Two-input straight-line program text over a five-name pool."""
    commands = [f"(:= {rng.choice(_VARS)} {_expr(rng, 3)})"
                for _ in range(rng.randint(3, 6))]
    commands.append(f"(:= out {_expr(rng, 2)})")
    return f"((q d) {_seq(commands)} out)"


def _probe_program(rng):
    """Small one-input straight-line program, as data for univ demos."""
    return f"((x) (:= out {_expr(rng, 2, ('x',))}) out)"


def _base(rng, name, text=None):
    """One base program with the data its checks run it on."""
    if name in ("univ_corner", "factorial_univ"):
        s = _probe_program(rng)
    else:
        s = _value(rng, rng.randint(1, 6))
    if name == "interchange":
        data = [_probe_program(rng) for _ in range(2)]
    elif name == "factorial_univ":
        data = ["()", "(1)"]
    else:
        data = [_value(rng, rng.randint(1, 6)) for _ in range(2)]
    return {"name": name, "text": text, "s": s, "data": data}


def construct_round(seed):
    """6 ops: each heavy demo alone, and three bundles of three light bases
    (one light demo and two seeded straight-line programs each)."""
    rng = random.Random(f"construct-{seed}")
    ops = [[_base(rng, name)] for name in HEAVY_DEMOS]
    for name in LIGHT_DEMOS:
        bundle = [_base(rng, name)]
        bundle += [_base(rng, "straight_line", straight_line(rng))
                   for _ in range(2)]
        ops.append(bundle)
    rng.shuffle(ops)
    return ops


#: The three bases of the trm-compare experiment, as 1# text.
TRM_BASES = {
    "proj1": "",
    "proj2": ("1#####111###11####111####"
              "11#####111111###111###1##1111####1#111111####"),
    "concat": "11#####111111###111###1##1111####1#111111####",
}


def trm_round(seed):
    """6 ops: each base twice, each time on fresh seeded {1,#} data."""
    rng = random.Random(f"trm-{seed}")
    ops = []
    for name, raw in TRM_BASES.items():
        for length in _sizes(rng, 8, 24, 2):
            data = "".join(rng.choice("1#") for _ in range(length))
            ops.append({"base": name, "raw": raw, "data": data})
    return ops


ROUNDS = {
    "interp": interp_round,
    "reflective": reflective_round,
    "construct": construct_round,
    "trm": trm_round,
}
