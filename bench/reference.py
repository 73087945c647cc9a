"""Reference figures for bench/README.md: the executors' raw speed and
the baseline table of ROADMAP item 1, measured again.

    python3 bench/reference.py

Each row is the median of five tries, in raw wall-clock time and in
calibrated time (see calibrate.py).  Nothing here is checked or gated.
"""

import os
import statistics
import sys
import time

import calibrate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from srtlab import trm  # noqa: E402
from srtlab.experiments import EXPERIMENTS  # noqa: E402
from srtlab.flowchart import decode, encode, run  # noqa: E402
from srtlab.selfint import univ_program  # noqa: E402
from srtlab.sexpr import (  # noqa: E402
    Atom, equal, parse, sexpr_print, to_unary,
)
from srtlab.srt import demo_program, kleene_fixpoint  # noqa: E402

from oracle import REVERSE  # noqa: E402

TRIES = 5


def timed(fn):
    """Median (raw s, calibrated s) of TRIES runs; fn's last result."""
    raw, cal = [], []
    for _ in range(TRIES):
        before = calibrate.kernel_slice()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        after = calibrate.kernel_slice()
        raw.append(seconds)
        cal.append(seconds * calibrate.factor(before, after))
    return statistics.median(raw), statistics.median(cal), result


def row(label, fn, steps_of=None):
    raw, cal, result = timed(fn)
    line = f"| {label} | {raw * 1e3:.1f} ms | {cal * 1e3:.1f} ms |"
    if steps_of is not None:
        steps = steps_of(result)
        line += (f" {steps:,} | {steps / raw / 1e6:.2f} "
                 f"| {steps / cal / 1e6:.2f} |")
    else:
        line += " | | |"
    print(line)


def main():
    print("| workload | raw | calibrated | steps | raw Msteps/s "
          "| calibrated Msteps/s |")
    print("|---|---|---|---|---|---|")
    reverse = decode(parse(REVERSE))
    data = to_unary(5000)
    row("flowchart, direct (reverse, n=5000)",
        lambda: run(reverse, [data]), lambda r: r.steps)
    u = univ_program()
    row("flowchart, through univ_program (reverse, n=5000)",
        lambda: run(u, [encode(reverse), data]), lambda r: r.steps)
    fact = kleene_fixpoint(demo_program("factorial_reflective"))
    row("flowchart, reflective (factorial 8)",
        lambda: run(fact, [to_unary(8)], mode="reflective"),
        lambda r: r.steps)
    moss = trm.trm_moss_fixpoint(trm.trm_parse(""))
    row("1# Moss fixpoint run (proj1, datum 1#), standard",
        lambda: trm.trm_run(moss, ["1#"]), lambda r: r.steps)
    row("1# Moss fixpoint run (proj1, datum 1#), fast_assign",
        lambda: trm.trm_run(moss, ["1#"], variant="fast_assign"),
        lambda r: r.steps)
    a, b = Atom("while"), Atom("if")
    calls = 100000
    raw, cal, _ = timed(lambda: [equal(a, b) for _ in range(calls)])
    print(f"| `equal(atom, atom)` | {raw / calls * 1e9:.0f} ns "
          f"| {cal / calls * 1e9:.0f} ns | | | |")
    text = sexpr_print(encode(u))
    row("parsing `univ_program`'s text", lambda: parse(text))
    for name, experiment in EXPERIMENTS.items():
        row(f"`experiment {name}`", experiment)


if __name__ == "__main__":
    main()
