"""Tour: compiling by specialising the interpreter.

Specialising the universal program U to a source program yields a
target with the source's behaviour; specialising the specialiser
itself yields a compiler, and specialising it to itself yields a
compiler generator.  All three identities are checked structurally.

Run:  python3 demos/futamura_tour.py
"""

from srtlab.flowchart import decode, encode, run
from srtlab.selfint import futamura, measure_overhead, univ_program
from srtlab.sexpr import equal, parse, sexpr_print, to_unary

FUEL = 10**7

source = decode(parse("((x) (:= out (cons x x)) out)"))
print("source:", sexpr_print(encode(source)))

target = futamura("target", source)
print("\ntarget behaves like the source:")
for d in ("a", "(a b)"):
    print(f"  on {d}:", sexpr_print(run(target, [parse(d)], FUEL).value))

compiler = futamura("compiler")
made = run(compiler, [encode(source)], FUEL)
print("\ncompiler(source) == target (structurally):",
      equal(made.value, encode(target)))

cogen = futamura("cogen")
made2 = run(cogen, [encode(univ_program())], FUEL)
print("cogen(interpreter) == compiler (structurally):",
      equal(made2.value, encode(compiler)))

print("\ninterpretation overhead of U (steps interpreted / steps direct):")
rows, verdict = measure_overhead(decode(parse("((x) (:= out x) out)")),
                                 [to_unary(n) for n in (1, 50, 5000)], FUEL)
for size, direct, interp, ratio in rows:
    print(f"  input tree size {size:6d}: {direct:6d} vs {interp:8d}"
          f"  ratio {ratio:6.1f}")
print("verdict:", verdict)
