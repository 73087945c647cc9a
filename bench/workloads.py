"""The four workloads: fresh inputs, the timed op and its output check.

Each workload drives srtlab only through its public functions, every
call wrapped by ``t.call`` so a traced run can time it.  ``prepare``
builds an op's objects afresh from text, outside the timed region, so
no identity-keyed cache carries work from one op to the next.  ``op``
is the timed region.  ``check`` runs after it, untimed, and raises
``CheckFailed`` unless the output agrees with the oracle or the stated
property.  ``extras`` takes traced-only measurements after an op.
"""

import math
import statistics

import inputs
import oracle
from oracle import from_srtlab, read, same, show

FUEL = 10**7
#: Fuel for the property checks; runs that pass it on both sides of an
#: equation (the univ_corner fixpoint diverges) count as agreeing.
CHECK_FUEL = 2 * 10**5
#: Fuel for the Futamura checks, which interpret univ_program itself.
FUTAMURA_FUEL = 2 * 10**6
#: Results up to this tree size get their sizes checked by a naive count.
SMALL_TREE = 1000


class CheckFailed(Exception):
    """An op's output disagrees with its oracle or property."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _agree(lab, a, b):
    """Two run results agree: same status, and equal values if halted."""
    if a.status != b.status:
        return False
    return not a.halted or lab.sexpr.equal(a.value, b.value)


class Workload:
    """One workload over one fresh import of srtlab (``lab``)."""

    def __init__(self, lab, seed):
        self.lab = lab
        self.round = inputs.ROUNDS[self.name](seed)
        #: oracle results, and outputs already checked, by input
        self._known = {}

    def warm_up(self, t):
        """One op of each kind, so the caches every user hits are full."""
        kinds = {}
        for spec in self.round:
            kinds.setdefault(self.kind(spec), spec)
        for spec in kinds.values():
            if not spec_fails(spec):
                self.op(self.prepare(spec), t)

    def kind(self, spec):
        return spec.get("kind")

    def extras(self, state, out, t):
        pass


def spec_fails(spec):
    """Name of the exception an op is known to raise today, if any."""
    return spec.get("fails") if isinstance(spec, dict) else None


# ---------------------------------------------------------------------------

class Interp(Workload):
    """run(univ_program(), [encode(q), d]) for a loop program or a tower."""

    name = "interp"
    _TAGS = ("ev", "do", "set", "hd1", "tl1", "cons2", "eq2", "at1", "wt",
             "it")

    def warm_up(self, t):
        t.call("selfint.univ_program", self.lab.selfint.univ_program)
        super().warm_up(t)

    def prepare(self, spec):
        lab = self.lab
        program = lab.flowchart.decode(lab.sexpr.parse(spec["program"]))
        source = program
        if spec["kind"] == "tower":
            source = lab.selfint.interpreter_wrapped(program)
        return {
            "spec": spec,
            "univ": lab.selfint.univ_program(),
            "encoded": lab.flowchart.encode(source),
            "data": lab.sexpr.parse(spec["data"]),
            "direct": lab.flowchart.decode(lab.sexpr.parse(spec["program"])),
            "direct_data": lab.sexpr.parse(spec["data"]),
        }

    def op(self, state, t):
        result = t.call("flowchart.run.univ", self.lab.flowchart.run,
                        state["univ"], [state["encoded"], state["data"]], FUEL)
        t.count("univ_steps", result.steps)
        return result

    def check(self, state, out, t):
        spec = state["spec"]
        direct = t.call("flowchart.run.direct", self.lab.flowchart.run,
                        state["direct"], [state["direct_data"]], FUEL)
        t.count("direct_steps", direct.steps)
        key = (spec["program"], spec["data"])
        if key not in self._known:
            self._known[key] = oracle.run_flow(read(spec["program"]),
                                                [read(spec["data"])])
        value, steps = self._known[key]
        _expect(out.halted and direct.halted, "run did not halt")
        _expect(same(from_srtlab(out.value), value), "univ value is wrong")
        _expect(same(from_srtlab(direct.value), value),
                "direct value is wrong")
        _expect(direct.steps == steps, "direct step count is wrong")
        _expect(out.steps >= direct.steps, "univ took fewer steps than direct")

    def extras(self, state, out, t):
        atom = self.lab.sexpr.Atom
        tags = self._TAGS
        pairs = [(atom(tags[i % len(tags)]), atom(tags[(i * 7) % len(tags)]))
                 for i in range(500)]
        equal = self.lab.sexpr.equal
        t.call("sexpr.equal.atoms", _equal_all, equal, pairs)
        t.count("atom_compares", len(pairs))


def _equal_all(equal, pairs):
    for a, b in pairs:
        equal(a, b)


# ---------------------------------------------------------------------------

class Reflective(Workload):
    """Recursion through native univ on ``*`` in reflective mode."""

    name = "reflective"
    REPEATS = 5

    def warm_up(self, t):
        lab = self.lab
        t.call("selfint.univ_program", lab.selfint.univ_program)
        base = lab.srt.demo_program("factorial_reflective")
        fixpoint = lab.srt.kleene_fixpoint(base)
        self.factorial = show(from_srtlab(lab.flowchart.encode(fixpoint)))
        super().warm_up(t)

    def prepare(self, spec):
        lab = self.lab
        factorial = spec["kind"] == "factorial"
        text = self.factorial if factorial else spec["program"]
        return {
            "spec": spec,
            "text": text,
            "program": lab.flowchart.decode(lab.sexpr.parse(text),
                                            allow_reserved=True),
            "data": lab.sexpr.parse(show(oracle.unary(spec["n"]))),
        }

    def op(self, state, t):
        result = t.call("flowchart.run.reflective", self.lab.flowchart.run,
                        state["program"], [state["data"]], FUEL,
                        mode="reflective")
        t.count("reflective_steps", result.steps)
        return result

    def check(self, state, out, t):
        spec = state["spec"]
        key = (state["text"], spec["n"])
        if key not in self._known:
            self._known[key] = oracle.run_flow(
                read(state["text"]), [oracle.unary(spec["n"])],
                reflective=True)
        value, steps = self._known[key]
        _expect(out.halted, f"run ended {out.status}")
        _expect(same(from_srtlab(out.value), value), "value is wrong")
        _expect(out.steps == steps, "step count is wrong")
        if spec["kind"] == "factorial":
            _expect(same(value, oracle.unary(math.factorial(spec["n"]))),
                    "oracle is not n!")

    def extras(self, state, out, t):
        """Decode, and compile as first run minus repeat run on ().

        Each univ call decodes the running program's text and compiles
        it afresh, so per op that costs univ calls x (decode + compile).
        These regions last microseconds, so each is the median of
        REPEATS tries.
        """
        lab = self.lab
        empty = [lab.sexpr.parse("()")]
        decodes, firsts, repeats = [], [], []
        for _ in range(self.REPEATS):
            encoded = lab.sexpr.parse(state["text"])
            fresh, seconds = t.timed("flowchart.decode", lab.flowchart.decode,
                                     encoded, allow_reserved=True)
            decodes.append(seconds)
            firsts.append(t.timed("flowchart.run.first", lab.flowchart.run,
                                  fresh, empty, FUEL, mode="reflective")[1])
            repeats.append(t.timed("flowchart.run.repeat", lab.flowchart.run,
                                   fresh, empty, FUEL, mode="reflective")[1])
        decode_s = statistics.median(decodes)
        compile_s = statistics.median(firsts) - statistics.median(repeats)
        t.count("decode_nodes", oracle.node_count(encoded))
        t.count("decode_s", decode_s)
        t.count("compile_s", compile_s)
        t.count("compiles", 1)
        t.count("recode_s", state["spec"]["n"] * (decode_s + compile_s))


# ---------------------------------------------------------------------------

class Construct(Workload):
    """Each base through fixpoints, specialisation, Futamura and codec."""

    name = "construct"

    def kind(self, spec):
        return len(spec)

    def warm_up(self, t):
        t.call("selfint.univ_program", self.lab.selfint.univ_program)
        super().warm_up(t)

    def prepare(self, spec):
        lab = self.lab
        bases = []
        for base in spec:
            if base["text"] is None:
                program = lab.srt.demo_program(base["name"])
            else:
                program = lab.flowchart.decode(lab.sexpr.parse(base["text"]))
            bases.append({
                "base": base,
                "program": program,
                "s": lab.sexpr.parse(base["s"]),
            })
        return bases

    def op(self, state, t):
        lab = self.lab
        fl, sx = lab.flowchart, lab.sexpr
        outs = []
        for base in state:
            p = base["program"]
            results = {
                "kleene": t.call("srt.kleene_fixpoint",
                                 lab.srt.kleene_fixpoint, p),
                "moss": t.call("srt.moss_fixpoint", lab.srt.moss_fixpoint, p),
            }
            spec = t.call("specializer.specialize", lab.specializer.specialize,
                          p, base["s"])
            results["specialized"] = spec
            dce = t.call("specializer.eliminate_dead_code",
                         lab.specializer.eliminate_dead_code, spec)
            results["dce"] = dce
            futamura = lab.selfint.futamura
            results["target"] = t.call("selfint.futamura", futamura,
                                       "target", dce)
            results["compiler"] = t.call("selfint.futamura", futamura,
                                         "compiler")
            results["cogen"] = t.call("selfint.futamura", futamura, "cogen")
            codec = {}
            for label, program in results.items():
                encoded = t.call("flowchart.encode", fl.encode, program)
                text = t.call("sexpr.print", sx.sexpr_print, encoded)
                value = t.call("sexpr.parse", sx.parse, text)
                decoded = t.call("flowchart.decode", fl.decode, value,
                                 allow_reserved=True)
                again = t.call("flowchart.encode", fl.encode, decoded)
                sizes = t.call("sexpr.measure", sx.measure, encoded)
                codec[label] = (encoded, text, value, again, sizes)
                if t.enabled:
                    t.count("chars", len(text))
                    t.count("nodes", sizes[1])
            outs.append((results, codec))
        return outs

    def extras(self, state, out, t):
        """Encode fresh copies of the results, with no cached encodings."""
        fl = self.lab.flowchart
        for results, _ in out:
            for program in results.values():
                copy = fl.Program(program.inputs,
                                  fl.rename_command(program.body, {}),
                                  program.output)
                encoded = t.call("flowchart.encode.fresh", fl.encode, copy)
                t.count("encode_nodes", oracle.node_count(encoded))

    def check(self, state, out, t):
        for base, (results, codec) in zip(state, out):
            texts = []
            for label, (encoded, text, value, again, sizes) in codec.items():
                _expect(oracle.print_srtlab(encoded) == text,
                        f"{label}: printer disagrees")
                _expect(oracle.print_srtlab(value) == text,
                        f"{label}: parse does not return the text")
                _expect(again is value or oracle.print_srtlab(again) == text,
                        f"{label}: decode/encode does not round-trip")
                _expect(sizes[0] >= sizes[1], f"{label}: tree below DAG size")
                naive = oracle.naive_sizes(encoded, SMALL_TREE)
                _expect(naive is None or naive == tuple(sizes),
                        f"{label}: sizes disagree with a naive count")
                texts.append(text)
            key = (base["base"]["name"], base["base"]["text"],
                   base["base"]["s"], tuple(base["base"]["data"]),
                   tuple(texts))
            if key not in self._known:
                self._check_semantics(base, results, codec)
                self._known[key] = True

    def _check_semantics(self, base, results, codec):
        lab = self.lab
        run, encode, decode = (lab.flowchart.run, lab.flowchart.encode,
                               lab.flowchart.decode)
        p = base["program"]
        name = base["base"]["name"]
        data = [lab.sexpr.parse(d) for d in base["base"]["data"]]
        for label in ("kleene", "moss"):
            pstar = results[label]
            for d in data:
                lhs = run(pstar, [d], CHECK_FUEL)
                rhs = run(p, [encode(pstar), d], CHECK_FUEL)
                _expect(_agree(lab, lhs, rhs),
                        f"{name} {label}: fixpoint equation fails")
                if name == "proj1":
                    _expect(lhs.halted and show(from_srtlab(lhs.value))
                            == codec[label][1], "quine does not print itself")
        spec, dce = results["specialized"], results["dce"]
        u = lab.selfint.univ_program()
        for d in data:
            direct = run(spec, [d], FUTAMURA_FUEL)
            _expect(_agree(lab, direct, run(p, [base["s"], d], FUTAMURA_FUEL)),
                    f"{name}: specialisation changes the value")
            _expect(_agree(lab, run(dce, [d], FUTAMURA_FUEL), direct),
                    f"{name}: dead-code elimination changes the value")
        d = data[0]
        direct = run(dce, [d], FUTAMURA_FUEL)
        _expect(direct.halted, f"{name}: source does not halt")
        targets = {"target": results["target"]}
        made = run(results["compiler"], [encode(dce)], FUTAMURA_FUEL)
        _expect(made.halted, f"{name}: compiler does not halt")
        targets["compiler"] = decode(made.value, allow_reserved=True)
        made = run(results["cogen"], [encode(u)], FUTAMURA_FUEL)
        _expect(made.halted, f"{name}: cogen does not halt")
        compiler = decode(made.value, allow_reserved=True)
        made = run(compiler, [encode(dce)], FUTAMURA_FUEL)
        _expect(made.halted, f"{name}: cogen's compiler does not halt")
        targets["cogen"] = decode(made.value, allow_reserved=True)
        for label, target in targets.items():
            _expect(_agree(lab, run(target, [d], FUTAMURA_FUEL), direct),
                    f"{name}: {label} disagrees with the source")


# ---------------------------------------------------------------------------

class Trm(Workload):
    """Both 1# fixpoints of one base, run in both variants."""

    name = "trm"

    def kind(self, spec):
        return spec["base"]

    def prepare(self, spec):
        return {"spec": spec, "base": self.lab.trm.trm_parse(spec["raw"])}

    def op(self, state, t):
        trm = self.lab.trm
        base, data = state["base"], state["spec"]["data"]
        outs = []
        for label, build in (("moss", trm.trm_moss_fixpoint),
                             ("kleene", trm.trm_kleene_fixpoint)):
            pstar = t.call(f"trm.{label}_fixpoint", build, base)
            boundary = t.call("trm.setup_boundary", trm.setup_boundary,
                              pstar, base)
            standard = t.call("trm.run.standard", trm.trm_run, pstar, [data],
                              FUEL, boundary=boundary)
            fast = t.call("trm.run.fast_assign", trm.trm_run, pstar, [data],
                          FUEL, variant="fast_assign", boundary=boundary)
            t.count("standard_steps", standard.steps)
            t.count("fast_steps", fast.steps)
            outs.append((pstar, standard, fast))
        return outs

    def check(self, state, out, t):
        spec = state["spec"]
        base_instrs = oracle.trm_instructions(spec["raw"])
        for pstar, standard, fast in out:
            raw = pstar.raw
            key = (raw, spec["raw"], spec["data"])
            if key not in self._known:
                instrs = oracle.trm_instructions(raw)
                k = len(instrs) - len(base_instrs)
                _expect(k >= 0 and instrs[k:] == base_instrs,
                        "base is not a suffix of the fixpoint")
                regs, steps, setup = oracle.run_trm(raw, [spec["data"]],
                                                    boundary=k + 1)
                via_base, _, _ = oracle.run_trm(spec["raw"],
                                                [raw, spec["data"]])
                _expect(regs.get(1, "") == via_base.get(1, ""),
                        "fixpoint equation fails")
                self._known[key] = (regs, steps, setup)
            regs, steps, setup = self._known[key]
            _expect(standard.status == "halted" and fast.status == "halted",
                    "run did not halt")
            _expect(standard.registers == regs, "registers are wrong")
            _expect(standard.steps == steps, "step count is wrong")
            _expect(standard.setup_steps == setup, "set-up steps are wrong")
            _expect(fast.output == standard.output
                    and fast.registers == standard.registers,
                    "fast_assign changes the output")
            _expect(fast.steps <= standard.steps,
                    "fast_assign takes more steps")

    def extras(self, state, out, t):
        for pstar, _, _ in out:
            t.call("trm.parse", self.lab.trm.trm_parse, pstar.raw)
            t.count("trm_chars", len(pstar.raw))


WORKLOADS = {w.name: w for w in (Interp, Reflective, Construct, Trm)}
