"""The 1# term register machine: string programs over {1,#}.

A program is its text, a string of instructions 1^n #^k (1 <= k <= 5).
The opcode of an instruction is k, its number of #s, so the parsed
program ``instrs`` is a tuple of (k, n) integer pairs:

    1^n #      (1, n)  append 1 to register n
    1^n ##     (2, n)  append # to register n
    1^n ###    (3, n)  jump forward n instructions
    1^n ####   (4, n)  jump backward n instructions
    1^n #####  (5, n)  case on register n: empty, advance 1; leading 1
                       (consumed), advance 2; leading # (consumed), advance 3

Execution starts at instruction 1 with the arguments in R1, R2, ...;
the result is whatever R1 holds when the counter lands exactly one past
the final instruction (anywhere else out of range is an abnormal halt).
One step per executed instruction.

Because jumps are relative, programs compose by plain concatenation:
run(p | q) is run(q) after run(p) whenever p halts normally.  The
toolkit below (move, write, diag, s11) and both fixpoint constructions
are built by concatenating text, and every toolkit loop has the one
shape that ``_loop`` emits.

The ``fast_assign`` variant executes any program segment textually equal
to a move block between registers 1-8 as a single step.  The executor
reads a second instruction table, in which the first instruction of each
such block is a sixth opcode, (6, (i, j)).  This changes cost, never
text or behaviour, so the same program can be timed under both variants.
"""

import sys
from collections import deque

__all__ = [
    "TrmProgram", "TrmResult", "TrmParseError",
    "trm_parse", "trm_print", "trm_run", "trm_compose",
    "trm_move", "trm_erase", "write_code", "trm_write_program",
    "trm_diag_program", "trm_s11_program",
    "trm_moss_qhat", "trm_moss_fixpoint", "trm_kleene_fixpoint",
    "setup_boundary",
]

_MAX_HASHES = 5


class TrmParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def trm_parse(raw):
    """Parse a {1,#} string into a program."""
    return TrmProgram(raw)


def _parse_instructions(raw):
    instrs = []
    i, n = 0, len(raw)
    while i < n:
        start = i
        while i < n and raw[i] == "1":
            i += 1
        ones = i - start
        if ones == 0:
            raise TrmParseError("instruction must start with 1s", i)
        hstart = i
        while i < n and raw[i] == "#":
            i += 1
        hashes = i - hstart
        if hashes == 0:
            raise TrmParseError("instruction lacks #s", start)
        if hashes > _MAX_HASHES:
            raise TrmParseError("too many #s in one instruction", hstart)
        instrs.append((hashes, ones))
    return tuple(instrs)


def trm_print(program):
    """Serialise back to the raw {1,#} string."""
    return program.raw


class TrmProgram:
    __slots__ = ("raw", "instrs", "_fast")

    def __init__(self, raw):
        bad = next((k for k, ch in enumerate(raw) if ch not in "1#"), None)
        if bad is not None:
            raise TrmParseError(f"illegal character {raw[bad]!r}", bad)
        self.raw = raw
        self.instrs = _parse_instructions(raw)
        self._fast = None

    def __len__(self):
        return len(self.instrs)

    def __repr__(self):
        text = self.raw if len(self.raw) <= 40 else self.raw[:37] + "..."
        return f"<1# program [{len(self.instrs)} instrs] {text}>"

    def _fast_table(self):
        """``instrs`` with each move block between registers 1-8 starting
        with (6, (i, j)) in place of its case; built once per program."""
        if self._fast is None:
            instrs = self.instrs
            table = list(instrs)
            for k, (op, i) in enumerate(instrs[:-6]):
                if op != 5 or i > 8:
                    continue
                j = instrs[k + 3][1]
                if (j <= 8 and j != i
                        and instrs[k:k + 7] == _parse_instructions(_move(i, j))):
                    table[k] = (6, (i, j))
            self._fast = tuple(table)
        return self._fast


# ---------------------------------------------------------------------------
# the toolkit, as text

def _ins(op, n):
    """The text of instruction (op, n)."""
    return "1" * n + "#" * op


def _loop(r, on_hash, on_one):
    """The toolkit's loop shape: pop R_r until it is empty, running the
    instructions ``on_hash`` on each # and ``on_one`` on each 1.

        top: case r; fwd end; fwd one; on_hash...; back top
        one: on_one...; back top
        end:
    """
    h = len(_parse_instructions(on_hash))
    o = len(_parse_instructions(on_one))
    return (_ins(5, r) + _ins(3, 4 + h + o) + _ins(3, 2 + h)
            + on_hash + _ins(4, 3 + h)
            + on_one + _ins(4, 4 + h + o))


def _move(i, j):
    if i == j:
        raise ValueError("move needs distinct registers")
    return _loop(i, _ins(2, j), _ins(1, j))


def trm_move(i, j):
    """Program: append R_i to the right end of R_j, emptying R_i."""
    return TrmProgram(_move(i, j))


def trm_erase(i):
    """Program: empty register i."""
    return TrmProgram(_ins(5, i) + _ins(3, 3) + _ins(4, 2) + _ins(4, 3))


def write_code(text):
    """The program that, run on empty registers, leaves ``text`` in R1.

    One append instruction per symbol; this is what the write program
    outputs, and also how constants are embedded into generated code.
    """
    return "".join("1#" if ch == "1" else "1##" for ch in text)


def _emit_loop(src, dst):
    """Loop: pop each symbol of R_src, appending its write-code to R_dst."""
    return _loop(src, _ins(1, dst) + _ins(2, dst) + _ins(2, dst),
                 _ins(1, dst) + _ins(2, dst))


def trm_write_program():
    """On input x in R1, leaves write_code(x) in R1.  Uses R2."""
    return TrmProgram(_emit_loop(1, 2) + _move(2, 1))


def _dup_loop():
    """Pop R1, emitting write-code into R2 and a plain copy into R3."""
    return _loop(1, _ins(1, 2) + _ins(2, 2) + _ins(2, 2) + _ins(2, 3),
                 _ins(1, 2) + _ins(2, 2) + _ins(1, 3))


def trm_diag_program():
    """On an encoded program r in R1, leaves write_code(r) + r in R1.

    The output program, run on empty registers, first rebuilds r in R1
    and then falls into r itself: it computes r applied to r's own text.
    Uses R2 and R3.
    """
    return TrmProgram(_dup_loop() + _move(3, 2) + _move(2, 1))


def _copy_loop():
    """Pop R1, copying each symbol into both R2 and R3."""
    return _loop(1, _ins(2, 2) + _ins(2, 3), _ins(1, 2) + _ins(1, 3))


def trm_s11_program():
    """Specialiser: on (p, s) in (R1, R2), leaves in R1 a program t with
    run(t, [d]) = run(p, [s, d]).

    The output has the fixed shape  move(1,2) + write_code(s) + p : it
    shelves its own argument into R2, rebuilds s in R1, then runs p.
    Built from the toolkit blocks; uses R3.
    """
    return TrmProgram(
        _move(1, 3)                     # stash p
        + _move(2, 1)                   # bring s into R1
        + _emit_loop(1, 2)              # R2 := write_code(s)
        + _move(2, 1)                   # R1 := write_code(s)
        + _move(1, 2)                   # park it in R2
        + write_code(_move(1, 2))       # R1 := move(1,2) text
        + _move(2, 1)                   # R1 := move(1,2) + write_code(s)
        + _move(3, 1)                   # append p
    )


def trm_compose(p, q):
    """Concatenation; behaves as q after p when p halts normally."""
    return TrmProgram(p.raw + q.raw)


def trm_moss_qhat(p):
    """The Moss generator for a two-input program p.

    On an encoded program r in R1 it emits
        move(1,4) + (write_code(r) + r) + move(4,2) + p
    i.e. a program that stashes its input, computes r on its own text
    into R1, restores the input into R2, and runs p.
    """
    return TrmProgram(
        trm_diag_program().raw
        + _move(1, 2)
        + write_code(_move(1, 4))
        + _move(2, 1)
        + write_code(_move(4, 2))
        + write_code(p.raw)
    )


def trm_moss_fixpoint(p, fuel=10**7):
    """Run the Moss generator on its own text."""
    qhat = trm_moss_qhat(p)
    result = trm_run(qhat, [qhat.raw], fuel)
    if result.status != "halted":
        raise RuntimeError(f"generator run failed: {result.status}")
    return TrmProgram(result.output)


def trm_kleene_fixpoint(p, fuel=10**7):
    """Kleene's construction: specialise the intermediate program to itself.

    The intermediate program p~ reads (q, d) and computes
    p(s11(q, q), d): stash d in R4, duplicate q, run the specialiser
    body, restore d, run p.  Then p* = run(s11, [p~, p~]).
    """
    s11 = trm_s11_program()
    p_tilde = (
        _move(2, 4)
        + _copy_loop() + _move(3, 1)    # R1 = q, R2 = q
        + s11.raw
        + _move(4, 2)
        + p.raw
    )
    result = trm_run(s11, [p_tilde, p_tilde], fuel)
    if result.status != "halted":
        raise RuntimeError(f"specialiser run failed: {result.status}")
    return TrmProgram(result.output)


def setup_boundary(pstar, p):
    """First instruction index of the embedded copy of p inside p*.

    Both constructions produce p* with p as its final segment; the steps
    spent before control first reaches that segment are the set-up phase
    (computing the self-copy).
    """
    k = len(pstar.instrs) - len(p.instrs)
    if k < 0 or pstar.instrs[k:] != p.instrs:
        raise ValueError("p is not a suffix of p*")
    return k + 1


# ---------------------------------------------------------------------------
# execution

class TrmResult:
    __slots__ = ("output", "steps", "status", "setup_steps", "registers")

    HALTED = "halted"
    FUEL = "fuel_exhausted"
    ABNORMAL = "abnormal_halt"

    def __init__(self, output, steps, status, setup_steps, registers):
        self.output = output
        self.steps = steps
        self.status = status
        self.setup_steps = setup_steps
        self.registers = registers

    def __repr__(self):
        return f"<1# run {self.status} steps={self.steps} |R1|={len(self.output)}>"


def trm_run(program, inputs, fuel=10**7, variant="standard", boundary=None):
    """Execute with the arguments in R1, R2, ...; result is R1.

    ``boundary`` (instruction index) marks where the set-up phase ends:
    ``setup_steps`` records the count when control first reaches it.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if variant == "standard":
        table = program.instrs
    elif variant == "fast_assign":
        table = program._fast_table()
    else:
        raise ValueError(f"unknown variant {variant!r}")
    regs = {}
    for idx, text in enumerate(inputs, start=1):
        for ch in text:
            if ch not in "1#":
                raise ValueError("register contents must be over {1,#}")
        regs[idx] = deque(text)
    length = len(table)
    never = sys.maxsize             # beyond any counter a program can reach
    mark = never if boundary is None else boundary
    pc = 1
    steps = 0
    setup = None
    while True:
        if pc >= mark:
            setup = steps
            mark = never
        if not 0 < pc <= length:
            status = TrmResult.HALTED if pc == length + 1 else TrmResult.ABNORMAL
            break
        steps += 1
        if steps > fuel:
            steps = fuel
            status = TrmResult.FUEL
            break
        op, n = table[pc - 1]
        if op == 5:
            reg = regs.get(n)
            if not reg:
                pc += 1
            elif reg.popleft() == "1":
                pc += 2
            else:
                pc += 3
        elif op == 4:
            pc -= n
        elif op == 2:
            regs.setdefault(n, deque()).append("#")
            pc += 1
        elif op == 1:
            regs.setdefault(n, deque()).append("1")
            pc += 1
        elif op == 3:
            pc += n
        else:
            src = regs.get(n[0])
            if src:
                regs.setdefault(n[1], deque()).extend(src)
                src.clear()
            pc += 7
    registers = {k: "".join(v) for k, v in regs.items() if v}
    output = registers.get(1, "")
    return TrmResult(output, steps, status, setup, registers)
