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

The runner executes two static shapes in one iteration each, charging
the exact step count of running them one instruction at a time:

  * a loop of that shape whose bodies of h (on #) and o (on 1) appends
    never name its case register: on a register holding a 1s and b #s
    it costs (o+3)a + (h+2)b + 2 steps, and its effect is one image of
    that register's text appended to each register the bodies name: the
    text with each 1 and each # replaced by what the bodies append to
    that register on it (``trm_erase``'s loop, at 2a + 2b + 2, is summed
    up too);
  * a write run of two or more appends: one step each.

The table of these blocks is built once per program, keyed by start pc.
A loop's summary depends only on its own instructions, so it is cached
by them (up to 1024 shapes): every fixpoint repeats the same few toolkit
loops, and a new program's table reuses their images.  The runner
steps one instruction at a time instead when a block costs more than
the fuel left, or when it ends past the set-up boundary, so exhaustion
and ``setup_steps`` stay exact.

Both fixpoints and ``trm_moss_qhat`` look their program up by its whole
text among the 64 most recently built (``_program``).  A fixpoint built
again from the same base has the same generator and output texts, so it
is neither re-tokenised nor re-tabled; a new base's texts are parsed
whole, and a text that fails to parse raises as ``TrmProgram`` does.

Each register is a deque of non-empty text chunks.  A summed-up loop
reads its register with one join and appends each image as one chunk
(``_image``: the text itself for a move or copy, else three
``str.replace`` passes); a write run appends its text as one chunk; a
stepped append adds a one-symbol chunk.  A stepped case pops one chunk
and, if it is longer than a symbol, pushes the rest back one symbol a
chunk, so each symbol is split out at most once and no run goes
quadratic.  No chunk is empty, so an empty deque is an empty register.

The ``fast_assign`` variant is a cost rule on the same table: a move
block between registers 1-8 costs one step and runs atomically, so the
runner does not count the 1s it moves.  This changes cost, never text
or behaviour, so the same program can be timed under both variants.
"""

import functools
import re
import sys
from collections import deque
from operator import itemgetter

__all__ = [
    "TrmProgram", "TrmResult", "TrmParseError",
    "trm_parse", "trm_print", "trm_run", "trm_compose",
    "trm_move", "trm_erase", "write_code", "trm_write_program",
    "trm_diag_program", "trm_s11_program",
    "trm_moss_qhat", "trm_moss_fixpoint", "trm_kleene_fixpoint",
    "setup_boundary",
]

_ILLEGAL = re.compile(r"[^1#]")
_SYMBOLS = bytes.maketrans(b"\x01\x02", b"1#")   # append opcode -> symbol


def _illegal(text):
    """The match of the first character of ``text`` outside {1,#}, or None.
    Two C-speed counts decide; the regex runs only to find the culprit,
    and raises ``TypeError`` on anything but a str."""
    if type(text) is str and text.count("1") + text.count("#") == len(text):
        return None
    return _ILLEGAL.search(text)


def _image(text, one, hash_):
    """``text``, over {1,#}, with each 1 replaced by ``one`` and each # by
    ``hash_``, both over {1,#}: the text itself for the identity image,
    else three C-speed passes through a NUL that no operand holds."""
    if one == "1" and hash_ == "#":
        return text
    return text.replace("1", "\0").replace("#", hash_).replace("\0", one)


class TrmParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def trm_parse(raw):
    """Parse a {1,#} string into a program."""
    return TrmProgram(raw)


class _Instrs(dict):
    """Instruction text -> (k, n), so each distinct text is counted once."""

    def __missing__(self, text):
        n = text.index("#")
        self[text] = instr = (len(text) - n, n)
        return instr


def _parse_instructions(raw):
    """The (k, n) pairs of a text over {1,#}, which tokenises as 1+#+."""
    if raw.startswith("#"):
        raise TrmParseError("instruction must start with 1s", 0)
    six = raw.find("######")
    if six >= 0:
        raise TrmParseError("too many #s in one instruction", six)
    if raw.endswith("1"):
        raise TrmParseError("instruction lacks #s", len(raw.rstrip("1")))
    tokens = raw.replace("#1", "# 1").split()   # a space at each boundary
    return tuple(map(_Instrs().__getitem__, tokens))


def trm_print(program):
    """Serialise back to the raw {1,#} string."""
    return program.raw


class TrmProgram:
    __slots__ = ("raw", "instrs", "_blocks")

    def __init__(self, raw):
        bad = _illegal(raw)
        if bad is not None:
            raise TrmParseError(f"illegal character {bad.group()!r}",
                                bad.start())
        self.raw = raw
        self.instrs = _parse_instructions(raw)
        self._blocks = None

    def __len__(self):
        return len(self.instrs)

    def __repr__(self):
        text = self.raw if len(self.raw) <= 40 else self.raw[:37] + "..."
        return f"<1# program [{len(self.instrs)} instrs] {text}>"

    def _summaries(self):
        """(blocks, names), built once per program: the summed-up loops
        and write runs keyed by start pc, and the registers that the
        instructions name."""
        if self._blocks is None:
            instrs = self.instrs
            ops = bytes(map(itemgetter(0), instrs))
            blocks = {}
            for run in re.finditer(rb"[\x01\x02]{2,}", ops):
                k, end = run.span()
                blocks[k + 1] = (end + 1, 0, end - k, 0, 0,
                                 _appends(instrs[k:end]), False)
            for case in re.finditer(rb"\x05\x03\x03", ops):
                k = case.start()
                h = instrs[k + 2][1] - 2
                o = instrs[k + 1][1] - 4 - h
                if h < 0 or o < 0 or k + 5 + h + o > len(instrs):
                    continue
                loop = _loop_block(instrs[k:k + 5 + h + o])
                if loop is not None:
                    blocks[k + 1] = (k + 6 + h + o,) + loop
            for case in re.finditer(rb"\x05\x03\x04\x04", ops):
                k = case.start()    # trm_erase: two steps a symbol
                if instrs[k + 1:k + 4] == ((3, 3), (4, 2), (4, 3)):
                    blocks[k + 1] = (k + 5, instrs[k][1], 2, 2, 2, [], False)
            names = {n for op, n in set(instrs) if op in (1, 2, 5)}
            self._blocks = (blocks, names)
        return self._blocks


#: Programs by text, each parsed and tabled once while it is cached.
_program = functools.lru_cache(maxsize=64)(TrmProgram)


def _appends(body):
    """[(n, text)]: what the appends ``body`` add to each register n."""
    names = set(map(itemgetter(1), body))
    if len(names) == 1:             # as write_code emits: C-speed text
        ops = bytes(map(itemgetter(0), body))
        return [(names.pop(), ops.translate(_SYMBOLS).decode())]
    return [(n, "".join(["1#"[op - 1] for op, m in body if m == n]))
            for n in names]


@functools.lru_cache(maxsize=1024)
def _loop_block(loop):
    """The summary of ``loop``, the instructions of one ``_loop`` shape
    whose bounds the caller has checked, or None: (r, fixed cost, cost per
    1, cost per #, ((n, image of 1, image of #), ...), whether it is a move
    between registers 1-8).  The images of a register are what the bodies
    append to it on a 1 and on a #; ``_image`` applies them."""
    r = loop[0][1]
    h = loop[2][1] - 2
    o = len(loop) - 5 - h
    on_hash = loop[3:3 + h]
    on_one = loop[4 + h:4 + h + o]
    if (loop[3 + h] != (4, 3 + h) or loop[4 + h + o] != (4, 4 + h + o)
            or any(op > 2 or n == r for op, n in on_hash + on_one)):
        return None
    hashes, ones = dict(_appends(on_hash)), dict(_appends(on_one))
    outs = tuple((n, ones.get(n, ""), hashes.get(n, ""))
                 for n in hashes.keys() | ones.keys())
    move = (h == o == 1 and on_hash[0][0] == 2 and on_one[0][0] == 1
            and on_hash[0][1] == on_one[0][1] <= 8 and r <= 8)
    return (r, 2, o + 3, h + 2, outs, move)


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
    h = on_hash.count("1#")         # one 1# inside each instruction
    o = on_one.count("1#")
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
    Any character outside ``{1,#}`` raises ``ValueError``.
    """
    if _illegal(text):
        raise ValueError("write_code needs text over {1,#}")
    return _image(text, "1#", "1##")


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


@functools.cache
def trm_diag_program():
    """On an encoded program r in R1, leaves write_code(r) + r in R1.

    The output program, run on empty registers, first rebuilds r in R1
    and then falls into r itself: it computes r applied to r's own text.
    Uses R2 and R3.  Built once per process; every caller shares the one
    ``TrmProgram``.
    """
    return TrmProgram(_dup_loop() + _move(3, 2) + _move(2, 1))


def _copy_loop():
    """Pop R1, copying each symbol into both R2 and R3."""
    return _loop(1, _ins(2, 2) + _ins(2, 3), _ins(1, 2) + _ins(1, 3))


@functools.cache
def trm_s11_program():
    """Specialiser: on (p, s) in (R1, R2), leaves in R1 a program t with
    run(t, [d]) = run(p, [s, d]).

    The output has the fixed shape  move(1,2) + write_code(s) + p : it
    shelves its own argument into R2, rebuilds s in R1, then runs p.
    Assembled from the toolkit blocks; uses R3.  Built once per process;
    every caller shares the one ``TrmProgram``.
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
    return _program(_qhat_head() + write_code(p.raw))


@functools.cache
def _qhat_head():
    """Every generator's text before write_code(p.raw), built once."""
    return (trm_diag_program().raw
            + _move(1, 2)
            + write_code(_move(1, 4))
            + _move(2, 1)
            + write_code(_move(4, 2)))


def trm_moss_fixpoint(p, fuel=10**7):
    """Run the Moss generator on its own text."""
    qhat = trm_moss_qhat(p)
    result = trm_run(qhat, [qhat.raw], fuel)
    if result.status != TrmResult.HALTED:
        raise RuntimeError(f"generator run failed: {result.status}")
    return _program(result.output)


def trm_kleene_fixpoint(p, fuel=10**7):
    """Kleene's construction: specialise the intermediate program to itself.

    The intermediate program p~ reads (q, d) and computes
    p(s11(q, q), d): stash d in R4, duplicate q, run the specialiser
    body, restore d, run p.  Then p* = run(s11, [p~, p~]).
    """
    p_tilde = _p_tilde_head() + p.raw
    result = trm_run(trm_s11_program(), [p_tilde, p_tilde], fuel)
    if result.status != TrmResult.HALTED:
        raise RuntimeError(f"specialiser run failed: {result.status}")
    return _program(result.output)


@functools.cache
def _p_tilde_head():
    """Every intermediate program's text before p.raw, built once."""
    return (_move(2, 4)
            + _copy_loop() + _move(3, 1)    # R1 = q, R2 = q
            + trm_s11_program().raw
            + _move(4, 2))


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
    if type(fuel) is not int:  # a bool is no fuel either
        raise TypeError(f"fuel must be an int, not {type(fuel).__name__}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if variant not in ("standard", "fast_assign"):
        raise ValueError(f"unknown variant {variant!r}")
    fast = variant == "fast_assign"
    blocks, names = program._summaries()
    named = names.union(range(len(inputs) + 1))     # R0 is always empty
    regs = [None] * (max(named) + 1)    # no deque for a register never named
    for n in named:
        regs[n] = deque()
    for reg, text in zip(regs[1:], inputs):
        if _illegal(text):
            raise ValueError("register contents must be over {1,#}")
        if text:
            reg.append(text)
    table = program.instrs
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
        block = blocks.get(pc)
        if block is not None:
            end, r, base, per_one, per_hash, outs, move = block
            atomic = fast and move
            if end <= mark or atomic:
                text = "".join(regs[r])     # R0, always empty, for a write run
                if atomic:
                    cost = 1
                else:
                    ones = text.count("1")
                    cost = base + per_one * ones + per_hash * (len(text) - ones)
                if cost <= fuel - steps:
                    steps += cost
                    pc = end
                    if r:
                        regs[r].clear()
                        for n, one, hash_ in outs:
                            add = _image(text, one, hash_)
                            if add:             # no empty chunk
                                regs[n].append(add)
                    else:
                        for n, add in outs:
                            regs[n].append(add)
                    continue
                blocks = {}         # the fuel runs out inside this block
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
            reg = regs[n]
            if not reg:
                pc += 1
            else:
                chunk = reg.popleft()
                if chunk == "1":
                    pc += 2
                elif chunk == "#":
                    pc += 3
                else:   # split each symbol out once: no run goes quadratic
                    reg.extendleft(reversed(chunk[1:]))
                    pc += 2 if chunk[0] == "1" else 3
        elif op == 4:
            pc -= n
        elif op == 3:
            pc += n
        else:
            regs[n].append("1#"[op - 1])
            pc += 1
    registers = {k: "".join(v) for k, v in enumerate(regs) if v}
    output = registers.get(1, "")
    return TrmResult(output, steps, status, setup, registers)
