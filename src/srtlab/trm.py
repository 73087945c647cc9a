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

Both are blocks of one form, applied by one rule (``_loop_block``): a
block clears the register it reads, and appends to each register it
names a constant text and then an image of what the read register held.
A loop's constants are empty.  A write run reads R0, which no
instruction names and so is always empty: it appends its constants
alone, and its cost has no term per symbol.

The table of these blocks is built once per program, keyed by start pc.
A loop's summary depends only on its own instructions, so it is cached
by them (up to 1024 shapes): every fixpoint repeats the same few toolkit
loops, and a new program's table reuses their images.  The runner
steps one instruction at a time instead when a block costs more than
the fuel left, or when it ends past the set-up boundary, so exhaustion
and ``setup_steps`` stay exact.

From a program's second run on, the runner also applies each chain of
two or more blocks that follow each other, each ending where the next
begins, in one iteration.  A chain stops at the first pc with no block
and before a block that ends past the boundary.  ``_chain`` composes
it, once per program, start and boundary, into one transformer of the
registers: each register it touches becomes constant texts and images
of the registers' texts at its start, and its cost, the sum of its
blocks' costs, is linear in their counts of 1s and #s.  So the
self-text that a fixpoint's set-up rebuilds on every run is built once.
A chain that costs more than the fuel left runs block by block.  A
program's first run composes no chain: a program run once would pay
for composing and gain nothing.

Both fixpoints and ``trm_moss_qhat`` look their program up by its whole
text among the 64 most recently built (``_program``).  A fixpoint built
again from the same base has the same generator and output texts, so it
is neither re-tokenised nor re-tabled; a new base's texts are parsed
whole, and a text that fails to parse raises as ``TrmProgram`` does.

Each register is a deque of non-empty text chunks, with a count of its
1s kept beside it: an input is counted once, as it is checked; a
stepped append of 1 adds one, a stepped case that consumes a 1 takes
one away, and a summed-up block's clear sets it to 0.  So a block's
cost needs no pass over the text.  A summed-up block reads its register
with one join and appends to each target its constant and image as
one chunk, together with c + a·o1 + b·h1 to the target's count, where c
is the constant's count of 1s and o1 and h1 are the 1-counts of the
images of 1 and #.  ``_image`` builds an image from byte lanes: lane j
is the j-th character of each symbol's image, a lane where both images
agree is filled in with the rest, and each other lane is one
``bytes.translate`` of the text written through an extended slice; a
move or copy appends the text itself.  A stepped append adds a
one-symbol chunk.  A stepped case pops one chunk and, if it is longer
than a symbol, pushes the rest back one symbol a chunk, so each symbol
is split out at most once and no run goes quadratic.  No chunk is
empty, so an empty deque is an empty register.

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


def _lanes(one, hash_):
    """How ``_image`` applies the images ``one`` of 1 and ``hash_`` of #,
    both over {1,#}: None for the identity image, else (w, fill, lanes).
    w is the longer image's length; ``fill`` is the image of 1 padded to
    w with NUL; ``lanes`` holds (j, table) for each lane j where the
    padded images differ, ``table`` mapping 1 and # to their lane-j
    characters."""
    if one == "1" and hash_ == "#":
        return None
    w = max(len(one), len(hash_))
    fill = one.encode().ljust(w, b"\0")
    other = hash_.encode().ljust(w, b"\0")
    lanes = tuple((j, bytes.maketrans(b"1#", bytes((fill[j], other[j]))))
                  for j in range(w) if fill[j] != other[j])
    return w, fill, lanes


def _image(text, lanes):
    """``text``, over {1,#}, with each symbol replaced by its image under
    ``lanes`` (``_lanes``): the text itself for the identity, else built
    in w-byte strides.  The constant lanes come from repeating ``fill``;
    each other lane j is the text translated by its table and written to
    every w-th byte from j; then the NUL padding is deleted."""
    if lanes is None:
        return text
    w, fill, variable = lanes
    data = text.encode()
    out = bytearray(fill * len(text))
    for j, table in variable:
        out[j::w] = data.translate(table)
    return out.translate(None, b"\0").decode()


#: ``write_code``'s images: 1 as ``1#`` and # as ``1##``.
_WRITE = _lanes("1#", "1##")


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
    return _checked(program).raw


class TrmProgram:
    __slots__ = ("raw", "instrs", "_blocks", "_chains")

    def __init__(self, raw):
        bad = _illegal(raw)
        if bad is not None:
            raise TrmParseError(f"illegal character {bad.group()!r}",
                                bad.start())
        self.raw = raw
        self.instrs = _parse_instructions(raw)
        self._blocks = None
        self._chains = None         # a _Chains from the first run on

    def __len__(self):
        return len(self.instrs)

    def __repr__(self):
        text = self.raw if len(self.raw) <= 40 else self.raw[:37] + "..."
        return f"<1# program [{len(self.instrs)} instrs] {text}>"

    def _summaries(self):
        """(blocks, names), built once per program: the summed-up loops
        and write runs keyed by start pc, and the registers that the
        instructions name.  A block is its end pc and then a summary in
        ``_loop_block``'s form: a write run reads R0 and costs one step
        an append, and an erase has no outs."""
        if self._blocks is None:
            instrs = self.instrs
            ops = bytes(map(itemgetter(0), instrs))
            blocks = {}
            for run in re.finditer(rb"[\x01\x02]{2,}", ops):
                k, end = run.span()
                blocks[k + 1] = (end + 1, 0, end - k, 0, 0,
                                 [(n, text, text.count("1"), None, 0, 0)
                                  for n, text in _appends(instrs[k:end])],
                                 False)
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
                    blocks[k + 1] = (k + 5, instrs[k][1], 2, 2, 2, (), False)
            names = {n for op, n in set(instrs) if op in (1, 2, 5)}
            self._blocks = (blocks, names)
        return self._blocks


def _checked(program):
    """``program``, if it is a ``TrmProgram``; else ``TypeError``."""
    if not isinstance(program, TrmProgram):
        raise TypeError(f"expected a TrmProgram, not {type(program).__name__}")
    return program


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
    1, cost per #, outs, whether it is a move between registers 1-8).

    Every block has this form, and one rule: it clears the register r
    that it reads, and appends to each register n of an out (n, const, c,
    lanes, o1, h1) the constant ``const``, holding c 1s, and then the
    image of what r held.  ``lanes`` is how ``_image`` builds that image,
    and o1 and h1 are the counts of 1s in the images of 1 and #.  A
    loop's images of register n are what its bodies append to n on a 1
    and on a #, and its constants are empty.  A write run reads R0,
    which is always empty, so its outs append their constants alone."""
    r = loop[0][1]
    h = loop[2][1] - 2
    o = len(loop) - 5 - h
    on_hash = loop[3:3 + h]
    on_one = loop[4 + h:4 + h + o]
    if (loop[3 + h] != (4, 3 + h) or loop[4 + h + o] != (4, 4 + h + o)
            or any(op > 2 or n == r for op, n in on_hash + on_one)):
        return None
    hashes, ones = dict(_appends(on_hash)), dict(_appends(on_one))
    outs = []
    for n in hashes.keys() | ones.keys():
        one, hash_ = ones.get(n, ""), hashes.get(n, "")
        outs.append((n, "", 0, _lanes(one, hash_),
                     one.count("1"), hash_.count("1")))
    move = (h == o == 1 and on_hash[0][0] == 2 and on_one[0][0] == 1
            and on_hash[0][1] == on_one[0][1] <= 8 and r <= 8)
    return (r, 2, o + 3, h + 2, tuple(outs), move)


class _Chains(dict):
    """(start pc, mark) -> the chain of blocks from that pc (``_chain``),
    or None; each is composed the first time it is looked up."""

    def __init__(self, blocks):
        super().__init__()
        self.blocks = blocks

    def __missing__(self, key):
        self[key] = chain = _chain(self.blocks, *key)
        return chain


def _chain(blocks, pc, mark):
    """The blocks that follow each other from ``pc``, up to the first pc
    with no block or before the first block that ends past ``mark``,
    composed into one transformer of the registers; None for fewer than
    two blocks.

    The chain's sources are the registers it touches but R0, which is
    always empty; A_i and B_i are the counts of 1s and #s in the i-th
    source at the chain's start.  While composing, each register holds a
    list of pieces, each a constant text or (i, one, hash_): the i-th
    source's text at the start with each 1 replaced by ``one`` and each #
    by ``hash_``.  Each block is composed by the one block rule
    (``_loop_block``): to each of its outs it appends the constant, and
    then images each piece of its register, a constant once, here, and a
    source piece by composing the two images.  R0 holds no piece, so a
    write run appends its constants alone.  Each register also holds the
    linear forms of its 1s and #s in the A_i and B_i, as lists of
    coefficients: the constant at 0, A_i at 2i + 1 and B_i at 2i + 2;
    R0's are zero.  A block's cost is linear in the forms of the register
    it reads, and so are the forms of what it appends.

    The result is (end, sources, standard cost, fast cost, writes), a
    form now being ((index, coefficient), ...) over ``counts`` = [1, A_0,
    B_0, A_1, B_1, ...].  A run joins each source once into ``texts``,
    evaluates the cost, and writes each register of (n, parts, 1-count
    form): the join of its parts, each a constant or an image (i,
    lanes) of ``texts[i]``."""
    chain = []
    block = blocks.get(pc)
    while block is not None and block[0] <= mark:
        chain.append(block)
        block = blocks.get(block[0])
    if len(chain) < 2:
        return None
    sources = tuple(sorted({r for _, r, *_ in chain if r}
                           | {out[0] for block in chain for out in block[5]}))
    zero = [0] * (2 * len(sources) + 1)
    regs = {0: ([], zero, zero)}    # R0: always empty, never a source
    for i, n in enumerate(sources):
        ones, hashes = zero[:], zero[:]
        ones[2 * i + 1] = hashes[2 * i + 2] = 1
        regs[n] = ([(i, "1", "#")], ones, hashes)
    std, fast = zero[:], zero[:]
    for _, r, base, per_one, per_hash, outs, move in chain:
        pieces, a, b = regs[r]
        regs[r] = ([], zero[:], zero[:])
        cost = zero[:]
        cost[0] = base
        for j in range(len(zero)):
            cost[j] += per_one * a[j] + per_hash * b[j]
        for n, const, c, lanes, o1, h1 in outs:
            target, ones, hashes = regs[n]
            _append(target, const)
            for piece in pieces:
                if type(piece) is str:
                    _append(target, _image(piece, lanes))
                else:
                    i, one, hash_ = piece
                    _append(target, (i, _image(one, lanes),
                                     _image(hash_, lanes)))
            ones[0] += c
            hashes[0] += len(const) - c
            o2 = len(_image("1", lanes)) - o1   # the #s of each image
            h2 = len(_image("#", lanes)) - h1
            for j in range(len(zero)):
                ones[j] += o1 * a[j] + h1 * b[j]
                hashes[j] += o2 * a[j] + h2 * b[j]
        for j in range(len(zero)):
            std[j] += cost[j]
            if not move:
                fast[j] += cost[j]
        if move:                    # one step under fast_assign
            fast[0] += 1

    def form(coefficients):
        return tuple((j, k) for j, k in enumerate(coefficients) if k)

    writes = tuple(
        (n, tuple(piece if type(piece) is str
                  else (piece[0], _lanes(piece[1], piece[2]))
                  for piece in pieces), form(ones))
        for n, (pieces, ones, _) in regs.items() if n)
    return chain[-1][0], sources, form(std), form(fast), writes


def _append(pieces, piece):
    """Append ``piece`` to a register's pieces, joined to a constant
    before it; an empty constant appends nothing."""
    if type(piece) is str and pieces and type(pieces[-1]) is str:
        pieces[-1] += piece
    elif piece:
        pieces.append(piece)


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
    return _image(text, _WRITE)


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
    return TrmProgram(_checked(p).raw + _checked(q).raw)


def trm_moss_qhat(p):
    """The Moss generator for a two-input program p.

    On an encoded program r in R1 it emits
        move(1,4) + (write_code(r) + r) + move(4,2) + p
    i.e. a program that stashes its input, computes r on its own text
    into R1, restores the input into R2, and runs p.
    """
    return _program(_qhat_head() + write_code(_checked(p).raw))


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
    p_tilde = _p_tilde_head() + _checked(p).raw
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
    k = len(_checked(pstar).instrs) - len(_checked(p).instrs)
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

    ``inputs`` is a list or tuple of str over {1,#}; anything else raises
    ``TypeError``, and a character outside {1,#} ``ValueError``.

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
    blocks, names = _checked(program)._summaries()
    if not isinstance(inputs, (list, tuple)):
        raise TypeError("inputs must be a list or tuple of str, "
                        f"not {type(inputs).__name__}")
    named = names.union(range(len(inputs) + 1))     # R0 is always empty
    regs = [None] * (max(named) + 1)    # no deque for a register never named
    for n in named:
        regs[n] = deque()
    ones = [0] * len(regs)              # the count of 1s in each register
    for n, text in enumerate(inputs, 1):
        if type(text) is not str:
            raise TypeError(f"inputs must be str, not {type(text).__name__}")
        ones[n] = text.count("1")
        if ones[n] + text.count("#") != len(text):
            raise ValueError("register contents must be over {1,#}")
        if text:
            regs[n].append(text)
    chains = program._chains        # None on the first run: no chains
    if chains is None:
        program._chains = _Chains(blocks)
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
            chain = None if chains is None else chains[pc, mark]
            if chain is not None:
                end, sources, std, fast_cost, writes = chain
                texts = []
                counts = [1]
                for s in sources:
                    text = "".join(regs[s])
                    texts.append(text)
                    a = ones[s]
                    counts.append(a)
                    counts.append(len(text) - a)
                cost = 0
                for i, k in fast_cost if fast else std:
                    cost += k * counts[i]
                if cost <= fuel - steps:
                    steps += cost
                    pc = end
                    for n, parts, form in writes:
                        text = "".join([
                            part if type(part) is str
                            else _image(texts[part[0]], part[1])
                            for part in parts])
                        reg = regs[n]
                        reg.clear()
                        if text:
                            reg.append(text)
                        c = 0
                        for i, k in form:
                            c += k * counts[i]
                        ones[n] = c
                    continue
                chains = None       # the fuel runs out inside this chain
            end, r, base, per_one, per_hash, outs, move = block
            atomic = fast and move
            if end <= mark or atomic:
                text = "".join(regs[r])     # R0, always empty, for a write run
                a = ones[r]
                b = len(text) - a
                cost = 1 if atomic else base + per_one * a + per_hash * b
                if cost <= fuel - steps:
                    steps += cost
                    pc = end
                    regs[r].clear()
                    ones[r] = 0
                    for n, const, c, lanes, o1, h1 in outs:
                        add = const + _image(text, lanes)
                        if add:                 # no empty chunk
                            regs[n].append(add)
                            ones[n] += c + a * o1 + b * h1
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
                if len(chunk) > 1:  # split once: no run goes quadratic
                    reg.extendleft(reversed(chunk[1:]))
                    chunk = chunk[0]
                if chunk == "1":
                    ones[n] -= 1
                    pc += 2
                else:
                    pc += 3
        elif op == 4:
            pc -= n
        elif op == 3:
            pc += n
        elif op == 1:
            regs[n].append("1")
            ones[n] += 1
            pc += 1
        else:
            regs[n].append("#")
            pc += 1
    registers = {k: "".join(v) for k, v in enumerate(regs) if v}
    output = registers.get(1, "")
    return TrmResult(output, steps, status, setup, registers)
