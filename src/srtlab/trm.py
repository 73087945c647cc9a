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

The runner sums up three static shapes, charging the exact step count
of running them one instruction at a time:

  * a loop of that shape whose bodies of h (on #) and o (on 1) appends
    never name its case register: on a register holding a 1s and b #s
    it costs (o+3)a + (h+2)b + 2 steps, clears the register, and appends
    to each register the bodies name one image of the register's text:
    the text with each 1 and each # replaced by what the bodies append
    to that register on it;
  * ``trm_erase``'s loop, at 2a + 2b + 2 steps, which only clears;
  * a write run of two or more appends: one step each, and no register
    read.

All summed-up code has one form, a register transformer (``_loop_block``
gives the record): it reads some source registers, writes some
registers, each as constant texts and images of the sources' texts at
its start, appended to what the register holds or in its place, and
costs a sum linear in the sources' counts of 1s and #s.  The runner
applies every transformer by one rule, in one iteration.

The table of one-block transformers is built once per program, keyed by
start pc.  A loop's transformer depends only on its own instructions, so
it is cached by them (up to 1024 shapes): every fixpoint repeats the
same few toolkit loops, and a new program's table reuses their images.
The runner steps one instruction at a time instead when a block costs
more than the fuel left, or when it ends past the set-up boundary, so
exhaustion and ``setup_steps`` stay exact.

From a program's second run on, the runner applies each chain of two or
more blocks that follow each other, each ending where the next begins,
as one transformer.  A chain stops at the first pc with no block and
before a block that ends past the boundary.  ``_chain`` composes it,
once per program, start and boundary, by a fold over its blocks.  A
register becomes a source only if a block reads it before any block
clears it, so one that the chain only appends to is never read.  The
self-text that a fixpoint's set-up rebuilds on every run is then built
once.  A chain that costs more than the fuel left falls back to its
first block.  A program's first run composes no chain: a program run
once would pay for composing and gain nothing.

Both fixpoints and ``trm_moss_qhat`` look their program up by its whole
text among the 64 most recently built (``_program``).  A fixpoint built
again from the same base has the same generator and output texts, so it
is neither re-tokenised nor re-tabled; a new base's texts are parsed
whole, and a text that fails to parse raises as ``TrmProgram`` does.

Each register is a deque of non-empty text chunks, with a count of its
1s kept beside it: an input is counted once, as it is checked; a
stepped append of 1 adds one, a stepped case that consumes a 1 takes
one away, and a transformer's write sets it or adds to it by a form
linear in the sources' counts.  So a transformer's cost needs no pass
over the text.  A transformer joins each source once, and appends each
constant or image that a write names as one chunk.  ``_image`` builds an
image from byte lanes: lane j is the j-th character of each symbol's
image, a lane where both images agree is filled in with the rest, and
each other lane is one ``bytes.translate`` of the text written through
an extended slice; a move or copy appends the text itself.  A stepped
append adds a one-symbol chunk.  A stepped case pops one chunk and, if
it is longer than a symbol, pushes the rest back one symbol a chunk, so
each symbol is split out at most once and no run goes quadratic.  No
chunk is empty, so an empty deque is an empty register.

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
        """(blocks, names), built once per program: the summed-up loops,
        erases and write runs keyed by start pc, each a one-block
        transformer (``_loop_block``), and the registers that the
        instructions name.  A write run reads nothing and costs one step
        an append; an erase only clears the register it reads."""
        if self._blocks is None:
            instrs = self.instrs
            ops = bytes(map(itemgetter(0), instrs))
            blocks = {}
            for run in re.finditer(rb"[\x01\x02]{2,}", ops):
                k, end = run.span()
                cost = ((0, end - k),)
                blocks[k + 1] = (end + 1, (), cost, cost, False, tuple([
                    (n, True, (text,),
                     ((0, text.count("1")),) if "1" in text else ())
                    for n, text in sorted(_appends(instrs[k:end]))]))
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
                    r = instrs[k][1]
                    cost = ((0, 2), (1, 2), (2, 2))
                    blocks[k + 1] = (k + 5, (r,), cost, cost, False,
                                     ((r, False, (), ()),))
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
    """The one-block transformer of ``loop``, the instructions of one
    ``_loop`` shape whose bounds the caller has checked, less its end pc;
    or None if a body does more than append or names the case register.

    A transformer (end, sources, std, fast, atomic, writes) is the one
    form of all summed-up code: a block or a chain of them (``_chain``)
    that ends at pc ``end``.  A run joins the text of each source register
    once; A_i and B_i are the counts of 1s and #s in the i-th, and a form
    is ((index, coefficient), ...) over [1, A_0, B_0, A_1, B_1, ...].
    ``std`` and ``fast`` are the forms of the steps it costs under the two
    variants; ``atomic`` marks a single move between registers 1-8, which
    ``fast_assign`` runs as one step.  Each write (n, keep, parts, form)
    sets register n to the join of ``parts``, each a constant text or an
    image (i, lanes) of the i-th source's text (``_image``), and n's count
    of 1s to ``form``; with ``keep`` it appends them to what n holds.

    A loop on register r has the one source r and costs 2 + (o+3)·A_0 +
    (h+2)·B_0 steps: it clears r, and appends to each register that its
    bodies name the image of r's text in which each 1 and each # become
    what the bodies append to that register on it."""
    r = loop[0][1]
    h = loop[2][1] - 2
    o = len(loop) - 5 - h
    on_hash = loop[3:3 + h]
    on_one = loop[4 + h:4 + h + o]
    if (loop[3 + h] != (4, 3 + h) or loop[4 + h + o] != (4, 4 + h + o)
            or any(op > 2 or n == r for op, n in on_hash + on_one)):
        return None
    hashes, ones = dict(_appends(on_hash)), dict(_appends(on_one))
    writes = [(r, False, (), ())]
    for n in hashes.keys() | ones.keys():
        one, hash_ = ones.get(n, ""), hashes.get(n, "")
        writes.append((n, True, ((0, _lanes(one, hash_)),),
                       _form({1: one.count("1"), 2: hash_.count("1")})))
    atomic = (h == o == 1 and on_hash[0][0] == 2 and on_one[0][0] == 1
              and on_hash[0][1] == on_one[0][1] <= 8 and r <= 8)
    std = ((0, 2), (1, o + 3), (2, h + 2))
    return ((r,), std, ((0, 1),) if atomic else std, atomic,
            tuple(sorted(writes)))


def _form(coefficients):
    """The form of a dict of index -> coefficient: its non-zero terms,
    in index order."""
    return tuple((j, k) for j, k in sorted(coefficients.items()) if k)


class _Chains(dict):
    """(start pc, mark) -> the chain of blocks from that pc, composed by
    ``_chain`` the first time it is looked up: the blocks that follow each
    other, each ending where the next begins, up to the first pc with no
    block or before the first block that ends past ``mark``.  None for
    fewer than two blocks."""

    def __init__(self, blocks):
        super().__init__()
        self.blocks = blocks

    def __missing__(self, key):
        pc, mark = key
        chain = []
        block = self.blocks.get(pc)
        while block is not None and block[0] <= mark:
            chain.append(block)
            block = self.blocks.get(block[0])
        self[key] = composed = _chain(chain) if len(chain) > 1 else None
        return composed


def _chain(transformers):
    """The transformers (``_loop_block``), run one after another, as one.

    A fold over them keeps, for each register written so far, whether it
    still starts with the text it held at the chain's start, and the
    pieces that follow: constant texts, and images (i, one, hash_) of the
    i-th source's text at the start, with each 1 replaced by ``one`` and
    each # by ``hash_``.
    A transformer reads a register as its pieces, after the register's
    own text if it still starts with it; only then does the register
    become a source.  So a register that is only appended to is never
    joined, and its write keeps its text.  Each write images the pieces
    it reads, a constant once, here, and a source piece by composing the
    two images; each cost form is rewritten over the sources by counting
    the 1s and #s of the pieces it reads."""
    sources = {}                    # register -> its index as a source
    regs = {}                       # register -> (keeps its text, pieces)
    std, fast = {}, {}
    for _, reads, std_k, fast_k, _, writes in transformers:
        texts = []
        for s in reads:
            keeps, pieces = regs.get(s, (True, []))
            if keeps:
                i = sources.setdefault(s, len(sources))
                pieces = [(i, "1", "#"), *pieces]
            texts.append(pieces)
        counts = [{0: 1}]
        for pieces in texts:
            counts += _tally(pieces, "1"), _tally(pieces, "#")
        for total, form in ((std, std_k), (fast, fast_k)):
            for i, k in form:
                for j, c in counts[i].items():
                    total[j] = total.get(j, 0) + k * c
        for n, keep, parts, _ in writes:
            keeps, pieces = regs.get(n, (True, [])) if keep else (False, [])
            pieces = pieces[:]
            for part in parts:
                if type(part) is str:
                    _append(pieces, part)
                    continue
                i, lanes = part
                for piece in texts[i]:
                    _append(pieces, _image(piece, lanes)
                            if type(piece) is str else
                            (piece[0], _image(piece[1], lanes),
                             _image(piece[2], lanes)))
            regs[n] = keeps, pieces
    writes = tuple(
        (n, keeps, tuple(piece if type(piece) is str
                         else (piece[0], _lanes(piece[1], piece[2]))
                         for piece in pieces), _form(_tally(pieces, "1")))
        for n, (keeps, pieces) in sorted(regs.items()) if pieces or not keeps)
    return (transformers[-1][0], tuple(sources), _form(std), _form(fast),
            len(transformers) == 1 and transformers[0][4], writes)


def _tally(pieces, symbol):
    """The count of ``symbol`` in ``pieces`` (``_chain``), as a dict of
    index -> coefficient over [1, A_0, B_0, A_1, B_1, ...]."""
    counts = {}
    for piece in pieces:
        if type(piece) is str:
            counts[0] = counts.get(0, 0) + piece.count(symbol)
        else:
            i, one, hash_ = piece
            for j, image in ((2 * i + 1, one), (2 * i + 2, hash_)):
                counts[j] = counts.get(j, 0) + image.count(symbol)
    return counts


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


def trm_moss_fixpoint(p):
    """Run the Moss generator on its own text.

    The generator is toolkit loops and write runs: each loop drains a
    finite register, so the run halts, after about 116 steps per symbol
    of p.  It runs with ``sys.maxsize`` as its fuel, so no bound binds
    and the construction is total.
    """
    qhat = trm_moss_qhat(p)
    return _program(trm_run(qhat, [qhat.raw], sys.maxsize).output)


def trm_kleene_fixpoint(p):
    """Kleene's construction: specialise the intermediate program to itself.

    The intermediate program p~ reads (q, d) and computes
    p(s11(q, q), d): stash d in R4, duplicate q, run the specialiser
    body, restore d, run p.  Then p* = run(s11, [p~, p~]).  The
    specialiser's loops each drain a finite register, so that run halts,
    after about 41 steps per symbol of p; it runs with ``sys.maxsize``
    as its fuel, so the construction is total.
    """
    p_tilde = _p_tilde_head() + _checked(p).raw
    return _program(trm_run(trm_s11_program(), [p_tilde, p_tilde],
                            sys.maxsize).output)


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

    A run ends halted (the counter lands one past the last instruction),
    abnormal_halt (anywhere else out of range) or fuel_exhausted
    (``steps`` is then ``fuel``).  The arguments are checked before any
    step runs: ``fuel`` must be an ``int`` (else ``TypeError``; a bool is
    none) and positive (else ``ValueError``); ``boundary`` must be None
    or an ``int`` (else ``TypeError``; a bool is neither); ``variant``
    must be "standard" or "fast_assign" (else ``ValueError``);
    ``program`` must be a ``TrmProgram`` and ``inputs`` a list or tuple
    of str (else ``TypeError``), over {1,#} (else ``ValueError``).

    ``boundary`` (instruction index) marks where the set-up phase ends:
    ``setup_steps`` records the count when control first reaches it.
    Under ``fast_assign`` a move between registers 1-8 is one step and
    atomic, so a move that crosses ``boundary`` is charged to the set-up.
    """
    if type(fuel) is not int:  # a bool is no fuel either
        raise TypeError(f"fuel must be an int, not {type(fuel).__name__}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if boundary is not None and type(boundary) is not int:
        raise TypeError("boundary must be an int or None, "
                        f"not {type(boundary).__name__}")
    if variant not in ("standard", "fast_assign"):
        raise ValueError(f"unknown variant {variant!r}")
    fast = variant == "fast_assign"
    blocks, names = _checked(program)._summaries()
    if not isinstance(inputs, (list, tuple)):
        raise TypeError("inputs must be a list or tuple of str, "
                        f"not {type(inputs).__name__}")
    named = names.union(range(1, len(inputs) + 1))
    regs = [None] * (max(named, default=0) + 1)   # no deque if never named
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
            summed = block if chains is None else chains[pc, mark] or block
            end, sources, std, fast_cost, atomic, writes = summed
            if end <= mark or fast and atomic:
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
                    for n, keep, parts, form in writes:
                        reg = regs[n]
                        if not keep:
                            reg.clear()
                            ones[n] = 0
                        for i, k in form:
                            ones[n] += k * counts[i]
                        for part in parts:
                            text = part if type(part) is str \
                                else _image(texts[part[0]], part[1])
                            if text:        # no empty chunk
                                reg.append(text)
                    continue
                if summed is not block:     # the fuel runs out in this chain:
                    chains = None           # try its first block alone
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
