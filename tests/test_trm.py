import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from srtlab.trm import (
    TrmParseError, TrmProgram, TrmResult, _chain, _image, _lanes, _loop,
    setup_boundary, trm_compose, trm_diag_program, trm_erase,
    trm_kleene_fixpoint, trm_move, trm_moss_fixpoint, trm_moss_qhat,
    trm_parse, trm_print, trm_run, trm_s11_program, trm_write_program,
    write_code,
)

from reference import ref_run, ref_scan

FUEL = 10**6


def rand_string(rng, max_len=8):
    return "".join(rng.choice("1#") for _ in range(rng.randint(0, max_len)))


def safe_program(rng, pieces=3):
    parts = []
    for _ in range(rng.randint(1, pieces)):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample([1, 2, 3, 4], 2)
            parts.append(trm_move(i, j).raw)
        elif kind == 1:
            parts.append(write_code(rand_string(rng)))
        else:
            parts.append(trm_erase(rng.randint(1, 3)).raw)
    return trm_parse("".join(parts))


def test_single_instructions():
    assert trm_parse("1#").instrs == ((1, 1),)
    assert trm_parse("11##").instrs == ((2, 2),)
    assert trm_parse("1###").instrs == ((3, 1),)
    assert trm_parse("11####").instrs == ((4, 2),)
    assert trm_parse("111#####").instrs == ((5, 3),)


def test_append_one_step():
    r = trm_run(trm_parse("1#"), [""], 10)
    assert (r.output, r.steps, r.status) == ("1", 1, "halted")


@pytest.mark.parametrize("raw,fragment", [
    ("#1", "start with 1s"),
    ("11", "lacks #s"),
    ("1######", "too many"),
    ("1# 1#", "illegal character"),
])
def test_parse_errors(raw, fragment):
    with pytest.raises(TrmParseError) as info:
        trm_parse(raw)
    assert fragment in str(info.value)


def test_round_trip_on_generated_programs():
    rng = random.Random(61)
    for _ in range(30):
        p = safe_program(rng)
        assert trm_print(trm_parse(p.raw)) == p.raw


def test_abnormal_halt_on_wild_jump():
    r = trm_run(trm_parse("111###"), [""], 10)   # jump far past the end
    assert r.status == "abnormal_halt"
    r2 = trm_run(trm_parse("11####"), [""], 10)  # jump before instruction 1
    assert r2.status == "abnormal_halt"


def test_move_semantics():
    rng = random.Random(67)
    for _ in range(20):
        a, b = rand_string(rng), rand_string(rng)
        r = trm_run(trm_move(1, 2), [a, b], FUEL)
        assert r.status == "halted"
        assert r.output == ""
        assert r.registers.get(2, "") == b + a


def test_move_cost_tracks_moved_length():
    text = "1#1"
    r = trm_run(trm_move(1, 2), [text], FUEL)
    # two '1' symbols cost 4 each, one '#' costs 3, exit costs 2
    assert r.steps == 4 + 4 + 3 + 2


def test_write_program_oracle():
    rng = random.Random(71)
    W = trm_write_program()
    for _ in range(20):
        x = rand_string(rng, 12)
        emitted = trm_run(W, [x], FUEL)
        assert emitted.status == "halted"
        assert emitted.output == write_code(x)
        assert len(emitted.output) <= 3 * len(x)
        replay = trm_run(trm_parse(emitted.output), [], FUEL)
        assert replay.output == x


def test_write_example():
    assert write_code("1#") == "1#1##"
    r = trm_run(trm_parse("1#1##"), [], FUEL)
    assert r.output == "1#"


@pytest.mark.parametrize("text", ["a", "1#2", " ", "1\n", "#1#é", "0"])
def test_write_code_rejects_other_characters(text):
    with pytest.raises(ValueError, match=r"over \{1,#\}"):
        write_code(text)


#: Every text over {1,#} of length at most 3, "" included.
IMAGES = ["".join(symbols) for size in range(4)
          for symbols in itertools.product("1#", repeat=size)]


def long_text(size_and_seed):
    size, seed = size_and_seed
    rng = random.Random(seed)
    return "".join(rng.choice("1#") for _ in range(size))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=st.text("1#", max_size=24)
       | st.tuples(st.integers(25, 3000), st.integers(0, 2**32)).map(long_text))
@example(text="")
@example(text="1" * 3000)
@example(text="#" * 2999)
def test_image_replaces_each_symbol_by_its_image(text):
    for one, hash_ in itertools.product(IMAGES, repeat=2):
        expected = "".join(map({"1": one, "#": hash_}.__getitem__, text))
        assert _image(text, _lanes(one, hash_)) == expected


def test_write_cost_is_linear():
    W = trm_write_program()
    per_symbol = []
    for n in (20, 200, 2000):
        x = "1#" * (n // 2)
        r = trm_run(W, [x], 10**7)
        per_symbol.append(r.steps / n)
    assert max(per_symbol) / min(per_symbol) < 1.1


def test_diag_oracle():
    rng = random.Random(73)
    G = trm_diag_program()
    for _ in range(10):
        r = safe_program(rng)
        d_r = trm_run(G, [r.raw], FUEL)
        assert d_r.status == "halted"
        lhs = trm_run(trm_parse(d_r.output), [], FUEL)
        rhs = trm_run(r, [r.raw], FUEL)
        assert (lhs.status, lhs.output) == (rhs.status, rhs.output)


def test_diag_self_application_reproduces_itself():
    G = trm_diag_program()
    self_text = trm_run(G, [G.raw], FUEL).output
    again = trm_run(trm_parse(self_text), [], FUEL)
    assert again.output == self_text


def test_s11_oracle():
    rng = random.Random(79)
    s11 = trm_s11_program()
    two_input = [trm_move(2, 1),                          # s ++ d
                 trm_compose(trm_erase(1), trm_move(2, 1)),  # d
                 trm_parse("")]                           # s
    for _ in range(10):
        p = rng.choice(two_input)
        s, d = rand_string(rng), rand_string(rng)
        residual = trm_run(s11, [p.raw, s], FUEL)
        assert residual.status == "halted"
        lhs = trm_run(trm_parse(residual.output), [d], FUEL)
        rhs = trm_run(p, [s, d], FUEL)
        assert (lhs.status, lhs.output) == (rhs.status, rhs.output)


def test_s11_output_shape():
    s11 = trm_s11_program()
    p = trm_move(2, 1)
    out = trm_run(s11, [p.raw, "1#"], FUEL).output
    assert out == trm_move(1, 2).raw + write_code("1#") + p.raw


def test_composition_is_concatenation():
    rng = random.Random(83)
    for _ in range(20):
        p, q = safe_program(rng), safe_program(rng)
        x = rand_string(rng)
        pr = trm_run(p, [x], FUEL)
        assert pr.status == "halted"
        seq_result = trm_run(q, [pr.output], FUEL)
        composed = trm_run(trm_compose(p, q), [x], FUEL)
        assert (composed.status, composed.output) == \
            (seq_result.status, seq_result.output)


def test_moves_compose_to_a_round_trip():
    rng = random.Random(89)
    p = trm_compose(trm_move(1, 2), trm_move(2, 1))
    for _ in range(3):
        x = rand_string(rng)
        r = trm_run(p, [x], FUEL)
        assert r.output == x


BASES = [
    ("proj1", trm_parse("")),
    ("proj2", trm_compose(trm_erase(1), trm_move(2, 1))),
    ("concat", trm_move(2, 1)),
]


@pytest.mark.parametrize("name,base", BASES)
@pytest.mark.parametrize("method,fix", [
    ("moss", trm_moss_fixpoint), ("kleene", trm_kleene_fixpoint),
])
def test_srt_equation(name, base, method, fix):
    pstar = fix(base)
    for d in ("", "1", "1##1#"):
        lhs = trm_run(pstar, [d], FUEL)
        rhs = trm_run(base, [pstar.raw, d], FUEL)
        assert (lhs.status, lhs.output) == (rhs.status, rhs.output)


def test_moss_fixpoint_of_the_first_projection_is_a_quine():
    pstar = trm_moss_fixpoint(trm_parse(""))
    r = trm_run(pstar, ["1#1"], FUEL)
    assert r.output == pstar.raw


def test_qhat_output_matches_the_advertised_shape():
    p = trm_move(2, 1)
    qhat = trm_moss_qhat(p)
    r = trm_run(qhat, [qhat.raw], FUEL)
    expected_prefix = trm_move(1, 4).raw + write_code(qhat.raw) + qhat.raw
    assert r.output == expected_prefix + trm_move(4, 2).raw + p.raw


def test_setup_boundary_splits_the_run():
    base = trm_compose(trm_erase(1), trm_move(2, 1))
    pstar = trm_moss_fixpoint(base)
    b = setup_boundary(pstar, base)
    r = trm_run(pstar, ["1#"], FUEL, boundary=b)
    assert r.setup_steps is not None
    assert 0 < r.setup_steps < r.steps


@pytest.mark.parametrize("boundary, name", [
    ("x", "str"), (1.5, "float"), (True, "bool"), (False, "bool"), ([3], "list"),
], ids=["str", "float", "true", "false", "list"])
def test_boundary_is_none_or_an_int(boundary, name):
    # checked before any step, as fuel is; a bool is no boundary either
    with pytest.raises(TypeError) as info:
        trm_run(trm_parse("1#1#1#"), [], FUEL, boundary=boundary)
    assert str(info.value) == f"boundary must be an int or None, not {name}"
    for good, setup in [(None, None), (-5, 0), (0, 0), (2, 1), (10**30, None)]:
        assert trm_run(trm_parse("1#1#1#"), [], FUEL, boundary=good).setup_steps \
            == setup


def test_setup_boundary_requires_a_suffix():
    with pytest.raises(ValueError):
        setup_boundary(trm_move(1, 2), trm_move(2, 1))


def test_fast_assign_same_outputs_fewer_steps():
    rng = random.Random(97)
    cases = [(safe_program(rng), [rand_string(rng)]) for _ in range(10)]
    pstar = trm_moss_fixpoint(trm_parse(""))
    cases.append((pstar, ["1#"]))
    for program, args in cases:
        slow = trm_run(program, args, FUEL)
        fast = trm_run(program, args, FUEL, variant="fast_assign")
        assert (slow.status, slow.output) == (fast.status, fast.output)
        assert fast.steps <= slow.steps
    fast = trm_run(pstar, ["1#"], FUEL, variant="fast_assign")
    slow = trm_run(pstar, ["1#"], FUEL)
    assert slow.steps / fast.steps >= 1.3


def test_fast_assign_move_block_is_one_step():
    r = trm_run(trm_move(1, 2), ["1#1"], FUEL, variant="fast_assign")
    assert r.steps == 1
    assert r.registers.get(2, "") == "1#1"


def test_inputs_validated():
    with pytest.raises(ValueError):
        trm_run(trm_parse("1#"), ["abc"], 10)


@pytest.mark.parametrize("call", [
    lambda: trm_run("1#", []),
    lambda: trm_moss_fixpoint(5),
    lambda: trm_kleene_fixpoint("1#"),
    lambda: trm_moss_qhat(5),
    lambda: setup_boundary("1#", "1#"),
    lambda: trm_compose("1#", "1#"),
    lambda: trm_compose(trm_parse("1#"), None),
    lambda: trm_print("1#"),
], ids=["run", "moss", "kleene", "qhat", "boundary", "compose", "compose-q",
        "print"])
def test_a_non_program_is_rejected_with_type_error(call):
    with pytest.raises(TypeError, match="expected a TrmProgram, not"):
        call()


@pytest.mark.parametrize("inputs", [
    "1#", b"1#", None, 5, {"1": "#"}, ["1", 1], ("#", None), [b"1"],
], ids=repr)
def test_inputs_are_a_list_or_tuple_of_str(inputs):
    with pytest.raises(TypeError, match="inputs must be"):
        trm_run(trm_parse("1#"), inputs, 10)
    assert trm_run(trm_parse("1#"), ("1", "#"), 10).registers == \
        {1: "11", 2: "#"}


# ---------------------------------------------------------------------------
# the tokeniser against ``ref_scan``, one character at a time

def test_tokeniser_matches_the_reference_scanner():
    rng = random.Random(107)
    seen = set()
    for _ in range(4000):
        alphabet = rng.choice(["1#", "1#", "1##", "1#x"])
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        expected = ref_scan(raw)
        try:
            got = TrmProgram(raw).instrs
        except TrmParseError as err:
            got = str(err).rsplit(" (at offset ", 1)[0], err.offset
            assert str(err) == f"{got[0]} (at offset {got[1]})"
        assert got == expected, raw
        seen.add(got[0] if got and isinstance(got[0], str) else "ok")
        bad = any(ch not in "1#" for ch in raw)
        try:
            trm_run(trm_parse(""), ["", raw], 1)
        except ValueError as err:
            assert bad and str(err) == "register contents must be over {1,#}"
        else:
            assert not bad
    assert len(seen) == 5
    assert "illegal character 'x'" in seen


# ---------------------------------------------------------------------------
# differential oracle: ``ref_run``, one instruction at a time

def assert_agrees(program, inputs, fuel, variant, boundary):
    r = trm_run(program, inputs, fuel, variant=variant, boundary=boundary)
    got = (r.status, r.steps, r.setup_steps, r.registers)
    assert got == ref_run(program.raw, inputs, fuel, variant, boundary), \
        (program.raw, inputs, fuel, variant, boundary)
    assert r.output == r.registers.get(1, "")
    return r


def random_program(rng):
    """Toolkit blocks (moves up to register 9) mixed with wild instructions
    that can jump into a block, out of the program, or loop forever."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample(range(1, 10), 2)
            parts.append(trm_move(i, j).raw)
        elif kind == 1:
            parts.append(trm_erase(rng.randint(1, 3)).raw)
        elif kind == 2:
            parts.append(write_code(rand_string(rng, 4)))
        else:
            parts.append("1" * rng.randint(1, 9) + "#" * rng.randint(1, 5))
    return trm_parse("".join(parts))


VARIANTS = ("standard", "fast_assign")


def test_oracle_at_every_fuel_on_safe_programs():
    rng = random.Random(101)
    for _ in range(25):
        program = safe_program(rng)
        inputs = [rand_string(rng) for _ in range(rng.randint(0, 4))]
        boundary = rng.randint(1, len(program) + 1)
        for variant in VARIANTS:
            full = trm_run(program, inputs, FUEL, variant=variant)
            assert full.status == "halted"
            for fuel in range(1, full.steps + 2):
                for b in (None, boundary):
                    assert_agrees(program, inputs, fuel, variant, b)


#: Abnormal halts: back to instruction 0, back before it, forward past
#: the end, and a case that skips past the end on a leading #.
ABNORMAL = ["1####", "1#11####", "111###", "1#####", "1##1#####1#"]


def test_oracle_at_every_fuel_on_wild_programs():
    rng = random.Random(103)
    cases = [(trm_parse(raw), ["#1"]) for raw in ABNORMAL]
    for _ in range(60):
        cases.append((random_program(rng),
                      [rand_string(rng) for _ in range(rng.randint(0, 3))]))
    statuses = set()
    for program, inputs in cases:
        boundary = rng.randint(0, len(program) + 2)
        for variant in VARIANTS:
            r = trm_run(program, inputs, 300, variant=variant)
            statuses.add(r.status)
            for fuel in range(1, min(r.steps, 299) + 2):
                for b in (None, boundary):
                    assert_agrees(program, inputs, fuel, variant, b)
    assert statuses == {"halted", "abnormal_halt", "fuel_exhausted"}


@pytest.mark.parametrize("name,base", BASES)
@pytest.mark.parametrize("fix", [trm_moss_fixpoint, trm_kleene_fixpoint])
def test_oracle_at_sampled_fuels_on_fixpoints(name, base, fix):
    rng = random.Random(f"{name}-{fix.__name__}")
    pstar = fix(base)
    boundary = setup_boundary(pstar, base)
    data = [rand_string(rng, 12)]
    for variant in VARIANTS:
        full = assert_agrees(pstar, data, FUEL, variant, boundary)
        assert full.status == "halted" and full.setup_steps is not None
        fuels = [1, full.steps, full.steps + 1] + \
            [rng.randint(1, full.steps) for _ in range(3)]
        for fuel in fuels:
            for b in (None, boundary):
                assert_agrees(pstar, data, fuel, variant, b)


def test_fast_assign_leaves_moves_past_register_8_alone():
    program = trm_move(9, 10)
    standard = trm_run(program, ["", "", "", "", "", "", "", "", "1#1"], FUEL)
    fast = assert_agrees(program, ["", "", "", "", "", "", "", "", "1#1"],
                         FUEL, "fast_assign", None)
    assert fast.steps == standard.steps == 4 + 4 + 3 + 2
    assert fast.registers == {10: "1#1"}


# ---------------------------------------------------------------------------
# summed-up loops and write runs against the reference runner

def ins(op, n):
    return "1" * n + "#" * op


#: Loops of the toolkit's shape: the move, emit, dup and copy bodies, a
#: body writing to three registers, an empty body on either side, a swap
#: (1 -> #, # -> 1), and multi-symbol images into two registers.
LOOPS = [
    _loop(1, ins(2, 2), ins(1, 2)),
    _loop(1, ins(1, 2) + ins(2, 2) + ins(2, 2), ins(1, 2) + ins(2, 2)),
    _loop(1, ins(1, 2) + ins(2, 2) + ins(2, 2) + ins(2, 3),
          ins(1, 2) + ins(2, 2) + ins(1, 3)),
    _loop(1, ins(2, 2) + ins(2, 3), ins(1, 2) + ins(1, 3)),
    _loop(2, ins(1, 3) + ins(2, 1) + ins(1, 4), ""),
    _loop(3, "", ins(2, 1) + ins(2, 1)),
    _loop(1, ins(1, 2), ins(2, 2)),
    _loop(1, ins(1, 2) + ins(2, 3) + ins(2, 2) + ins(1, 3),
          ins(2, 2) + ins(1, 3) + ins(2, 2) + ins(1, 3) + ins(2, 3)),
]


def test_every_loop_is_summed_up():
    for loop in LOOPS:
        assert 1 in trm_parse(loop)._summaries()[0]


def agree_at_every_fuel(program, inputs, boundaries, limit=FUEL):
    """Compare with ``ref_run`` at every fuel up to the end of the run."""
    for variant in VARIANTS:
        full = trm_run(program, inputs, limit, variant=variant)
        for fuel in range(1, min(full.steps, limit - 1) + 2):
            for b in boundaries:
                assert_agrees(program, inputs, fuel, variant, b)
    return full


def test_oracle_at_every_fuel_on_long_loops():
    rng = random.Random(109)
    for loop in LOOPS + [trm_erase(1).raw]:
        program = trm_parse(write_code(rand_string(rng, 6)) + loop
                            + write_code(rand_string(rng, 6)))
        for size in (64, rng.randint(0, 64)):
            inputs = ["".join(rng.choice("1#") for _ in range(size))
                      for _ in range(3)]
            boundary = rng.randint(1, len(program) + 1)
            full = agree_at_every_fuel(program, inputs, (None, boundary))
            assert full.status == "halted"


def test_oracle_with_a_boundary_inside_a_block():
    dup = LOOPS[2]                    # hash body at pcs 4-7, one body 9-11
    program = trm_parse(dup + write_code("1#1#1"))     # write run 14-18
    for boundary in (2, 5, 8, 10, 13, 14, 16, 18, 19):
        agree_at_every_fuel(program, ["#11##1#1", "1", ""], (boundary,))


def test_oracle_after_a_wild_jump_into_a_block():
    into_loop = trm_parse(ins(3, 4) + LOOPS[0])        # lands in on_hash
    into_run = trm_parse(ins(3, 3) + write_code("1#1#1") + LOOPS[1])
    for program in (into_loop, into_run):
        for boundary in (None, 3, 5):
            agree_at_every_fuel(program, ["1##1#", "#"], (boundary,))


def test_a_loop_appending_to_its_own_register_is_stepped():
    program = trm_parse(_loop(1, ins(2, 1), ins(1, 2)))
    blocks, _ = program._summaries()
    assert 1 not in blocks
    full = agree_at_every_fuel(program, ["1#1"], (None, 4), limit=300)
    assert full.status == "fuel_exhausted"


# ---------------------------------------------------------------------------
# registers held as text chunks: a stepped case splits a chunk it reads

def probe(r, dst):
    """A stepped case on R_r that records what it saw in R_dst: nothing
    when empty, '1#' on a 1 and '#' on a #.  Never a summed-up block."""
    return ins(5, r) + ins(3, 3) + ins(1, dst) + ins(2, dst)


def test_a_stepped_case_between_two_summed_up_moves():
    program = trm_parse(LOOPS[0] + probe(2, 3) + trm_move(2, 1).raw)
    blocks, _ = program._summaries()
    assert sorted(blocks) == [1, 10, 12]    # move, probe's write run, move
    for data in ("", "1", "#", "1##1#", "#1#11#1#1##"):
        full = agree_at_every_fuel(program, [data], (None, 8, 11))
        assert full.status == "halted"
        expected = {1: data[1:], 3: {"": "", "1": "1#", "#": "#"}[data[:1]]}
        assert full.registers == {k: v for k, v in expected.items() if v}


def test_a_stepped_case_on_a_long_input_register():
    # pop R1 one symbol at a time, copying its 1s to R2 and dropping its #s
    program = trm_parse(ins(5, 1) + ins(3, 3) + ins(1, 2) + ins(4, 3))
    assert program._summaries()[0] == {}
    rng = random.Random(113)
    data = "".join(rng.choice("1#") for _ in range(100))
    full = agree_at_every_fuel(program, [data, "#"], (None, 3))
    assert full.status == "halted"
    assert full.registers == {2: "#" + "1" * data.count("1")}


def test_an_empty_translation_leaves_its_target_empty():
    # LOOPS[4] appends only on #, so on an all-1 R2 it adds nothing to R3
    program = trm_parse(LOOPS[4] + probe(3, 5))
    for inputs in (["", "1111"], ["#", "111", ""], ["", "1#1"]):
        full = agree_at_every_fuel(program, inputs, (None, 9))
        assert full.status == "halted"
        assert (5 in full.registers) == ("#" in inputs[1])


def stepped_appends(n, symbols):
    """Append ``symbols`` to R_n one stepped instruction each: a forward
    jump of one after each append keeps it out of a write run."""
    return "".join(ins(1 if c == "1" else 2, n) + ins(3, 1) for c in symbols)


#: Each program changes a register's count of 1s one way, then prices a
#: summed-up loop on that register: stepped cases that consume 1s (from
#: a longer chunk, then from one-symbol chunks), stepped appends, a write
#: run, a loop's or an erase's clear followed by appends, and a loop's
#: images read by the next loop.
COUNTED = [
    probe(1, 3) + probe(1, 3) + probe(1, 3) + trm_move(1, 2).raw,
    stepped_appends(1, "1#11") + trm_move(1, 2).raw,
    write_code("11#1") + LOOPS[2] + trm_move(3, 1).raw,
    trm_move(1, 2).raw + stepped_appends(1, "11#") + trm_move(1, 3).raw,
    trm_erase(1).raw + stepped_appends(1, "1#1") + trm_move(1, 3).raw,
    LOOPS[1] + trm_move(2, 3).raw + LOOPS[7] + trm_move(2, 1).raw
    + trm_move(3, 1).raw,
    probe(2, 4) + LOOPS[4] + probe(3, 5) + trm_move(3, 1).raw,
]


@pytest.mark.parametrize("index", range(len(COUNTED)))
def test_summed_up_loops_after_each_change_to_a_count(index):
    program = trm_parse(COUNTED[index])
    for data in ("", "1", "#", "11#1", "1#1##11", "#111#1"):
        full = agree_at_every_fuel(program, [data, data[::-1], "1"],
                                   (None, len(program) // 2))
        assert full.status == "halted"


# ---------------------------------------------------------------------------
# chains: from a program's second run on, each straight-line chain of
# summed-up blocks is applied as one transformer of the registers

def both_paths_agree(raw, inputs, fuel, variant, boundary):
    """Run a fresh program twice, first on the block path and then on
    chains, and compare each run with ``ref_run``."""
    program = trm_parse(raw)
    want = ref_run(raw, inputs, fuel, variant, boundary)
    for path in ("blocks", "chains"):
        r = trm_run(program, inputs, fuel, variant=variant, boundary=boundary)
        got = (r.status, r.steps, r.setup_steps, r.registers)
        assert got == want, (path, raw, inputs, fuel, variant, boundary)
        if path == "blocks":
            assert program._chains == {}
    return program


#: Programs whose blocks chain: the write program twice (write_code of
#: write_code, so two images compose), the specialiser, the
#: diagonaliser, images into two registers of which one is emitted
#: again, an erase between two write runs, and a chain cut short by a
#: stepped case.
CHAINED = [
    (trm_write_program().raw * 2, ["1#1"]),
    (trm_s11_program().raw, ["1#", "#1"]),
    (trm_diag_program().raw, ["1##"]),
    (LOOPS[7] + trm_move(2, 1).raw + LOOPS[1] + trm_move(3, 4).raw, ["#1"]),
    (write_code("1#1") + trm_erase(1).raw + write_code("#") + LOOPS[0]
     + trm_move(2, 1).raw, ["1#", "#"]),
    (LOOPS[0] + probe(2, 3) + trm_move(2, 1).raw + LOOPS[3], ["1##1"]),
]


@pytest.mark.parametrize("index", range(len(CHAINED)))
def test_chains_agree_with_the_reference_at_every_fuel(index):
    raw, inputs = CHAINED[index]
    blocks = sorted(trm_parse(raw)._summaries()[0])
    # boundaries that cut the chain between two blocks and inside one
    boundaries = (None, blocks[1], blocks[-1] + 1)
    for variant in VARIANTS:
        steps = trm_run(trm_parse(raw), inputs, FUEL, variant=variant).steps
        for boundary in boundaries:
            for fuel in [*range(1, steps + 2), FUEL]:
                program = both_paths_agree(raw, inputs, fuel, variant,
                                           boundary)
            assert any(program._chains.values())    # a chain was composed


@pytest.mark.parametrize("name,base", BASES)
@pytest.mark.parametrize("fix", [trm_moss_fixpoint, trm_kleene_fixpoint])
def test_chains_agree_with_the_reference_on_fixpoints(name, base, fix):
    raw = fix(base).raw
    boundary = setup_boundary(trm_parse(raw), base)
    rng = random.Random(f"chains-{name}-{fix.__name__}")
    data = [rand_string(rng, 12)]
    for variant in VARIANTS:
        full = trm_run(trm_parse(raw), data, FUEL, variant=variant,
                       boundary=boundary)
        setup, steps = full.setup_steps, full.steps
        # the set-up chain does not fit, just fits, and fits with a step
        # to spare; so does the whole run
        fuels = {1, setup - 1, setup, setup + 1, steps - 1, steps, steps + 1,
                 rng.randint(1, steps), FUEL}
        for fuel in sorted(fuels):
            for b in (None, boundary):
                program = both_paths_agree(raw, data, fuel, variant, b)
        chains = dict(program._chains)
        assert chains[1, boundary] is not None
        trm_run(program, data, FUEL, variant=variant, boundary=boundary)
        assert all(program._chains[key] is chain
                   for key, chain in chains.items())   # composed once


#: A stepped loop over R3 whose body is the chain write run to R2 +
#: move(2,1): R1 is only ever appended to, so no chain reads it.
APPENDING = _loop(3, "11#11#" + trm_move(2, 1).raw,
                  "11#11#" + trm_move(2, 1).raw)


def test_a_chain_that_only_appends_to_a_register_does_not_read_it():
    body = trm_parse(APPENDING)._summaries()[0]
    assert sorted(body) == [4, 6, 14, 16]     # write run, move; twice
    sources = set()
    for data in ("", "1", "#1", "1#11#", "##1#1"):
        inputs = ["#1", "", data]
        for variant in VARIANTS:
            steps = ref_run(APPENDING, inputs, FUEL, variant)[1]
            for boundary in (None, 6, 9):
                for fuel in range(1, steps + 2):
                    program = both_paths_agree(APPENDING, inputs, fuel,
                                               variant, boundary)
                    sources.update(chain[1] for chain
                                   in program._chains.values() if chain)
    assert sources == {(2,)}


@pytest.mark.parametrize("name,base", BASES)
def test_each_block_is_the_chain_of_itself_alone(name, base):
    programs = [trm_move(1, 2), trm_move(9, 3), trm_erase(2),
                trm_write_program(), trm_diag_program(), trm_s11_program(),
                trm_moss_fixpoint(base), trm_kleene_fixpoint(base),
                *map(trm_parse, LOOPS)]
    for program in programs:
        blocks = program._summaries()[0]
        assert blocks
        for block in blocks.values():
            assert _chain([block]) == block


# ---------------------------------------------------------------------------
# property: the runner against the reference on generated programs

wild_instructions = st.builds(lambda n, k: "1" * n + "#" * k,
                              st.integers(1, 9), st.integers(1, 5))
toolkit_blocks = st.one_of(
    st.sampled_from(LOOPS),
    st.lists(st.integers(1, 9), min_size=2, max_size=2, unique=True).map(
        lambda ij: trm_move(*ij).raw),
    st.integers(1, 3).map(lambda i: trm_erase(i).raw),
    st.text("1#", max_size=4).map(write_code),
)
symbols = st.text("1#", max_size=12)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.one_of(toolkit_blocks, wild_instructions),
                      min_size=1, max_size=4),
       inputs=st.lists(symbols, max_size=3),
       fuel=st.integers(1, 300),
       variant=st.sampled_from(VARIANTS),
       boundary=st.none() | st.integers(0, 40))
def agrees_on_generated_programs(statuses, parts, inputs, fuel, variant,
                                 boundary):
    program = trm_parse("".join(parts))
    statuses.add(assert_agrees(program, inputs, fuel, variant, boundary).status)


def test_runner_matches_the_reference_on_generated_programs():
    statuses = set()
    agrees_on_generated_programs(statuses)
    assert statuses == {"halted", "abnormal_halt", "fuel_exhausted"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(blocks=st.lists(toolkit_blocks, max_size=4), data=symbols)
def test_fixpoints_of_generated_bases_obey_the_srt_equation(blocks, data):
    # each toolkit block halts, and images may multiply a register's length
    # by each block, so the fuel is large; summed-up blocks make it cheap
    base = trm_parse("".join(blocks))
    for fix in (trm_moss_fixpoint, trm_kleene_fixpoint):
        pstar = fix(base)
        for variant in VARIANTS:
            lhs = trm_run(pstar, [data], 10**9, variant=variant)
            rhs = trm_run(base, [pstar.raw, data], 10**9, variant=variant)
            assert lhs.status == rhs.status == TrmResult.HALTED
            assert lhs.output == rhs.output


def test_fixpoints_build_for_a_base_of_any_size():
    # at about 116 (Moss) and 41 (Kleene) steps per base symbol, a fuel of
    # 10^7 would cap the base at about 86k and 244k symbols
    base = trm_parse(trm_move(2, 1).raw * 6700)
    assert len(base.raw) == 301500
    for fix in (trm_moss_fixpoint, trm_kleene_fixpoint):
        assert setup_boundary(fix(base), base) > 1    # base is a suffix


# ---------------------------------------------------------------------------
# generated programs, looked up by their text

@pytest.mark.parametrize("name,base", BASES)
def test_generated_programs_equal_the_whole_text_parse(name, base):
    for program in (trm_moss_qhat(base), trm_moss_fixpoint(base),
                    trm_kleene_fixpoint(base)):
        whole = TrmProgram(program.raw)
        assert (program.instrs, program._summaries()) == \
            (whole.instrs, whole._summaries())


@pytest.mark.parametrize("name,base", BASES)
def test_a_program_built_again_is_not_parsed_again(name, base):
    for build in (trm_moss_qhat, trm_moss_fixpoint, trm_kleene_fixpoint):
        first = build(base)
        blocks = first._summaries()
        again = build(trm_parse(base.raw))
        assert again is first and again._summaries() is blocks


# ---------------------------------------------------------------------------
# golden output: every toolkit and fixpoint text, byte for byte

def test_toolkit_and_fixpoint_texts_are_pinned():
    texts = [trm_move(i, j).raw
             for i in range(1, 9) for j in range(1, 9) if i != j]
    texts += [trm_erase(i).raw for i in range(1, 9)]
    texts += [trm_write_program().raw, trm_diag_program().raw,
              trm_s11_program().raw]
    for _, base in BASES:
        texts += [trm_moss_qhat(base).raw, trm_moss_fixpoint(base).raw,
                  trm_kleene_fixpoint(base).raw]
    assert len(texts) == 76
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest.startswith("cffad0670d4a")
