"""Reference semantics for checking the benchmark's outputs.

Written from the documented semantics alone: it imports nothing from
srtlab.  Values are Python strings (atoms, with ``()`` the empty list)
and 2-tuples (pairs).  Every walker is iterative and the flowchart
evaluator runs on an explicit stack of generators, so no input depth
reaches the Python recursion limit.

* ``read`` / ``show``: s-expression text to and from values.
* ``from_srtlab``, ``print_srtlab``, ``naive_sizes``, ``node_count``:
  srtlab values read through their public fields only (``name``,
  ``head``, ``tail``).
* ``run_flow``: a naive flowchart evaluator over *encoded* programs,
  charging the cost model of the flowchart module docstring: one step
  per assignment, operator application, variable, constant or ``*``
  access and while/if test event, one for the final read of the output
  variable, and one for the dispatch of a native ``univ`` call.
* ``run_trm``: a naive 1# interpreter written from the instruction
  table of the trm module docstring.
"""

from collections import deque

NIL = "()"


class OracleError(Exception):
    """The oracle met a program error or ran out of fuel."""


# ---------------------------------------------------------------------------
# s-expression text

def read(text):
    """Parse one s-expression (list and dotted notation)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    # each frame: [elements, dotted tail or None, saw_dot]
    stack = []
    result = None
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append([[], None, False])
            continue
        if tok == ".":
            stack[-1][2] = True
            continue
        if tok == ")":
            items, tail, _ = stack.pop()
            value = NIL if tail is None else tail
            for item in reversed(items):
                value = (item, value)
        else:
            value = tok
        if not stack:
            result = value
            break
        if stack[-1][2]:
            stack[-1][1] = value
        else:
            stack[-1][0].append(value)
    if result is None or pos != len(tokens):
        raise ValueError("not exactly one s-expression")
    return result


def show(value):
    """Canonical text, as the flowchart docs define it."""
    out = []
    stack = [(value, False)]
    while stack:
        entry = stack.pop()
        if entry is None:
            out.append(")")
            continue
        node, in_tail = entry
        if type(node) is str:
            if not in_tail:
                out.append(node)
            elif node != NIL:
                out.append(" . " + node)
            continue
        out.append(" " if in_tail else "(")
        if not in_tail:
            stack.append(None)
        stack.append((node[1], True))
        stack.append((node[0], False))
    return "".join(out)


def same(a, b):
    """Structural equality."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is str or type(y) is str:
            if x != y:
                return False
            continue
        stack.append((x[0], y[0]))
        stack.append((x[1], y[1]))
    return True


def items(value):
    out = []
    while type(value) is tuple:
        out.append(value[0])
        value = value[1]
    return out


def unary(n):
    value = NIL
    for _ in range(n):
        value = ("1", value)
    return value


def from_srtlab(value):
    """Convert a srtlab value via its public fields, keeping sharing."""
    done = {}
    stack = [(value, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in done:
            continue
        if not hasattr(node, "head"):
            done[key] = node.name
        elif ready:
            done[key] = (done[id(node.head)], done[id(node.tail)])
        else:
            stack.append((node, True))
            stack.append((node.tail, False))
            stack.append((node.head, False))
    return done[id(value)]


def print_srtlab(value):
    """Canonical text of a srtlab value, read through its public fields."""
    out = []
    stack = [(value, False)]
    while stack:
        entry = stack.pop()
        if entry is None:
            out.append(")")
            continue
        node, in_tail = entry
        if not hasattr(node, "head"):
            if not in_tail:
                out.append(node.name)
            elif node.name != NIL:
                out.append(" . " + node.name)
            continue
        out.append(" " if in_tail else "(")
        if not in_tail:
            stack.append(None)
        stack.append((node.tail, True))
        stack.append((node.head, False))
    return "".join(out)


def naive_sizes(value, limit):
    """(tree size, DAG size) of a srtlab value by plain traversal: shared
    nodes count once per visit, then once per object.  None when the
    tree size passes ``limit``."""
    tree = 0
    seen = set()
    stack = [value]
    while stack:
        node = stack.pop()
        tree += 1
        if tree > limit:
            return None
        seen.add(id(node))
        if hasattr(node, "head"):
            stack.append(node.head)
            stack.append(node.tail)
    return tree, len(seen)


def node_count(value):
    """Distinct node objects of a srtlab value, atoms included."""
    seen = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "head"):
            stack.append(node.head)
            stack.append(node.tail)
    return len(seen)


# ---------------------------------------------------------------------------
# flowchart evaluator

class _Frame:
    __slots__ = ("env", "self_text", "reflective", "counter")

    def __init__(self, env, self_text, reflective, counter):
        self.env = env
        self.self_text = self_text
        self.reflective = reflective
        self.counter = counter


class _Counter:
    __slots__ = ("steps", "fuel")

    def __init__(self, fuel):
        self.steps = 0
        self.fuel = fuel

    def tick(self):
        self.steps += 1
        if self.steps > self.fuel:
            raise OracleError("fuel exhausted")


def _program(text, args, counter, reflective):
    inputs, body, output = items(text)
    names = items(inputs)
    if len(names) != len(args):
        raise OracleError("wrong number of arguments")
    frame = _Frame(dict(zip(names, args)), text, reflective, counter)
    yield _command(body, frame)
    counter.tick()
    return frame.env.get(output, NIL)


def _command(cmd, frame):
    tag, *args = items(cmd)
    counter = frame.counter
    if tag == ":=":
        value = yield _expr(args[1], frame)
        counter.tick()
        frame.env[args[0]] = value
    elif tag == ";":
        yield _command(args[0], frame)
        yield _command(args[1], frame)
    elif tag == "while":
        while True:
            counter.tick()
            if (yield _expr(args[0], frame)) == NIL:
                break
            yield _command(args[1], frame)
    elif tag == "if":
        counter.tick()
        test = yield _expr(args[0], frame)
        yield _command(args[2] if test == NIL else args[1], frame)
    else:
        raise OracleError(f"unknown command {tag}")


def _expr(expr, frame):
    counter = frame.counter
    if type(expr) is str:
        counter.tick()
        if expr == "*":
            if not frame.reflective:
                raise OracleError("'*' outside reflective mode")
            return frame.self_text
        return frame.env.get(expr, NIL)
    tag, *args = items(expr)
    if tag == "QUOTE":
        counter.tick()
        return args[0]
    values = []
    for arg in args:
        values.append((yield _expr(arg, frame)))
    if tag == "univ":
        if not frame.reflective:
            raise OracleError("'univ' outside reflective mode")
        counter.tick()
        return (yield _program(values[0], [values[1]], counter, True))
    counter.tick()
    if tag in ("hd", "tl"):
        v = values[0]
        if type(v) is str:
            return NIL
        return v[0] if tag == "hd" else v[1]
    if tag == "cons":
        return (values[0], values[1])
    if tag == "=":
        return "1" if same(values[0], values[1]) else NIL
    if tag == "atom?":
        return "1" if type(values[0]) is str else NIL
    raise OracleError(f"unknown operator {tag}")


def run_flow(program, args, reflective=False, fuel=10**7):
    """Run an encoded program; returns (value, steps) or raises."""
    counter = _Counter(fuel)
    stack = [_program(program, list(args), counter, reflective)]
    sent = None
    while True:
        try:
            request = stack[-1].send(sent)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value, counter.steps
            sent = stop.value
            continue
        stack.append(request)
        sent = None


# ---------------------------------------------------------------------------
# 1# interpreter

def trm_instructions(raw):
    """Split 1^n #^k words into (k, n) pairs."""
    out = []
    i = 0
    while i < len(raw):
        j = i
        while j < len(raw) and raw[j] == "1":
            j += 1
        k = j
        while k < len(raw) and raw[k] == "#":
            k += 1
        if j == i or k == j or k - j > 5:
            raise OracleError(f"bad instruction at offset {i}")
        out.append((k - j, j - i))
        i = k
    return out


def run_trm(raw, inputs, boundary=None, fuel=10**8):
    """Standard 1# run; returns (registers, steps, setup_steps).

    Raises unless the run halts normally (one past the last instruction).
    """
    program = trm_instructions(raw)
    regs = {i: deque(text) for i, text in enumerate(inputs, start=1)}
    pc, steps, setup = 1, 0, None
    while pc != len(program) + 1:
        if boundary is not None and setup is None and pc >= boundary:
            setup = steps
        if not 1 <= pc <= len(program):
            raise OracleError("abnormal halt")
        steps += 1
        if steps > fuel:
            raise OracleError("fuel exhausted")
        hashes, n = program[pc - 1]
        if hashes == 1:
            regs.setdefault(n, deque()).append("1")
            pc += 1
        elif hashes == 2:
            regs.setdefault(n, deque()).append("#")
            pc += 1
        elif hashes == 3:
            pc += n
        elif hashes == 4:
            pc -= n
        else:
            reg = regs.get(n)
            if not reg:
                pc += 1
            else:
                pc += 2 if reg.popleft() == "1" else 3
    if boundary is not None and setup is None:
        setup = steps
    registers = {k: "".join(v) for k, v in regs.items() if v}
    return registers, steps, setup


# ---------------------------------------------------------------------------
# closed forms

REVERSE = ("((x) (; (:= t x) (; (:= out (QUOTE ())) (while t (; (:= out "
           "(cons (hd t) out)) (:= t (tl t)))))) out)")
COUNTDOWN = ("((d) (if d (:= out (cons (QUOTE 1) (univ * (tl d)))) "
             "(:= out (QUOTE ()))) out)")
#: Reflective factorial by repeated addition, written by hand: the
#: recursion is a native univ call on the running program's own text.
FACTORIAL = ("((d) (if d (; (:= sub (univ * (tl d))) (; (:= out (QUOTE ())) "
             "(while d (; (:= j sub) (; (while j (; (:= out (cons (QUOTE 1) "
             "out)) (:= j (tl j)))) (:= d (tl d))))))) (:= out (QUOTE (1)))) "
             "out)")
#: move(1, 2): case on R1; on empty jump past the end, on 1 append 1 to
#: R2, on # append # to R2; loop.
MOVE_1_2 = "1#####111111###111###11##1111####11#111111####"


def self_check():
    """Check both oracles against closed forms; raise on a mismatch."""
    for n in (0, 1, 7, 40):
        data = read("(" + " ".join(f"e{i}" for i in range(n)) + ")")
        value, steps = run_flow(read(REVERSE), [data])
        expect = read("(" + " ".join(f"e{i}" for i in range(n - 1, -1, -1))
                      + ")")
        if not same(value, expect) or steps != 10 * n + 7:
            raise OracleError(f"reverse closed form broken at n={n}")
    for n in (0, 1, 9, 300):
        value, steps = run_flow(read(COUNTDOWN), [unary(n)], reflective=True)
        if not same(value, unary(n)) or steps != 10 * n + 5:
            raise OracleError(f"countdown closed form broken at n={n}")
    factorial = 1
    for n in range(6):
        factorial *= max(n, 1)
        value, _ = run_flow(read(FACTORIAL), [unary(n)], reflective=True)
        if not same(value, unary(factorial)):
            raise OracleError(f"factorial broken at n={n}")
    for text in ("", "1", "#", "1#11#", "##1#1"):
        regs, steps, _ = run_trm(MOVE_1_2, [text])
        ones = text.count("1")
        if regs != ({2: text} if text else {}) or \
                steps != 4 * ones + 3 * (len(text) - ones) + 2:
            raise OracleError(f"1# move closed form broken on {text!r}")
