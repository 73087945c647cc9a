"""srtlab benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload interp --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's seeded ops in a closed loop with one
caller until ``--seconds`` have passed (and at least MIN_OPS ops have
completed), checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Times are calibrated seconds (see calibrate.py);
raw wall-clock figures go to the line before and to bench/out/.
See README.md for the workloads, metrics and reference figures.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import oracle
from spans import NoTracer, Tracer, roots, self_times
from workloads import WORKLOADS, CheckFailed, spec_fails

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 7
#: Enough completed ops to leave ten samples above the 90th percentile.
MIN_OPS = 100
#: Stop starting rounds after this long, whatever MIN_OPS says.
HARD_STOP_S = 120
LAYERS = ("sexpr", "flowchart", "specializer", "selfint", "srt", "trm")


class Lab:
    """srtlab's modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "srtlab" or m.startswith("srtlab.")]:
            del sys.modules[name]
        for name in LAYERS:
            setattr(self, name, importlib.import_module("srtlab." + name))


def _calibrated(fn):
    """Run fn between two kernel slices: (result, calibrated s, raw s)."""
    before = calibrate.kernel_slice()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = calibrate.kernel_slice()
    return result, raw * calibrate.factor(before, after), raw


class Op:
    __slots__ = ("id", "workload", "calibrated", "raw", "factor", "error",
                 "traced")

    def __init__(self, op_id, workload, traced):
        self.id = op_id
        self.workload = workload
        self.traced = traced
        self.error = None


def run_op(workload, spec, tracer, op_id):
    """Prepare, time, and check one op."""
    op = Op(op_id, workload.name, tracer.enabled)
    state = workload.prepare(spec)
    if tracer.enabled:
        tracer.begin_op(op_id)
    # every op starts with empty GC generations, so the collections that
    # land in it are those its own allocations trigger
    gc.collect()
    before = calibrate.kernel_slice()
    start = time.perf_counter()
    try:
        out = tracer.call("bench.op", workload.op, state, tracer)
    except Exception as exc:  # a fault of the program is a failed op
        out, op.error = None, type(exc).__name__
    op.raw = time.perf_counter() - start
    if tracer.enabled and op.error is None:
        workload.extras(state, out, tracer)
    after = calibrate.kernel_slice()
    op.factor = calibrate.factor(before, after)
    op.calibrated = op.raw * op.factor
    if op.error is None:
        try:
            workload.check(state, out, tracer)
        except CheckFailed as exc:
            op.error = f"check: {exc}"
    return op


def set_up(name, seed, tracer):
    """Import srtlab, generate the inputs and warm up; timed as setup."""
    def once():
        lab = Lab()
        workload = WORKLOADS[name](lab, seed)
        workload.warm_up(tracer)
        return workload

    gc.collect()  # not inside the timed region: the last import's garbage
    return _calibrated(once)


def measure(workload, seconds, tracers):
    """Whole rounds until time is up; tracers alternate round by round."""
    start = time.perf_counter()
    ops = []
    while True:
        tracer = tracers[len(ops) // len(workload.round) % len(tracers)]
        for spec in workload.round:
            ops.append(run_op(workload, spec, tracer, len(ops)))
        elapsed = time.perf_counter() - start
        done = sum(op.error is None for op in ops)
        if elapsed >= HARD_STOP_S or (
                elapsed >= seconds and (done >= MIN_OPS or done == 0)):
            return ops


def _expected(workload, op_index, op):
    """True if the op succeeded or failed exactly as known today."""
    spec = workload.round[op_index % len(workload.round)]
    return op.error is None or op.error == spec_fails(spec)


def end_to_end(ops, setups):
    latencies = [op.calibrated for op in ops if op.error is None]
    raw = [op.raw for op in ops if op.error is None]
    total = sum(op.calibrated for op in ops)
    metrics = {
        "ops_per_s": (len(latencies) / total, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
    }
    reference = {
        "completed": len(latencies),
        "raw_ops_per_s": len(latencies) / sum(op.raw for op in ops),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "raw_setup_s": statistics.median(s[1] for s in setups),
        "setup_s_all": [s[0] for s in setups],
        "kernel_factor_range": [min(op.factor for op in ops),
                                max(op.factor for op in ops)],
    }
    return metrics, reference


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

def _rate(agg, count, span):
    return agg["counts"].get(count, 0) / agg["time"][span]


def _per_call_ms(agg, span):
    return agg["time"][span] / agg["calls"][span] * 1e3


#: Per-layer metric -> (workload it is measured on, unit, formula).
PER_LAYER = {
    "flowchart.run.univ.steps_per_s":
        ("interp", "1/s",
         lambda a: _rate(a, "univ_steps", "flowchart.run.univ")),
    "flowchart.run.direct.steps_per_s":
        ("interp", "1/s",
         lambda a: _rate(a, "direct_steps", "flowchart.run.direct")),
    "sexpr.equal.atom_ns":
        ("interp", "ns", lambda a: 1e9 / _rate(a, "atom_compares",
                                                "sexpr.equal.atoms")),
    "flowchart.run.reflective.steps_per_s":
        ("reflective", "1/s",
         lambda a: _rate(a, "reflective_steps", "flowchart.run.reflective")),
    "flowchart.decode.nodes_per_s":
        ("reflective", "1/s",
         lambda a: a["counts"]["decode_nodes"] / a["counts"]["decode_s"]),
    "flowchart.compile_us":
        ("reflective", "us",
         lambda a: a["counts"]["compile_s"] / a["counts"]["compiles"] * 1e6),
    "flowchart.univ.recode_share":
        ("reflective", "ratio",
         lambda a: a["counts"]["recode_s"] / a["time"]["bench.op"]),
    "flowchart.encode.nodes_per_s":
        ("construct", "1/s", lambda a: _rate(a, "encode_nodes",
                                        "flowchart.encode.fresh")),
    "sexpr.parse.chars_per_s":
        ("construct", "1/s", lambda a: _rate(a, "chars", "sexpr.parse")),
    "sexpr.print.chars_per_s":
        ("construct", "1/s", lambda a: _rate(a, "chars", "sexpr.print")),
    "sexpr.measure.nodes_per_s":
        ("construct", "1/s", lambda a: _rate(a, "nodes", "sexpr.measure")),
    "srt.kleene_fixpoint_ms":
        ("construct", "ms", lambda a: _per_call_ms(a, "srt.kleene_fixpoint")),
    "srt.moss_fixpoint_ms":
        ("construct", "ms", lambda a: _per_call_ms(a, "srt.moss_fixpoint")),
    "specializer.eliminate_dead_code_ms":
        ("construct", "ms",
         lambda a: _per_call_ms(a, "specializer.eliminate_dead_code")),
    "selfint.futamura_ms":
        ("construct", "ms", lambda a: _per_call_ms(a, "selfint.futamura")),
    "trm.run.standard.steps_per_s":
        ("trm", "1/s",
         lambda a: _rate(a, "standard_steps", "trm.run.standard")),
    "trm.run.fast_assign.steps_per_s":
        ("trm", "1/s",
         lambda a: _rate(a, "fast_steps", "trm.run.fast_assign")),
    "trm.parse.chars_per_s":
        ("trm", "1/s", lambda a: _rate(a, "trm_chars", "trm.parse")),
    "trm.moss_fixpoint_ms":
        ("trm", "ms", lambda a: _per_call_ms(a, "trm.moss_fixpoint")),
    "trm.kleene_fixpoint_ms":
        ("trm", "ms", lambda a: _per_call_ms(a, "trm.kleene_fixpoint")),
}


def aggregate(ops, tracer):
    """Per workload: calibrated span time and calls by name, counts, and
    per-op self time by layer, over the traced ops that completed."""
    by_id = {op.id: op for op in ops if op.traced and op.error is None}
    own = self_times(tracer.spans)
    root = roots(tracer.spans)
    names = {s[1]: s[3] for s in tracer.spans}
    aggs = {}
    op_self = {}
    for s in tracer.spans:
        op = by_id.get(s[0])
        if op is None:
            continue
        agg = aggs.setdefault(op.workload, {"time": {}, "calls": {},
                                            "counts": {}, "self": {},
                                            "ops": 0})
        seconds = (s[5] - s[4]) * op.factor
        agg["time"][s[3]] = agg["time"].get(s[3], 0.0) + seconds
        agg["calls"][s[3]] = agg["calls"].get(s[3], 0) + 1
        if names[root[s[1]]] == "bench.op":
            layer = s[3].split(".")[0]
            mine = own[s[1]] * op.factor
            agg["self"][layer] = agg["self"].get(layer, 0.0) + mine
            per_op = op_self.setdefault(op.id, [0.0, 0.0])
            if s[2] is None:
                per_op[1] = seconds
            else:
                per_op[0] += mine
    for op in by_id.values():
        agg = aggs[op.workload]
        agg["ops"] += 1
        for key, value in tracer.counts[op.id].items():
            if key.endswith("_s"):  # raw seconds: calibrate
                value *= op.factor
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    # the layers' self times of an op never add up to more than the op
    consistent = all(inner <= whole * (1 + 1e-9)
                     for inner, whole in op_self.values())
    return aggs, consistent


def per_layer(ops, tracer, workload_name, setup_builds, overhead):
    aggs, consistent = aggregate(ops, tracer)
    metrics = {}
    for name, (source, unit, formula) in PER_LAYER.items():
        metrics[name] = (formula(aggs[source]), unit)
    mine = aggs[workload_name]
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = (
            mine["self"].get(layer, 0.0) / mine["ops"] * 1e3, "ms")
    metrics["selfint.univ_program_build_ms"] = (
        statistics.median(setup_builds) * 1e3, "ms")
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    return metrics, consistent


def _univ_builds(tracer, factor, first_span):
    """Calibrated time of the first univ_program call after first_span."""
    for s in tracer.spans[first_span:]:
        if s[3] == "selfint.univ_program":
            return [(s[5] - s[4]) * factor]
    return []


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("interp", "reflective", "construct", "trm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "srtlab", "__init__.py")):
        print(f"bench: no srtlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    oracle.self_check()

    traced = bool(args.trace)
    tracer = Tracer() if traced else NoTracer()
    setups, builds = [], []
    for _ in range(SETUP_REPEATS):
        first_span = len(tracer.spans) if traced else 0
        workload, cal, raw = set_up(args.workload, args.seed, tracer)
        setups.append((cal, raw))
        if traced:
            builds += _univ_builds(tracer, cal / raw, first_span)
    gc.collect()
    gc.freeze()

    tracers = [NoTracer(), tracer] if traced else [tracer]
    ops = measure(workload, args.seconds, tracers)
    attempted = len(ops)
    if all(op.error is not None for op in ops):
        print(f"bench: every op failed: {ops[0].error}", file=sys.stderr)
        return 1
    expected = all(_expected(workload, i, op) for i, op in enumerate(ops))
    failed = sum(op.error is not None for op in ops)
    errors = sorted({op.error for op in ops if op.error is not None})

    if traced:
        plain = [op for op in ops if not op.traced]
        overhead = 1 - (end_to_end([op for op in ops if op.traced], setups)[0]
                        ["ops_per_s"][0]
                        / end_to_end(plain, setups)[0]["ops_per_s"][0])
        # one traced round of every other workload, for the whole table
        extra = []
        for name in ("interp", "reflective", "construct", "trm"):
            if name == args.workload:
                continue
            first_span = len(tracer.spans)
            other, cal, raw = set_up(name, args.seed, tracer)
            builds += _univ_builds(tracer, cal / raw, first_span)
            for i, spec in enumerate(other.round):
                op = run_op(other, spec, tracer, attempted + len(extra))
                extra.append(op)
                expected = expected and _expected(other, i, op)
        metrics, consistent = per_layer(ops + extra, tracer, args.workload,
                                        builds, overhead)
        expected = expected and consistent
        reference = {"trace_overhead": overhead}
    else:
        metrics, reference = end_to_end(ops, setups)

    result = {
        "correct": expected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    reference["errors"] = errors
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"result": result, "reference": reference}, f, indent=1)
    if traced:
        with open(stem + ".spans.json", "w") as f:
            json.dump({"spans": tracer.spans,
                       "ops": {op.id: [op.workload, op.factor, op.error]
                               for op in ops + extra}}, f)
    print(json.dumps({"reference": reference}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
