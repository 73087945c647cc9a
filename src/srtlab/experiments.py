"""Experiment harness: machine-readable reports of the measurements.

Each experiment returns a ``Report`` whose JSON serialisation is
byte-identical across runs for a fixed seed.  Verdicts reference the
acceptance-check ids (AC1..AC12) and carry the measured values, so the
report is checkable without re-running anything.
"""

import json
import math

from .flowchart import decode, encode, run
from .selfint import measure_overhead
from .sexpr import from_unary, measure, parse, to_unary
from .srt import (
    DEMO_NAMES, demo_program, kleene_fixpoint, kleene_intermediate,
    moss_fixpoint,
)
from . import trm as t

__all__ = [
    "Report", "experiment_factorial_curve", "experiment_overhead",
    "experiment_trm_compare", "experiment_sizes", "EXPERIMENTS",
]

DEFAULT_FUEL = 10**7


class Report:
    """Experiment name, parameters, datapoints, and claim verdicts."""

    def __init__(self, experiment, seed, parameters):
        self.experiment = experiment
        self.seed = seed
        self.parameters = parameters
        self.datapoints = []
        self.verdicts = []

    def point(self, label, **fields):
        entry = {"label": label}
        entry.update(fields)
        self.datapoints.append(entry)

    def verdict(self, claim, status, measured):
        assert status in ("pass", "fail", "report-only")
        self.verdicts.append(
            {"claim": claim, "status": status, "measured": measured})

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "parameters": self.parameters,
            "datapoints": self.datapoints,
            "verdicts": self.verdicts,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def failed_claims(self):
        return [v["claim"] for v in self.verdicts if v["status"] == "fail"]


def _affine_fit(points):
    """Least-squares a + b*n; returns (a, b, max residual)."""
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    b = (n * sxy - sx * sy) / denom if denom else 0.0
    a = (sy - b * sx) / n
    resid = max(abs(y - (a + b * x)) for x, y in points)
    return a, b, resid


def _curve(report, demo, n_max, fuel, mode, skip_after=None):
    """Run the Kleene fixpoint of ``demo`` on unary n = 1..n_max and
    record each point; return the steps of the halted runs by n.

    With ``skip_after``, points after that many exhausted runs in a row
    are recorded as skipped, not run.
    """
    program = kleene_fixpoint(demo_program(demo))
    steps = {}
    streak = 0
    for n in range(1, n_max + 1):
        if skip_after is not None and streak >= skip_after:
            report.point(demo, n=n, steps=None,
                         status="skipped_after_exhaustion")
            continue
        r = run(program, [to_unary(n)], fuel, mode)
        if r.halted:
            streak = 0
            steps[n] = r.steps
            report.point(demo, n=n, steps=r.steps, status=r.status,
                         value=from_unary(r.value))
        else:
            streak += 1
            report.point(demo, n=n, steps=r.steps, status=r.status)
    return steps


def experiment_factorial_curve(n_max=6, fuel=DEFAULT_FUEL, seed=0):
    """Step curves of the two factorial fixpoints.

    The interpreter-inlined variant multiplies its cost by the full
    interpretation overhead at every recursion level, so its curve
    leaves any practical fuel bound after a handful of points; the
    report records the exhaustions.  The reflective variant recurses
    through the native univ call instead.
    """
    report = Report("factorial-curve", seed,
                    {"n_max": n_max, "fuel": fuel})
    univ_n_max = min(n_max, 7)
    univ_steps = _curve(report, "factorial_univ", univ_n_max, fuel, "plain",
                        skip_after=2)
    refl_points = list(_curve(report, "factorial_reflective", n_max, fuel,
                              "reflective").items())

    # growth-class verdicts
    ratios = {n: univ_steps[n] / univ_steps[n - 1]
              for n in univ_steps if n - 1 in univ_steps and n >= 3}
    if not ratios:
        report.verdict("AC8-univ-superlinear", "report-only",
                       {"note": "too few halted points for ratios",
                        "halted_points": sorted(univ_steps)})
    else:
        grow = all(r >= 1.5 for r in ratios.values())
        nondec = all(ratios[n] >= ratios[n - 1] - 1e-9
                     for n in ratios if n - 1 in ratios)
        missing = [n for n in range(3, univ_n_max + 1) if n not in ratios]
        status = "pass" if (grow and nondec and not missing) else (
            "report-only" if grow and nondec else "fail")
        report.verdict("AC8-univ-superlinear", status,
                       {"ratios": {str(k): round(v, 2) for k, v in ratios.items()},
                        "missing_points": missing})

    if len(refl_points) >= 3:
        a, b, resid = _affine_fit(refl_points)
        lo = min(y for _, y in refl_points)
        hi = max(y for _, y in refl_points)
        rel = resid / (hi - lo) if hi > lo else 0.0
        report.verdict("AC8-reflective-linear",
                       "pass" if rel <= 0.10 else "fail",
                       {"fit": [round(a, 1), round(b, 1)],
                        "max_residual_fraction": round(rel, 4),
                        "points": len(refl_points)})
    else:
        report.verdict("AC8-reflective-linear", "report-only",
                       {"note": "too few halted points"})

    values_ok = all(p["value"] == math.factorial(p["n"])
                    for p in report.datapoints if "value" in p)
    report.verdict("AC8-values", "pass" if values_ok else "fail",
                   {"checked_against": "n!"})
    return report


_OVERHEAD_SIZES = (1, 50, 5000)
#: The overhead programs in concrete syntax, decoded afresh on each run.
_OVERHEAD_PROGRAMS = {
    "identity": "((x) (:= out x) out)",
    "length": "((x) (; (:= t x) (; (:= out (QUOTE ())) (while t (; "
              "(:= out (cons (QUOTE 1) out)) (:= t (tl t)))))) out)",
    "reverse": "((x) (; (:= t x) (; (:= out (QUOTE ())) (while t (; "
               "(:= out (cons (hd t) out)) (:= t (tl t)))))) out)",
}


def experiment_overhead(fuel=DEFAULT_FUEL, seed=0):
    """Interpretation-overhead stability for three programs."""
    report = Report("overhead", seed,
                    {"fuel": fuel, "input_lengths": list(_OVERHEAD_SIZES)})
    inputs = [to_unary(n) for n in _OVERHEAD_SIZES]
    monotone = True
    for label, text in _OVERHEAD_PROGRAMS.items():
        rows, verdict = measure_overhead(decode(parse(text)), inputs, fuel)
        for size, direct, interp, ratio in rows:
            report.point(label, input_tree_size=size, time_p=direct,
                         time_univ=interp, ratio=round(ratio, 3))
            if interp < direct:
                monotone = False
        stable = verdict.startswith("program-dependent")
        report.verdict(f"AC6-class2-{label}", "pass" if stable else "fail",
                       {"verdict": verdict})
    report.verdict("AC6-interpretation-not-free",
                   "pass" if monotone else "fail",
                   {"time_univ >= time_p": monotone})
    return report


_TRM_BASES = ("proj1", "proj2", "concat")


def _trm_base(name):
    if name == "proj1":
        return t.trm_parse("")
    if name == "proj2":
        return t.trm_compose(t.trm_erase(1), t.trm_move(2, 1))
    if name == "concat":
        return t.trm_move(2, 1)
    raise ValueError(name)


#: The input of every trm-compare run.
_TRM_DATUM = "1#"


def experiment_trm_compare(fuel=DEFAULT_FUEL, seed=0):
    """Moss vs Kleene on the register machine, and the fast-assign variant.

    The headline verdicts are taken on the smallest base program; the
    other bases are reported as datapoints, each with the status of its
    standard and its fast_assign run.  The fixpoints build whatever the
    fuel; it bounds the runs of them, and a verdict that reads a run
    that did not halt is report-only.
    """
    report = Report("trm-compare", seed, {"fuel": fuel, "datum": _TRM_DATUM,
                                          "bases": list(_TRM_BASES)})
    headline = {}
    for name in _TRM_BASES:
        base = _trm_base(name)
        for label, fix in (("moss", t.trm_moss_fixpoint),
                           ("kleene", t.trm_kleene_fixpoint)):
            pstar = fix(base)
            r = t.trm_run(pstar, [_TRM_DATUM], fuel,
                          boundary=t.setup_boundary(pstar, base))
            fast = t.trm_run(pstar, [_TRM_DATUM], fuel, variant="fast_assign")
            report.point(name, construction=label,
                         program_chars=len(pstar.raw), steps=r.steps,
                         status=r.status, setup_steps=r.setup_steps,
                         fast_steps=fast.steps, fast_status=fast.status)
            if name == "proj1":
                headline[label], headline[label + "_fast"] = r, fast

    def verdict(claim, runs, passes, measured):
        """A verdict on the proj1 runs named in ``runs``: report-only if
        one of them did not halt, as its figures are then not the run's."""
        stopped = [r for r in runs if headline[r].status != t.TrmResult.HALTED]
        if stopped:
            report.verdict(claim, "report-only",
                           {"note": "a run it reads did not halt",
                            "not_halted": stopped})
        else:
            report.verdict(claim, "pass" if passes() else "fail", measured)

    rm, rk = headline["moss"], headline["kleene"]
    rm_fast, rk_fast = headline["moss_fast"], headline["kleene_fast"]
    ratio = rk.steps / rm.steps
    speedup = rm.steps / rm_fast.steps
    same_out = rm_fast.output == rm.output and rk_fast.output == rk.output
    verdict("AC10-moss-setup-window", ["moss"],
            lambda: 5e3 <= rm.setup_steps <= 5e5,
            {"setup_steps": rm.setup_steps, "window": [5000, 500000]})
    verdict("AC10-kleene-moss-ratio", ["kleene", "moss"],
            lambda: 1.2 <= ratio <= 4.0,
            {"ratio": round(ratio, 3), "window": [1.2, 4.0]})
    verdict("AC10-fast-assign", list(headline),
            lambda: speedup >= 1.3 and same_out,
            {"speedup": round(speedup, 2), "identical_output": same_out})
    return report


def experiment_sizes(fuel=DEFAULT_FUEL, seed=0):
    """Tree vs DAG size of the printed fixpoints, for every demo.

    It runs no program under ``fuel``: both constructions are total, so
    ``fuel``, kept for the signature every experiment shares, is unused.
    """
    report = Report("sizes", seed, {"demos": list(DEMO_NAMES)})
    strict = True
    deltas = []
    for name in DEMO_NAMES:
        base = demo_program(name)
        tilde = kleene_intermediate(base)
        tilde_dag = measure(encode(tilde))[1]
        for method in ("kleene", "moss"):
            pstar = (kleene_fixpoint(base) if method == "kleene"
                     else moss_fixpoint(base))
            enc = encode(pstar)
            ts, ds = measure(enc)
            strict = strict and ts > ds
            entry = {"method": method, "tree_size": ts, "dag_size": ds}
            if method == "kleene":
                entry["dag_growth_over_intermediate"] = ds - tilde_dag
                deltas.append(ds - tilde_dag)
            report.point(name, **entry)
    report.verdict("AC12-sharing-strict",
                   "pass" if strict else "fail",
                   {"tree_size > dag_size for all": strict})
    report.verdict("AC12-sharing-additive",
                   "pass" if len(set(deltas)) == 1 else "fail",
                   {"dag growth over the intermediate program": sorted(set(deltas))})
    return report


EXPERIMENTS = {
    "factorial-curve": experiment_factorial_curve,
    "overhead": experiment_overhead,
    "trm-compare": experiment_trm_compare,
    "sizes": experiment_sizes,
}
