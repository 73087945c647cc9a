"""Compare two trees on one benchmark workload, in pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload construct \\
        --seconds 24 --seeds 7161-7170

Runs each tree's own ``bench/run.py`` in that tree, once per seed on
each side: the parent runs first in the first pair, the change in the
second, and so on.  For each end-to-end metric of the change's
``BENCHMARK.json`` it prints each side's median and quartiles, the
ratio of the medians, the pairs the change wins (a tie counts for
neither side), and whether a gain holds: the change wins at least nine
tenths of the pairs, and the medians differ in its favour by more than
the parent's interquartile range.  It stops at a run that is not
correct or that has a failed op.  It writes no file; each run leaves
what ``bench/run.py`` leaves.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def bench(tree, workload, seed, seconds):
    """The end-to-end metrics of one run of ``tree``'s benchmark."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1]) if done.stdout else {}
    if done.returncode or not result.get("correct") or result.get("failed"):
        sys.exit(f"{tree}, seed {seed}: {done.stderr.strip() or result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def seed_list(text):
    """``7161-7170`` or ``1,5,9``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args()
    spec = json.loads((pathlib.Path(args.change) / "BENCHMARK.json").read_text())
    runs = {args.parent: [], args.change: []}
    for i, seed in enumerate(args.seeds):
        order = (args.parent, args.change)[::1 if i % 2 == 0 else -1]
        for tree in order:
            runs[tree].append(bench(tree, args.workload, seed, args.seconds))
    pairs = len(args.seeds)
    print(f"{args.workload}, {pairs} pairs of {args.seconds:g} s runs, "
          "median [quartiles]")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [r[name] for r in runs[args.parent]]
        new = [r[name] for r in runs[args.change]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q_old, q_new = quartiles(old), quartiles(new)
        gain = wins >= 0.9 * pairs and sign * (q_new[1] - q_old[1]) > q_old[2] - q_old[0]
        print(f"{name:12} parent {q_old[1]:9.4g} [{q_old[0]:.4g}, {q_old[2]:.4g}]"
              f"  change {q_new[1]:9.4g} [{q_new[0]:.4g}, {q_new[2]:.4g}]"
              f"  change/parent {q_new[1] / q_old[1]:.3f}"
              f"  wins {wins}/{pairs}  gain {'yes' if gain else 'no'}")


if __name__ == "__main__":
    main()
