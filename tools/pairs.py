"""Alternating parent/change runs of the benchmark, and their summary.

    python3 tools/pairs.py --parent DIR --change DIR --workload W --pairs N --seed S

Each DIR is a checkout of the repository.  Pair i runs
``DIR/bench/run.py --workload W --seed S --trace 0`` once on each side,
at the benchmark's own run length: the parent first in even pairs and the
change first in odd ones, so that a drift of the machine over the runs
falls on both sides alike.

For each end-to-end metric that the change's ``BENCHMARK.json`` declares,
it prints the median of each side, the parent's quartiles, the
change/parent ratio of the medians, the pairs the change won and whether a
gain clears the claim rule: a win in at least 9 of 10 pairs, a gap
between the medians larger than the parent's interquartile distance, and
no more failed operations than the parent's.  The last line of standard
output is the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def order(pair):
    """The sides in the order pair ``pair`` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(root, workload, seed):
    """The JSON result line of one untraced benchmark run in checkout ``root``."""
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(root):
    """{metric: "lower" or "higher"} of the end-to-end metrics ``root`` declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def quartiles(values):
    """(Q1, Q3) of ``values``, inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better):
    """The summary of (parent result, change result) pairs, each a JSON
    result of ``bench/run.py``, for the metrics of ``better``."""
    n = len(pairs)
    failed = {side: sum(pair[k]["failed"] for pair in pairs) for k, side in enumerate(SIDES)}
    correct = all(r["correct"] for pair in pairs for r in pair)
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, q3 = quartiles(parent)
        mp, mc = statistics.median(parent), statistics.median(change)
        wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
        metrics[name] = {
            "parent_median": mp, "change_median": mc, "parent_q1": q1, "parent_q3": q3,
            "ratio": mc / mp if mp else None, "wins": wins,
            "gain_clears": (10 * wins >= 9 * n and sign * (mp - mc) > q3 - q1
                            and failed["change"] <= failed["parent"]),
        }
    return {"pairs": n, "correct": correct, "failed": failed, "metrics": metrics}


def render(summary):
    """The summary as a table, one line per metric."""
    lines = [f"{summary['pairs']} pairs, correct {summary['correct']}, failed "
             f"{summary['failed']['parent']} (parent) / {summary['failed']['change']} (change)",
             f"{'metric':<12} {'parent':>10} {'[q1, q3]':>22} {'change':>10} {'ratio':>7} "
             f"{'wins':>5}  clears"]
    for name, m in summary["metrics"].items():
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        lines.append(f"{name:<12} {m['parent_median']:>10.4g} "
                     f"[{m['parent_q1']:>9.4g}, {m['parent_q3']:>9.4g}] {m['change_median']:>10.4g} "
                     f"{ratio:>7} {m['wins']:>2}/{summary['pairs']:<2}  {m['gain_clears']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent, "change": args.change}
    better = declared(args.change)
    pairs = []
    for k in range(args.pairs):
        result = {side: run_once(roots[side], args.workload, args.seed)
                  for side in order(k)}
        pairs.append((result["parent"], result["change"]))
        for side in order(k):
            values = " ".join(f"{name}={result[side]['metrics'][name]['value']:.4g}" for name in better)
            print(f"pair {k + 1} {side:<6} {values}", flush=True)
    summary = summarize(pairs, better)
    print(render(summary))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}))


if __name__ == "__main__":
    main()
