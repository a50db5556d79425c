"""Alternating benchmark pairs between two source trees, summarised per metric.

    python3 bench/pairs.py --parent ../parent --change . --workload lt-exact-m0 \
        --pairs 10 --first-seed 601 --seconds 50

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each tree, on the pair's own seed (first-seed, first-seed + 1, ...).
Even pairs run the parent first and odd pairs the change first. The trees
are two checkouts of the repository, for example the parent commit and the
working tree; each runs its own `perfbench/`.

For every end-to-end metric that BENCHMARK.json names (read from the change
tree, never written), it prints each pair's two values, each side's median
and quartiles, how many pairs the change won (ties count for neither), the
relative change of the medians against the metric's bound, and whether the
pairs show a gain: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end_metrics(tree: str) -> list[dict]:
    """The end-to-end metrics BENCHMARK.json declares: name, unit, better, bound."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py --trace 0` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric over pairs of runs: each side's quartiles, the change's wins,
    the relative change of the medians and whether the pairs show a gain."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])  # positive when the change's median is better
    return {
        "name": metric["name"],
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "pairs": len(parent),
        "relative": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0,
        "gain": wins >= 0.9 * len(parent) and gap > p_q[2] - p_q[0],
    }


def report(metric: dict, seeds: list[int], parent: list[float], change: list[float]) -> str:
    """The lines printed for one metric."""
    s = summarize(metric, parent, change)
    lines = [f"{metric['name']} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})"]
    lines += [f"  seed {seed}: {p:.6g} -> {c:.6g}" for seed, p, c in zip(seeds, parent, change)]
    (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
    lines.append(f"  median {pm:.6g} (quartiles {p1:.6g}-{p3:.6g}) -> {cm:.6g} ({c1:.6g}-{c3:.6g}), "
                 f"{s['relative']:+.2%}")
    lines.append(f"  change better in {s['wins']} of {s['pairs']} pairs; gap beyond the parent's IQR "
                 f"{p3 - p1:.6g}: {'yes' if s['gain'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics(args.change)
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    for metric in metrics:
        name = metric["name"]
        print(report(metric, seeds, [r["metrics"][name]["value"] for r in runs["parent"]],
                     [r["metrics"][name]["value"] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
