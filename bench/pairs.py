"""Alternating benchmark pairs between two source trees, summarised per metric.

    python3 bench/pairs.py --parent ../parent --change . --workload lt-exact-m0 \
        --pairs 10 --first-seed 601 --seconds 50

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each tree, on the pair's own seed (first-seed, first-seed + 1, ...).
Even pairs run the parent first and odd pairs the change first. The trees
are two checkouts of the repository, for example the parent commit and the
working tree; each runs its own `perfbench/`.

Before the first pair it prints each tree's `git rev-parse HEAD` and whether
the tree's tracked files differ from it, or that the tree is not a git
checkout, so the output names what was compared.

A run that reports `correct: false` ends the script with exit code 1,
naming the run: no verdict is given over it. Otherwise it prints each side's
failed ops against attempted, summed over its runs, and for every end-to-end
metric that BENCHMARK.json names (read from the change tree, never written)
each pair's two values, each side's median and quartiles, how many pairs the
change won (ties count for neither), the relative change of the medians
against the metric's bound, whether the pairs show a gain (the change
wins at least nine tenths of the pairs, the medians differ by more than the
parent's interquartile range, and no larger share of the change's ops
failed), and a regression verdict: "no regression" when the change's median
is no worse than the parent's by more than the bound, relative to the
parent's median, and "regression" when it is worse by more; but
"unresolved" when the parent's own interquartile range, relative to its
median, is wider than the bound, unless every run of the change beats every
run of the parent.
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


def describe_tree(tree: str) -> str:
    """The tree's `git rev-parse HEAD` and whether its tracked files differ
    from HEAD, or that it is not a git checkout (a directory that is not the
    top level of a work tree, such as a `git archive` copy, is not one)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:  # no such directory, or no git to ask
        return "not a git checkout"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(tree):
        return "not a git checkout"
    changed = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                             stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    return f"HEAD {lines[1]}, tracked files {'differ from HEAD' if changed else 'as in HEAD'}"


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line and the `env:` line of one `perfbench/run.py --trace 0`
    run in `tree`, each as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env


class IncorrectRun(Exception):
    """A run whose result line reports `correct: false`."""


def checked_run(tree: str, workload: str, seed: int, seconds: float, label: str) -> tuple[dict, dict]:
    """`run_once`, with a progress line naming the run by `label`: its
    correctness and its failed ops against attempted. An IncorrectRun if the
    run reports `correct: false`."""
    result, env = run_once(tree, workload, seed, seconds)
    print(f"{label}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    if not result["correct"]:
        raise IncorrectRun(f"{label} is not correct")
    return result, env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def failed_ops(runs: list[dict]) -> tuple[int, int]:
    """The failed and the attempted ops, summed over the result lines of runs."""
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def fails_more(parent: tuple[int, int], change: tuple[int, int]) -> bool:
    """Whether the change's share of failed ops, a `failed_ops` pair, is above the parent's."""
    return change[0] * parent[1] > parent[0] * change[1]


def summarize(metric: dict, parent: list[float], change: list[float], more_failures: bool = False) -> dict:
    """One metric over pairs of runs: each side's quartiles, the change's wins,
    the relative change of the medians, whether the pairs show a gain, which
    they never do when `more_failures`, and the regression verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])  # positive when the change's median is better
    relative = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
    spread = (p_q[2] - p_q[0]) / abs(p_q[1]) if p_q[1] else 0.0  # the parent's IQR over its median
    if spread > metric["bound"] and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "regression" if sign * relative > metric["bound"] else "no regression"
    return {
        "name": metric["name"],
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "pairs": len(parent),
        "relative": relative,
        "gain": wins >= 0.9 * len(parent) and gap > p_q[2] - p_q[0] and not more_failures,
        "spread": spread,
        "verdict": verdict,
    }


def report(metric: dict, seeds: list[int], parent: list[float], change: list[float],
           more_failures: bool = False) -> str:
    """The lines printed for one metric."""
    s = summarize(metric, parent, change, more_failures)
    lines = [f"{metric['name']} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})"]
    lines += [f"  seed {seed}: {p:.6g} -> {c:.6g}" for seed, p, c in zip(seeds, parent, change)]
    (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
    lines.append(f"  median {pm:.6g} (quartiles {p1:.6g}-{p3:.6g}) -> {cm:.6g} ({c1:.6g}-{c3:.6g}), "
                 f"{s['relative']:+.2%}")
    lines.append(f"  change better in {s['wins']} of {s['pairs']} pairs; gap beyond the parent's IQR "
                 f"{p3 - p1:.6g}{', more failed ops' if more_failures else ''}: {'yes' if s['gain'] else 'no'}")
    lines.append(f"  worse by more than the bound {metric['bound']:.0%}, the parent's IQR {s['spread']:.2%} of its "
                 f"median: {s['verdict']}")
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
    for side in runs:
        print(f"{side} tree {getattr(args, side)}: {describe_tree(getattr(args, side))}", flush=True)
    try:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, _ = checked_run(getattr(args, side), args.workload, seed, args.seconds,
                                        f"pair {i + 1} seed {seed} {side}")
                runs[side].append(result)
    except IncorrectRun as exc:
        print(f"error: {exc}; no verdict is given", file=sys.stderr)
        return 1
    failed = {side: failed_ops(runs[side]) for side in runs}
    print(f"failed ops: parent {failed['parent'][0]}/{failed['parent'][1]}, "
          f"change {failed['change'][0]}/{failed['change'][1]}")
    more_failures = fails_more(failed["parent"], failed["change"])
    for metric in metrics:
        name = metric["name"]
        print(report(metric, seeds, [r["metrics"][name]["value"] for r in runs["parent"]],
                     [r["metrics"][name]["value"] for r in runs["change"]], more_failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
