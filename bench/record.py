"""Record the end-to-end benchmark figures and the environment in BENCH_<pr>.json.

    python3 bench/record.py --pr <n> --repeats 3 --seconds 50

Runs `perfbench/run.py --trace 0` in this checkout on each of lt-default,
lt-exact-m0 and lt-scale, once on each of --repeats fixed seeds (1, 2, ...),
with `pairs.py`'s runner, and writes BENCH_<pr>.json at the checkout's root.
For each workload it records every end-to-end metric of BENCHMARK.json the
runs report, as each run's value with their median and quartiles, and the
run count and the failed ops against those attempted. It also records the
environment of run.py's `env:` line (cores, CPU, Python, numpy, scipy,
BLAS and its thread count) and the git commit it names, or null when the
checkout's tracked files differ from that commit, since the figures then
come from no commit. A run that reports `correct: false`, or runs whose
environments differ, end the script with exit code 1 and write no file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from pairs import IncorrectRun, checked_run, end_to_end_metrics, failed_ops, quartiles

WORKLOADS = ("lt-default", "lt-exact-m0", "lt-scale")
FIRST_SEED = 1  # fixed, so that the records of different changes run the same seeds
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize_workload(metrics: list[dict], runs: list[dict]) -> dict:
    """One workload's runs, the result lines of run.py: the run count, the
    failed and attempted ops, and each end-to-end metric that every run
    reports, with its values, median and quartiles."""
    failed, attempted = failed_ops(runs)
    summary = {"runs": len(runs), "failed": failed, "attempted": attempted, "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        if all(name in r["metrics"] for r in runs):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            summary["metrics"][name] = {"unit": metric["unit"], "better": metric["better"], "median": median,
                                        "q1": q1, "q3": q3, "values": values}
    return summary


def environment(envs: list[dict]) -> tuple[dict, str]:
    """The environment the `env:` lines share, without the run's workload,
    seed and commit, and the commit; a ValueError if the runs' differ."""
    shared = [{k: v for k, v in env.items() if k not in ("workload", "seed")} for env in envs]
    if any(env != shared[0] for env in shared):
        raise ValueError("the runs report different environments")
    env = dict(shared[0])
    return env, env.pop("git_commit", "unknown")


def uncommitted(tree: str) -> bool:
    """Whether tracked files in `tree` differ from its git commit (False
    outside a git checkout or without git)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() != ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the file name")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics(ROOT)
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.repeats))
    results, envs = {}, []
    try:
        for workload in WORKLOADS:
            results[workload] = []
            for seed in seeds:
                result, env = checked_run(ROOT, workload, seed, args.seconds, f"{workload} seed {seed}")
                results[workload].append(result)
                envs.append(env)
        env, commit = environment(envs)
    except (IncorrectRun, ValueError) as exc:
        print(f"error: {exc}; nothing is recorded", file=sys.stderr)
        return 1
    record = {"pr": args.pr, "git_commit": None if uncommitted(ROOT) else commit,
              "seconds": args.seconds, "seeds": seeds, "env": env,
              "workloads": {w: summarize_workload(metrics, runs) for w, runs in results.items()}}
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
